"""Frame extension across gates, constant tensor fields, and the deformation
of a tensor field toward the thickened spine.

Frames are expressed per facet in that facet's own affine basis (the columns
vertex_j - vertex_0 of its flat embedding).  Crossing a gate re-expresses the
parent frame in the child basis as if the two facets were unfolded rigidly
across their shared ridge; in this piecewise-flat model the transition is a
single constant matrix per gate, i.e. transitions are constant along each
child's interval family.  A transition depends only on its gate step and the
metric, so the first ``extend_frame`` on a complex and metric computes every
step's transition, as a table the complex keeps beside its step table, from
edge lengths in one stacked pass, without embedding any facet (the lengths
come from ``Metric.lengths_at``, the gather the chart's heights use too,
and a metric that lacks an edge was refused with the chart's step table);
per tree it only gathers and chains them.  A frame is two (F, n, n) arrays
indexed by facet id, the chained frames and each facet's entry transition,
both the identity at the root, with no per-facet object.
``root_facet_clearance`` reads the root's heights off Gram determinants,
once per metric and root facet, and a linear field's vertex table is built
once per complex and component rows: no tree changes either, so each is
kept, with the metric and with the complex, for their lifetimes.

The hole region never stores per-line data: the distance-to-spine proxy is
the remaining arc length along each broken line, so a line of length s_total
splits at s0 = s_total - eps and only the rule is kept.  Fields are read in
stacks: ``TensorField.evaluate_lines`` takes the arcs of many lines and
returns the blocks stacked in request order, and ``evaluate_points`` takes
many points.  A line read finds the facets and barycentric rows of all its
arcs in one lookup (``chart.rows_on_lines``), building no point.  The
deformed field is one rule on many lines: one NumPy pass over all arcs
picks the eps-tail arcs (not arc < s0) and maps them, the white prefixes
keep the constant block K(c0) with no lookup, and K is read once at the
mapped arcs, whose line ends map to the line's end, so K(z) on the spine is
that rule's limit.  Its point rule reads points of the spine closure
through K in one batch and c0 as K(c0), and locates every other point and
reads them all with one call of the line rule.  A stacked result is
checked (shape, finiteness) once; K(c0) is checked at build and handed out
read-only.  A linear field stores its value at every vertex and combines
each row's vertex values by its barycentrics in index order
(``simplicial.ordered_matmul``), with one formula for a point and for a
batch, so the two agree bit for bit under any BLAS kernel.  A built-in
field's single point read is its point rule on that one point.

The seam report and the sample rows read the same sampled lines: the chart
keeps its last draw, keyed by count and seed, so a run that asks for both
with one count and seed walks each line once, and each reads the deformed
field once for all lines.  The report sets every line's probe arcs and read
rows in NumPy passes over flat arrays and keeps its probes as columns: the
``ContinuityProbe`` tuples are built on the first read of ``probes``, so a
run that only counts them (the CLI) builds none.  The sample rows are
written straight from the one stacked read.  A count below 1 raises, as a
check over no line would pass having checked nothing.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from . import chart as chart_module   # sample_interior looked up per call, so
                                      # a replaced one (tests count draws) is used
from .chart import BrokenLine, CellChart, ChartDomainError, PointRef, rows_on_lines
from .simplicial import (DEGENERACY_TOL, GEOMETRIC_TOL, InvalidComplexError, derived,
                         facet_rows, ordered_matmul)


class InvalidGeometryError(ValueError):
    """Metrically degenerate simplex or transition."""


class FieldDomainError(ValueError):
    """Tensor-field request outside its domain (size mismatch, off-line point)."""


class HoleDomainError(ValueError):
    """Requested hole radius does not leave a cell complement."""


# -- frame field ---------------------------------------------------------------

@dataclass
class FrameField:
    """The frame of every facet and the transition that carried it there, as
    two (F, n, n) arrays indexed by facet id.  ``matrices[f]`` holds facet
    f's frame vectors as columns in f's affine basis; ``transitions[f]``
    re-expresses the parent's frame in f's basis across f's entry gate
    (child basis <- parent), so ``matrices[f]`` is ``transitions[f]`` times
    the parent's frame, up to rounding.  Both are the identity at the root."""

    matrices: np.ndarray
    transitions: np.ndarray

    @property
    def dimension(self):
        return self.matrices.shape[1]


def extend_frame(chart: CellChart) -> FrameField:
    """Identity on the root; across each gate the parent frame re-expressed in
    the child's affine basis, constant along the child's interval family.

    A transition depends only on its gate step and the metric, so it is a
    frame row of a table the complex keeps like its step table
    (``chart.step_geometry``): the first frame on a complex and metric
    builds every row in one stacked pass (``_frame_rows``), and each tree
    gathers its own into its children's slots.  Per tree, the frames are
    chained by pointer doubling, one ``ordered_matmul`` per round.  The
    products associate differently from a chain in growth order, so a frame
    can differ from that chain's by rounding (3e-14 on the 12×12 torus);
    the transitions do not change.  The first gate in growth order with a
    flat parent, a child flat onto its gate or a singular frame raises
    InvalidGeometryError."""
    c = chart.complex
    n = c.dimension
    gates = chart.decomposition.gates
    transitions = np.broadcast_to(np.eye(n), (len(c.top_simplices), n, n)).copy()
    if not gates:   # a point has no step, so no frame row
        return FrameField(transitions.copy(), transitions)
    geometry, steps, keys = chart._geometry, chart._steps, chart._step_keys
    transition, flat_parent, flat_child = derived(
        c, "frame_rows", chart.metric, lambda: _frame_rows(geometry))
    children = steps[:, 2]
    transitions[children] = transition[keys]

    # chain by pointer doubling: frames[f] is the product of the transitions
    # on the gates from f up to facet up[f], and each round doubles that
    # stretch with one stacked product; ceil(log2(depth)) rounds reach the
    # root, and the gate count's bit length bounds the loop whatever the list
    frames = transitions.copy()
    up = np.arange(len(c.top_simplices))
    up[children] = steps[:, 0]
    for _ in range(len(gates).bit_length()):
        above = up[up]
        if (above == up).all():
            break
        frames = ordered_matmul(frames, frames[up])
        up = above
    flat_parent, flat_child = flat_parent[keys], flat_child[keys]
    singular = np.abs(np.linalg.det(frames[children])) <= DEGENERACY_TOL
    bad = np.flatnonzero(flat_parent | flat_child | singular)
    if bad.size:
        step = gates[bad[0]]
        if flat_parent[bad[0]]:
            raise InvalidGeometryError(
                f"simplex {tuple(c.top_simplices[step.parent])} is metrically degenerate")
        if flat_child[bad[0]]:
            raise InvalidGeometryError(
                f"child {tuple(c.top_simplices[step.child])} degenerates onto gate "
                f"{tuple(c.faces[n - 1][step.gate])}")
        raise InvalidGeometryError(f"frame transition into facet {step.child} is singular")
    return FrameField(frames, transitions)


def _frame_rows(geometry) -> tuple:
    """(transition, flat_parent, flat_child): the frame row of every step
    of the step table ``geometry``, one per directed ridge, from edge
    lengths in one stacked pass.  A row holds the step's transition
    (identity where the step is flat) and its flat-parent and flat-child
    flags.

    The gate's Gram matrix gives the feet and heights of the parent's far
    vertex w and the child's apex a over the gate; as the two lie on opposite
    sides, w in the child's barycentrics is foot_w + (h_w/h_a)·foot_a on the
    gate vertices and -h_w/h_a on a, and the parent's basis vectors follow.
    The gates' vertices, w, a, their squared edge lengths and the ring index
    maps are gathered with index arrays, with no per-gate Python step."""
    n = geometry.dimension
    # row 2*rid + side steps out of cofacet side of ridge rid into the other
    cofacets, slots = geometry.cofacets, geometry.slots
    pv, cv = geometry.tops[cofacets.ravel()], geometry.tops[cofacets[:, ::-1].ravel()]
    # local slot of the parent's far vertex w and of the child's apex a: the
    # one vertex each does not share with the other
    w_slot, a_slot = slots.ravel(), slots[:, ::-1].ravel()
    # per off-gate slot o: the gate's local slots, and each local slot's index
    # in the ring (gate..., off-gate vertex)
    local = np.arange(n + 1)[:, None]
    gate_slots = np.arange(n) + (np.arange(n) >= local)
    ring_index = np.arange(n + 1) - (np.arange(n + 1) > local)
    np.fill_diagonal(ring_index, n)
    rows = np.arange(len(w_slot))
    gate = pv[rows[:, None], gate_slots[w_slot]]
    ends = np.concatenate([gate, pv[rows, w_slot, None], cv[rows, a_slot, None]], axis=1)
    # squared lengths from each of (gate..., w, a) to each gate vertex
    sq = geometry.metric.lengths_at(ends[:, :, None], gate[:, None, :], squared=True)
    to0 = sq[:, :n, 0]
    gram = (to0[:, 1:, None] + to0[:, None, 1:] - sq[:, 1:n, 1:]) / 2.0
    off = sq[:, n:]
    rhs = (off[:, :, :1] + to0[:, None, 1:] - off[:, :, 1:]) / 2.0   # (m, 2, n-1)
    flat_gate = ~(np.linalg.det(gram) > 0.0)
    gram[flat_gate] = np.eye(n - 1)
    alpha = np.linalg.solve(gram, rhs.transpose(0, 2, 1)).transpose(0, 2, 1)
    h_sq = off[:, :, 0] - (alpha * rhs).sum(axis=2)
    foot = np.concatenate([1.0 - alpha.sum(axis=2, keepdims=True), alpha], axis=2)
    h_a = np.sqrt(np.maximum(h_sq[:, 1], 0.0))
    flat_parent = flat_gate | ~(h_sq[:, 0] > 0.0)
    flat_child = h_a <= DEGENERACY_TOL
    usable = ~(flat_parent | flat_child)
    ratio = np.sqrt(np.maximum(h_sq[:, 0], 0.0)) / np.where(usable, h_a, 1.0)

    # barycentrics in the child's ring (gate..., a) of the parent's ring (gate..., w)
    ring = np.zeros((len(rows), n + 1, n + 1))
    ring[:, :n, :n] = np.eye(n)
    ring[:, n, :n] = foot[:, 0] + ratio[:, None] * foot[:, 1]
    ring[:, n, n] = -ratio
    bary = ring[rows[:, None, None], ring_index[w_slot][:, :, None],
                ring_index[a_slot][:, None, :]]
    trans = (bary[:, 1:, 1:] - bary[:, :1, 1:]).transpose(0, 2, 1)
    trans[~usable] = np.eye(n)
    return trans, flat_parent, flat_child


# -- tensor fields -------------------------------------------------------------

@dataclass
class TensorField:
    """Type-(r,s) field: component function over point refs, in the frame basis.

    ``evaluate_lines`` reads the field at the arcs of many broken lines the
    caller already holds, without locating the points again, and returns
    the blocks stacked in request order; ``evaluate_along`` reads one line.
    A field with a ``line_rule`` makes the stack in one batch, checked
    (shape, finiteness) once; any other field falls back to ``evaluate`` at
    ``line.point_at_arc`` of each arc.  ``evaluate_points`` is the same for
    many points, through an optional ``point_rule``; a built-in field's
    ``components`` is its point rule on one point."""

    rank: tuple
    frame: FrameField
    components: object          # PointRef -> array with r+s axes of length n
    label: str = ""
    source: object = None       # original field, when this one was derived
    line_rule: object = None    # [(BrokenLine, arcs), ...] -> array (total arcs, n, ...), or None
    point_rule: object = None   # [PointRef, ...] -> array (points, n, ...), or None

    def __post_init__(self):
        self._shape = (self.frame.dimension,) * (self.rank[0] + self.rank[1])

    def evaluate(self, pt: PointRef) -> np.ndarray:
        return self._checked(self.components(pt), pt)

    def evaluate_points(self, pts) -> np.ndarray:
        """``evaluate`` of each point, one stack in order.  A non-finite row
        raises naming its own point."""
        shape = (len(pts),) + self._shape
        if not shape[0]:
            return np.empty(shape)
        if self.point_rule is None:
            return np.stack([self.evaluate(pt) for pt in pts])
        return self._checked_stack(self.point_rule(pts), shape, lambda k: pts[k])

    def evaluate_along(self, line: BrokenLine, arcs) -> np.ndarray:
        """The field at each arc s(y) of ``line``, stacked: row k equals
        ``evaluate(line.point_at_arc(arcs[k]))`` up to the rounding of locate."""
        return self.evaluate_lines([(line, arcs)])

    def evaluate_lines(self, requests) -> np.ndarray:
        """``evaluate_along`` of each (line, arcs) request, one stack in
        request order.  A non-finite row raises naming its own arc and line."""
        shape = (sum(len(arcs) for _, arcs in requests),) + self._shape
        if not shape[0]:
            return np.empty(shape)
        if self.line_rule is None:
            return np.stack([self.evaluate(line.point_at_arc(s))
                             for line, arcs in requests for s in arcs])

        def where(k):
            line, arc = [(line, arc) for line, arcs in requests for arc in arcs][k]
            return f"arc {arc} of the line to {line.endpoint}"
        return self._checked_stack(self.line_rule(requests), shape, where)

    def _checked(self, block, where) -> np.ndarray:
        arr = np.asarray(block, dtype=float)
        if arr.shape != self._shape:
            raise FieldDomainError(
                f"component block has shape {arr.shape}, expected {self._shape}")
        if not np.isfinite(arr).all():
            raise FieldDomainError(f"non-finite components at {where}")
        return arr

    @staticmethod
    def _checked_stack(stack, shape, where) -> np.ndarray:
        """The stack as a float array, checked once: its shape, then that
        every row is finite; ``where(k)`` names row k in the error."""
        arr = np.asarray(stack, dtype=float)
        if arr.shape != shape:
            raise FieldDomainError(f"component stack has shape {arr.shape}, expected {shape}")
        if not np.isfinite(arr).all():
            k = int(np.isfinite(arr.reshape(shape[0], -1)).all(axis=1).argmin())
            raise FieldDomainError(f"non-finite components at {where(k)}")
        return arr


def _one_point(point_rule):
    """The single-point ``components`` of a batched point rule: its stack on
    the one point, as an array even for a scalar field."""
    return lambda pt: point_rule((pt,))[0, ...]


def constant_tensor(components, frame: FrameField, rank) -> TensorField:
    """Field whose frame components equal the given block at every white point.

    The block is a read-only copy: every read hands out a view of it."""
    r, s = rank
    n = frame.dimension
    arr = np.array(components, dtype=float)
    if arr.size != n ** (r + s):
        raise FieldDomainError(
            f"{arr.size} components for a type {(r, s)} field over dimension {n}; "
            f"expected {n ** (r + s)}")
    arr = arr.reshape((n,) * (r + s))
    arr.setflags(write=False)

    def on_points(pts):
        return np.broadcast_to(arr, (len(pts),) + arr.shape)

    return TensorField((r, s), frame, _one_point(on_points), label="constant",
                       line_rule=lambda requests: np.broadcast_to(
                           arr, (sum(len(arcs) for _, arcs in requests),) + arr.shape),
                       point_rule=on_points)


# -- hole region ---------------------------------------------------------------

@dataclass(frozen=True)
class HoleRegion:
    """Radius-eps tail of every broken line under the arc-length proxy."""

    eps: float
    eps_max: float

    def split(self, line: BrokenLine):
        """(s0, s1) with s0 + s1 = line length exactly; the tail of length
        s1 = eps (up to one rounding of the complement) is the black part.
        A radius that rounds away against the line's length leaves it no
        tail (s1 = 0) and raises."""
        s0 = line.length - self.eps
        s1 = line.length - s0
        if not s1 > 0.0:
            raise HoleDomainError(f"hole radius {self.eps} rounds away against a line "
                                  f"of length {line.length}, leaving it no tail")
        return s0, s1

    def report(self):
        return {
            "eps": self.eps,
            "eps_max": self.eps_max,
            "distance_model": "remaining arc length along each broken line "
                              "(upper bound on the true distance to the spine)",
            "cell_condition": "every broken line keeps a white prefix of "
                              "positive length (s0 > 0)",
        }


def root_facet_clearance(chart: CellChart) -> float:
    """Distance from the root barycenter to its nearest facet; a lower bound
    for every broken line's total length.

    The barycenter sits at 1/(n+1) of each vertex's height over its opposite
    face, and that height is sqrt(G(root) / G(face)) for the Gram
    determinants G of ``Metric._gram_det`` (a single vertex has G = 1).  No
    tree changes it, so the metric keeps it per root facet, keyed by the
    facet's vertices; a degenerate root raises on every call."""
    metric = chart.metric
    verts = chart.complex.top_simplices[chart.root]
    def build():
        n = len(verts) - 1
        whole = metric._gram_det(verts)[0]
        faces = [metric._gram_det(verts[:o] + verts[o + 1:])[0] if n > 1 else 1.0
                 for o in range(n + 1)]
        if not min(whole, *faces) > 0.0:
            raise InvalidGeometryError(f"simplex {tuple(verts)} is metrically degenerate")
        return math.sqrt(whole / max(faces)) / (n + 1)
    return derived(metric, ("clearance", verts), None, build)


def black_hole_region(chart: CellChart, eps: float) -> HoleRegion:
    if not eps > 0.0:   # also rejects nan
        raise HoleDomainError(f"hole radius must be positive, got {eps}")
    eps_max = root_facet_clearance(chart)
    if eps >= eps_max:
        raise HoleDomainError(
            f"hole radius {eps} >= admissible maximum {eps_max}; the complement "
            "would not contain a neighborhood of the root barycenter")
    return HoleRegion(eps, eps_max)


# -- deformation ---------------------------------------------------------------

def deform_tensor(K: TensorField, chart: CellChart, hole: HoleRegion) -> TensorField:
    """Deformed field: the constant block K(c0) outside the hole, inside each
    line's tail the pullback of K along the affine reparametrization
    s(x) = (s(y) - s0)/s1 * (s0 + s1), and K(z) on the spine.

    One rule on many lines serves both paths.  One NumPy pass over all arcs
    picks the tail arcs (not arc < s0), which a white prefix's K(c0) leaves
    out, and maps them; K reads them in one ``evaluate_lines``.  K(z) is
    that rule at the line's end: s1 = L - s0 makes the end map to L, where
    the line's rows give z.  The point rule reads points on the spine
    closure through K in one batch and K(c0) at c0, which no single line
    owns; it locates every other point and reads them all with one call of
    the line rule.  K(c0) is read-only, and a read of c0 alone hands out a
    view of it."""
    base = np.array(K.evaluate(chart.c0), copy=True)
    base.setflags(write=False)

    def on_lines(requests):
        counts = [len(arcs) for _, arcs in requests]
        bounds = np.cumsum([0] + counts)
        arcs = np.fromiter(chain.from_iterable(arcs for _, arcs in requests), float, bounds[-1])
        s0, s1, length = np.repeat(
            np.array([hole.split(line) + (line.length,) for line, _ in requests]).T,
            counts, axis=1)
        tail = np.flatnonzero(~(arcs < s0))
        out = np.empty((len(arcs),) + base.shape)
        out[...] = base
        if len(tail):
            mapped = ((arcs - s0) / s1 * length)[tail].tolist()
            cuts = np.searchsorted(tail, bounds).tolist()   # each line's tail arcs
            out[tail] = K.evaluate_lines([(line, mapped[a:b]) for (line, _), a, b
                                          in zip(requests, cuts, cuts[1:])])
        return out

    def on_points(pts):
        black, white, reads = [], [], []
        for k, pt in enumerate(pts):
            if chart.spine_face_of(pt) is not None:
                black.append(k)
            elif not chart.is_c0(pt):
                try:
                    line, arc = chart.locate(pt)
                except ChartDomainError as exc:
                    raise FieldDomainError(f"point lies on no broken line: {exc}")
                white.append(k)
                reads.append((line, (arc,)))
        out = np.broadcast_to(base, (len(pts),) + base.shape)
        if black or white:
            out = out.copy()
            if black:
                out[black] = K.evaluate_points([pts[k] for k in black])
            if white:
                out[white] = on_lines(reads)
        return out

    return TensorField(K.rank, K.frame, _one_point(on_points), label=f"deformed({K.label})",
                       source=K, line_rule=on_lines, point_rule=on_points)


class ContinuityProbe(NamedTuple):
    line_index: int
    seam: str        # "hole-boundary" | "spine-limit" | "gate"
    arc: float
    offset: float
    jump: float
    input_jump: float


@dataclass(frozen=True)
class ContinuityReport:
    """Seam jumps of a deformed field over sampled broken lines.

    ``columns`` holds the probes as ``ContinuityProbe``'s six fields, one
    tuple each, in probe order; ``probes`` zips them into tuples on its
    first read and keeps them, and ``to_json_obj`` counts them without
    building any.  ``nonsmooth_arcs`` flags the hole-boundary crossings,
    where the field is continuous but expectedly not smooth.
    """

    columns: tuple
    boundary_seam: float     # max jump measured at the hole boundary itself
    spine_limit: float       # max |K̄(z-side approach) - K̄(z)|
    gate_jump: float         # max jump across gate junctions along lines
    input_gate_jump: float   # the same gate probes on the input field
    nonsmooth_arcs: tuple

    @cached_property
    def probes(self) -> tuple:
        return tuple(map(ContinuityProbe._make, zip(*self.columns)))

    def to_json_obj(self):
        return {
            "boundary_seam": self.boundary_seam,
            "spine_limit": self.spine_limit,
            "gate_jump": self.gate_jump,
            "input_gate_jump": self.input_gate_jump,
            "nonsmooth_arcs": [list(x) for x in self.nonsmooth_arcs],
            "probes": len(self.columns[0]),
        }


def _jumps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The largest component difference of each pair of rows of two stacks
    (b may be one block, which each row of a is compared with)."""
    return np.abs(a - b).max(axis=tuple(range(1, a.ndim)))


def _largest(jumps: np.ndarray) -> float:
    """The largest of the jumps, folded from 0.0, so a NaN never enters it."""
    return float(np.fmax.reduce(jumps, initial=0.0))


def _sampled_lines(chart: CellChart, count: int, seed: int) -> list:
    """Broken lines through ``count`` random interior points, with each
    point's arc: a facet is drawn, then a point in it, then located.  A point
    that cannot be located raises; none is skipped.

    The chart keeps its last draw, keyed by (count, seed), so a run that
    reads the same lines twice walks them once; a draw that raises is not
    kept.  The list is shared: callers only read it."""
    def build():
        rng = random.Random(seed)
        tops = len(chart.complex.top_simplices)
        sample, locate = chart_module.sample_interior, chart.locate
        return [locate(sample(chart.complex, rng, rng.randrange(tops))) for _ in range(count)]
    return derived(chart, "line_draw", (count, seed), build)


def _require_positive(**counts):
    for name, count in counts.items():
        if count < 1:
            raise FieldDomainError(f"{name} must be at least 1, got {count}")


PROBE_LEVELS = 4    # dyadic offsets per side of the hole-boundary seam
_SEAMS = np.array(["hole-boundary", "spine-limit", "gate"], object)   # by seam code


def continuity_report(kbar: TensorField, chart: CellChart, hole: HoleRegion,
                      samples: int, seed: int = 0) -> ContinuityReport:
    """Dyadic approach sequences at the three seams of the deformed field.

    Each line is probed at its hole-boundary seam itself, whose ``locate``
    checks the point function against the line rule, at PROBE_LEVELS
    offsets to each side of that seam, near its spine point z, and to both
    sides of each gate crossing.  The arcs, offsets and read rows of all
    lines are set in NumPy passes over flat arrays.  The deformed field is
    read once at every line's seam point and z, interleaved (seam, z, next
    seam, ...), once at every line's probe arcs, and the input field once
    at their gate probes; each kind of jump is one stacked difference of
    rows of those reads, and the probes are kept as columns.  Fewer than
    one sample raises, since a report over no line checks nothing."""
    _require_positive(samples=samples)
    levels = PROBE_LEVELS
    base = kbar.evaluate(chart.c0)
    lines = [line for line, _ in _sampled_lines(chart, samples, seed)]
    s0, s1, length = np.array([hole.split(line) + (line.length,) for line in lines]).T
    # Probe offsets are set in the input field's arc: an offset delta in the
    # tail reads K at delta * L / s1, so delta <= step keeps every probe
    # within GEOMETRIC_TOL of the line length of its seam, whatever the
    # tail's compression L / s1.
    step = GEOMETRIC_TOL * s1
    deltas = step[:, None] / 2.0 ** np.arange(levels)
    # a gate probe at each segment end but the last that leaves it room on
    # the line; owner[j] is the line of gate probe j, and cuts[i] the first
    # gate probe of line i
    ends = [line.segment_ends[:-1] for line in lines]
    owner = np.repeat(np.arange(samples), [len(e) for e in ends])
    acc = np.fromiter(chain.from_iterable(ends), float, len(owner))
    delta = np.minimum(np.minimum(step[owner], acc / 2), (length[owner] - acc) / 2)
    room = delta > 0.0
    owner, acc, delta = owner[room], acc[room], delta[room]
    cuts = np.searchsorted(owner, np.arange(samples + 1))
    bounds = cuts.tolist()
    before, after = (acc - delta).tolist(), (acc + delta).tolist()
    sides = [before[a:b] + after[a:b] for a, b in zip(bounds, bounds[1:])]
    heads = np.concatenate([s0[:, None] + deltas, s0[:, None] - deltas,
                            (length - step)[:, None]], axis=1).tolist()
    points = [p for line, arc in zip(lines, s0.tolist())
              for p in (line.point_at_arc(arc), line.endpoint)]

    at_points = kbar.evaluate_points(points)
    read = kbar.evaluate_lines([(line, head + side)
                                for line, head, side in zip(lines, heads, sides)])
    # line i's rows in the read: its 2*levels + 1 head rows from
    # width*i + 2*cuts[i], then its gate probes' before and after sides,
    # where gate probe j sits j - cuts[i] rows into each
    width, j, g = 2 * levels + 1, np.arange(len(owner)), np.diff(cuts)[owner]
    inner = ((width * np.arange(samples) + 2 * cuts[:-1])[:, None]
             + np.arange(levels)).ravel()
    gate_before = width * (owner + 1) + cuts[owner] + j
    hole_jumps = _jumps(read[inner], read[inner + levels]).reshape(samples, levels)
    spine_jumps = _jumps(read[inner[::levels] + 2 * levels], at_points[1::2])
    gate_jumps = _jumps(read[gate_before + g], read[gate_before])
    input_jumps = np.zeros(len(owner))
    if kbar.source is not None:
        read = kbar.source.evaluate_lines(list(zip(lines, sides)))
        side_before = cuts[owner] + j
        input_jumps = _jumps(read[side_before + g], read[side_before])
    at_seams = _jumps(at_points[::2], base)

    # each line's probes: the seam itself, its offsets and the spine limit,
    # then its gate probes
    fixed = levels + 2
    is_gate = np.zeros(samples * fixed + len(owner), bool)
    is_gate[fixed * (owner + 1) + j] = True

    def column(per_line, per_gate):
        out = np.empty(len(is_gate), np.result_type(per_line, per_gate))
        out[~is_gate] = np.broadcast_to(per_line, (samples, fixed)).ravel()
        out[is_gate] = per_gate
        return out

    columns = (column(np.arange(samples)[:, None], owner),
               _SEAMS[column(np.array([0] * (levels + 1) + [1]), 2)],
               column(np.column_stack([np.repeat(s0[:, None], levels + 1, axis=1), length]), acc),
               column(np.column_stack([np.zeros(samples), deltas, step]), delta),
               column(np.column_stack([at_seams, hole_jumps, spine_jumps]), gate_jumps),
               column(0.0, input_jumps))
    return ContinuityReport(
        tuple(tuple(col.tolist()) for col in columns), _largest(at_seams),
        _largest(spine_jumps), _largest(gate_jumps), _largest(input_jumps),
        tuple(enumerate(s0.tolist())))


def deformation_samples(kbar: TensorField, chart: CellChart, hole: HoleRegion,
                        lines: int, per_line: int, seed: int = 0):
    """CSV-ready rows (line id, arc s(y), components...) along sampled lines,
    all lines in one read.  ``lines`` or ``per_line`` below 1 raises."""
    _require_positive(lines=lines, per_line=per_line)
    reads = [(line, [line.length * k / per_line for k in range(per_line + 1)])
             for line, _ in _sampled_lines(chart, lines, seed)]
    values = iter(kbar.evaluate_lines(reads).reshape(lines * (per_line + 1), -1).tolist())
    return [[index, arc, *next(values)] for index, (_, arcs) in enumerate(reads) for arc in arcs]


# -- .fld field files ------------------------------------------------------------
#
#   type r s
#   constant
#   <n^(r+s) floats, free-form whitespace>
# or
#   type r s
#   linear
#   <one line per component: offset then one slope per ambient coordinate>

@dataclass(frozen=True)
class FieldSpec:
    rank: tuple
    kind: str
    values: tuple


def parse_fld(text: str) -> FieldSpec:
    lines = []      # (1-based source line number, text)
    for number, raw in enumerate(text.splitlines(), 1):
        s = raw.split("#", 1)[0].strip()
        if s:
            lines.append((number, s))
    if not lines:
        raise FieldDomainError("field file must start with 'type r s'")
    number, head = lines[0]
    toks = head.split()
    if toks[0] != "type" or len(toks) != 3:
        raise FieldDomainError(
            f"line {number}: field file must start with 'type r s', got {head!r}")
    try:
        rank = (int(toks[1]), int(toks[2]))
    except ValueError:
        raise FieldDomainError(f"line {number}: bad tensor type line {head!r}")
    if rank[0] < 0 or rank[1] < 0:
        raise FieldDomainError(f"line {number}: negative tensor type in {head!r}")
    if len(lines) < 2:
        raise FieldDomainError("second line must be 'constant' or 'linear'")
    number, kind = lines[1]
    if kind not in ("constant", "linear"):
        raise FieldDomainError(
            f"line {number}: second line must be 'constant' or 'linear', got {kind!r}")
    rows = []
    for number, line in lines[2:]:
        try:
            row = tuple(float(t) for t in line.split())
        except ValueError:
            raise FieldDomainError(f"line {number}: bad component line {line!r}")
        if not all(map(math.isfinite, row)):
            raise FieldDomainError(f"line {number}: non-finite component in {line!r}")
        rows.append(row)
    values = tuple(x for row in rows for x in row) if kind == "constant" else tuple(rows)
    return FieldSpec(rank, kind, values)


def read_fld(path) -> FieldSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fld(fh.read())


def _vertex_table(c, rows) -> np.ndarray:
    """The affine map of a linear spec's component rows at every vertex of
    ``c``, gathered per facet (a point's value is the barycentric
    combination of its facet's rows).  No tree changes it, so the complex
    keeps it, read-only, keyed by the rows."""
    key = tuple(map(tuple, rows))
    def build():
        offsets = np.array([r[0] for r in key])
        slopes = np.array([r[1:] for r in key])
        at_vertex = offsets + ordered_matmul(np.array(c.vertex_coords), slopes.T)
        table = at_vertex[facet_rows(c)]
        table.setflags(write=False)
        return table
    return derived(c, ("vertex_table", key), None, build)


def field_from_spec(spec: FieldSpec, chart: CellChart, frame: FrameField) -> TensorField:
    n = frame.dimension
    order = spec.rank[0] + spec.rank[1]
    count = n ** order
    if spec.kind == "constant":
        if len(spec.values) != count:
            raise FieldDomainError(
                f"constant field needs {count} components, got {len(spec.values)}")
        return constant_tensor(spec.values, frame, spec.rank)
    if chart.complex.vertex_coords is None:
        raise InvalidComplexError("linear fields need vertex coordinates")
    d = len(chart.complex.vertex_coords[0])
    if len(spec.values) != count:
        raise FieldDomainError(
            f"linear field needs {count} component rows, got {len(spec.values)}")
    for row in spec.values:
        if len(row) != d + 1:
            raise FieldDomainError(
                f"linear component row needs 1+{d} coefficients, got {len(row)}")
    per_top = _vertex_table(chart.complex, spec.values)
    shape = (n,) * order

    def combine(tops, bary_rows):
        """One formula for the point path and the line path, so the two agree
        bit for bit: each row's combination, as a stack of row times matrix."""
        return ordered_matmul(np.asarray(bary_rows)[:, None, :],
                       per_top[tops]).reshape((len(tops),) + shape)

    def on_points(pts):
        return combine([pt.top for pt in pts], [pt.bary for pt in pts])

    return TensorField(spec.rank, frame, _one_point(on_points), label="linear",
                       line_rule=lambda requests: combine(*rows_on_lines(requests)),
                       point_rule=on_points)
