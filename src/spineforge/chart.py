"""Coordinates on the open cell: stretch extensions, broken lines, retraction.

The cell is charted from the root facet outward.  The root carries the radial
interval family (rays from its barycenter c0 to boundary points); every other
facet carries the family of chords entering through its gate and running
parallel, in barycentric-affine terms, to the segment from the gate center to
the opposite vertex.  Crossing a gate rescales arc length on the parent's own
interval so that it covers the parent interval plus the child chord — the
composite map is therefore piecewise linear along every broken line, one
linear piece per traversed facet.

Every white point lies on exactly one broken line, and one walk computes it.
``_ascend`` starts at the point's own ray or chord and follows entry gates up
to the root: a chord's junction lies on the parent's exit face, so each level
yields the parent's chord, ending at the root ray from c0.  ``_descend``
continues from the point's chord exit through the gates it leaves by, down to
the spine.  ``locate``, ``broken_line_to`` and ``retract`` use both halves;
``inverse_map`` folds its arc rescaling over the ascent, and ``forward_map``
stretches its arc down the descent.  The segments above a point are the ones
its ascent computed, so the point is on its line at any depth; no root
coordinate is recomputed.

A segment is one tuple from the walk to ``BrokenLine.segments``: the walk
computes (top, start, end, length), with ``start`` and ``end`` barycentric
tuples of facet ``top``, and a line keeps them as ``Segment`` named tuples.
Points are built only where a caller asks for one: a line's ``endpoint`` and
the one point ``point_at_arc`` returns.  ``rows_on_lines`` looks up every arc
of many lines at once and returns a facet id array and a barycentric row
array, no points: Python bisects each arc's segment out of its line's
segment ends, and the interpolation runs as one NumPy pass over the picked
segments, so the lookup is linear in arcs, not in segments.
``point_at_arc`` stays scalar, as one arc does not repay NumPy's overhead;
both take their segments from one rule (``BrokenLine._arc_picks``) and
interpolate with the same expression, so they give the same bits.  The
walk's tuples are points of their facets by construction, which the tests
check, so they are not validated on every walk.

A walk step is a few list reads, one index gather and the chord arithmetic.
The chart keeps two flat lists: ``_parent[f]``, the parent of facet f's
entry gate, which the ascent follows, and ``_down[f*(n+1) + k]``, the child
a chord of f enters when it leaves through the face opposite its local
vertex k, which the descent follows (None where that face is not a gate of
f: the line ends there, and its last step checks that the face is a spine
ridge).  Crossing a gate gathers the coordinates by the child's
parent<->child index map: the walk's crossing points hold exactly 0.0 off
the gate, so the gather is ``_transfer`` bit for bit with no weight to
check.  Every chord of a non-root facet is parallel to the segment from the
gate centroid to the off-gate vertex, q - p = t * (e_ov - centroid), so its
length is t times that segment's length h, which a walk reads from the list
``_heights``.  The root's squared edge lengths are read at build too, so a
walk never calls ``Metric.dist``: ``_root_dist`` gives its bits for the
root segment and both ends of a root ray.  Lengths agree with the metric's
quadratic form of the chord's ends to rounding (1.5e-14 relative), so CLI
float outputs differ in their low-order digits from that evaluation;
repeated runs are byte-identical.

The off-gate slots, the index maps and h depend on the gate step and the
metric, never on the tree, so they live in one table per complex and
metric object (``StepGeometry``), built whole on the first request: each
ridge's off-ridge slot in both cofacets, and the height of every facet
over the face opposite each of its vertices, in one stacked pass over the
metric's edge table that gives ``Metric.dist``'s bits.  A chart gathers its
lists from the table with index arrays; ``fields.extend_frame`` keeps the
frame transitions in the same table.

All point evaluations are lazy walks over the decomposition's ``GateStep``s,
which the chart reads as they are; nothing is meshed globally.  Charts are
immutable after construction, apart from the last line draw of
``fields._sampled_lines``, one entry keyed by count and seed that any writer
replaces whole with lines equal for equal keys.  The step table is complete
before the complex publishes it, and its frame rows, which the first frame
fills whole, equal for equal keys, are written before they are marked
filled.  Evaluations are pure, so they can run concurrently.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import accumulate, chain, combinations
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .simplicial import (GEOMETRIC_TOL, JUMP_TOL, MEMBERSHIP_TOL, InvalidComplexError,
                         Metric, SimplicialComplex, facet_rows)
from .spine import Decomposition


class ChartDomainError(ValueError):
    """Point outside the domain the requested chart operation covers."""


class BlackPointError(ChartDomainError):
    """Point sits on the spine closure, where cell coordinates do not reach."""


def geometric_tol() -> float:
    """``GEOMETRIC_TOL``, kept for callers that ask for it by function."""
    return GEOMETRIC_TOL


@dataclass(frozen=True)
class PointRef:
    """A point of the manifold: facet id plus barycentric coordinates."""

    top: int
    bary: tuple

    def __post_init__(self):
        s = sum(self.bary)
        if not abs(s - 1.0) <= MEMBERSHIP_TOL:   # a nan or inf weight fails here too
            for i, x in enumerate(self.bary):
                if not math.isfinite(x):
                    raise ChartDomainError(
                        f"barycentric coordinate {i} of {self.bary} is {x}")
            raise ChartDomainError(f"barycentric sum {s} too far from 1")
        if min(self.bary) < -MEMBERSHIP_TOL:
            raise ChartDomainError(f"negative barycentric coordinate in {self.bary}")


class Segment(NamedTuple):
    """One straight piece of a broken line, as the walk computed it: its
    facet, the barycentric tuples of its ends in that facet, and its length."""

    top: int
    start: tuple
    end: tuple
    length: float


_as_segment = partial(tuple.__new__, Segment)   # a walk tuple as a Segment, unchecked
_length = itemgetter(3)                          # a segment's or walk tuple's length


@dataclass(frozen=True)
class BrokenLine:
    """Polygonal path from c0 to a spine point z, one segment per facet."""

    segments: tuple
    endpoint: PointRef
    length: float

    @cached_property
    def segment_ends(self) -> tuple:
        """Arc at which each segment ends: running sums of segment lengths.
        The last one may differ from ``length``, which is an exact sum."""
        # from a list: tuple() of an unsized iterator grows by resizing, which
        # raised peak RSS with the number of lines built
        return tuple([*accumulate(map(_length, self.segments))])

    def _arc_picks(self, arcs):
        """The one arc -> segment rule, as (segments, offsets): for each arc,
        the segment the point at that arc lies on and the arc at which that
        segment starts.  An arc <= 0 picks a zero-length segment at the
        line's start and an arc >= ``length`` one at its endpoint; any other
        arc the first segment ending at or past it (bisection over
        ``segment_ends``), the last when rounding leaves it past them all.
        A point lies at weight ``w = (arc - offset) / seg.length`` along its
        segment (1.0 on a zero-length one), and is ``seg.end`` for w >= 1."""
        segments, ends, length = self.segments, self.segment_ends, self.length
        last = len(ends) - 1
        picked, offsets = [], []
        for s in arcs:
            if s <= 0.0:
                first = segments[0]
                picked.append(Segment(first.top, first.start, first.start, 0.0))
                offsets.append(0.0)
            elif s >= length:
                end = self.endpoint
                picked.append(Segment(end.top, end.bary, end.bary, 0.0))
                offsets.append(0.0)
            else:
                i = bisect_left(ends, s)
                if i > last:
                    i = last
                picked.append(segments[i])
                offsets.append(ends[i - 1] if i else 0.0)
        return picked, offsets

    def point_at_arc(self, s: float) -> PointRef:
        """The validated point at arc s, by ``_arc_picks``' rule; many arcs
        at once, as rows and no points, are ``rows_on_lines``."""
        (seg,), (offset,) = self._arc_picks((s,))
        w = (s - offset) / seg.length if seg.length > 0 else 1.0
        return PointRef(seg.top, seg.end if w >= 1.0 else _lerp(seg.start, seg.end, w))


def rows_on_lines(requests):
    """(tops, rows) for every arc of every (line, arcs) request, in request
    order: an int array of facet ids and a float array of barycentric rows,
    the rows ``point_at_arc`` gives bit for bit, unvalidated.

    Python only picks each arc's segment (``BrokenLine._arc_picks``); the
    picked segments' ends are read into one array, and the weights and the
    interpolation start + w * (end - start) run as one NumPy pass over them,
    so the cost is linear in arcs whatever the lines' lengths."""
    arcs, picked, offsets = [], [], []
    for line, line_arcs in requests:
        arcs += line_arcs
        segments, starts_at = line._arc_picks(line_arcs)
        picked += segments
        offsets += starts_at
    if not picked:
        return np.empty(0, np.intp), np.empty((0, 0))
    tops, starts, ends, lengths = zip(*picked)
    k, width = len(picked), len(starts[0])
    start, end = np.fromiter(chain.from_iterable(starts + ends), float,
                             2 * k * width).reshape(2, k, width)
    lengths = np.array(lengths)
    w = np.divide(np.subtract(arcs, offsets), lengths, out=np.ones(k),
                  where=lengths > 0.0)[:, None]
    return np.array(tops, np.intp), np.where(w >= 1.0, end, start + w * (end - start))


def stretch(s: float, s1: float, s2: float) -> float:
    """Arc-length rescale of one extension step: [0, s1] onto [0, s1+s2]."""
    if s1 <= 0.0:
        raise ChartDomainError(f"parent interval length {s1} must be positive")
    if s2 < 0.0:
        raise ChartDomainError(f"child interval length {s2} must be non-negative")
    if s < 0.0 or s > s1 * (1.0 + MEMBERSHIP_TOL):
        raise ChartDomainError(f"arc {s} outside parent interval [0, {s1}]")
    return s * (s1 + s2) / s1


def _lerp(a, b, w):
    return tuple([x + w * (y - x) for x, y in zip(a, b)])


class StepGeometry:
    """The geometry of a complex's gate steps under one metric, which no
    tree changes, built whole on the first request for the pair.

    ``slots[rid, side]`` is the local slot of the vertex off ridge rid in
    its cofacet ``cofacets[rid, side]``; a step out of that cofacet has the
    directed-ridge key ``2*rid + side``, the parent's off-gate slot
    ``slots[rid, side]`` and the child's ``slots[rid, 1 - side]``.
    ``height[f, k]`` is the distance from facet f's vertex k to the centroid
    of the face opposite it: a step's height is its child's at the child's
    off-gate slot, whichever parent it came from.  The frame rows, one per
    directed ridge, hold each step's transition (identity where the step is
    flat), its flat-parent, flat-child and missing-edge flags and its first
    missing edge; ``fields.extend_frame`` fills them all the first time a
    chart asks and sets ``framed`` once they are written.  The complex
    keeps one table (``step_geometry``), published complete."""

    def __init__(self, c: SimplicialComplex, metric: Metric):
        n = self.dimension = c.dimension
        self.metric = metric
        tops = self.tops = facet_rows(c)
        # each ridge's first and last cofacet: its two, on a closed complex
        pairs = chain.from_iterable(map(itemgetter(0, -1), c.ridge_cofacets))
        self.cofacets = np.fromiter(pairs, np.intp, 2 * len(c.ridge_cofacets)).reshape(-1, 2)
        # the one slot of each cofacet that the other does not share
        both = tops[self.cofacets]
        self.slots = (both[..., :, None] != both[:, ::-1, None, :]).all(axis=3).argmax(axis=2)
        # |vertex k - centroid of its opposite face| sums ``Metric.sq_dist``'s
        # terms in its pair order from the squares it uses, so it equals
        # ``Metric.dist`` of the two points bit for bit; a facet whose edge
        # the metric lacks gets NaN, and a line through it raises.  Row k of
        # diff is the barycentric difference, 1 on slot k and -1/n on the
        # others (a point, n = 0, has no pair to sum).
        diff = np.where(np.eye(n + 1, dtype=bool), 1.0, 0.0 - 1.0 / max(n, 1))
        s = np.zeros(tops.shape)
        for i, j in combinations(range(n + 1), 2):
            sq = metric.lengths_at(tops[:, i], tops[:, j], squared=True)
            s -= diff[:, i] * diff[:, j] * sq[:, None]
        self.height = np.sqrt(np.maximum(s, 0.0))
        # the frame rows stay unwritten, and their memory untouched, until a
        # frame is extended
        rows = self.slots.size
        self.framed = False
        self.transition = np.empty((rows, n, n))
        self.flat_parent = np.empty(rows, bool)
        self.flat_child = np.empty(rows, bool)
        self.missing = np.empty(rows, bool)
        self.missing_edge = np.empty((rows, 2), np.intp)
        # (ov, off) -> (ov, up, down): the gathers that read each parent slot
        # from the child (up) and each child slot from the parent (down).
        # Facets are sorted vertex tuples, so the k-th shared vertex sits at
        # the k-th slot other than ov in the child and other than off in the
        # parent.  The two off-gate slots read each other's, which is 0.0 at
        # every point where a walk crosses.
        self.shared_maps = np.empty((n + 1, n + 1), object)
        for ov, off in np.ndindex(n + 1, n + 1):
            shared_child = [k for k in range(n + 1) if k != ov]
            shared_parent = [k for k in range(n + 1) if k != off]
            up, down = [ov] * (n + 1), [off] * (n + 1)
            for k_child, k_parent in zip(shared_child, shared_parent):
                up[k_parent], down[k_child] = k_child, k_parent
            self.shared_maps[ov, off] = (ov, itemgetter(*up), itemgetter(*down))


def step_geometry(c: SimplicialComplex, metric: Metric) -> StepGeometry:
    """The complex's step table for ``metric``: one entry keyed by the metric
    object, replaced whole by any other metric.  A metric's lengths must not
    change once its edge table exists, as ``Metric`` requires."""
    geometry = c._step_geometry
    if geometry is None or geometry.metric is not metric:
        geometry = c._step_geometry = StepGeometry(c, metric)
    return geometry


class CellChart:
    """Cell coordinates extended across the decomposition's ``GateStep``s,
    one coordinate extension per gate, in growth order."""

    def __init__(self, complex: SimplicialComplex, decomposition: Decomposition,
                 metric: Metric):
        self.complex = complex
        self.decomposition = decomposition
        self.metric = metric
        self.root = decomposition.root
        n = complex.dimension
        self.c0 = PointRef(self.root, (1.0 / (n + 1),) * (n + 1))

        tops = complex.top_simplices
        # The walk's tables, gathered from the complex's per-step geometry
        # (``StepGeometry``): _gate_maps[f] is the (ov, up, down) maps of f's
        # entry step, _heights[f] its height, _parent[f] the parent of f's
        # entry gate, and _down[f*(n+1) + off] the child a chord of f enters
        # when it exits through local slot off, None where that ridge is not
        # a gate of f.
        gates = decomposition.gates
        geometry = self._geometry = step_geometry(complex, metric)
        steps = self._steps = np.fromiter(chain.from_iterable(gates), np.intp,
                                          3 * len(gates)).reshape(-1, 3)
        ridges, children = steps[:, 1], steps[:, 2]
        keys = self._step_keys = 2 * ridges + (steps[:, 0] != geometry.cofacets[ridges, 0])
        slots = geometry.slots.ravel()
        ov, off = slots[keys ^ 1], slots[keys]
        gate_maps = np.full(len(tops), None, object)
        gate_maps[children] = geometry.shared_maps[ov, off]
        heights = np.full(len(tops), np.nan)
        heights[children] = geometry.height[children, ov]
        self._gate_maps, self._heights = gate_maps.tolist(), heights.tolist()
        # filled from the steps' own ints, which a list from an array would copy
        self._parent = [None] * len(tops)
        self._down = [None] * (len(tops) * (n + 1))
        for (parent, _, child), off in zip(gates, off.tolist()):
            self._parent[child] = parent
            self._down[parent * (n + 1) + off] = child
        # the root's squared edge lengths, (i, j, square) in Metric.sq_dist's
        # pair order and as it takes them (NaN for an edge the metric lacks)
        root = tops[self.root]
        self._root_squares = [(i, j, l * l) for i, j in combinations(range(n + 1), 2)
                              for l in [metric.edge_lengths.get((root[i], root[j]), math.nan)]]
        self._line_draw = None   # ((count, seed), lines): fields._sampled_lines' last draw

        # spine membership by ridge id; a face below a ridge is matched to
        # its spine ridge only when a point asks (``spine_face_of``)
        self._spine = [False] * len(complex.ridge_cofacets)
        for rid in decomposition.spine:
            self._spine[rid] = True

    # -- low-level geometry ------------------------------------------------

    def _verts(self, top):
        return self.complex.top_simplices[top]

    def _dist(self, top, a, b):
        return self.metric.dist(self._verts(top), a, b)

    def _root_dist(self, a, b):
        """``Metric.dist`` in the root facet, bit for bit: its terms, zero
        differences skipped, in its order, from the squares read at build."""
        diff = [x - y for x, y in zip(a, b)]
        s = 0.0
        for i, j, sq in self._root_squares:
            if diff[i] != 0.0 and diff[j] != 0.0:
                s -= diff[i] * diff[j] * sq
        return math.sqrt(max(s, 0.0))

    def _transfer(self, bary, from_top, to_top):
        """Re-express a shared-face point in another facet's coordinates."""
        weights = dict(zip(self._verts(from_top), bary))
        out = tuple(weights.pop(v, 0.0) for v in self._verts(to_top))
        stray = sum(abs(w) for w in weights.values())
        if stray > GEOMETRIC_TOL:
            raise ChartDomainError(
                f"point carries weight {stray} outside the face shared by "
                f"facets {from_top} and {to_top}")
        return out

    def _ray(self, x):
        """Radial ray of the root through x != c0.

        Returns (boundary bary b, arc of x from c0, ray length, exit local index).
        """
        n1 = self.complex.dimension + 1
        c = 1.0 / n1
        direction = [xi - c for xi in x]
        # the nearest exit; ties go to the lowest local index
        t_max, exit_local = min(((c / -d, i) for i, d in enumerate(direction) if d < 0.0),
                                default=(None, None))
        if t_max is None:
            raise ChartDomainError("point coincides with the root barycenter")
        b = [c + t_max * d for d in direction]
        b[exit_local] = 0.0
        b = tuple(b)
        s_point = self._root_dist((c,) * n1, x)
        s_ray = self._root_dist((c,) * n1, b)
        return b, s_point, s_ray, exit_local

    def _chord(self, top, y):
        """Interval-family chord of a non-root facet through y.

        Returns (junction p, exit q, arc of y from p, chord length, exit local).
        q - p = t_max * (off-gate vertex - gate centroid), so the chord is
        t_max heights long and y sits t_y heights from p.
        """
        n = self.complex.dimension
        ov = self._gate_maps[top][0]
        t_y = y[ov]
        d = t_y / n
        p = [yi + d for yi in y]
        # the nearest exit off the entry gate; ties go to the lowest index
        p[ov] = math.inf
        m = min(p)
        exit_local = p.index(m)
        p[ov] = 0.0
        if m <= MEMBERSHIP_TOL:
            raise ChartDomainError(
                f"interval family of facet {top} degenerates at {tuple(y)}; "
                "point sits on a gate-boundary stratum")
        t_max = n * m
        q = [pi - m for pi in p]
        q[ov] = t_max
        q[exit_local] = 0.0
        h = self._heights[top]
        return tuple(p), tuple(q), t_y * h, t_max * h, exit_local

    # -- broken lines --------------------------------------------------------

    def _ascend(self, top, y):
        """The broken line through y from c0 down to y's own segment.

        Returns (segments, arc, exit_local): plain (facet, start, end, length)
        tuples in ``Segment``'s field order, root first and y's own ray or
        chord last; y's arc on that segment; the local index of the face the
        segment exits through.
        """
        root = self.root
        if top == root:
            b, arc, length, exit_local = self._ray(y)
            return [(top, self.c0.bary, b, length)], arc, exit_local
        n = self.complex.dimension
        parents, maps, heights = self._parent, self._gate_maps, self._heights
        j, q, arc, length, exit_local = self._chord(top, y)
        segments = [(top, j, q, length)]
        ov, up, _ = maps[top]
        while True:
            # j is the junction of top's chord, on top's entry gate
            parent = parents[top]
            j = up(j)
            if parent == root:
                segments.append((parent, self.c0.bary, j, self._root_dist(self.c0.bary, j)))
                segments.reverse()
                return segments, arc, exit_local
            # j lies on the parent's exit face; its chord starts at the
            # junction, t_j heights before j
            ov, up, _ = maps[parent]
            t_j = j[ov]
            d = t_j / n
            start = [x + d for x in j]
            start[ov] = 0.0
            start = tuple(start)
            segments.append((parent, start, j, t_j * heights[parent]))
            top, j = parent, start

    def _descend(self, top, q, exit_local):
        """Chords below the exit q of a segment in facet top, down to the
        spine, as plain (facet, start, end, length) tuples."""
        n1 = self.complex.dimension + 1
        down, maps = self._down, self._gate_maps
        while True:
            child = down[top * n1 + exit_local]
            if child is None:
                verts = self._verts(top)
                face = verts[:exit_local] + verts[exit_local + 1:]
                rid = self.complex.face_index[n1 - 2][face]
                if not self._spine[rid]:
                    raise InvalidComplexError(f"ridge {rid} is neither gate nor spine")
                return
            # q lies on child's entry gate
            top = child
            p, q, _, length, exit_local = self._chord(top, maps[top][2](q))
            yield top, p, q, length

    def _summed_ray(self, top, c0, b, length):
        """The root ray (top, c0, b, length) of a line, with its exit b
        divided by b's sum, added left to right, when that sum is more than
        MEMBERSHIP_TOL off 1.  Within about 1e-4 of c0, ``_ray``'s large
        t_max leaves it off, and every point of the line would carry the
        error.  ``forward_map`` and ``inverse_map`` read ``_ray`` as it is:
        near c0 they stay in the root, where the error is scaled down."""
        total = 0.0
        for x in b:
            total += x
        if abs(total - 1.0) <= MEMBERSHIP_TOL:
            return top, c0, b, length
        b = tuple([x / total for x in b])
        return top, c0, b, self._root_dist(c0, b)

    def _line_through(self, pt: PointRef):
        """Broken line through pt (white, or black for broken_line_to) and
        pt's arc from c0."""
        segments, arc, exit_local = self._ascend(pt.top, pt.bary)
        if pt.top == self.root:
            segments[0] = self._summed_ray(*segments[0])
        arc += math.fsum(map(_length, segments[:-1]))
        top, _, q, _ = segments[-1]
        segments.extend(self._descend(top, q, exit_local))
        segments = tuple([*map(_as_segment, segments)])   # see segment_ends
        top, _, z, _ = segments[-1]
        total = math.fsum(map(_length, segments))
        if total != total:    # a NaN height: the metric lacks an edge of that facet
            top = next(seg.top for seg in segments if seg.length != seg.length)
            raise InvalidComplexError(f"metric misses an edge of facet {self._verts(top)}")
        return BrokenLine(segments, PointRef(top, z), total), arc

    def is_c0(self, pt: PointRef) -> bool:
        """Whether pt is the root barycenter c0, up to MEMBERSHIP_TOL."""
        return pt.top == self.root and \
            max(abs(x - self.c0.bary[0]) for x in pt.bary) < MEMBERSHIP_TOL

    def spine_face_of(self, pt: PointRef):
        """Spine ridge whose closure carries pt, or None when pt is white.
        A ridge is read off the spine mask; a lower face takes the first
        ridge of ``decomposition.spine``, in its order, that contains it."""
        verts = self._verts(pt.top)
        carrier = tuple([v for v, x in zip(verts, pt.bary) if x > MEMBERSHIP_TOL])
        n = len(verts) - 1
        if len(carrier) > n:
            return None
        if len(carrier) == n:
            rid = self.complex.face_index[n - 1][carrier]
            return rid if self._spine[rid] else None
        ridges, inside = self.complex.faces[n - 1], set(carrier).issubset
        return next((rid for rid in self.decomposition.spine if inside(ridges[rid])), None)

    def locate(self, pt: PointRef):
        """Broken line through a white point and the point's arc from c0."""
        rid = self.spine_face_of(pt)
        if rid is not None:
            face = self.complex.faces[self.complex.dimension - 1][rid]
            raise BlackPointError(f"point lies on spine face {face}")
        return self._line_through(pt)


def build_chart(c: SimplicialComplex, d: Decomposition, m: Metric) -> CellChart:
    """The chart of ``d``: one coordinate extension per gate, in growth order."""
    return CellChart(c, d, m)


def forward_map(chart: CellChart, p: PointRef) -> PointRef:
    """Image of a root-interior point under the full extension composite."""
    if p.top != chart.root:
        raise ChartDomainError("forward_map takes points of the root facet")
    if any(x <= MEMBERSHIP_TOL for x in p.bary):
        raise ChartDomainError("forward_map is defined on the open root only")
    if chart.is_c0(p):
        return chart.c0
    b, s, length, exit_local = chart._ray(p.bary)
    top, start, end = chart.root, chart.c0.bary, b
    for child in chart._descend(top, end, exit_local):
        s = stretch(s, length, child[3])
        if s <= length:
            break
        s -= length
        top, start, end, length = child
    return PointRef(top, _lerp(start, end, s / length))


def inverse_map(chart: CellChart, q: PointRef) -> PointRef:
    """Preimage in the root of any white point; rejects spine points."""
    rid = chart.spine_face_of(q)
    if rid is not None:
        face = chart.complex.faces[chart.complex.dimension - 1][rid]
        raise BlackPointError(f"point lies on spine face {face}; outside the cell")
    if chart.is_c0(q):
        return chart.c0
    # undo the stretches from q's own segment up to the root ray
    segments, arc, exit_local = chart._ascend(q.top, q.bary)
    top, _, end, length = segments[-1]
    child = next(chart._descend(top, end, exit_local), None)
    if child is not None:
        arc = arc * length / (length + child[3])
    for _, _, _, s1 in reversed(segments[:-1]):
        arc = s1 * (s1 + arc) / (s1 + length)
        length = s1
    _, c0, b, s_ray = segments[0]
    return PointRef(chart.root, _lerp(c0, b, arc / s_ray))


def broken_line_to(chart: CellChart, z: PointRef, side: int | None = None) -> BrokenLine:
    """The broken line ending at a spine point; `side` (facet id) picks which
    of the two cofacet approaches is meant, defaulting to z's own facet."""
    if side is not None and side != z.top:
        z = PointRef(side, chart._transfer(z.bary, z.top, side))
    if chart.spine_face_of(z) is None:
        raise ChartDomainError("endpoint is not on the spine closure")
    line, _ = chart._line_through(z)
    gap = chart._dist(z.top, line.endpoint.bary, z.bary) \
        if line.endpoint.top == z.top else float("inf")
    if gap > JUMP_TOL:
        raise ChartDomainError(
            f"reconstructed line ends {gap} away from the requested endpoint")
    return line


def retract(chart: CellChart, x: PointRef, t: float) -> PointRef:
    """Homotopy flow toward the spine: the image sits on x's broken line at
    arc (1-t)*s(x) from the endpoint z; spine points never move."""
    if not 0.0 <= t <= 1.0:
        raise ChartDomainError(f"homotopy time {t} outside [0, 1]")
    return _flow(chart, x, (t,))[0]


def _flow(chart: CellChart, x: PointRef, times) -> list:
    """``retract(chart, x, t)`` for each t in ``times``, from one walk of x's
    broken line: x itself at t = 0, the line's endpoint at t = 1."""
    if chart.spine_face_of(x) is not None or not any(times):
        return [x] * len(times)
    if chart.is_c0(x):
        # s(c0) depends on the line chosen; fixed convention: the line through
        # the root point with barycentrics proportional to (1, 2, ..., n+1),
        # whose ray meets its exit face off every lower-dimensional face
        n1 = chart.complex.dimension + 1
        ray = PointRef(chart.root, tuple(k / (n1 * (n1 + 1) / 2) for k in range(1, n1 + 1)))
        line, _ = chart.locate(ray)
        arc = 0.0
    else:
        line, arc = chart.locate(x)
    s_x = line.length - arc
    return [x if t == 0.0 else line.endpoint if t == 1.0
            else line.point_at_arc(line.length - (1.0 - t) * s_x) for t in times]


def ambient_position(c: SimplicialComplex, pt: PointRef):
    """Coordinates of a point under the vertex embedding (needs coords)."""
    if c.vertex_coords is None:
        raise InvalidComplexError("complex carries no vertex coordinates")
    verts = c.top_simplices[pt.top]
    d = len(c.vertex_coords[0])
    out = [0.0] * d
    for w, v in zip(pt.bary, verts):
        for i in range(d):
            out[i] += w * c.vertex_coords[v][i]
    return tuple(out)


def point_gap(chart: CellChart, a: PointRef, b: PointRef) -> float:
    """Metric distance between two point refs, transferring across a shared
    face when they live in different facets."""
    if a.top == b.top:
        return chart._dist(a.top, a.bary, b.bary)
    try:
        bb = chart._transfer(b.bary, b.top, a.top)
        return chart._dist(a.top, a.bary, bb)
    except ChartDomainError:
        aa = chart._transfer(a.bary, a.top, b.top)
        return chart._dist(b.top, aa, b.bary)


def sample_interior(c: SimplicialComplex, rng: random.Random, top: int) -> PointRef:
    """Uniform-ish interior point of one facet (normalized exponentials),
    their total added left to right."""
    raw = [-math.log(rng.random()) for _ in range(c.dimension + 1)]
    s = 0.0
    for x in raw:
        s += x
    return PointRef(top, tuple(x / s for x in raw))


def retraction_samples(chart: CellChart, count: int, t_steps: int, seed: int = 0):
    """Rows (t, facet id, bary...) tracking sampled points under the flow."""
    rng = random.Random(seed)
    rows = []
    tops = len(chart.complex.top_simplices)
    times = [k / t_steps for k in range(t_steps + 1)]
    for _ in range(count):
        x = sample_interior(chart.complex, rng, rng.randrange(tops))
        for t, y in zip(times, _flow(chart, x, times)):
            rows.append((t, y.top) + tuple(y.bary))
    return rows
