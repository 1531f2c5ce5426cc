"""Frame extension across gates, constant tensor fields, and the deformation
of a tensor field toward the thickened spine.

Frames are expressed per facet in that facet's own affine basis (the columns
vertex_j - vertex_0 of its flat embedding).  Crossing a gate re-expresses the
parent frame in the child basis through a rigid unfolding of the two facets
across their shared ridge; in this piecewise-flat model the transition is a
single constant matrix per gate, i.e. transitions are constant along each
child's interval family.

The hole region never stores per-line data: the distance-to-spine proxy is
the remaining arc length along each broken line, so a line of length s_total
splits at s0 = s_total - eps and only the rule is kept.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .chart import (BrokenLine, CellChart, ChartDomainError, PointRef,
                    ambient_position)
from .simplicial import MEMBERSHIP_TOL, InvalidComplexError, Metric


class InvalidGeometryError(ValueError):
    """Metrically degenerate simplex or transition."""


class FieldDomainError(ValueError):
    """Tensor-field request outside its domain (size mismatch, off-line point)."""


class HoleDomainError(ValueError):
    """Requested hole radius does not leave a cell complement."""


# -- flat embeddings ---------------------------------------------------------

def embed_simplex(metric: Metric, verts) -> np.ndarray:
    """Isometric embedding of one simplex in R^k, vertex 0 at the origin."""
    k = len(verts) - 1
    coords = np.zeros((k + 1, k))
    if k == 0:
        return coords
    d0 = np.array([metric.length(verts[0], v) for v in verts[1:]])
    gram = np.empty((k, k))
    for i in range(k):
        for j in range(k):
            if i == j:
                gram[i, j] = d0[i] ** 2
            else:
                dij = metric.length(verts[i + 1], verts[j + 1])
                gram[i, j] = (d0[i] ** 2 + d0[j] ** 2 - dij ** 2) / 2.0
    try:
        low = np.linalg.cholesky(gram)
    except np.linalg.LinAlgError:
        raise InvalidGeometryError(f"simplex {tuple(verts)} is metrically degenerate")
    coords[1:] = low
    return coords


def unfold_across(metric: Metric, parent_verts, parent_coords, gate_verts,
                  child_verts) -> np.ndarray:
    """Embed the child on the far side of the shared gate of an embedded parent."""
    n = len(parent_verts) - 1
    pos = {v: np.asarray(parent_coords[list(parent_verts).index(v)], float)
           for v in gate_verts}
    new_vertex = next(v for v in child_verts if v not in gate_verts)
    gate = np.array([pos[v] for v in gate_verts])
    dists = np.array([metric.length(new_vertex, v) for v in gate_verts])
    g0 = gate[0]
    span = gate[1:] - g0
    if n >= 2:
        rhs = np.array([(span[i] @ span[i] + dists[0] ** 2 - dists[i + 1] ** 2) / 2.0
                        for i in range(n - 1)])
        alpha = np.linalg.solve(span @ span.T, rhs)
        in_plane = span.T @ alpha
        _, sing, vt = np.linalg.svd(span)
        normal = vt[-1]
    else:
        in_plane = np.zeros(n)
        normal = np.array([1.0])
    height_sq = dists[0] ** 2 - in_plane @ in_plane
    height = math.sqrt(max(height_sq, 0.0))
    if height <= 1e-12:
        raise InvalidGeometryError(
            f"child {tuple(child_verts)} degenerates onto gate {tuple(gate_verts)}")
    off_parent = next(np.asarray(parent_coords[i], float)
                      for i, v in enumerate(parent_verts) if v not in gate_verts)
    if (off_parent - g0) @ normal > 0:
        normal = -normal
    apex = g0 + in_plane + height * normal
    rows = [pos[v] if v in pos else apex for v in child_verts]
    return np.array(rows)


def _affine_basis(coords: np.ndarray) -> np.ndarray:
    """Columns vertex_j - vertex_0 of an embedded simplex."""
    return (coords[1:] - coords[0]).T


# -- frame field ---------------------------------------------------------------

@dataclass
class FrameField:
    """Per-facet frame matrices (columns = frame vectors in the facet basis)
    and the constant per-gate transition matrices (child basis <- parent)."""

    matrices: dict
    transitions: dict

    @property
    def dimension(self):
        return next(iter(self.matrices.values())).shape[0]


def extend_frame(chart: CellChart) -> FrameField:
    """Identity on the root; across each gate the parent frame re-expressed in
    the child's affine basis, constant along the child's interval family."""
    c = chart.complex
    n = c.dimension
    matrices = {chart.root: np.eye(n)}
    transitions = {}
    for rec in chart.records:
        pv = c.top_simplices[rec.parent]
        qv = c.top_simplices[rec.child]
        gate_face = c.faces[n - 1][rec.gate]
        pcoords = embed_simplex(chart.metric, pv)
        qcoords = unfold_across(chart.metric, pv, pcoords, gate_face, qv)
        basis_p = _affine_basis(pcoords)
        basis_q = _affine_basis(qcoords)
        trans = np.linalg.solve(basis_q, basis_p)
        mat = trans @ matrices[rec.parent]
        if abs(np.linalg.det(mat)) <= 1e-12:
            raise InvalidGeometryError(
                f"frame transition into facet {rec.child} is singular")
        matrices[rec.child] = mat
        transitions[rec.gate] = trans
    return FrameField(matrices, transitions)


def gate_frame_agreement(chart: CellChart, frame: FrameField, gate: int) -> float:
    """Max deviation between the two sides' frame vectors as ambient directions
    in a joint unfolding of the gate's cofacets.  The vectors are constant over
    the gate in this flat model, so one comparison covers every sample point."""
    rec = chart.gate_record[gate]
    c = chart.complex
    n = c.dimension
    pv = c.top_simplices[rec.parent]
    qv = c.top_simplices[rec.child]
    gate_face = c.faces[n - 1][gate]
    pcoords = embed_simplex(chart.metric, pv)
    qcoords = unfold_across(chart.metric, pv, pcoords, gate_face, qv)
    ambient_p = _affine_basis(pcoords) @ frame.matrices[rec.parent]
    ambient_q = _affine_basis(qcoords) @ frame.matrices[rec.child]
    return float(np.abs(ambient_p - ambient_q).max())


# -- tensor fields -------------------------------------------------------------

@dataclass
class TensorField:
    """Type-(r,s) field: component function over point refs, in the frame basis."""

    rank: tuple
    frame: FrameField
    components: object          # PointRef -> array with r+s axes of length n
    label: str = ""
    source: object = None       # original field, when this one was derived

    def evaluate(self, pt: PointRef) -> np.ndarray:
        arr = np.asarray(self.components(pt), dtype=float)
        n = self.frame.dimension
        order = self.rank[0] + self.rank[1]
        if arr.shape != (n,) * order:
            raise FieldDomainError(
                f"component block has shape {arr.shape}, expected {(n,) * order}")
        if not np.all(np.isfinite(arr)):
            raise FieldDomainError(f"non-finite components at {pt}")
        return arr


def constant_tensor(components, frame: FrameField, rank) -> TensorField:
    """Field whose frame components equal the given block at every white point."""
    r, s = rank
    n = frame.dimension
    arr = np.asarray(components, dtype=float)
    if arr.size != n ** (r + s):
        raise FieldDomainError(
            f"{arr.size} components for a type {(r, s)} field over dimension {n}; "
            f"expected {n ** (r + s)}")
    arr = arr.reshape((n,) * (r + s))
    return TensorField((r, s), frame, lambda pt: arr, label="constant")


# -- hole region ---------------------------------------------------------------

@dataclass(frozen=True)
class HoleRegion:
    """Radius-eps tail of every broken line under the arc-length proxy."""

    chart: CellChart
    eps: float
    eps_max: float

    def split(self, line: BrokenLine):
        """(s0, s1) with s0 + s1 = line length exactly; the tail of length
        s1 = eps (up to one rounding of the complement) is the black part."""
        s0 = line.length - self.eps
        return s0, line.length - s0

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
    for every broken line's total length."""
    c = chart.complex
    n = c.dimension
    verts = c.top_simplices[chart.root]
    coords = embed_simplex(chart.metric, verts)
    center = coords.mean(axis=0)
    best = math.inf
    for o in range(n + 1):
        others = np.delete(coords, o, axis=0)
        g0 = others[0]
        span = others[1:] - g0
        y = center - g0
        if span.size:
            proj = span.T @ np.linalg.solve(span @ span.T, span @ y)
            gap = float(np.linalg.norm(y - proj))
        else:
            gap = float(np.linalg.norm(y))
        best = min(best, gap)
    return best


def black_hole_region(chart: CellChart, eps: float) -> HoleRegion:
    if eps <= 0.0:
        raise HoleDomainError(f"hole radius must be positive, got {eps}")
    eps_max = root_facet_clearance(chart)
    if eps >= eps_max:
        raise HoleDomainError(
            f"hole radius {eps} >= admissible maximum {eps_max}; the complement "
            "would not contain a neighborhood of the root barycenter")
    return HoleRegion(chart, eps, eps_max)


# -- deformation ---------------------------------------------------------------

def deform_tensor(K: TensorField, chart: CellChart, hole: HoleRegion,
                  spine_values=None) -> TensorField:
    """Deformed field: K(z) on the spine, the constant block K(c0) outside the
    hole, and inside each line's tail the pullback of K along the affine
    reparametrization s(x) = (s(y) - s0)/s1 * (s0 + s1).

    ``spine_values`` overrides the spine rule for input fields whose component
    function cannot be evaluated on the spine closure; by default the input
    field itself supplies K(z), which is also the continuity extension of the
    tail pullback."""
    base = np.array(K.evaluate(chart.c0), copy=True)
    spine_eval = spine_values if spine_values is not None else (lambda pt: K.evaluate(pt))

    def comp(pt: PointRef):
        if chart.spine_face_of(pt) is not None:
            return np.asarray(spine_eval(pt), dtype=float)
        if pt.top == chart.root and \
                max(abs(v - chart.c0.bary[0]) for v in pt.bary) < MEMBERSHIP_TOL:
            return base
        try:
            line, arc = chart.locate(pt)
        except ChartDomainError as exc:
            raise FieldDomainError(f"point lies on no broken line: {exc}")
        s0, s1 = hole.split(line)
        if arc < s0:
            return base
        x = line.point_at_arc((arc - s0) / s1 * line.length)
        return K.evaluate(x)

    return TensorField(K.rank, K.frame, comp,
                       label=f"deformed({K.label})", source=K)


@dataclass(frozen=True)
class ContinuityProbe:
    line_index: int
    seam: str        # "hole-boundary" | "spine-limit" | "gate"
    arc: float
    offset: float
    jump: float
    input_jump: float


@dataclass(frozen=True)
class ContinuityReport:
    """Seam jumps of a deformed field over sampled broken lines.

    ``nonsmooth_arcs`` flags the hole-boundary crossings, where the field is
    continuous but expectedly not smooth.
    """

    probes: tuple
    boundary_seam: float     # max jump measured at the hole boundary itself
    spine_limit: float       # max |K̄(z-side approach) - K̄(z)|
    gate_jump: float         # max jump across gate junctions along lines
    input_gate_jump: float   # the same gate probes on the input field
    nonsmooth_arcs: tuple

    def to_json_obj(self):
        return {
            "boundary_seam": self.boundary_seam,
            "spine_limit": self.spine_limit,
            "gate_jump": self.gate_jump,
            "input_gate_jump": self.input_gate_jump,
            "nonsmooth_arcs": [list(x) for x in self.nonsmooth_arcs],
            "probes": len(self.probes),
        }


def _jump(a: np.ndarray, b: np.ndarray) -> float:
    return float(np.abs(a - b).max()) if a.shape else float(abs(a - b))


def continuity_report(kbar: TensorField, chart: CellChart, hole: HoleRegion,
                      samples: int, seed: int = 0, levels: int = 4) -> ContinuityReport:
    """Dyadic approach sequences at the three seams of the deformed field."""
    from .chart import sample_interior

    rng = random.Random(seed)
    tops = len(chart.complex.top_simplices)
    base = kbar.evaluate(chart.c0)
    probes = []
    nonsmooth = []
    boundary_seam = 0.0
    spine_limit = 0.0
    gate_jump = 0.0
    input_gate_jump = 0.0
    lines = 0
    attempts = 0
    while lines < samples and attempts < samples * 20:
        attempts += 1
        pt = sample_interior(chart.complex, rng, rng.randrange(tops))
        try:
            line, _ = chart.locate(pt)
        except ChartDomainError:
            continue
        lines += 1
        s0, s1 = hole.split(line)
        nonsmooth.append((lines - 1, s0))

        at_seam = _jump(kbar.evaluate(line.point_at_arc(s0)), base)
        boundary_seam = max(boundary_seam, at_seam)
        probes.append(ContinuityProbe(lines - 1, "hole-boundary", s0, 0.0, at_seam, 0.0))
        delta0 = min(s1 / 4.0, 1e-5 * line.length)
        for k in range(levels):
            delta = delta0 / 2 ** k
            inner = kbar.evaluate(line.point_at_arc(s0 + delta))
            outer = kbar.evaluate(line.point_at_arc(s0 - delta))
            probes.append(ContinuityProbe(lines - 1, "hole-boundary", s0, delta,
                                          _jump(inner, outer), 0.0))

        delta = min(1e-8, s1 / 4.0)
        z_val = kbar.evaluate(line.endpoint)
        near = kbar.evaluate(line.point_at_arc(line.length - delta))
        sj = _jump(near, z_val)
        spine_limit = max(spine_limit, sj)
        probes.append(ContinuityProbe(lines - 1, "spine-limit", line.length, delta, sj, 0.0))

        acc = 0.0
        for seg in line.segments[:-1]:
            acc += seg.length
            delta = min(1e-9 * line.length, acc / 2, (line.length - acc) / 2)
            if delta <= 0.0:
                continue
            before = kbar.evaluate(line.point_at_arc(acc - delta))
            after = kbar.evaluate(line.point_at_arc(acc + delta))
            gj = _jump(after, before)
            gate_jump = max(gate_jump, gj)
            ij = 0.0
            if kbar.source is not None:
                ib = kbar.source.evaluate(line.point_at_arc(acc - delta))
                ia = kbar.source.evaluate(line.point_at_arc(acc + delta))
                ij = _jump(ia, ib)
                input_gate_jump = max(input_gate_jump, ij)
            probes.append(ContinuityProbe(lines - 1, "gate", acc, delta, gj, ij))

    return ContinuityReport(tuple(probes), boundary_seam, spine_limit,
                            gate_jump, input_gate_jump, tuple(nonsmooth))


def deformation_samples(kbar: TensorField, chart: CellChart, hole: HoleRegion,
                        lines: int, per_line: int, seed: int = 0):
    """CSV-ready rows (line id, arc s(y), components...) along sampled lines."""
    from .chart import sample_interior

    rng = random.Random(seed)
    tops = len(chart.complex.top_simplices)
    rows = []
    made = 0
    attempts = 0
    while made < lines and attempts < lines * 20:
        attempts += 1
        pt = sample_interior(chart.complex, rng, rng.randrange(tops))
        try:
            line, _ = chart.locate(pt)
        except ChartDomainError:
            continue
        for k in range(per_line + 1):
            arc = line.length * k / per_line
            val = kbar.evaluate(line.point_at_arc(arc))
            rows.append([made, arc] + [float(x) for x in val.reshape(-1)])
        made += 1
    return rows


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
    lines = []
    for raw in text.splitlines():
        s = raw.split("#", 1)[0].strip()
        if s:
            lines.append(s)
    if not lines or not lines[0].startswith("type"):
        raise FieldDomainError("field file must start with 'type r s'")
    head = lines[0].split()
    if len(head) != 3:
        raise FieldDomainError("field file must start with 'type r s'")
    try:
        rank = (int(head[1]), int(head[2]))
    except ValueError:
        raise FieldDomainError(f"bad tensor type line {lines[0]!r}")
    if rank[0] < 0 or rank[1] < 0:
        raise FieldDomainError(f"negative tensor type {rank}")
    if len(lines) < 2 or lines[1] not in ("constant", "linear"):
        raise FieldDomainError("second line must be 'constant' or 'linear'")
    kind = lines[1]
    rows = []
    for line in lines[2:]:
        try:
            rows.append(tuple(float(t) for t in line.split()))
        except ValueError:
            raise FieldDomainError(f"bad component line {line!r}")
    values = tuple(x for row in rows for x in row) if kind == "constant" else tuple(rows)
    return FieldSpec(rank, kind, values)


def read_fld(path) -> FieldSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_fld(fh.read())


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
    rows = []
    for row in spec.values:
        if len(row) != d + 1:
            raise FieldDomainError(
                f"linear component row needs 1+{d} coefficients, got {len(row)}")
        rows.append(row)
    offsets = np.array([r[0] for r in rows])
    slopes = np.array([r[1:] for r in rows])

    def comp(pt: PointRef):
        amb = np.asarray(ambient_position(chart.complex, pt))
        return (offsets + slopes @ amb).reshape((n,) * order)

    return TensorField(spec.rank, frame, comp, label="linear")
