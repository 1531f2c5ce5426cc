"""Face-lattice helpers, dense boundary matrices, the census self-check,
a decomposition's gate ridges and compact JSON, the spine homology as first
written, the scalar Gram determinant, the frame isometry, broken-line
contiguity and arc consistency checks, and the stacked point rule of a
one-point function, which only the tests use."""

import json
import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from spineforge.census import CENSUS
from spineforge.chart import point_gap
from spineforge.homology import (HomologyProfile, _columns, homology_groups,
                                 invariant_factors)
from spineforge.simplicial import InvalidComplexError, facet_rows, validate_closed_manifold


def face_id(c, k, verts):
    """Id of the k-face of ``c`` with vertices ``verts``, in any order."""
    try:
        return c.face_index[k][tuple(sorted(verts))]
    except KeyError:
        raise InvalidComplexError(f"no {k}-face with vertices {tuple(verts)}")


def lattice_of(c):
    """Everything the constructor derives, with each face index's key order."""
    return (c.dimension, c.top_simplices, c.vertex_coords, c.faces,
            [list(fi.items()) for fi in c.face_index], c.ridge_cofacets)


def euler_characteristic(c):
    return sum((-1) ** k * len(fk) for k, fk in enumerate(c.faces))


def census_self_check():
    """Validate every census entry against its expectations; raise on drift."""
    for name, entry in CENSUS.items():
        c = entry.builder()
        report = validate_closed_manifold(c)
        if not report.ok:
            raise InvalidComplexError(f"census {name}: manifold checks failed: {report}")
        if c.f_vector != entry.f_vector:
            raise InvalidComplexError(
                f"census {name}: f-vector {c.f_vector} != expected {entry.f_vector}")
        profile = homology_groups(c)
        got = tuple((b, tuple(t)) for b, t in profile.groups)
        if got != entry.homology:
            raise InvalidComplexError(
                f"census {name}: homology {got} != expected {entry.homology}")


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the degree-k boundary map; rows (k-1)-faces, columns k-faces."""

    degree: int
    entries: tuple   # row tuples of ints in {-1, 0, +1}

    @property
    def shape(self):
        rows = len(self.entries)
        return (rows, len(self.entries[0]) if rows else 0)


def boundary_matrix(c, k):
    """Dense form of the degree-k boundary map (see ``homology._columns``)."""
    if k < 1 or k > c.dimension:
        raise InvalidComplexError(f"degree {k} out of range 1..{c.dimension}")
    columns = _columns(c.faces[k], c.face_index[k - 1])
    mat = [[0] * len(columns) for _ in c.faces[k - 1]]
    for j, col in enumerate(columns):
        for i, v in col.items():
            mat[i][j] = v
    return BoundaryMatrix(k, tuple(tuple(r) for r in mat))


def gate_ridges(d):
    """The ridge ids of decomposition ``d``'s gates, in growth order."""
    return tuple(g.gate for g in d.gates)


def decomposition_json(c, d):
    """``d.to_json_obj(c)`` as compact JSON with sorted keys: one string per
    tree, so that equal trees give equal bytes."""
    return json.dumps(d.to_json_obj(c), sort_keys=True, separators=(",", ":"))


def reference_component_count(simplices):
    """Connected components of the union of ``simplices`` (vertex tuples in
    any labels), each simplex joining its own vertices: the dict-based
    union-find with path halving that the table-backed one replaced."""
    parent = {}
    count = 0
    for s in simplices:
        root = None
        for v in s:
            r = parent.get(v)
            if r is None:
                parent[v] = r = v
                count += 1
            else:
                while parent[r] != r:
                    parent[r] = r = parent[parent[r]]
            if root is None:
                root = r
            elif r != root:
                parent[r] = root
                count -= 1
    return count


def reference_spine_profile(c, d):
    """The spine's homology as first read off ``c``'s faces: a set of its
    closure faces per degree, 1-tuples included, then degree 1 by the dict
    union-find over its edges and higher degrees by ``invariant_factors``."""
    if not d.spine:
        raise InvalidComplexError("decomposition has an empty spine")
    m = c.dimension - 1
    ridge_faces = c.faces[m]
    ridges = {ridge_faces[rid] for rid in d.spine}
    if len(ridges) != len(d.spine):
        raise InvalidComplexError("decomposition repeats a spine ridge")
    faces = [{f for r in ridges for f in combinations(r, k + 1)}
             for k in range(m)] + [ridges]
    ranks = [0] * (m + 2)
    torsion = [()] * (m + 1)
    if m >= 1:
        ranks[1] = len(faces[0]) - reference_component_count(faces[1])
    for k in range(2, m + 1):
        invariants = invariant_factors(_columns(faces[k], c.face_index[k - 1]))
        ranks[k] = len(invariants)
        torsion[k - 1] = tuple(x for x in invariants if x > 1)
    return HomologyProfile(tuple((len(faces[k]) - ranks[k] - ranks[k + 1], torsion[k])
                                 for k in range(m + 1)))


def decomposition_faults(c, d):
    """What is wrong with the shape of decomposition ``d`` of ``c``, as
    messages; empty for a spanning tree of the dual graph grown from the
    root.  There are F - 1 gates; each child is painted once and is never
    the root; each parent is painted before its child, in growth order;
    each gate is a ridge whose two cofacets are exactly its parent and
    child; and ``d.spine`` is the sorted, distinct complement of the gates
    among the ridges.  Linear in the ridges."""
    facets, cofacets = len(c.top_simplices), c.ridge_cofacets
    faults = []
    if len(d.gates) != facets - 1:
        faults.append(f"{len(d.gates)} gates for {facets} facets")
    painted = [False] * facets
    painted[d.root] = True
    gated = [False] * len(cofacets)
    for i, (parent, gate, child) in enumerate(d.gates):
        if not (0 <= parent < facets and 0 <= child < facets and 0 <= gate < len(cofacets)):
            faults.append(f"gate {i} ({parent}, {gate}, {child}) is out of range")
            continue
        if not painted[parent]:
            faults.append(f"gate {i}: parent {parent} is not painted before child {child}")
        if child == d.root:
            faults.append(f"gate {i}: child {child} is the root")
        elif painted[child]:
            faults.append(f"gate {i}: child {child} is painted twice")
        painted[child] = True
        if cofacets[gate] != tuple(sorted((parent, child))):
            faults.append(f"gate {i}: ridge {gate} has cofacets {cofacets[gate]}, "
                          f"not {parent} and {child}")
        gated[gate] = True
    complement = [rid for rid, used in enumerate(gated) if not used]
    if list(d.spine) != complement:
        at = next((k for k, (a, b) in enumerate(zip(d.spine, complement)) if a != b),
                  min(len(d.spine), len(complement)))
        faults.append(f"spine differs from the sorted complement of the gates at position {at}")
    return faults


def reference_gram_det(m, verts):
    """``Metric.gram_determinants`` as first written, one simplex at a time
    through ``length``: the Gram determinant of the edge vectors from the
    first vertex, and the scale (longest edge)^(2k) by ``**``."""
    k = len(verts) - 1
    sq = [[m.length(u, v) * m.length(u, v) if u != v else 0.0 for v in verts]
          for u in verts]
    gram = [[(sq[0][i] + sq[0][j] - sq[i][j]) / 2.0 for j in range(1, k + 1)]
            for i in range(1, k + 1)]
    longest = max(m.length(u, v) for u, v in combinations(verts, 2))
    return float(np.linalg.det(gram)), longest ** (2 * k)


def frame_isometry_deviation(chart, frame):
    """The largest deviation of F_f^T G_f F_f from G_root over all facets f,
    relative to the largest entry of G_root, for the frames F_f of ``frame``
    and the Gram matrices G_f of the facets' affine bases (columns
    v_j - v_0), read from squared edge lengths in one stacked pass.

    Each transition unfolds a facet isometrically across its gate, so the
    frame vectors of every facet have the root's Gram matrix: a correct
    frame reads a few ulps (at most 1.1e-13 on the 128x128 torus), while a
    transition off by 1e-9 reads about 1e-8.  Linear in facets, and needs no
    reference frame."""
    tops = facet_rows(chart.complex)
    sq = chart.metric.lengths_at(tops[:, 1:, None], tops[:, None, 1:], squared=True)
    to0 = chart.metric.lengths_at(tops[:, 1:], tops[:, :1], squared=True)
    gram = (to0[:, :, None] + to0[:, None, :] - sq) / 2.0
    mats = frame.matrices
    pulled = np.einsum("fji,fjk,fkl->fil", mats, gram, mats)
    want = gram[chart.root]
    return float(np.abs(pulled - want).max() / np.abs(want).max())


def broken_line_faults(chart, line):
    """What is wrong with one broken line of ``chart``, as messages; empty
    for a line whose pieces join.  Each segment's end, gathered into the
    next segment's facet, must be that segment's start bit for bit, with
    0.0 on both facets' vertices off their shared gate; every length must
    be positive and finite and ``segment_ends`` must increase; and the
    endpoint, the last segment's end, must hold 0.0 at a slot whose
    opposite ridge is a spine ridge.  Linear in the line's segments."""
    c = chart.complex
    tops, ridges = c.top_simplices, c.face_index[c.dimension - 1]
    segments = line.segments
    faults = []
    for i, (a, b) in enumerate(zip(segments, segments[1:])):
        at = dict(zip(tops[a.top], a.end))
        gathered = [at.pop(v, 0.0).hex() for v in tops[b.top]]
        # what is left is a's weight off the gate: one vertex, at 0.0
        if [x.hex() for x in at.values()] != [(0.0).hex()]:
            faults.append(f"segment {i} ends off a gate of facets {a.top} and {b.top}")
        elif gathered != [x.hex() for x in b.start]:
            faults.append(f"segment {i} ends at {a.end}, not at {b.start} of segment {i + 1}")
    faults += [f"segment {i} has length {seg.length}" for i, seg in enumerate(segments)
               if not 0.0 < seg.length < math.inf]
    ends = line.segment_ends
    faults += [f"segment_ends fall at {i}" for i in range(1, len(ends)) if not ends[i - 1] < ends[i]]
    z, last = line.endpoint, segments[-1]
    verts = tops[z.top]
    if (z.top, z.bary) != (last.top, last.end):
        faults.append(f"endpoint {z} is not the last segment's end")
    elif not any(x == 0.0 and chart._spine[ridges[verts[:k] + verts[k + 1:]]] is not None
                 for k, x in enumerate(z.bary)):
        faults.append(f"endpoint {z} is on no spine ridge")
    return faults


def arc_gap(chart, p):
    """How far the point at p's arc on ``chart.locate(p)``'s line lies from
    p, as a share of the bound 1e-15 * segments * (length + r), for the
    line's segment count and length and the root facet's longest edge r.
    Each segment rounds its ends and its arc, and r covers a line much
    shorter than its facet: torus7's one-segment root lines read 8.4e-16
    on lines of length 0.32, 2.6 times 1e-15 * segments * length.  Over 300
    points on each of 9 trees per complex, bfs, dfs and random with seeds
    0-2, the share read at most 0.17 (torus7) on the census, 0.05 on the
    12x12 and 48x48 coordinate tori and T^3 k = 4, so the bound of 1 leaves
    6 times headroom.  Linear in the line's segments."""
    line, arc = chart.locate(p)
    root = max(chart.metric.length(u, v)
               for u, v in combinations(chart.complex.top_simplices[chart.root], 2))
    gap = point_gap(chart, p, line.point_at_arc(arc))
    return gap / (1e-15 * len(line.segments) * (line.length + root))


def pointwise(comp):
    """The stacked point rule of a one-point component function: ``comp`` at
    each point, stacked in order, as ``TensorField`` takes it."""
    return lambda pts: np.array([comp(pt) for pt in pts])
