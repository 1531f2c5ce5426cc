"""Face-lattice helpers, dense boundary matrices, the census self-check,
the spine homology as first written and the frame isometry check, which only
the tests use."""

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from spineforge.census import CENSUS
from spineforge.homology import (HomologyProfile, _columns, homology_groups,
                                 invariant_factors)
from spineforge.simplicial import InvalidComplexError, facet_rows, validate_closed_manifold


def face_id(c, k, verts):
    """Id of the k-face of ``c`` with vertices ``verts``, in any order."""
    try:
        return c.face_index[k][tuple(sorted(verts))]
    except KeyError:
        raise InvalidComplexError(f"no {k}-face with vertices {tuple(verts)}")


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
