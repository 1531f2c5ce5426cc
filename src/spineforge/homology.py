"""Integer simplicial homology from face lists.

Degrees 0 and 1 need no elimination.  Every column of the boundary map d1
has one +1 and one -1, so d1 is the incidence matrix of the 1-skeleton,
which is totally unimodular: its rank is V minus the number of components
and every invariant factor is 1 (Kaczynski-Mischaikow-Mrozek, Computational
Homology, 2004).  One union-find pass over the facets, on int vertex labels,
gives both V and the component count.

Each higher boundary map is built as sparse integer columns straight from
the face index.  Pivots on +-1 entries are eliminated first, shortest row
first (Markowitz order keeps fill low); each one contributes an invariant
factor 1.  The small remainder, which carries all torsion, goes to the dense
``smith_normal_form``, which also serves the tests as the oracle.  Every
step runs on Python integers, so ranks and torsion are exact at any size.
Unit-pivot elimination follows Dumas-Heckenbach-Saunders-Welker (2003) and
Kaczynski-Mrozek-Slusarek (1998).

The spine's homology is read off its ridge ids: the ridges are ``c``'s own
vertex tuples, so the union-find runs on ``c``'s labels, and only for a
spine of dimension 2 or more are its middle faces listed, keyed by
``c.face_index`` for their boundary rows.  No complex is built for it, and
on a surface no face beyond the ridges is listed.  M minus the open root
facet is read off ``c``'s own face lists too, with the root left out of the
facets; no complex is built for it either.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from itertools import combinations
from math import gcd

from .simplicial import InvalidComplexError, SimplicialComplex, component_count
from .spine import spine_ridges


def _columns(faces, index) -> list:
    """Alternating-sign boundary on sorted tuples: column of (v0<...<vk) has
    (-1)^i in the row ``index`` gives (v0..v̂i..vk).  One {row: +-1} dict per
    face."""
    return [{index[face[:i] + face[i + 1:]]: -1 if i % 2 else 1
             for i in range(len(face))} for face in faces]


def smith_normal_form(mat) -> tuple:
    """Invariant factors d1 | d2 | ... of an integer matrix (exact)."""
    a = [list(map(int, row)) for row in mat]
    m = len(a)
    n = len(a[0]) if m else 0
    diag = []
    t = 0
    while t < min(m, n):
        # smallest-magnitude nonzero pivot in the live submatrix
        best = None
        for i in range(t, m):
            for j in range(t, n):
                v = a[i][j]
                if v and (best is None or abs(v) < abs(a[best[0]][best[1]])):
                    best = (i, j)
        if best is None:
            break
        bi, bj = best
        if bi != t:
            a[t], a[bi] = a[bi], a[t]
        if bj != t:
            for row in a:
                row[t], row[bj] = row[bj], row[t]
        if a[t][t] < 0:
            a[t] = [-x for x in a[t]]
        # clear column and row; retries shrink the pivot, so this terminates
        while True:
            pivot = a[t][t]
            dirty = False
            for i in range(t + 1, m):
                if a[i][t]:
                    q = a[i][t] // pivot
                    if q:
                        a[i] = [x - q * y for x, y in zip(a[i], a[t])]
                    if a[i][t]:
                        a[t], a[i] = a[i], a[t]
                        if a[t][t] < 0:
                            a[t] = [-x for x in a[t]]
                        dirty = True
                        break
            if dirty:
                continue
            for j in range(t + 1, n):
                if a[t][j]:
                    q = a[t][j] // pivot
                    if q:
                        for row in a:
                            row[j] -= q * row[t]
                    if a[t][j]:
                        for row in a:
                            row[t], row[j] = row[j], row[t]
                        if a[t][t] < 0:
                            a[t] = [-x for x in a[t]]
                        dirty = True
                        break
            if not dirty:
                break
        diag.append(a[t][t])
        t += 1
    # normalize to a divisibility chain: diag(a,b) ~ diag(gcd, lcm)
    changed = True
    while changed:
        changed = False
        for i in range(len(diag)):
            for j in range(i + 1, len(diag)):
                if diag[j] % diag[i]:
                    g = gcd(diag[i], diag[j])
                    diag[i], diag[j] = g, diag[i] * diag[j] // g
                    changed = True
    return tuple(diag)


def invariant_factors(columns) -> tuple:
    """Invariant factors of a sparse integer matrix, equal to
    smith_normal_form of its dense form.

    ``columns`` holds one {row: value} dict per column.  Every +-1 pivot is
    eliminated by column operations, taking the shortest row first and the
    shortest column within it; whatever is left goes to smith_normal_form.
    """
    cols = {}
    for j, col in enumerate(columns):
        col = {i: v for i, v in col.items() if v}
        if col:
            cols[j] = col
    rows = {}
    for j, col in cols.items():
        for i in col:
            rows.setdefault(i, set()).add(j)
    # (length, row) entries; an entry whose length is out of date is stale
    heap = [(len(r), i) for i, r in rows.items()]
    heapq.heapify(heap)
    units = 0
    while heap:
        length, i = heapq.heappop(heap)
        row = rows.get(i)
        if row is None or len(row) != length:
            continue
        pivots = [(len(cols[j]), j) for j in row if cols[j][i] in (1, -1)]
        if not pivots:
            continue   # re-pushed if a later pivot changes this row
        _, p = min(pivots)
        del rows[i]
        pcol = cols.pop(p)
        sign = pcol.pop(i)
        # clear row i: col_j -= col_j[i] * sign * col_p (sign is its own inverse)
        for j in row:
            if j == p:
                continue
            col = cols[j]
            f = col.pop(i) * sign
            for r, v in pcol.items():
                x = col.get(r, 0) - f * v
                if x:
                    if r not in col:
                        rows[r].add(j)
                    col[r] = x
                else:
                    del col[r]
                    rows[r].discard(j)
            if not col:
                del cols[j]
        # row i now holds only the pivot, so column p drops out as well
        for r in pcol:
            touched = rows[r]
            touched.discard(p)
            if touched:
                heapq.heappush(heap, (len(touched), r))
            else:
                del rows[r]
        units += 1
    position = {r: t for t, r in enumerate(sorted(rows))}
    rest = [[0] * len(cols) for _ in position]
    for t, col in enumerate(cols.values()):
        for r, v in col.items():
            rest[position[r]][t] = v
    return (1,) * units + smith_normal_form(rest)


@dataclass(frozen=True)
class HomologyProfile:
    """Per degree: Betti number and torsion coefficients in invariant-factor
    form (unreduced homology; betti_0 counts components)."""

    groups: tuple   # ((betti, torsion tuple), ...) for degrees 0..dim

    @property
    def betti(self):
        return tuple(b for b, _ in self.groups)

    @property
    def torsion(self):
        return tuple(t for _, t in self.groups)

    def group(self, k):
        if 0 <= k < len(self.groups):
            return self.groups[k]
        return (0, ())

    def to_json_obj(self):
        return [{"k": k, "betti": b, "torsion": list(t)}
                for k, (b, t) in enumerate(self.groups)]


def _profile(facets, middle, labels, index) -> HomologyProfile:
    """Homology of the pure n-complex with ``facets``, sorted (n+1)-vertex
    tuples over the labels 0..labels-1, and k-faces ``middle[k - 1]`` for
    0 < k < n; ``index[k]`` maps each k-face to its row key in the
    degree-(k+1) boundary.  Degrees 0 and 1 by one union-find (see the module
    docstring), higher degrees by invariant_factors."""
    n = len(facets[0]) - 1
    verts, parts = component_count(facets, [-1] * labels)
    cells = (*middle, facets)                   # the k-faces, k = 1..n
    sizes = (verts, *map(len, cells))[:n + 1]   # n = 0: the facets are the vertices
    ranks = [0, verts - parts] + [0] * n        # n = 0: verts == parts, rank d1 is 0
    torsion = [()] * (n + 1)
    for k in range(2, n + 1):
        invariants = invariant_factors(_columns(cells[k - 1], index[k - 1]))
        ranks[k] = len(invariants)
        torsion[k - 1] = tuple(d for d in invariants if d > 1)
    return HomologyProfile(tuple((sizes[k] - ranks[k] - ranks[k + 1], torsion[k])
                                 for k in range(n + 1)))


def homology_groups(c: SimplicialComplex) -> HomologyProfile:
    return _profile(c.faces[-1], c.faces[1:-1], c.vertex_count, c.face_index)


def punctured_complex(c: SimplicialComplex, t: int) -> SimplicialComplex:
    """Drop one open facet; on a closed manifold every face of it survives in
    the closure of the remaining facets."""
    if len(c.top_simplices) < 2:
        raise InvalidComplexError("cannot puncture a single-facet complex")
    if not 0 <= t < len(c.top_simplices):
        raise InvalidComplexError(f"no facet with id {t}")
    removed = c.top_simplices[t]
    rest = [s for i, s in enumerate(c.top_simplices) if i != t]
    pc = SimplicialComplex(c.dimension, rest, vertex_coords=c.vertex_coords)
    for k in range(c.dimension):
        for f in combinations(removed, k + 1):
            if f not in pc.face_index[k]:
                raise InvalidComplexError(
                    f"puncturing facet {removed} would drop its face {f}; "
                    "complex is not a closed manifold")
    return pc


def _punctured_profile(c: SimplicialComplex, t: int) -> HomologyProfile:
    """Homology of ``c`` minus its open facet ``t``, off ``c``'s own face
    lists.  Once every ridge of ``t`` lies in another facet, so does every
    proper face of ``t``: the lists are then exactly those of
    ``punctured_complex(c, t)``, and so is the profile."""
    if len(c.top_simplices) < 2:
        raise InvalidComplexError("cannot puncture a single-facet complex")
    if not 0 <= t < len(c.top_simplices):
        raise InvalidComplexError(f"no facet with id {t}")
    removed = c.top_simplices[t]
    n = c.dimension
    for f in combinations(removed, n) if n else ():
        if len(c.ridge_cofacets[c.face_index[n - 1][f]]) < 2:
            raise InvalidComplexError(
                f"puncturing facet {removed} would drop its face {f}; "
                "complex is not a closed manifold")
    facets, i = c.faces[n], c.face_index[n][removed]
    return _profile(facets[:i] + facets[i + 1:], c.faces[1:-1], c.vertex_count,
                    c.face_index)


@dataclass(frozen=True)
class Theorem2Report:
    """Degreewise comparison of spine homology against the once-punctured
    complex (a falsified degree is data here, not an exception)."""

    spine: HomologyProfile
    punctured: HomologyProfile
    equal_by_degree: tuple

    @property
    def ok(self):
        return all(self.equal_by_degree)

    def to_json_obj(self):
        return {
            "spine": self.spine.to_json_obj(),
            "punctured": self.punctured.to_json_obj(),
            "equal_by_degree": list(self.equal_by_degree),
            "ok": self.ok,
        }


def verify_theorem2(c: SimplicialComplex, d) -> Theorem2Report:
    """Compare the spine's homology with that of ``c`` minus the open root
    facet.  The latter depends on (c, root) only, so it is computed once per
    root and kept on the complex; only the spine is recomputed per call,
    straight from its ridge ids in ``c``'s own labels.  Its middle faces are
    listed only when it has any (n >= 3).  Neither builds a complex."""
    ridges = spine_ridges(c, d)
    middle = [{f for r in ridges for f in combinations(r, k + 1)}
              for k in range(1, c.dimension - 1)]
    spine = _profile(ridges, middle, c.vertex_count, c.face_index)
    punct_profile = c._punctured_homology.get(d.root)
    if punct_profile is None:
        punct_profile = c._punctured_homology[d.root] = _punctured_profile(c, d.root)
    degrees = range(c.dimension + 1)
    equal = tuple(spine.group(k) == punct_profile.group(k) for k in degrees)
    return Theorem2Report(spine, punct_profile, equal)
