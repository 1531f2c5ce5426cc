"""Integer simplicial homology by sparse unit-pivot elimination.

Each boundary map is built as sparse integer columns straight from the face
index.  Pivots on +-1 entries are eliminated first, shortest row first
(Markowitz order keeps fill low); each one contributes an invariant factor 1.
The small remainder, which carries all torsion, goes to the dense
``smith_normal_form``, which also serves the tests as the oracle.  Every
step runs on Python integers, so ranks and torsion are exact at any size.
Unit-pivot elimination follows Dumas-Heckenbach-Saunders-Welker (2003) and
Kaczynski-Mrozek-Slusarek (1998).
"""

from __future__ import annotations

import heapq
import json
from dataclasses import dataclass
from math import gcd

from .simplicial import InvalidComplexError, SimplicialComplex


@dataclass(frozen=True)
class BoundaryMatrix:
    """Matrix of the degree-k boundary map; rows (k-1)-faces, columns k-faces."""

    degree: int
    entries: tuple   # row tuples of ints in {-1, 0, +1}

    @property
    def shape(self):
        rows = len(self.entries)
        return (rows, len(self.entries[0]) if rows else 0)


def _boundary_columns(c: SimplicialComplex, k: int) -> list:
    """Alternating-sign boundary on sorted tuples: column of (v0<...<vk) has
    (-1)^i in the row of (v0..v̂i..vk).  One {row: +-1} dict per k-face."""
    if k < 1 or k > c.dimension:
        raise InvalidComplexError(f"degree {k} out of range 1..{c.dimension}")
    idx = c.face_index[k - 1]
    return [{idx[face[:i] + face[i + 1:]]: -1 if i % 2 else 1 for i in range(k + 1)}
            for face in c.faces[k]]


def boundary_matrix(c: SimplicialComplex, k: int) -> BoundaryMatrix:
    """Dense form of the degree-k boundary map (see _boundary_columns)."""
    columns = _boundary_columns(c, k)
    mat = [[0] * len(columns) for _ in c.faces[k - 1]]
    for j, col in enumerate(columns):
        for i, v in col.items():
            mat[i][j] = v
    return BoundaryMatrix(k, tuple(tuple(r) for r in mat))


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

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True)


def homology_groups(c: SimplicialComplex) -> HomologyProfile:
    n = c.dimension
    invariants = {k: invariant_factors(_boundary_columns(c, k))
                  for k in range(1, n + 1)}
    ranks = {k: len(invariants[k]) for k in invariants}
    ranks[0] = 0
    ranks[n + 1] = 0
    groups = []
    for k in range(n + 1):
        betti = len(c.faces[k]) - ranks[k] - ranks[k + 1]
        torsion = tuple(d for d in invariants.get(k + 1, ())) if k < n else ()
        torsion = tuple(d for d in torsion if d > 1)
        groups.append((betti, torsion))
    return HomologyProfile(tuple(groups))


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
    from itertools import combinations
    for k in range(c.dimension):
        for f in combinations(removed, k + 1):
            if f not in pc.face_index[k]:
                raise InvalidComplexError(
                    f"puncturing facet {removed} would drop its face {f}; "
                    "complex is not a closed manifold")
    return pc


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
    from .spine import spine_subcomplex  # local import: avoids module cycle

    sub = spine_subcomplex(c, d)
    spine_profile = homology_groups(sub.complex)
    punct_profile = homology_groups(punctured_complex(c, d.root))
    degrees = range(c.dimension + 1)
    equal = tuple(spine_profile.group(k) == punct_profile.group(k) for k in degrees)
    return Theorem2Report(spine_profile, punct_profile, equal)
