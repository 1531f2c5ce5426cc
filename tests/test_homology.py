from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spineforge as sf
from spineforge.homology import (BoundaryMatrix, boundary_matrix,
                                 homology_groups, invariant_factors,
                                 punctured_complex, smith_normal_form,
                                 verify_theorem2)
from spineforge.simplicial import (InvalidComplexError, SimplicialComplex,
                                   validate_closed_manifold)
from spineforge.spine import Decomposition


def compose(a: BoundaryMatrix, b: BoundaryMatrix):
    """Integer product a*b (for the d∘d = 0 check)."""
    ra, ca = a.shape
    rb, cb = b.shape
    if ca != rb:
        raise ValueError(f"shape mismatch {a.shape} x {b.shape}")
    out = [[0] * cb for _ in range(ra)]
    for i in range(ra):
        arow = a.entries[i]
        for t in range(ca):
            x = arow[t]
            if x:
                brow = b.entries[t]
                row = out[i]
                for j in range(cb):
                    row[j] += x * brow[j]
    return out


def rank_gf2(mat) -> int:
    """Row rank over GF(2); rows packed into ints (cross-check only)."""
    rows = []
    for row in mat:
        bits = 0
        for j, v in enumerate(row):
            if v % 2:
                bits |= 1 << j
        if bits:
            rows.append(bits)
    rank = 0
    while rows:
        pivot = rows.pop()
        rank += 1
        low = pivot & -pivot
        rows = [r ^ pivot if r & low else r for r in rows]
        rows = [r for r in rows if r]
    return rank


def rank_over_q(mat):
    """Independent rank oracle: Gaussian elimination over exact rationals."""
    rows = [[Fraction(x) for x in row] for row in mat]
    rank = 0
    cols = len(rows[0]) if rows else 0
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = rows[r][c]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c] / inv
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        rank += 1
    return rank


def det_int(mat):
    """Exact integer determinant by fraction-free expansion (small matrices)."""
    n = len(mat)
    if n == 1:
        return mat[0][0]
    total = 0
    for j in range(n):
        if mat[0][j] == 0:
            continue
        minor = [row[:j] + row[j + 1:] for row in mat[1:]]
        total += (-1) ** j * mat[0][j] * det_int(minor)
    return total


class TestBoundaryMatrix:
    def test_single_edge_column(self):
        c = SimplicialComplex(1, [(0, 1)])
        b = boundary_matrix(c, 1)
        assert b.entries == ((-1,), (1,))

    def test_circle3(self, census):
        b = boundary_matrix(census["circle3"], 1)
        assert b.shape == (3, 3)
        for j in range(3):
            assert sum(row[j] for row in b.entries) == 0
        assert rank_over_q(b.entries) == 2

    def test_sphere_tet_degree2(self, census):
        b = boundary_matrix(census["sphere_tet"], 2)
        assert b.shape == (6, 4)
        assert rank_over_q(b.entries) == 3

    def test_out_of_range(self, census):
        with pytest.raises(InvalidComplexError):
            boundary_matrix(census["sphere_tet"], 0)
        with pytest.raises(InvalidComplexError):
            boundary_matrix(census["sphere_tet"], 3)

    def test_boundary_of_boundary_vanishes(self, census):
        for c in census.values():
            for k in range(2, c.dimension + 1):
                prod = compose(boundary_matrix(c, k - 1), boundary_matrix(c, k))
                assert all(all(x == 0 for x in row) for row in prod)


class TestSmithNormalForm:
    def test_examples(self):
        assert smith_normal_form([[2, 0], [0, 0]]) == (2,)
        assert smith_normal_form([[1, 0, 0], [0, 1, 0], [0, 0, 1]]) == (1, 1, 1)
        # hand row-reduction: gcd of entries 2, |det| = 8, so (2, 4)
        assert smith_normal_form([[2, 4], [6, 8]]) == (2, 4)

    def test_zero_and_empty(self):
        assert smith_normal_form([[0, 0], [0, 0]]) == ()
        assert smith_normal_form([]) == ()

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.lists(st.integers(-9, 9), min_size=3, max_size=3),
                    min_size=3, max_size=3))
    def test_against_exact_oracles(self, mat):
        inv = smith_normal_form(mat)
        assert len(inv) == rank_over_q(mat)
        for a, b in zip(inv, inv[1:]):
            assert b % a == 0
        entries = [x for row in mat for x in row]
        if any(entries):
            assert inv[0] == gcd(*entries)
        d = abs(det_int(mat))
        if d:
            prod = 1
            for x in inv:
                prod *= x
            assert prod == d


class TestHomologyGroups:
    @pytest.mark.parametrize("name,betti,torsion", [
        ("circle3", (1, 1), ((), ())),
        ("sphere_tet", (1, 0, 1), ((), (), ())),
        ("torus7", (1, 2, 1), ((), (), ())),
        ("rp2_6", (1, 0, 0), ((), (2,), ())),
        ("sphere3_pent", (1, 0, 0, 1), ((), (), (), ())),
    ])
    def test_census_profiles(self, census, name, betti, torsion):
        profile = homology_groups(census[name])
        assert profile.betti == betti
        assert profile.torsion == torsion

    def test_alternating_sum_is_euler(self, census):
        for c in census.values():
            profile = homology_groups(c)
            alt = sum((-1) ** k * b for k, b in enumerate(profile.betti))
            assert alt == sf.euler_characteristic(c)

    def test_gf2_cross_check_rp2(self, census):
        # universal coefficients: b_k(F2) = b_k + t_k + t_{k-1} with t_* the
        # number of even torsion factors; for RP2 that gives (1, 1, 1)
        c = census["rp2_6"]
        r1 = rank_gf2(boundary_matrix(c, 1).entries)
        r2 = rank_gf2(boundary_matrix(c, 2).entries)
        gf2_betti = (6 - r1, 15 - r1 - r2, 10 - r2)
        assert gf2_betti == (1, 1, 1)

    def test_profile_json(self, census):
        obj = homology_groups(census["rp2_6"]).to_json_obj()
        assert obj[1] == {"k": 1, "betti": 0, "torsion": [2]}


class TestPuncturedComplex:
    def test_sphere_tet(self, census):
        p = punctured_complex(census["sphere_tet"], 0)
        assert homology_groups(p).betti == (1, 0, 0)

    def test_torus7(self, census):
        p = punctured_complex(census["torus7"], 5)
        assert homology_groups(p).betti == (1, 2, 0)

    def test_circle3(self, census):
        p = punctured_complex(census["circle3"], 1)
        assert homology_groups(p).betti == (1, 0)

    def test_keeps_all_faces(self, census):
        c = census["sphere_tet"]
        p = punctured_complex(c, 2)
        assert p.f_vector == (4, 6, 3)

    def test_rejects_single_facet(self):
        with pytest.raises(InvalidComplexError):
            punctured_complex(SimplicialComplex(2, [(0, 1, 2)]), 0)

    def test_rejects_bad_id(self, census):
        with pytest.raises(InvalidComplexError):
            punctured_complex(census["sphere_tet"], 17)


class TestTheorem2:
    @pytest.mark.parametrize("name", ["circle3", "sphere_tet", "torus7",
                                      "rp2_6", "sphere3_pent"])
    def test_holds_on_census(self, census, name):
        c = census[name]
        for strategy in ("bfs", "dfs", "random"):
            d = sf.decompose(c, root=0, strategy=strategy, seed=11)
            report = verify_theorem2(c, d)
            assert report.ok, report.to_json_obj()

    def test_expected_profiles(self, census):
        c = census["rp2_6"]
        d = sf.decompose(c)
        report = verify_theorem2(c, d)
        # Moebius band side: free rank (1, 1), no torsion
        assert report.spine.betti == (1, 1)
        assert report.punctured.betti == (1, 1, 0)
        assert all(t == () for t in report.spine.torsion)

    def test_fault_injection_is_caught(self, census):
        # misclassify ridges so the "spine" closes a cycle: homology must differ
        c = census["sphere_tet"]
        d = sf.decompose(c)
        cycle = tuple(sorted(c.face_id(1, e) for e in [(0, 1), (0, 2), (1, 2)]))
        bad = Decomposition(d.root, d.gates, cycle, d.strategy, d.seed)
        report = verify_theorem2(c, bad)
        assert not report.ok


def dense_homology(c):
    """Oracle: homology from dense boundary matrices and smith_normal_form."""
    n = c.dimension
    invariants = {k: smith_normal_form(boundary_matrix(c, k).entries)
                  for k in range(1, n + 1)}
    ranks = {0: 0, n + 1: 0, **{k: len(inv) for k, inv in invariants.items()}}
    return tuple((len(c.faces[k]) - ranks[k] - ranks[k + 1],
                  tuple(d for d in invariants.get(k + 1, ()) if d > 1))
                 for k in range(n + 1))


def columns_of(mat):
    """Sparse {row: value} columns of a dense matrix."""
    width = len(mat[0]) if mat else 0
    return [{i: row[j] for i, row in enumerate(mat) if row[j]} for j in range(width)]


@st.composite
def sparse_matrices(draw):
    """Up to 8 x 8, entries in -3..3 (mostly 0), some rows and columns zeroed."""
    rows, cols = draw(st.integers(0, 8)), draw(st.integers(0, 8))
    entry = st.one_of(st.just(0), st.integers(-3, 3))
    mat = [draw(st.lists(entry, min_size=cols, max_size=cols)) for _ in range(rows)]
    if rows and cols:
        for i in draw(st.sets(st.integers(0, rows - 1), max_size=2)):
            mat[i] = [0] * cols
        for j in draw(st.sets(st.integers(0, cols - 1), max_size=2)):
            for row in mat:
                row[j] = 0
    return mat


class TestSparseElimination:
    @settings(max_examples=200, deadline=None)
    @given(sparse_matrices())
    def test_matches_dense_snf(self, mat):
        assert invariant_factors(columns_of(mat)) == smith_normal_form(mat)

    def test_torsion_reaches_the_remainder(self):
        # no unit pivot anywhere: everything is left to the dense solver
        assert invariant_factors(columns_of([[2, 0], [0, 3]])) == (1, 6)
        # one unit pivot, remainder [[4]] after clearing its row and column
        assert invariant_factors(columns_of([[1, 2], [3, 10]])) == (1, 4)

    @pytest.mark.parametrize("name", sf.census_names())
    def test_homology_matches_dense_path(self, census, name):
        c = census[name]
        assert homology_groups(c).groups == dense_homology(c)
        for t in range(len(c.top_simplices)):
            p = punctured_complex(c, t)
            assert homology_groups(p).groups == dense_homology(p)


def grid_surface(k, klein=False):
    """k x k square grid, two triangles per square, opposite sides glued.
    The torus glues both pairs straight; the Klein bottle glues the pair at
    j = 0 and j = k with the reflection i -> -i."""
    def vertex(i, j):
        if klein and j == k:
            i, j = -i, 0
        return (i % k) * k + j % k
    facets = []
    for i in range(k):
        for j in range(k):
            a, b = vertex(i, j), vertex(i + 1, j)
            c, d = vertex(i + 1, j + 1), vertex(i, j + 1)
            facets += [tuple(sorted((a, b, c))), tuple(sorted((a, c, d)))]
    return SimplicialComplex(2, facets)


GRID_K = 16   # 512 facets: far past the census sizes
TORUS = ((1, ()), (2, ()), (1, ()))
KLEIN = ((1, ()), (1, (2,)), (0, ()))
WEDGE_OF_TWO_CIRCLES = ((1, ()), (2, ()), (0, ()))


class TestGroundTruthAtScale:
    """Surfaces whose homology is known by construction."""

    @pytest.fixture(scope="class", params=[False, True], ids=["torus", "klein"])
    def surface(self, request):
        c = grid_surface(GRID_K, klein=request.param)
        assert validate_closed_manifold(c).ok
        assert c.f_vector == (GRID_K ** 2, 3 * GRID_K ** 2, 2 * GRID_K ** 2)
        return c, (KLEIN if request.param else TORUS)

    def test_known_homology(self, surface):
        c, expected = surface
        assert homology_groups(c).groups == expected

    def test_punctured(self, surface):
        c, _ = surface
        for t in (0, 137, len(c.top_simplices) - 1):
            assert homology_groups(punctured_complex(c, t)).groups == WEDGE_OF_TWO_CIRCLES

    def test_theorem2_random_seeds(self, surface):
        c, _ = surface
        for seed in range(3):
            d = sf.decompose(c, root=seed * 97, strategy="random", seed=seed)
            report = verify_theorem2(c, d)
            assert report.ok, report.to_json_obj()
            assert report.punctured.groups == WEDGE_OF_TWO_CIRCLES
