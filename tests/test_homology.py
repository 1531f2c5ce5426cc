import dataclasses
import random
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spineforge as sf
from spineforge import cli
from spineforge.homology import (homology_groups, invariant_factors,
                                 punctured_complex, smith_normal_form,
                                 verify_theorem2)
from spineforge.simplicial import (InvalidComplexError, SimplicialComplex,
                                   validate_closed_manifold)
from spineforge.spine import Decomposition, spine_subcomplex

from grids import freudenthal_torus3, grid_surface
from helpers import (BoundaryMatrix, boundary_matrix, euler_characteristic, face_id,
                     reference_spine_profile)


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
            assert alt == euler_characteristic(c)

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
        cycle = tuple(sorted(face_id(c, 1, e) for e in [(0, 1), (0, 2), (1, 2)]))
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


@pytest.fixture
def puncture_calls(monkeypatch):
    """Count the punctured profiles verify_theorem2 reads off face lists."""
    calls = []
    original = sf.homology._punctured_profile

    def counting(c, t):
        calls.append(t)
        return original(c, t)

    monkeypatch.setattr(sf.homology, "_punctured_profile", counting)
    return calls


class TestPuncturedHomologyCache:
    """The punctured homology depends on (complex, root) only: verify reads
    it off the input's face lists once per root and recomputes only the
    spine per seed."""

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_built_once_per_root(self, puncture_calls, klein):
        c = grid_surface(8, klein=klein)
        reports = [verify_theorem2(c, sf.decompose(c, strategy="random", seed=seed))
                   for seed in range(20)]
        assert puncture_calls == [0]
        assert all(r.ok and r.punctured.groups == WEDGE_OF_TWO_CIRCLES for r in reports)
        assert all(r.punctured is reports[0].punctured for r in reports)

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_built_once_per_cli_run(self, puncture_calls, klein):
        c = grid_surface(8, klein=klein)
        assert cli.run_verification(c, 3, "random", range(20)) == []
        assert puncture_calls == [3]

    def test_two_roots_two_entries(self, puncture_calls):
        c = grid_surface(8)
        for root in (0, 5, 0, 5):
            assert verify_theorem2(c, sf.decompose(c, root=root)).ok
        assert puncture_calls == [0, 5]
        assert sorted(name[1] for name in c._derived if name[0] == "punctured") == [0, 5]

    @pytest.mark.parametrize("name", sf.census_names())
    def test_builds_no_complex(self, monkeypatch, name):
        c = sf.build_census(name)
        ds = [sf.decompose(c, root=t, strategy="random", seed=t)
              for t in range(len(c.top_simplices))]
        built = []
        init = SimplicialComplex.__init__
        monkeypatch.setattr(SimplicialComplex, "__init__",
                            lambda self, *args, **kw: built.append(args) or init(self, *args, **kw))
        assert all(verify_theorem2(c, d).ok for d in ds)
        assert cli.run_verification(c, 1, "random", range(5)) == []
        assert built == []
        punctured_complex(c, 0)   # the spy sees a build where there is one
        assert len(built) == 1

    @pytest.mark.parametrize("name", sf.census_names())
    def test_cached_equals_fresh(self, name):
        c = sf.build_census(name)
        for t in range(len(c.top_simplices)):
            d = sf.decompose(c, root=t, strategy="random", seed=t)
            fresh = homology_groups(punctured_complex(c, t))
            for _ in range(2):   # a miss, then a hit
                report = verify_theorem2(c, d)
                assert report.punctured == fresh
                assert report.ok, report.to_json_obj()

    @pytest.mark.parametrize("case", ["root-out-of-range", "single-facet",
                                      "non-manifold-puncture", "open-ridge"])
    def test_errors_are_not_cached(self, puncture_calls, case):
        if case == "root-out-of-range":
            c = grid_surface(4)
            d = dataclasses.replace(sf.decompose(c), root=len(c.top_simplices))
        else:
            tops = {"single-facet": [(0, 1, 2)],
                    "non-manifold-puncture": [(0, 1, 2), (2, 3, 4)],
                    # the ridge (1, 2) of facet 0 lies in no other facet
                    "open-ridge": [(0, 1, 2), (0, 1, 3), (0, 2, 3)]}[case]
            c = SimplicialComplex(2, tops)
            d = Decomposition(0, (), tuple(range(len(c.faces[1]))), "bfs", 0)
        match = r"would drop its face \(1, 2\); " if case == "open-ridge" else None
        with pytest.raises(InvalidComplexError, match=match):
            punctured_complex(c, d.root)
        for _ in range(3):
            with pytest.raises(InvalidComplexError, match=match):
                verify_theorem2(c, d)
        assert puncture_calls == [d.root] * 3
        assert [name for name in c._derived if name[0] == "punctured"] == []


@st.composite
def pure_complexes(draw):
    """Pure 1- or 2-complexes on at most 8 vertices, relabelled densely."""
    n = draw(st.integers(1, 2))
    pool = list(combinations(range(8), n + 1))
    tops = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12, unique=True))
    label = {v: i for i, v in enumerate(sorted({v for t in tops for v in t}))}
    return SimplicialComplex(n, [tuple(label[v] for v in t) for t in tops])


STRATEGIES_AND_SEEDS = [(s, seed) for s in ("bfs", "dfs", "random") for seed in range(10)]


class TestFaceListProfile:
    """Degree 1 by union-find and the spine read off the input's face ids,
    each against an oracle that goes the long way round."""

    @settings(max_examples=200, deadline=None)
    @given(pure_complexes())
    def test_union_find_matches_dense(self, c):
        assert homology_groups(c).groups == dense_homology(c)

    @pytest.mark.parametrize("name", sf.census_names())
    def test_spine_matches_subcomplex_on_census(self, census, name):
        c = census[name]
        for strategy, seed in STRATEGIES_AND_SEEDS:
            d = sf.decompose(c, strategy=strategy, seed=seed)
            sub = spine_subcomplex(c, d).complex
            spine = verify_theorem2(c, d).spine
            assert spine.groups == homology_groups(sub).groups == dense_homology(sub)
            assert len(spine.groups) == c.dimension   # spine dimension n-1

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_spine_matches_subcomplex_at_scale(self, klein):
        c = grid_surface(GRID_K, klein=klein)
        for strategy, seed in STRATEGIES_AND_SEEDS:
            d = sf.decompose(c, root=seed, strategy=strategy, seed=seed)
            report = verify_theorem2(c, d)
            assert report.spine.groups == homology_groups(spine_subcomplex(c, d).complex).groups
            assert report.ok

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_spine_equals_reference_on_12x12_grids(self, klein):
        c = grid_surface(12, klein=klein)
        for strategy, seed in STRATEGIES_AND_SEEDS:
            d = sf.decompose(c, root=seed, strategy=strategy, seed=seed)
            reference = reference_spine_profile(c, d)
            assert verify_theorem2(c, d).spine == reference, (strategy, seed)
            assert sf.spine_connected(c, d) == (reference.betti[0] == 1)

    def test_empty_or_repeated_spine_rejected(self, census):
        c = census["torus7"]
        d = sf.decompose(c)
        for spine in ((), d.spine[:1] * 2 + d.spine[1:]):
            for check in (verify_theorem2, sf.spine_connected):
                with pytest.raises(InvalidComplexError):
                    check(c, dataclasses.replace(d, spine=spine))

    @pytest.mark.parametrize("check", [verify_theorem2, sf.spine_connected],
                             ids=["verify_theorem2", "spine_connected"])
    def test_negative_spine_id_rejected(self, census, check):
        # -1 would index the last ridge
        c = census["torus7"]
        d = sf.decompose(c)
        with pytest.raises(InvalidComplexError, match=r"no ridge with id -1 \(ridge ids run 0\.\.20\)"):
            check(c, dataclasses.replace(d, spine=(-1,) + d.spine[1:]))

    @pytest.mark.parametrize("check", [verify_theorem2, sf.spine_connected],
                             ids=["verify_theorem2", "spine_connected"])
    def test_spine_id_past_the_ridges_rejected(self, census, check):
        c = census["torus7"]
        d = sf.decompose(c)
        with pytest.raises(InvalidComplexError, match=r"no ridge with id 21 \(ridge ids run 0\.\.20\)"):
            check(c, dataclasses.replace(d, spine=d.spine[:-1] + (21,)))


def closure(c, ridges):
    """Every proper face of the given ridges."""
    ridge_faces = c.faces[c.dimension - 1]
    return {f for rid in ridges for k in range(1, c.dimension)
            for f in combinations(ridge_faces[rid], k)}


def euler_changing_faults(c, d):
    """Spines with one ridge dropped or one gate ridge added, where every
    proper face of that ridge stays in (or already was in) the spine's
    closure: only the ridge itself comes or goes, so the Euler characteristic
    and with it the homology must change."""
    spine = set(d.spine)
    for rid in d.spine:
        rest = spine - {rid}
        if rest and closure(c, [rid]) <= closure(c, rest):
            yield "drop", tuple(sorted(rest))
    black = closure(c, spine)
    for rid in d.gate_ids():
        if closure(c, [rid]) <= black:
            yield "add", tuple(sorted(spine | {rid}))


class TestSpineFaultInjection:
    @pytest.mark.parametrize("name", sf.census_names())
    def test_census(self, census, name):
        c = census[name]
        kinds = set()
        for strategy, seed in STRATEGIES_AND_SEEDS:
            d = sf.decompose(c, strategy=strategy, seed=seed)
            for kind, spine in euler_changing_faults(c, d):
                kinds.add(kind)
                report = verify_theorem2(c, dataclasses.replace(d, spine=spine))
                assert not report.ok, (kind, strategy, seed)
        # circle3's spine is one vertex: dropping it leaves nothing to check
        assert kinds == ({"add"} if name == "circle3" else {"drop", "add"})

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_grids(self, klein):
        c = grid_surface(12, klein=klein)
        kinds = set()
        for seed in range(2):
            d = sf.decompose(c, strategy="random", seed=seed)
            for kind, spine in euler_changing_faults(c, d):
                kinds.add(kind)
                assert not verify_theorem2(c, dataclasses.replace(d, spine=spine)).ok
        assert kinds == {"drop", "add"}


class TestSpineComponentCount:
    """``verify`` reads spine connectivity off ``betti[0]`` of the spine
    profile; it must agree with ``spine_connected`` wherever both run, and
    the profile must equal the one first read off closure-face sets."""

    @staticmethod
    def _spines(c, d):
        """The spine, its fault-injected variants, and random sub-spines,
        which are mostly disconnected."""
        yield d.spine
        for _, spine in euler_changing_faults(c, d):
            yield spine
        rng = random.Random(d.seed)
        for _ in range(5):
            yield tuple(sorted(rng.sample(d.spine, rng.randint(1, len(d.spine)))))

    @pytest.mark.parametrize("name", sf.census_names())
    def test_betti0_iff_spine_connected(self, census, name):
        c = census[name]
        for strategy, seed in STRATEGIES_AND_SEEDS:
            d = sf.decompose(c, strategy=strategy, seed=seed)
            for spine in self._spines(c, d):
                e = dataclasses.replace(d, spine=spine)
                profile = verify_theorem2(c, e).spine
                assert profile == reference_spine_profile(c, e), (strategy, seed, spine)
                assert (profile.betti[0] == 1) == \
                    sf.spine_connected(c, e), (strategy, seed, spine)

    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_betti0_iff_spine_connected_on_grids(self, klein):
        c = grid_surface(12, klein=klein)
        for seed in range(2):
            d = sf.decompose(c, strategy="random", seed=seed)
            for spine in self._spines(c, d):
                e = dataclasses.replace(d, spine=spine)
                profile = verify_theorem2(c, e).spine
                assert profile == reference_spine_profile(c, e)
                assert (profile.betti[0] == 1) == sf.spine_connected(c, e)

    def test_disconnected_spine_is_reported(self, census, monkeypatch):
        # two spine edges with no common vertex: two components, so both the
        # homology and the connectivity entries appear, in that order
        c = census["torus7"]
        d = sf.decompose(c)
        edges = c.faces[1]
        a = d.spine[0]
        b = next(r for r in d.spine if not set(edges[a]) & set(edges[r]))
        split = dataclasses.replace(d, spine=(a, b))
        assert not sf.spine_connected(c, split)
        monkeypatch.setattr(cli, "decompose", lambda *args, **kwargs: split)
        failures = cli.run_verification(c, 0, "random", [4])
        assert [f["reason"] for f in failures] == ["homology mismatch", "spine disconnected"]
        assert failures[1] == {"seed": 4, "reason": "spine disconnected"}


class TestSpineBuildsNoComplex:
    """Counted calls, not wall-clock: per seed, verify reads the spine off the
    input's faces and needs no elimination on a surface."""

    def test_twenty_seeds_of_the_8x8_torus(self, monkeypatch):
        c = grid_surface(8)
        decompositions = [sf.decompose(c, strategy="random", seed=seed)
                          for seed in range(20)]
        built, eliminated = [], []
        init = SimplicialComplex.__init__
        factors = sf.homology.invariant_factors

        def counting_init(self, *args, **kwargs):
            built.append(args[0])
            init(self, *args, **kwargs)

        def counting_factors(columns):
            eliminated.append(len(columns))
            return factors(columns)

        monkeypatch.setattr(SimplicialComplex, "__init__", counting_init)
        monkeypatch.setattr(sf.homology, "invariant_factors", counting_factors)
        assert all(verify_theorem2(c, d).ok for d in decompositions)
        assert built == []                                  # M° is read off c's faces
        assert eliminated == [len(c.top_simplices) - 1]     # its boundary d2

    def test_one_union_find_pass_per_call_and_no_face_listing(self, monkeypatch):
        c = grid_surface(8)
        decompositions = [sf.decompose(c, strategy="random", seed=seed)
                          for seed in range(20)]
        verify_theorem2(c, decompositions[0])   # the punctured homology, once per root
        listed, passes = [], []
        count = sf.simplicial.component_count

        def counting_combinations(*args):
            listed.append(args)
            return combinations(*args)

        def counting_count(simplices, table):
            passes.append(len(table))
            return count(simplices, table)

        monkeypatch.setattr(sf.homology, "combinations", counting_combinations)
        monkeypatch.setattr(sf.homology, "component_count", counting_count)
        monkeypatch.setattr(sf.spine, "component_count", counting_count)
        for d in decompositions:
            assert verify_theorem2(c, d).ok
            assert passes == [c.vertex_count]
            assert sf.spine_connected(c, d)
            assert passes == [c.vertex_count] * 2
            passes.clear()
        assert listed == []


class TestThreeTorusEliminationCounts:
    """Count test on the Freudenthal 3-torus: the columns verify's
    elimination leaves to the dense ``smith_normal_form``.  Every remainder
    is empty, so every invariant factor comes from a unit pivot, except on
    the dfs tree at k = 4: its spine's d2 leaves two columns over six rows,
    entries 2 and -3, with no unit to pivot on (one factor 1, from the
    dense pass)."""

    DENSE_COLUMNS = {(4, "dfs"): 2}

    @pytest.mark.parametrize("k", [4, 5, 6])
    def test_remainders(self, monkeypatch, k):
        c = freudenthal_torus3(k)
        remainders, factors = [], []
        snf, eliminate = sf.homology.smith_normal_form, sf.homology.invariant_factors

        def spy_snf(mat):
            remainders.append(mat)
            return snf(mat)

        def spy_eliminate(columns):
            out = eliminate(columns)
            factors.append(out)
            return out

        monkeypatch.setattr(sf.homology, "smith_normal_form", spy_snf)
        monkeypatch.setattr(sf.homology, "invariant_factors", spy_eliminate)
        for strategy in ("bfs", "dfs", "random"):
            for seed in range(3):
                remainders.clear()
                factors.clear()
                assert verify_theorem2(c, sf.decompose(c, strategy=strategy, seed=seed)).ok
                # the first call also eliminates the punctured complex's d2 and d3
                assert len(remainders) == len(factors) == (3 if strategy == "bfs" and seed == 0
                                                           else 1)
                assert all(set(out) <= {1} for out in factors)
                want = self.DENSE_COLUMNS.get((k, strategy), 0)
                assert [len(mat[0]) if mat else 0 for mat in remainders][-1] == want
                assert all(mat == [] for mat in remainders[:-1])
