import dataclasses
import json
import random
from collections import deque
from itertools import combinations

import pytest

import spineforge as sf
from spineforge import spine as spine_module
from spineforge.homology import homology_groups, verify_theorem2
from spineforge.simplicial import InvalidComplexError, SimplicialComplex
from spineforge.spine import (STRATEGIES, Decomposition, GateStep, _gate_table, decompose,
                              spine_connected, spine_subcomplex)

from grids import freudenthal_torus3, grid_surface
from helpers import decomposition_faults

EXPECTED_SPINE = {"circle3": 1, "sphere_tet": 3, "torus7": 8,
                  "rp2_6": 6, "sphere3_pent": 6}


def dual_edges(c):
    """(ridge id, facet a, facet b) per ridge of a closed complex, by id."""
    return [(rid, a, b) for rid, (a, b) in enumerate(c.ridge_cofacets)]


def partition_counts(c, d):
    """White (cell side) and black (spine closure) face counts per degree,
    after checking that the ridges split into gates and spine.  Black below
    degree n is the spine closure's f-vector, white the rest of ``c``'s."""
    assert sorted(d.gate_ids() + d.spine) == list(range(len(c.faces[c.dimension - 1])))
    black = spine_subcomplex(c, d).complex.f_vector + (0,)
    return {"white": tuple(a - b for a, b in zip(c.f_vector, black)), "black": black}


def all_spanning_trees(c):
    """Brute-force oracle: every dual edge subset of size N-1 that spans."""
    n = len(c.top_simplices)
    trees = []
    for combo in combinations(dual_edges(c), n - 1):
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        ok = True
        for _, a, b in combo:
            ra, rb = find(a), find(b)
            if ra == rb:
                ok = False
                break
            parent[ra] = rb
        if ok:
            trees.append(combo)
    return trees


def decomposition_from_tree(c, root, tree_edges):
    """Turn an explicit dual spanning tree into a growth-ordered decomposition."""
    adj = {}
    for rid, a, b in tree_edges:
        adj.setdefault(a, []).append((rid, b))
        adj.setdefault(b, []).append((rid, a))
    painted = {root}
    gates = []
    queue = deque([root])
    while queue:
        u = queue.popleft()
        for rid, v in sorted(adj.get(u, ())):
            if v not in painted:
                painted.add(v)
                gates.append(GateStep(u, rid, v))
                queue.append(v)
    gate_ids = {g.gate for g in gates}
    n = c.dimension
    spine = tuple(sorted(rid for rid in range(len(c.faces[n - 1]))
                         if rid not in gate_ids))
    return Decomposition(root, tuple(gates), spine, "manual", 0)


def decomposition_from_json(c, obj):
    """Inverse of ``Decomposition.to_json_obj``: spine faces back to ridge ids."""
    ridge_index = c.face_index[c.dimension - 1]
    spine = tuple(sorted(ridge_index[tuple(sorted(f))] for f in obj["spine"]))
    gates = tuple(GateStep(p, g, ch) for p, g, ch in obj["gates"])
    return Decomposition(obj["root"], gates, spine, obj["strategy"], obj["seed"])


def reference_decompose(c, root=0, strategy="bfs", seed=0):
    """The growth loop as first written: a sorted (ridge id, neighbour)
    adjacency of its own, a deque frontier, ``randrange`` draws and the spine
    as the sorted ridge ids missing from a set of gate ids.  ``decompose``
    must return the same trees, seed for seed."""
    adjacency = [[] for _ in c.top_simplices]
    for rid, a, b in dual_edges(c):
        adjacency[a].append((rid, b))
        adjacency[b].append((rid, a))
    adjacency = [sorted(row) for row in adjacency]
    rng = random.Random(seed) if strategy == "random" else None
    painted = [False] * len(adjacency)
    painted[root] = True
    frontier = deque()
    frontier.extend((root, rid, nbr) for rid, nbr in adjacency[root])
    gates = []
    gate_ids = set()
    while frontier:
        if strategy == "bfs":
            parent, rid, child = frontier.popleft()
        elif strategy == "dfs":
            parent, rid, child = frontier.pop()
        else:
            k = rng.randrange(len(frontier))
            frontier[k], frontier[-1] = frontier[-1], frontier[k]
            parent, rid, child = frontier.pop()
        if painted[child]:
            continue
        painted[child] = True
        gates.append(GateStep(parent, rid, child))
        gate_ids.add(rid)
        frontier.extend((child, r, nb) for r, nb in adjacency[child]
                        if not painted[nb])
    spine = tuple(sorted(rid for rid, _, _ in dual_edges(c) if rid not in gate_ids))
    return Decomposition(root, tuple(gates), spine, strategy, seed)


def check_prefix_property(d):
    reached = {d.root}
    for g in d.gates:
        assert g.parent in reached
        assert g.child not in reached
        reached.add(g.child)


class TestDecompose:
    def test_circle3(self, census):
        d = decompose(census["circle3"], root=0)
        assert len(d.gates) == 2
        assert len(d.spine) == 1

    @pytest.mark.parametrize("name", list(EXPECTED_SPINE))
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_spine_sizes(self, census, name, strategy):
        c = census[name]
        for seed in range(5):
            d = decompose(c, root=0, strategy=strategy, seed=seed)
            assert len(d.spine) == EXPECTED_SPINE[name]
            assert len(d.gates) == len(c.top_simplices) - 1
            assert len(d.spine) == len(c.faces[c.dimension - 1]) - len(d.gates)
            check_prefix_property(d)

    def test_every_child_absorbed_once(self, census):
        c = census["torus7"]
        d = decompose(c, strategy="random", seed=9)
        children = [g.child for g in d.gates]
        assert sorted(children + [d.root]) == list(range(len(c.top_simplices)))

    def test_gates_and_spine_partition_ridges(self, census):
        c = census["rp2_6"]
        d = decompose(c, strategy="dfs")
        assert sorted(d.gate_ids() + d.spine) == list(range(len(c.faces[1])))

    def test_rejects_bad_root(self, census):
        with pytest.raises(InvalidComplexError):
            decompose(census["sphere_tet"], root=99)

    @pytest.mark.parametrize("root", ["F", -1])
    def test_rejects_root_just_out_of_range(self, census, root):
        # F is one past the last facet id, where an off-by-one range check
        # would raise a bare IndexError, and -1 would index the last facet
        c = census["sphere_tet"]
        root = len(c.top_simplices) if root == "F" else root
        with pytest.raises(InvalidComplexError, match=rf"^no facet with id {root}$"):
            decompose(c, root=root)

    def test_bad_ridge_of_a_graph_named(self):
        # n = 1: a ridge is a vertex, here one that lies in three edges
        theta = SimplicialComplex(1, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])
        with pytest.raises(InvalidComplexError,
                           match=r"^ridge \(0,\) has 3 cofacets, expected 2$"):
            decompose(theta)

    def test_rejects_bad_strategy(self, census):
        with pytest.raises(InvalidComplexError):
            decompose(census["sphere_tet"], strategy="spiral")

    def test_rejects_disconnected(self):
        two_circles = SimplicialComplex(
            1, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        with pytest.raises(InvalidComplexError, match="^dual graph is disconnected$"):
            decompose(two_circles)

    def test_determinism(self, census):
        c = census["torus7"]
        a = decompose(c, root=3, strategy="random", seed=42)
        b = decompose(c, root=3, strategy="random", seed=42)
        assert a == b
        assert a.to_json(c) == b.to_json(c)

    def test_json_round_trip(self, census):
        c = census["rp2_6"]
        d = decompose(c, strategy="random", seed=5)
        back = decomposition_from_json(c, json.loads(d.to_json(c)))
        assert back == d


@pytest.fixture(scope="module")
def grids():
    return {"torus12": grid_surface(12), "klein12": grid_surface(12, klein=True),
            "torus48": grid_surface(48)}


def assert_same_as_reference(c, root, strategy, seed):
    d = decompose(c, root=root, strategy=strategy, seed=seed)
    ref = reference_decompose(c, root=root, strategy=strategy, seed=seed)
    assert d == ref, (root, strategy, seed)
    assert d.to_json(c).encode() == ref.to_json(c).encode()


class TestDecompositionShape:
    """``helpers.decomposition_faults`` needs no reference tree: every tree
    of the census, the 12x12 and 48x48 tori, the 12x12 Klein grid and T^3
    k = 4 is a spanning tree of the dual graph with the spine as its
    complement, and each way a tree can go wrong is named."""

    @pytest.fixture(scope="class")
    def complexes(self, census, grids):
        return {**census, **grids, "torus3d4": freudenthal_torus3(4)}

    @pytest.mark.parametrize("strategy", STRATEGIES)
    @pytest.mark.parametrize("name", [*EXPECTED_SPINE, "torus12", "torus48", "klein12",
                                      "torus3d4"])
    def test_every_tree_has_the_shape(self, complexes, name, strategy):
        c = complexes[name]
        for seed in range(5):
            d = decompose(c, root=seed % len(c.top_simplices), strategy=strategy, seed=seed)
            assert decomposition_faults(c, d) == []

    def test_each_fault_is_named(self, grids):
        c = grids["torus12"]
        d = decompose(c, strategy="random", seed=3)
        gates = list(d.gates)
        late = next(i for i, g in enumerate(gates) if g.parent != d.root)
        step = gates[0]
        other = next(rid for rid in range(len(c.ridge_cofacets)) if rid != step.gate)
        cases = {
            "spine[1:]": dataclasses.replace(d, spine=d.spine[1:]),
            "late-first": dataclasses.replace(d, gates=(gates[late], *gates[:late],
                                                        *gates[late + 1:])),
            "moved-gate": dataclasses.replace(d, gates=(step._replace(gate=other), *gates[1:])),
            "root-child": dataclasses.replace(d, gates=(step._replace(child=d.root),
                                                        *gates[1:])),
            "dropped-gate": dataclasses.replace(d, gates=d.gates[:-1]),
        }
        faults = {name: decomposition_faults(c, bad) for name, bad in cases.items()}
        assert faults["spine[1:]"] == [
            "spine differs from the sorted complement of the gates at position 0"]
        g = gates[late]
        assert faults["late-first"] == [
            f"gate 0: parent {g.parent} is not painted before child {g.child}"]
        assert faults["moved-gate"][0] == (
            f"gate 0: ridge {other} has cofacets {c.ridge_cofacets[other]}, "
            f"not {step.parent} and {step.child}")
        assert faults["root-child"][0] == f"gate 0: child {d.root} is the root"
        assert faults["dropped-gate"][0] == f"{len(gates) - 1} gates for {len(gates) + 1} facets"


@pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
class TestDecomposeMatchesReference:
    """Tree identity: the flat loop grows the reference loop's trees."""

    def test_census_every_root(self, census, strategy):
        for c in census.values():
            for root in range(len(c.top_simplices)):
                for seed in range(20):
                    assert_same_as_reference(c, root, strategy, seed)

    @pytest.mark.parametrize("name", ["torus12", "klein12"])
    def test_12x12_grids(self, grids, name, strategy):
        for root in (0, 7):
            for seed in range(50):
                assert_same_as_reference(grids[name], root, strategy, seed)

    def test_48x48_torus(self, grids, strategy):
        for seed in (0, 1, 2):
            assert_same_as_reference(grids["torus48"], 0, strategy, seed)


class TestSharedSteps:
    """Counts on the 12x12 torus: ``decompose`` hands out the complex's own
    gate steps and draws exactly the bits the reference draws."""

    def test_builds_no_gate_step(self, grids, monkeypatch):
        c = grids["torus12"]
        table = _gate_table(c)
        built = []
        new, make = GateStep.__new__, GateStep._make

        def counting_new(cls, *args):
            built.append(args)
            return new(cls, *args)

        def counting_make(cls, iterable):
            built.append(iterable)
            return make(iterable)

        monkeypatch.setattr(GateStep, "__new__", counting_new)
        monkeypatch.setattr(GateStep, "_make", classmethod(counting_make))
        for strategy in STRATEGIES:
            for seed in range(3):
                d = decompose(c, strategy=strategy, seed=seed)
                assert len(d.gates) == len(c.top_simplices) - 1
                for g in d.gates:
                    assert any(g is step for step in table[g.parent])
        assert built == []

    def test_draws_as_many_bits_as_randrange(self, grids, monkeypatch):
        c = grids["torus12"]
        generators = []

        class CountingRandom(random.Random):
            def __init__(self, seed):
                self.widths = []
                generators.append(self)
                super().__init__(seed)

            def getrandbits(self, k):
                self.widths.append(k)
                return super().getrandbits(k)

        monkeypatch.setattr(random, "Random", CountingRandom)
        for root in (0, 7):
            for seed in range(10):
                d = decompose(c, root=root, strategy="random", seed=seed)
                ref = reference_decompose(c, root=root, strategy="random", seed=seed)
                assert d == ref
                ours, theirs = generators[-2].widths, generators[-1].widths
                assert len(ours) == len(theirs) >= len(d.gates)
                assert ours == theirs

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_frontier_pops_per_decompose(self, grids, monkeypatch, strategy):
        # each ridge enters the frontier once, so every strategy takes 432
        # entries off it for 287 gates: the 145 stale ones are the spine's
        # ridges, popped after both sides were painted.  A random pop draws
        # like randrange, stale or not, so dropping the stale draws would
        # change the trees; seed 0 makes 701 getrandbits calls.
        c = grids["torus12"]
        taken, widths = [], []

        class Frontier(list):
            def pop(self):             # dfs and random take an entry here
                taken.append(strategy)
                return super().pop()

            def __getitem__(self, k):  # bfs reads the entry at its head
                if strategy == "bfs":
                    taken.append(strategy)
                return super().__getitem__(k)

        class CountingRandom(random.Random):
            def getrandbits(self, k):
                widths.append(k)
                return super().getrandbits(k)

        want = reference_decompose(c, root=0, strategy=strategy, seed=0)
        monkeypatch.setattr(spine_module, "list", Frontier, raising=False)
        monkeypatch.setattr(random, "Random", CountingRandom)
        d = decompose(c, root=0, strategy=strategy, seed=0)
        assert d == want
        assert (len(taken), len(d.gates), len(d.spine)) == (432, 287, 145)
        assert len(c.ridge_cofacets) == 432
        assert len(widths) == (701 if strategy == "random" else 0)


def reference_gate_table(c):
    """The gate table filled one ridge at a time: each ridge appends its
    step to both cofacets' rows, each step made by ``GateStep``."""
    rows = [[] for _ in c.top_simplices]
    for rid, (a, b) in enumerate(c.ridge_cofacets):
        rows[a].append(GateStep(a, rid, b))
        rows[b].append(GateStep(b, rid, a))
    return tuple(map(tuple, rows))


class TestGateTableMatchesReference:
    """The table read off one stable sort equals the per-ridge fill, step
    for step, with every step a ``GateStep`` of Python ints."""

    @pytest.mark.parametrize("name", [*sf.census_names(), "torus12", "klein12", "torus48",
                                      "torus3d4"])
    def test_equals_reference(self, census, grids, name):
        c = census.get(name) or grids.get(name) or freudenthal_torus3(4)
        table = _gate_table(c)
        assert table == reference_gate_table(c)
        assert all(type(step) is GateStep and all(type(x) is int for x in step)
                   for row in table for step in row)

    def test_point(self):
        c = SimplicialComplex(0, [(0,)])
        assert _gate_table(c) == reference_gate_table(c) == ((),)


@pytest.fixture(scope="module")
def trees(census):
    return all_spanning_trees(census["sphere_tet"])


class TestSphereTetExhaustive:
    """Brute force over every dual spanning tree of the tetrahedron boundary."""

    def test_sixteen_trees(self, trees):
        assert len(trees) == 16

    def test_every_tree(self, census, trees):
        c = census["sphere_tet"]
        for tree in trees:
            d = decomposition_from_tree(c, 0, tree)
            check_prefix_property(d)
            assert len(d.spine) == 3
            sub = spine_subcomplex(c, d)
            # complementary edges always form a spanning tree on 4 vertices
            assert sub.complex.vertex_count == 4
            assert homology_groups(sub.complex).betti == (1, 0)
            assert spine_connected(c, d)
            assert partition_counts(c, d) == {"white": (0, 3, 4), "black": (4, 3, 0)}
            assert verify_theorem2(c, d).ok

    def test_decompose_output_is_one_of_the_trees(self, census, trees):
        c = census["sphere_tet"]
        tree_sets = {frozenset(rid for rid, _, _ in t) for t in trees}
        for strategy in ("bfs", "dfs", "random"):
            for seed in range(10):
                d = decompose(c, strategy=strategy, seed=seed)
                assert frozenset(d.gate_ids()) in tree_sets


class TestSpineSubcomplex:
    def test_circle3_single_vertex(self, census):
        c = census["circle3"]
        sub = spine_subcomplex(c, decompose(c))
        assert sub.complex.dimension == 0
        assert sub.complex.vertex_count == 1

    def test_vertex_map_points_back(self, census):
        c = census["torus7"]
        d = decompose(c, strategy="random", seed=2)
        sub = spine_subcomplex(c, d)
        ridge_faces = c.faces[1]
        original = {tuple(sorted(sub.vertex_map[v] for v in t))
                    for t in sub.complex.top_simplices}
        assert original == {ridge_faces[rid] for rid in d.spine}

    def test_rp2_spine_has_one_cycle(self, census):
        # chi(spine) = chi(RP2) - chi(open cell) = 0 and connected, so b1 = 1
        c = census["rp2_6"]
        for seed in range(10):
            d = decompose(c, strategy="random", seed=seed)
            sub = spine_subcomplex(c, d)
            assert homology_groups(sub.complex).betti == (1, 1)


def _with_spine_id(c, rid):
    """A decomposition of c whose last spine id is replaced by rid."""
    d = decompose(c, strategy="random", seed=1)
    return dataclasses.replace(d, spine=d.spine[:-1] + (rid,))


@pytest.mark.parametrize("oracle", [spine_subcomplex])
@pytest.mark.parametrize("rid", [-1, "R"])
def test_oracles_reject_out_of_range_spine_ids(census, oracle, rid):
    # -1 would wrap to the last ridge and R would raise a bare IndexError
    c = census["torus7"]
    ridges = len(c.faces[c.dimension - 1])
    rid = ridges if rid == "R" else rid
    with pytest.raises(InvalidComplexError,
                       match=rf"^no ridge with id {rid} \(ridge ids run 0\.\.{ridges - 1}\)$"):
        oracle(c, _with_spine_id(c, rid))


def test_spine_ridges_names_the_highest_id_when_the_lowest_is_0(census):
    c = census["torus7"]
    ridges = len(c.faces[c.dimension - 1])
    d = dataclasses.replace(decompose(c), spine=(0, 1, ridges))
    for check in (spine_module.spine_ridges, spine_connected, verify_theorem2):
        with pytest.raises(InvalidComplexError,
                           match=rf"^no ridge with id {ridges} \(ridge ids run 0\.\.{ridges - 1}\)$"):
            check(c, d)


class TestSpineConnected:
    def test_circle3(self, census):
        c = census["circle3"]
        assert spine_connected(c, decompose(c))

    @pytest.mark.parametrize("name", list(EXPECTED_SPINE))
    def test_census_random_runs(self, census, name):
        c = census[name]
        for seed in range(20):
            d = decompose(c, strategy="random", seed=seed)
            assert spine_connected(c, d)

    def test_empty_spine_rejected(self, census):
        c = census["circle3"]
        d = decompose(c)
        empty = Decomposition(d.root, d.gates, (), d.strategy, d.seed)
        with pytest.raises(InvalidComplexError):
            spine_connected(c, empty)


class TestCellPartition:
    def test_circle3_counts(self, census):
        c = census["circle3"]
        # white: 3 open edges + 2 gate vertices; black: the spine vertex
        assert partition_counts(c, decompose(c)) == {"white": (2, 3), "black": (1, 0)}

    def test_torus7_all_vertices_black(self, census):
        c = census["torus7"]
        for seed in range(10):
            d = decompose(c, strategy="random", seed=seed)
            assert partition_counts(c, d)["black"][0] == 7

    def test_sphere3_pent(self, census):
        c = census["sphere3_pent"]
        # all vertices and edges lie in the spine closure
        assert partition_counts(c, decompose(c))["black"][:2] == (5, 10)
