import json
import math
import random
import re
import sys
import zlib
from collections import Counter
from itertools import combinations
from types import SimpleNamespace

import numpy as np
import pytest

import spineforge as sf
from spineforge import cli
from spineforge.chart import (ChartDomainError, PointRef, ambient_position, build_chart,
                              sample_interior)
from spineforge.fields import (FieldDomainError, HoleDomainError,
                               InvalidGeometryError, black_hole_region,
                               constant_tensor, continuity_report,
                               deform_tensor, deformation_samples, extend_frame,
                               field_from_spec, parse_fld, root_facet_clearance)
from spineforge.simplicial import InvalidComplexError, Metric, SimplicialComplex, write_tri

from grids import LINEAR_FLD, coordinate_torus, grid_surface, torus3_in_r6
from helpers import frame_isometry_deviation, pointwise, reference_gram_det

ALL = ["circle3", "sphere_tet", "torus7", "rp2_6", "sphere3_pent"]


# -- frame oracles: the explicit unfolding extend_frame is checked against ------

def embed_simplex(metric, verts) -> np.ndarray:
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


def unfold_across(metric, parent_verts, parent_coords, gate_verts, child_verts):
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


def _affine_basis(coords):
    """Columns vertex_j - vertex_0 of an embedded simplex."""
    return (coords[1:] - coords[0]).T


def gate_frame_agreement(chart, frame, rec):
    """Max deviation between the two sides' frame vectors as ambient directions
    in a joint unfolding of the cofacets of the gate step ``rec``.  The vectors
    are constant over the gate in this flat model, so one comparison covers
    every sample point."""
    gate = rec.gate
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


def reference_extend_frame(chart):
    """Oracle: one flat embedding per gate, the parent by Cholesky and the
    child unfolded across the gate, then a solve per transition."""
    c = chart.complex
    n = c.dimension
    matrices = {chart.root: np.eye(n)}
    transitions = {}
    for rec in chart.decomposition.gates:
        pv = c.top_simplices[rec.parent]
        qv = c.top_simplices[rec.child]
        gate_face = c.faces[n - 1][rec.gate]
        pcoords = embed_simplex(chart.metric, pv)
        qcoords = unfold_across(chart.metric, pv, pcoords, gate_face, qv)
        trans = np.linalg.solve((qcoords[1:] - qcoords[0]).T,
                                (pcoords[1:] - pcoords[0]).T)
        mat = trans @ matrices[rec.parent]
        if abs(np.linalg.det(mat)) <= 1e-12:
            raise InvalidGeometryError(
                f"frame transition into facet {rec.child} is singular")
        matrices[rec.child] = mat
        transitions[rec.gate] = trans
    return matrices, transitions


class TestEmbedding:
    @pytest.mark.parametrize("name", ["sphere_tet", "torus7", "sphere3_pent"])
    def test_embedding_preserves_lengths(self, census, name):
        c = census[name]
        m = Metric.from_complex(c)
        for verts in c.top_simplices:
            coords = embed_simplex(m, verts)
            for i, j in combinations(range(len(verts)), 2):
                want = m.length(verts[i], verts[j])
                got = float(np.linalg.norm(coords[i] - coords[j]))
                assert got == pytest.approx(want, abs=1e-12)

    def test_degenerate_simplex_rejected(self):
        flat = Metric({(0, 1): 1.0, (0, 2): 1.0, (1, 2): 2.0})
        with pytest.raises(InvalidGeometryError):
            embed_simplex(flat, (0, 1, 2))

    def test_unfold_matches_lengths_and_side(self, census):
        c = census["sphere_tet"]
        m = Metric.from_complex(c)
        parent, child = c.top_simplices[0], c.top_simplices[1]
        gate = tuple(sorted(set(parent) & set(child)))
        pcoords = embed_simplex(m, parent)
        qcoords = unfold_across(m, parent, pcoords, gate, child)
        for i, j in combinations(range(len(child)), 2):
            want = m.length(child[i], child[j])
            got = float(np.linalg.norm(qcoords[i] - qcoords[j]))
            assert got == pytest.approx(want, abs=1e-12)
        # apexes sit on opposite sides of the gate plane
        off_p = pcoords[[i for i, v in enumerate(parent) if v not in gate][0]]
        off_q = qcoords[[i for i, v in enumerate(child) if v not in gate][0]]
        g = [pcoords[parent.index(v)] for v in gate]
        # compare the two apex offsets normal to the gate line: opposite sides
        edge = g[1] - g[0]
        edge /= np.linalg.norm(edge)
        perp_p = (off_p - g[0]) - ((off_p - g[0]) @ edge) * edge
        perp_q = (off_q - g[0]) - ((off_q - g[0]) @ edge) * edge
        assert perp_p @ perp_q < 0


class TestFrameField:
    def test_root_identity(self, charts):
        for chart in charts.values():
            frame = extend_frame(chart)
            assert np.array_equal(frame.matrices[chart.root],
                                  np.eye(chart.complex.dimension))

    def test_circle3_signs_match_development(self, census):
        # independent oracle: develop the circle on a line, tracking where
        # each edge's sorted direction points
        c = census["circle3"]
        chart = build_chart(c, sf.decompose(c), Metric.from_complex(c))
        frame = extend_frame(chart)
        m = Metric.from_complex(c)
        pos = {}
        root_verts = c.top_simplices[chart.root]
        pos[root_verts[0]] = 0.0
        pos[root_verts[1]] = m.length(*root_verts)
        expected = {chart.root: np.array([[1.0]])}
        for rec in chart.decomposition.gates:
            gate_vertex = c.faces[0][rec.gate][0]
            child_verts = c.top_simplices[rec.child]
            step = m.length(*child_verts)
            parent_verts = c.top_simplices[rec.parent]
            inward = pos[gate_vertex] - pos[[v for v in parent_verts
                                             if v != gate_vertex][0]]
            new_pos = pos[gate_vertex] + math.copysign(step, inward)
            apex = next(v for v in child_verts if v != gate_vertex)
            pos[apex] = new_pos
            direction = pos[child_verts[1]] - pos[child_verts[0]]
            expected[rec.child] = np.array([[math.copysign(1.0, direction)]])
        for top, want in expected.items():
            assert np.allclose(frame.matrices[top], want)

    @pytest.mark.parametrize("name", ALL)
    def test_invertible_everywhere(self, census, charts, name):
        frame = extend_frame(charts[name])
        assert len(frame.matrices) == len(charts[name].complex.top_simplices)
        for mat in frame.matrices:
            assert abs(np.linalg.det(mat)) > 1e-12
        c = census[name]
        m = Metric.from_complex(c)
        for seed in range(5):
            d = sf.decompose(c, strategy="random", seed=seed)
            frame = extend_frame(build_chart(c, d, m))
            assert all(abs(np.linalg.det(mat)) > 1e-12 for mat in frame.matrices)

    @pytest.mark.parametrize("name", ALL)
    def test_gate_agreement(self, charts, name):
        chart = charts[name]
        frame = extend_frame(chart)
        for rec in chart.decomposition.gates:
            assert gate_frame_agreement(chart, frame, rec) <= 1e-9

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12", "torus48"])
    def test_frames_are_isometries(self, census, name, strategy):
        # F_f^T G_f F_f = G_root on every facet, which needs no reference
        # frame: the largest relative deviation read 7.1e-14 on the 48x48
        # dfs tree, and a 1e-9 shear on every transition reads about 1.7e-8
        c = census[name] if name in census else coordinate_torus(int(name[5:]))
        d = sf.decompose(c, root=0, strategy=strategy, seed=1)
        chart = build_chart(c, d, Metric.from_complex(c))
        assert frame_isometry_deviation(chart, extend_frame(chart)) <= 1e-12

    def test_singular_frame_named(self, census):
        # a unit tetrahedron on a base 1e-13 wide: no step is flat, but the
        # root's area over a side's is about 8.7e-14, the chained frame's
        # determinant, which is below DEGENERACY_TOL
        c = census["sphere_tet"]
        s = 1e-13
        m = Metric({(0, 1): s, (0, 2): s, (1, 2): s, (0, 3): 1.0, (1, 3): 1.0, (2, 3): 1.0})
        m.validate(c)
        chart = build_chart(c, sf.decompose(c), m)
        assert c.top_simplices[chart.root] == (0, 1, 2)
        with pytest.raises(InvalidGeometryError,
                           match=r"^frame transition into facet 1 is singular$"):
            extend_frame(chart)

    def test_one_transition_per_gate(self, charts):
        # a transition in each gate's child slot, the identity at the root,
        # and each frame its transition times its parent's frame
        chart = charts["torus7"]
        frame = extend_frame(chart)
        n, tops = chart.complex.dimension, len(chart.complex.top_simplices)
        assert frame.matrices.shape == frame.transitions.shape == (tops, n, n)
        children = sorted(r.child for r in chart.decomposition.gates)
        assert children == sorted(set(range(tops)) - {chart.root})
        assert np.array_equal(frame.transitions[chart.root], np.eye(n))
        for r in chart.decomposition.gates:
            want = frame.transitions[r.child] @ frame.matrices[r.parent]
            assert np.abs(frame.matrices[r.child] - want).max() <= 1e-12

    @staticmethod
    def _assert_matches_reference(chart):
        frame = extend_frame(chart)
        matrices, transitions = reference_extend_frame(chart)
        # the reference keys transitions by gate; the frame by the gate's child
        transitions = {r.child: transitions[r.gate] for r in chart.decomposition.gates}
        transitions[chart.root] = np.eye(chart.complex.dimension)
        for got, want in ((frame.matrices, matrices), (frame.transitions, transitions)):
            assert sorted(want) == list(range(len(got)))
            for key, mat in want.items():
                assert np.abs(got[key] - mat).max() <= 1e-12, key

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL)
    def test_matches_reference(self, census, name, strategy, seed):
        c = census[name]
        d = sf.decompose(c, root=0, strategy=strategy, seed=seed)
        self._assert_matches_reference(build_chart(c, d, Metric.from_complex(c)))

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
    def test_matches_reference_on_grid(self, klein, strategy):
        c = grid_surface(12, klein=klein)
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        self._assert_matches_reference(build_chart(c, d, Metric.from_complex(c)))

    # facet (0, 1, 2) is flat: |01| = |02| + |12|
    FLAT_TET = {(0, 1): 2.0, (0, 2): 1.0, (0, 3): 1.5,
                (1, 2): 1.0, (1, 3): 1.5, (2, 3): 1.2}
    # (root, strategy, the error extend_frame raises on that tree)
    FLAT_TET_CASES = [
        (0, "bfs", "simplex (0, 1, 2) is metrically degenerate"),
        (0, "dfs", "simplex (0, 1, 2) is metrically degenerate"),
        (1, "bfs", "child (0, 1, 2) degenerates onto gate (0, 1)"),
        (1, "dfs", "child (0, 1, 2) degenerates onto gate (0, 2)"),
        (2, "bfs", "child (0, 1, 2) degenerates onto gate (0, 2)"),
        (2, "dfs", "child (0, 1, 2) degenerates onto gate (0, 1)"),
        (3, "bfs", "child (0, 1, 2) degenerates onto gate (1, 2)"),
        (3, "dfs", "child (0, 1, 2) degenerates onto gate (0, 1)"),
    ]

    @pytest.mark.parametrize("root, strategy, message", FLAT_TET_CASES)
    def test_flat_facet_names_first_gate(self, census, root, strategy, message):
        c = census["sphere_tet"]
        m = Metric(self.FLAT_TET)
        m.validate(c)
        chart = build_chart(c, sf.decompose(c, root=root, strategy=strategy), m)
        with pytest.raises(InvalidGeometryError) as err:
            extend_frame(chart)
        assert str(err.value) == message

    def test_linalg_calls_independent_of_gate_count(self, census, monkeypatch):
        calls = []
        for name in ("cholesky", "det", "inv", "lstsq", "norm", "solve", "svd"):
            original = getattr(np.linalg, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        counts = []
        for c in (census["torus7"], grid_surface(12)):
            chart = build_chart(c, sf.decompose(c), Metric.from_complex(c))
            calls.clear()
            extend_frame(chart)
            counts.append(len(calls))
        assert len(chart.decomposition.gates) == 287
        assert counts[0] == counts[1]

    def test_length_calls_independent_of_gate_count(self, census, monkeypatch):
        # the edge lengths of every gate are gathered at once, not read one
        # Metric.length call at a time (8 per gate on surfaces)
        calls = []
        length = Metric.length

        def counted(metric, u, v):
            calls.append((u, v))
            return length(metric, u, v)

        counts, gates = [], []
        for c in (census["torus7"], grid_surface(12), coordinate_torus(12)):
            chart = build_chart(c, sf.decompose(c, strategy="dfs"), Metric.from_complex(c))
            monkeypatch.setattr(Metric, "length", counted)
            calls.clear()
            frame = extend_frame(chart)
            monkeypatch.setattr(Metric, "length", length)
            counts.append(len(calls))
            gates.append(len(chart.decomposition.gates))
            want = reference_extend_frame(chart)[0]
            assert max(np.abs(frame.matrices[k] - want[k]).max() for k in want) <= 1e-12
        assert gates == [13, 287, 287]
        assert len(set(counts)) == 1

    def test_metric_edge_table_in_any_order(self, census):
        # an API metric may list its edges in any order, keyed either way
        c = census["torus7"]
        m = Metric.from_complex(c)
        chart = build_chart(c, sf.decompose(c), m)
        shuffled = list(m.edge_lengths.items())
        random.Random(3).shuffle(shuffled)
        other = Metric({(v, u): x for (u, v), x in shuffled})
        want = extend_frame(chart).matrices
        got = extend_frame(build_chart(c, sf.decompose(c), other)).matrices
        assert np.array_equal(got, want)

    def test_metric_missing_an_edge_named(self, census):
        # no frame is extended on a metric that lacks an edge: its chart
        # is refused, naming the edge
        c = census["torus7"]
        lengths = dict(Metric.from_complex(c).edge_lengths)
        del lengths[(0, 1)]
        with pytest.raises(InvalidComplexError, match=r"^metric misses edge \(0, 1\)$"):
            build_chart(c, sf.decompose(c), Metric(lengths))


class TestStepGeometry:
    """The complex's per-step table: built whole for a metric, reused by
    every later tree on it, replaced by another metric, and never the source
    of an error that names a gate of another tree."""

    @staticmethod
    def _count_calls(monkeypatch):
        """Spy on Metric.lengths_at (rows asked for) and np.linalg.solve."""
        calls = {"lengths_at": 0, "rows": 0, "solve": 0}
        lengths_at, solve = Metric.lengths_at, np.linalg.solve

        def counted_lengths(metric, u, v, squared=False):
            calls["lengths_at"] += 1
            calls["rows"] += np.broadcast(u, v).size
            return lengths_at(metric, u, v, squared=squared)

        def counted_solve(*args, **kwargs):
            calls["solve"] += 1
            return solve(*args, **kwargs)

        monkeypatch.setattr(Metric, "lengths_at", counted_lengths)
        monkeypatch.setattr(np.linalg, "solve", counted_solve)
        return calls

    def test_second_tree_on_the_table_computes_nothing(self, monkeypatch):
        c = coordinate_torus(12)
        m = Metric.from_complex(c)
        d = sf.decompose(c, root=0, strategy="random", seed=4)
        calls = self._count_calls(monkeypatch)
        first = extend_frame(build_chart(c, d, m))
        assert calls["lengths_at"] and calls["solve"]
        for key in calls:
            calls[key] = 0
        chart = build_chart(c, d, m)
        second = extend_frame(chart)
        assert calls == {"lengths_at": 0, "rows": 0, "solve": 0}
        for got, want in ((second.matrices, first.matrices),
                          (second.transitions, first.transitions)):
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
        # and a tree with another root and strategy, whose steps the first
        # tree did not all take, computes nothing either: the table is whole
        other = sf.decompose(c, root=5, strategy="dfs", seed=0)
        taken = {(g.parent, g.child) for g in d.gates}
        assert not {(g.parent, g.child) for g in other.gates} <= taken
        extend_frame(build_chart(c, other, m))
        assert calls == {"lengths_at": 0, "rows": 0, "solve": 0}

    @pytest.mark.parametrize("name", ["sphere_tet", "torus7", "sphere3_pent"])
    def test_new_metric_refills_the_table(self, census, name):
        c = census[name]
        m = Metric.from_complex(c)
        d = sf.decompose(c, root=0, strategy="random", seed=2)
        extend_frame(build_chart(c, d, m))
        # same lengths scaled by 1.5, then an unrelated realizable metric:
        # every frame must follow the new lengths, not the table's old rows
        for lengths in ({e: 1.5 * x for e, x in m.edge_lengths.items()},
                        {e: 1.0 + 0.01 * (hash(e) % 7) for e in m.edge_lengths}):
            other = Metric(lengths)
            other.validate(c)
            chart = build_chart(c, d, other)
            assert c._derived["step_geometry"][1].metric is other
            TestFrameField._assert_matches_reference(chart)
            for step in d.gates:
                ov = chart._gate_maps[step.child][0]
                n = c.dimension
                centroid = [0.0 if k == ov else 1.0 / n for k in range(n + 1)]
                vertex = [float(k == ov) for k in range(n + 1)]
                want = other.dist(c.top_simplices[step.child], vertex, centroid)
                assert chart._heights[step.child] == want
            # and the table's height at every (facet, slot), the entry slots
            # of this tree's steps or not
            for f, verts in enumerate(c.top_simplices):
                for k in range(n + 1):
                    centroid = [0.0 if i == k else 1.0 / n for i in range(n + 1)]
                    vertex = [float(i == k) for i in range(n + 1)]
                    want = other.dist(verts, vertex, centroid)
                    assert c._derived["step_geometry"][1].height[f, k] == want

    def test_chart_keeps_its_own_metric_rows(self, census):
        # a chart built before another metric replaced the complex's table
        # still extends its frame by its own metric
        c = census["torus7"]
        d = sf.decompose(c, root=0, strategy="dfs")
        m = Metric.from_complex(c)
        chart = build_chart(c, d, m)
        build_chart(c, d, Metric({e: 2.0 * x for e, x in m.edge_lengths.items()}))
        assert c._derived["step_geometry"][1].metric is not m
        TestFrameField._assert_matches_reference(chart)

    def test_flat_facet_names_first_gate_on_a_filled_table(self, census):
        # every case of test_flat_facet_names_first_gate, in both orders,
        # on one metric whose table the earlier cases have filled
        cases = TestFrameField.FLAT_TET_CASES
        for order in (cases, cases[::-1]):
            c = census["sphere_tet"]
            m = Metric(TestFrameField.FLAT_TET)
            for root, strategy, message in order:
                chart = build_chart(c, sf.decompose(c, root=root, strategy=strategy), m)
                with pytest.raises(InvalidGeometryError) as err:
                    extend_frame(chart)
                assert str(err.value) == message

    def test_missing_edge_named_on_a_filled_table(self, census):
        # every tree names the first missing edge of c.faces[1], whatever
        # trees were refused on the metric before it, and the complex keeps
        # the table of the complete metric it had
        c = census["torus7"]
        m = Metric.from_complex(c)
        lengths = dict(m.edge_lengths)
        del lengths[(0, 1)]
        del lengths[(2, 4)]
        trees = [sf.decompose(c, root=root, strategy=strategy, seed=seed)
                 for root in (0, 5) for strategy in ("bfs", "dfs", "random")
                 for seed in range(2)]
        build_chart(c, trees[0], m)
        entry = c._derived["step_geometry"]

        def message(d, metric):
            with pytest.raises(InvalidComplexError) as err:
                build_chart(c, d, metric)
            assert c._derived["step_geometry"] is entry
            return str(err.value)

        want = ["metric misses edge (0, 1)"] * len(trees)
        assert [message(d, Metric(lengths)) for d in trees] == want
        assert [message(d, Metric(lengths)) for d in trees[::-1]] == want
        shared = Metric(lengths)
        assert [message(d, shared) for d in trees] == want
        assert [message(d, shared) for d in trees[::-1]] == want
        assert entry[0] is m and entry[1].metric is m

    def test_chart_and_frame_of_a_point(self):
        # no gate, so no step to fill: the table must not divide by n = 0
        c = SimplicialComplex(0, [(0,)])
        m = Metric.from_complex(c)
        for _ in range(2):
            chart = build_chart(c, sf.decompose(c), m)
            assert math.isnan(chart._heights[0])
            frame = extend_frame(chart)
            assert frame.matrices.shape == frame.transitions.shape == (1, 0, 0)


def count_builds(monkeypatch):
    """Spy on ``simplicial.derived`` in every module that calls it: a
    Counter of the tables built, by name (a per-key name by its first part),
    and the owners asked for a table, in order."""
    builds, owners = Counter(), []
    original = sf.simplicial.derived

    def counting(owner, name, key, build):
        owners.append(owner)
        label = name[0] if isinstance(name, tuple) else name
        return original(owner, name, key, lambda: builds.update([label]) or build())

    for module in [m for n, m in sys.modules.items() if n.startswith("spineforge")]:
        if getattr(module, "derived", None) is original:
            monkeypatch.setattr(module, "derived", counting)
    return builds, owners


class TestDerivedTables:
    """Every table a complex, metric or chart keeps is built once per key."""

    def test_deform_builds_each_table_once(self, monkeypatch, capsys, tmp_path):
        tri, fld = tmp_path / "torus12.tri", tmp_path / "lin.fld"
        write_tri(coordinate_torus(12), tri)
        fld.write_text(LINEAR_FLD)
        builds, owners = count_builds(monkeypatch)
        assert cli.main(["deform", str(tri), "--field", str(fld), "--strategy", "random",
                         "--seed", "0", "--out", str(tmp_path / "d.csv")]) == 0
        capsys.readouterr()
        assert builds == dict.fromkeys(["validation", "edge_table", "gates", "step_geometry",
                                        "frame_rows", "vertex_table", "clearance",
                                        "line_draw"], 1)
        # a second tree on the CLI's complex and metric builds only its line draw
        c = next(o for o in owners if isinstance(o, SimplicialComplex))
        m = next(o for o in owners if isinstance(o, Metric))
        builds.clear()
        chart = build_chart(c, sf.decompose(c, strategy="random", seed=1), m)
        field = field_from_spec(parse_fld(LINEAR_FLD), chart, extend_frame(chart))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        kbar = deform_tensor(field, chart, hole)
        continuity_report(kbar, chart, hole, samples=8, seed=1)
        deformation_samples(kbar, chart, hole, lines=8, per_line=16, seed=1)
        assert builds == {"line_draw": 1}


class TestConstantTensor:
    def test_scalar(self, charts):
        frame = extend_frame(charts["sphere_tet"])
        K = constant_tensor([7.0], frame, (0, 0))
        assert float(K.evaluate(charts["sphere_tet"].c0)) == 7.0

    def test_vector_equals_first_frame_vector(self, charts):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        K = constant_tensor([1.0, 0.0], frame, (1, 0))
        rng = random.Random(4)
        for _ in range(20):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            assert np.array_equal(K.evaluate(p), np.array([1.0, 0.0]))

    def test_identity_endomorphism(self, charts):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        K = constant_tensor(np.eye(2).reshape(-1), frame, (1, 1))
        rng = random.Random(6)
        for _ in range(100):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            assert np.array_equal(K.evaluate(p), np.eye(2))

    def test_size_mismatch(self, charts):
        frame = extend_frame(charts["sphere_tet"])
        with pytest.raises(FieldDomainError):
            constant_tensor([1.0, 2.0, 3.0], frame, (1, 0))


def reference_clearance(m, verts):
    """``root_facet_clearance`` as first written: one scalar Gram
    determinant per face, and 1 for each face of an edge."""
    n = len(verts) - 1
    whole = reference_gram_det(m, verts)[0]
    faces = [reference_gram_det(m, verts[:o] + verts[o + 1:])[0] if n > 1 else 1.0
             for o in range(n + 1)]
    return math.sqrt(whole / max(faces)) / (n + 1)


class TestHoleRegion:
    @pytest.mark.parametrize("name", ALL + ["torus12", "torus48", "torus3d4r6"])
    def test_clearance_bits_equal_the_scalar_formula(self, name):
        # roots 0-5: the stacked determinants give the bits of one scalar
        # determinant per face; circle3's vertices have 0x0 Gram matrices
        if name.startswith("torus3"):
            c = torus3_in_r6(4)[0]
        elif name.startswith("torus"):
            c = coordinate_torus(int(name[5:]))
        else:
            c = sf.build_census(name)
        m = Metric.from_complex(c)
        for root in range(min(6, len(c.top_simplices))):
            chart = build_chart(c, sf.decompose(c, root=root), m)
            assert root_facet_clearance(chart).hex() == \
                reference_clearance(m, c.top_simplices[root]).hex(), root

    def test_every_line_splits_at_eps(self, charts):
        chart = charts["torus7"]
        eps_max = root_facet_clearance(chart)
        hole = black_hole_region(chart, 0.1 * eps_max)
        rng = random.Random(3)
        for _ in range(50):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            line, _ = chart.locate(p)
            s0, s1 = hole.split(line)
            assert s1 == pytest.approx(hole.eps, rel=1e-12)
            assert s0 > 0.0
            assert s0 + s1 == line.length

    def test_small_eps_leaves_long_white_prefix(self, charts):
        chart = charts["sphere_tet"]
        hole = black_hole_region(chart, 1e-9)
        rng = random.Random(8)
        p = sample_interior(chart.complex, rng, 2)
        line, _ = chart.locate(p)
        s0, s1 = hole.split(line)
        assert s1 == pytest.approx(1e-9, rel=1e-9)
        assert s0 / line.length > 0.999

    def test_radius_below_the_length_rounding_rejected(self, charts):
        # s0 = L - eps rounds back to L: no tail, where a division by s1 = 0
        # would follow
        chart = charts["sphere_tet"]
        line, _ = chart.locate(sample_interior(chart.complex, random.Random(8), 2))
        hole = black_hole_region(chart, 1e-20)
        assert line.length - hole.eps == line.length
        with pytest.raises(HoleDomainError, match="leaving it no tail"):
            hole.split(line)

    def test_radius_at_maximum_rejected(self, charts):
        chart = charts["sphere_tet"]
        eps_max = root_facet_clearance(chart)
        with pytest.raises(HoleDomainError):
            black_hole_region(chart, eps_max)
        with pytest.raises(HoleDomainError):
            black_hole_region(chart, 2 * eps_max)
        with pytest.raises(HoleDomainError):
            black_hole_region(chart, 0.0)

    def test_clearance_bounds_every_line(self, charts):
        for chart in charts.values():
            bound = root_facet_clearance(chart)
            assert bound > 0
            rng = random.Random(12)
            for _ in range(30):
                p = sample_interior(chart.complex, rng,
                                    rng.randrange(len(chart.complex.top_simplices)))
                line, _ = chart.locate(p)
                assert line.length >= bound - 1e-12

    @staticmethod
    def _embedded_clearance(metric, verts):
        """Oracle: the root embedded in R^n, and the barycenter's distance to
        each facet's affine hull by a least-squares projection."""
        coords = embed_simplex(metric, verts)
        center = coords.mean(axis=0)
        best = math.inf
        for o in range(len(verts)):
            others = np.delete(coords, o, axis=0)
            span = others[1:] - others[0]
            y = center - others[0]
            if span.size:
                y = y - span.T @ np.linalg.solve(span @ span.T, span @ y)
            best = min(best, float(np.linalg.norm(y)))
        return best

    @pytest.mark.parametrize("name", ALL + ["torus12", "torus48"])
    def test_clearance_matches_embedding(self, census, name):
        sizes = {"torus12": 12, "torus48": 48}
        c = coordinate_torus(sizes[name]) if name in sizes else census[name]
        m = Metric.from_complex(c)
        for root, verts in enumerate(c.top_simplices):
            # the clearance reads only the complex, the metric and the root
            got = root_facet_clearance(SimpleNamespace(complex=c, metric=m, root=root))
            want = self._embedded_clearance(m, verts)
            assert abs(got - want) <= 1e-12 * want, root

    def test_flat_root_rejected(self, census):
        c = census["sphere_tet"]
        chart = build_chart(c, sf.decompose(c, root=0), Metric(TestFrameField.FLAT_TET))
        with pytest.raises(InvalidGeometryError) as err:
            root_facet_clearance(chart)
        assert str(err.value) == "simplex (0, 1, 2) is metrically degenerate"

    def test_report_names_the_proxy(self, charts):
        chart = charts["circle3"]
        hole = black_hole_region(chart, 0.1)
        rep = hole.report()
        assert rep["eps"] == 0.1
        assert "arc length" in rep["distance_model"]


class TestPerComplexMemos:
    """What no tree changes is computed once: the root's clearance per
    metric and root facet, a linear field's vertex table per complex and
    component rows."""

    def test_clearance_determinants_taken_once(self, monkeypatch):
        c = coordinate_torus(12)
        m = Metric.from_complex(c)
        calls = []
        gram_determinants = Metric.gram_determinants

        def counting(self, rows):
            calls.append(rows.tolist())
            return gram_determinants(self, rows)

        monkeypatch.setattr(Metric, "gram_determinants", counting)
        got = set()
        for root in (0, 7):
            for seed in range(20):
                chart = build_chart(c, sf.decompose(c, root=root, strategy="random",
                                                    seed=seed), m)
                eps = 0.25 * root_facet_clearance(chart)
                got.add((root, black_hole_region(chart, eps).eps_max))
            # the whole root, then its three edges, for the first tree only
            a, b, d = c.top_simplices[root]
            assert calls[-2:] == [[[a, b, d]], [[a, b], [a, d], [b, d]]], root
            assert len(calls) == 2 * (1 + (root == 7)), root
        assert len(got) == 2
        # another metric, with the same lengths, takes its own
        root_facet_clearance(build_chart(c, sf.decompose(c), Metric.from_complex(c)))
        assert len(calls) == 6

    def test_degenerate_root_raises_every_time(self, census, monkeypatch):
        c = census["sphere_tet"]
        chart = build_chart(c, sf.decompose(c, root=0), Metric(TestFrameField.FLAT_TET))
        calls = []
        gram_determinants = Metric.gram_determinants
        monkeypatch.setattr(Metric, "gram_determinants",
                            lambda self, rows: calls.append(rows) or gram_determinants(self, rows))
        for attempt in range(1, 4):
            with pytest.raises(InvalidGeometryError, match="metrically degenerate"):
                black_hole_region(chart, 0.1)
            assert len(calls) == 2 * attempt

    def test_vertex_table_built_once_per_complex_and_rows(self, monkeypatch):
        c = coordinate_torus(12)
        m = Metric.from_complex(c)
        built = []
        facet_rows = sf.fields.facet_rows
        monkeypatch.setattr(sf.fields, "facet_rows",
                            lambda complex: built.append(complex) or facet_rows(complex))
        text = "type 1 0\nlinear\n0.1 0.2 -0.1 0.05\n0.3 -0.15 0.1 0.2\n"
        pts = [PointRef(f, (0.2, 0.3, 0.5)) for f in range(0, len(c.top_simplices), 17)]
        first = None
        for seed in range(20):
            chart = build_chart(c, sf.decompose(c, strategy="random", seed=seed), m)
            # a spec parsed per tree: equal rows share one table
            K = field_from_spec(parse_fld(text), chart, extend_frame(chart))
            values = K.evaluate_points(pts)
            if first is None:
                first = values
            assert np.array_equal(values, first)
        assert len(built) == 1
        other = field_from_spec(parse_fld(text.replace("0.3 ", "0.4 ")), chart,
                                extend_frame(chart))
        assert not np.array_equal(other.evaluate_points(pts), first)
        assert len(built) == 2
        fresh = coordinate_torus(12)
        chart = build_chart(fresh, sf.decompose(fresh), Metric.from_complex(fresh))
        K = field_from_spec(parse_fld(text), chart, extend_frame(chart))
        assert len(built) == 3
        assert np.array_equal(K.evaluate_points(pts), first)


def _linear_field(chart, scale=0.25, rank=(1, 0)):
    frame = extend_frame(chart)
    n = chart.complex.dimension
    d = len(chart.complex.vertex_coords[0])
    rng = random.Random(93)
    rows = []
    for _ in range(n ** (rank[0] + rank[1])):
        rows.append(" ".join(repr(scale * (rng.random() - 0.5)) for _ in range(d + 1)))
    spec = parse_fld(f"type {rank[0]} {rank[1]}\nlinear\n" + "\n".join(rows) + "\n")
    return field_from_spec(spec, chart, frame), frame


class TestDeformation:
    def test_hole_boundary_takes_center_components(self, charts):
        # s(y) = s0 pulls back to s(x) = 0, the field value at c0
        chart = charts["sphere_tet"]
        K, _ = _linear_field(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        base = K.evaluate(chart.c0)
        rng = random.Random(2)
        for _ in range(20):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            line, _ = chart.locate(p)
            s0, _ = hole.split(line)
            val = Kbar.evaluate(line.point_at_arc(s0))
            assert np.abs(val - base).max() <= 1e-12

    def test_endpoint_takes_spine_value(self, charts):
        chart = charts["sphere_tet"]
        K, _ = _linear_field(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        rng = random.Random(5)
        for _ in range(20):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            line, _ = chart.locate(p)
            z = line.endpoint
            assert np.array_equal(Kbar.evaluate(z), K.evaluate(z))

    @pytest.mark.parametrize("name", ALL)
    def test_constant_field_is_fixed_point(self, charts, name):
        chart = charts[name]
        frame = extend_frame(chart)
        n = chart.complex.dimension
        K = constant_tensor(np.arange(1.0, n * n + 1.0), frame, (1, 1))
        hole = black_hole_region(chart, 0.5 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        rng = random.Random(zlib.crc32(name.encode()) & 0xFFFF)
        for _ in range(50):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            assert np.array_equal(Kbar.evaluate(p), K.evaluate(p))

    # sampler seeds whose 50 points include one within about 1e-4 of c0, where
    # the ray's exit sum was 1.1e-12 off and locate raised
    @pytest.mark.parametrize("seed", [21, 2352, 2920, 2965, 3466, 3874, 4013, 4140,
                                      4982, 5131, 5883])
    def test_constant_field_is_fixed_point_beside_c0(self, charts, seed):
        chart = charts["circle3"]
        frame = extend_frame(chart)
        K = constant_tensor([1.0], frame, (1, 1))
        Kbar = deform_tensor(K, chart, black_hole_region(chart, 0.5 * root_facet_clearance(chart)))
        rng = random.Random(seed)
        for _ in range(50):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            assert np.array_equal(Kbar.evaluate(p), K.evaluate(p))

    def test_outside_hole_is_constant(self, charts):
        chart = charts["torus7"]
        K, _ = _linear_field(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        base = K.evaluate(chart.c0)
        rng = random.Random(7)
        hits = 0
        for _ in range(200):
            p = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            line, arc = chart.locate(p)
            s0, _ = hole.split(line)
            if arc < s0:
                hits += 1
                assert np.array_equal(Kbar.evaluate(p), base)
        assert hits > 50

    def test_reparametrization_is_affine_increasing(self, charts):
        chart = charts["sphere_tet"]
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        rng = random.Random(21)
        p = sample_interior(chart.complex, rng, 1)
        line, _ = chart.locate(p)
        s0, s1 = hole.split(line)
        slope = line.length / s1
        assert slope >= 1.0
        # pullback arcs climb affinely from 0 to the full length
        for w in (0.0, 0.25, 0.5, 1.0):
            arc_y = s0 + w * s1
            arc_x = (arc_y - s0) / s1 * line.length
            assert arc_x == pytest.approx(w * line.length)


class TestContinuityReport:
    def test_constant_field_all_zero(self, charts):
        chart = charts["rp2_6"]
        frame = extend_frame(chart)
        K = constant_tensor([3.0, -1.0], frame, (1, 0))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        rep = continuity_report(deform_tensor(K, chart, hole), chart, hole,
                                samples=15, seed=4)
        assert rep.boundary_seam == 0.0
        assert rep.spine_limit == 0.0
        assert rep.gate_jump == 0.0

    def test_linear_field_within_tolerances(self, charts):
        chart = charts["sphere_tet"]
        K, _ = _linear_field(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        rep = continuity_report(deform_tensor(K, chart, hole), chart, hole,
                                samples=25, seed=5)
        assert rep.boundary_seam <= 1e-9
        assert rep.spine_limit <= 1e-6
        assert rep.gate_jump <= 1e-6
        assert len(rep.nonsmooth_arcs) == 25

    def test_discontinuous_input_localized_to_input(self, charts):
        # field jumps across gates by construction; the report's input probes
        # must show the jump while the deformed field stays clean outside the
        # tail (case 2 is constant there)
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)

        def comp(pt):
            return np.full((2,), float(pt.top % 2))

        from spineforge.fields import TensorField
        K = TensorField((1, 0), frame, pointwise(comp), label="parity")
        hole = black_hole_region(chart, 0.05 * root_facet_clearance(chart))
        rep = continuity_report(deform_tensor(K, chart, hole), chart, hole,
                                samples=25, seed=6)
        assert rep.input_gate_jump >= 0.9
        assert rep.gate_jump <= 1e-9

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ["torus7", "grid12"])
    def test_probes_see_real_jumps(self, census, name, strategy):
        # the probe offsets shrink with the tail, but a field that really
        # jumps at a gate or at the spine must still read as a jump there
        c = census["torus7"] if name == "torus7" else grid_surface(12)
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        frame = extend_frame(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))

        from spineforge.fields import TensorField
        parity = TensorField((1, 0), frame,
                             pointwise(lambda pt: np.full((2,), float(pt.top % 2))))
        rep = continuity_report(parity, chart, hole, samples=20, seed=1)
        assert rep.gate_jump >= 0.9

        marker = np.array([9.0, 9.0])
        white = np.array([1.0, 2.0])
        K = TensorField((1, 0), frame, pointwise(
            lambda pt: marker if chart.spine_face_of(pt) is not None else white))
        rep = continuity_report(deform_tensor(K, chart, hole), chart, hole,
                                samples=20, seed=1)
        assert rep.spine_limit >= 0.9

    def test_probes_built_only_when_read(self, monkeypatch, tmp_path, capsys):
        # cmd_deform and to_json_obj count the probes off their columns and
        # build no ContinuityProbe; the first read of .probes builds each
        # probe once, and every later read hands out the same tuple
        built = []

        class Counted(sf.fields.ContinuityProbe):
            def __new__(cls, *args, **kwargs):
                built.append(args)
                return super().__new__(cls, *args, **kwargs)

            @classmethod
            def _make(cls, iterable):
                probe = super()._make(iterable)
                built.append(probe)
                return probe

        monkeypatch.setattr(sf.fields, "ContinuityProbe", Counted)
        c = coordinate_torus(12)
        write_tri(c, tmp_path / "torus12.tri")
        (tmp_path / "lin.fld").write_text(LINEAR_FLD)
        code = cli.main(["deform", str(tmp_path / "torus12.tri"), "--field",
                         str(tmp_path / "lin.fld"), "--strategy", "random", "--seed", "0",
                         "--out", str(tmp_path / "rows.csv")])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["continuity"]["probes"] > 0
        assert built == []
        chart = build_chart(c, sf.decompose(c, root=0, strategy="dfs", seed=0),
                            Metric.from_complex(c))
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        rep = continuity_report(deform_tensor(K, chart, hole), chart, hole, samples=20, seed=0)
        count = rep.to_json_obj()["probes"]
        assert built == []
        probes = rep.probes
        assert len(probes) == count == len(built)
        assert all(type(p) is Counted for p in probes)
        assert rep.probes is probes and len(built) == count


def _chart(census, name, strategy):
    c = census[name]
    d = sf.decompose(c, root=0, strategy=strategy, seed=0)
    return build_chart(c, d, Metric.from_complex(c))


def _sampled_lines(chart, count, seed):
    rng = random.Random(seed)
    tops = len(chart.complex.top_simplices)
    return [chart.locate(sample_interior(chart.complex, rng, rng.randrange(tops)))[0]
            for _ in range(count)]


class TestLineHandle:
    """One-arc ``evaluate_lines`` against the point path it replaces in the
    probes."""

    @pytest.mark.parametrize("eps_frac", [0.25, 0.75])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ["circle3", "sphere_tet", "torus7"])
    def test_agrees_with_point_path(self, census, name, strategy, eps_frac):
        chart = _chart(census, name, strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, eps_frac * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        base = K.evaluate(chart.c0)
        for line in _sampled_lines(chart, 6, seed=11):
            s0, s1 = hole.split(line)
            arcs = [line.length * k / 16 for k in range(17)] + \
                   [s0 + s1 * k / 8 for k in range(9)]
            for arc in arcs:
                on_line = Kbar.evaluate_lines([(line, (arc,))])[0]
                by_point = Kbar.evaluate(line.point_at_arc(arc))
                assert np.abs(on_line - by_point).max() <= 1e-9, (arc, s0)
                if arc < s0:
                    assert np.array_equal(on_line, base)
                    assert np.array_equal(by_point, base)
                if arc == line.length:
                    assert np.array_equal(on_line, by_point)
            end_value = Kbar.evaluate_lines([(line, (line.length,))])[0]
            assert np.abs(end_value - K.evaluate(line.endpoint)).max() <= 1e-9

    @pytest.mark.parametrize("name", ALL)
    def test_constant_field_is_fixed_point(self, charts, name):
        chart = charts[name]
        frame = extend_frame(chart)
        n = chart.complex.dimension
        block = np.arange(1.0, n * n + 1.0).reshape(n, n)
        K = constant_tensor(block, frame, (1, 1))
        hole = black_hole_region(chart, 0.5 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        for line in _sampled_lines(chart, 5, seed=13):
            s0, s1 = hole.split(line)
            for arc in [line.length * k / 16 for k in range(17)] + \
                       [s0 + s1 * k / 8 for k in range(9)]:
                assert np.array_equal(Kbar.evaluate_lines([(line, (arc,))])[0], block)

    def test_plain_field_is_point_evaluation(self, charts):
        chart = charts["torus7"]
        K, _ = _linear_field(chart, rank=(1, 1))
        for line in _sampled_lines(chart, 3, seed=17):
            for k in range(9):
                arc = line.length * k / 8
                assert np.array_equal(K.evaluate_lines([(line, (arc,))])[0],
                                      K.evaluate(line.point_at_arc(arc)))

    @pytest.mark.parametrize("block", [np.array([np.nan, 0.0]), np.zeros(3)],
                             ids=["non-finite", "shape"])
    def test_bad_block_raises(self, charts, block):
        # a one-point read and a read through the default line rule each
        # refuse the block, naming the point or the arc and line of a
        # non-finite one
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        line = _sampled_lines(chart, 1, seed=19)[0]
        arc = 0.5 * line.length
        pt = line.point_at_arc(arc)
        from spineforge.fields import TensorField
        plain = TensorField((1, 0), frame, pointwise(lambda _: block), label="bad")
        if block.shape == (3,):
            messages = ["component stack has shape (1, 3), expected (1, 2)"] * 2
        else:
            messages = [f"non-finite components at {pt}",
                        f"non-finite components at arc {arc} of the line to {line.endpoint}"]
        reads = (lambda: plain.evaluate(pt), lambda: plain.evaluate_lines([(line, (arc,))]))
        for read, message in zip(reads, messages):
            with pytest.raises(FieldDomainError, match=f"^{re.escape(message)}$"):
                read()


class TestArcEvaluation:
    """The deformed field by arc: neither the white prefix nor the tail
    builds a point off the spine, and a linear field combines per-vertex
    values."""

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_white_prefix_builds_no_point(self, census, monkeypatch, strategy):
        chart = _chart(census, "torus7", strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        base = K.evaluate(chart.c0)
        lines = _sampled_lines(chart, 6, seed=23)
        calls = []
        point_at_arc = sf.chart.BrokenLine.point_at_arc
        spine_face_of = sf.chart.CellChart.spine_face_of

        def spy_point(line, s):
            calls.append("point_at_arc")
            return point_at_arc(line, s)

        def spy_face(ch, pt):
            calls.append("spine_face_of")
            return spine_face_of(ch, pt)

        tail = []
        for line in lines:
            s0, s1 = hole.split(line)
            tail += [(line, s0 + s1 * k / 8) for k in range(8)]
        want = [K.evaluate(line.point_at_arc((arc - hole.split(line)[0]) /
                                             hole.split(line)[1] * line.length))
                for line, arc in tail]
        post_init = sf.chart.PointRef.__post_init__

        def spy_build(pt):
            calls.append("PointRef")
            post_init(pt)

        monkeypatch.setattr(sf.chart.BrokenLine, "point_at_arc", spy_point)
        monkeypatch.setattr(sf.chart.CellChart, "spine_face_of", spy_face)
        monkeypatch.setattr(sf.chart.PointRef, "__post_init__", spy_build)
        for line in lines:
            s0, _ = hole.split(line)
            for arc in [0.0] + [s0 * k / 8 for k in range(1, 8)] + [math.nextafter(s0, 0.0)]:
                assert np.array_equal(Kbar.evaluate_lines([(line, (arc,))])[0], base)
        assert calls == []
        # tail reads build no point either: one row lookup, one batch read of K
        for (line, arc), value in zip(tail, want):
            assert np.array_equal(Kbar.evaluate_lines([(line, (arc,))])[0], value)
        assert calls == []
        # the spine row builds no point either: K(z) is the tail rule at the end
        line = lines[0]
        assert np.array_equal(Kbar.evaluate_lines([(line, (line.length,))])[0],
                              K.evaluate(line.endpoint))
        assert calls == []

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_tail_batch_looks_rows_up_once(self, census, monkeypatch, strategy):
        # the deformed rule maps the tail arcs and hands them to K's own line
        # rule: one row lookup per batch, prefix, tail and spine end together
        chart = _chart(census, "torus7", strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        rows_on_lines = sf.fields.rows_on_lines
        calls = []

        def counted(requests):
            calls.append(sum(len(arcs) for _, arcs in requests))
            return rows_on_lines(requests)

        monkeypatch.setattr(sf.fields, "rows_on_lines", counted)
        for line in _sampled_lines(chart, 6, seed=43):
            s0, s1 = hole.split(line)
            arcs = [s0 * k / 4 for k in range(4)] + [s0 + s1 * k / 8 for k in range(9)]
            calls.clear()
            Kbar.evaluate_lines([(line, arcs)])
            assert calls == [9]

    @pytest.mark.parametrize("rank", [(0, 0), (1, 0), (1, 1)])
    @pytest.mark.parametrize("name", ["circle3", "sphere_tet", "torus7", "torus12"])
    def test_linear_field_matches_ambient_formula(self, census, name, rank):
        c = coordinate_torus(12) if name == "torus12" else census[name]
        d = sf.decompose(c, root=0, strategy="bfs", seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        frame = extend_frame(chart)
        n = c.dimension
        width = len(c.vertex_coords[0])
        rng = random.Random(29)
        rows = [[rng.uniform(-2.0, 2.0) for _ in range(width + 1)]
                for _ in range(n ** (rank[0] + rank[1]))]
        spec = parse_fld(f"type {rank[0]} {rank[1]}\nlinear\n" +
                         "\n".join(" ".join(map(repr, r)) for r in rows) + "\n")
        K = field_from_spec(spec, chart, frame)
        offsets = np.array([r[0] for r in rows])
        slopes = np.array([r[1:] for r in rows])
        points = [sample_interior(c, rng, top) for top in range(len(c.top_simplices))]
        points += [PointRef(top, tuple(1.0 if i == j else 0.0 for i in range(n + 1)))
                   for top in range(len(c.top_simplices)) for j in range(n + 1)]
        points += [chart.c0]
        for pt in points:
            want = offsets + slopes @ np.array(ambient_position(c, pt))
            got = K.evaluate(pt)
            assert got.shape == (n,) * (rank[0] + rank[1])
            assert np.abs(got.reshape(-1) - want).max() <= 1e-12, pt


def _plain_field(frame, rank):
    """A field with no line rule: smooth inside each facet, jumping across."""
    shape = (frame.dimension,) * (rank[0] + rank[1])
    ramp = np.arange(1.0, 1.0 + np.prod(shape, dtype=int)).reshape(shape)

    def comp(pt):
        return ramp * sum(w * w for w in pt.bary) + pt.top
    return sf.fields.TensorField(rank, frame, pointwise(comp), label="plain")


class TestBatchReads:
    """``evaluate_lines`` against one read per arc, bit for bit."""

    @staticmethod
    def _arcs(line, hole):
        s0, _ = hole.split(line)
        arcs = [0.0, line.length, s0, math.nextafter(s0, 0.0), math.nextafter(s0, math.inf)]
        for acc in line.segment_ends:
            arcs += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, math.inf)]
        return arcs

    @pytest.mark.parametrize("rank", [(0, 0), (1, 0), (1, 1)])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_batch_equals_single(self, census, name, strategy, rank):
        c = coordinate_torus(12) if name == "torus12" else census[name]
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        frame = extend_frame(chart)
        n = c.dimension
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        plain = _plain_field(frame, rank)
        constant = constant_tensor(np.arange(2.0, 2.0 + n ** sum(rank)), frame, rank)
        source = _linear_field(chart, rank=rank)[0] if c.vertex_coords else plain
        fields = [plain, constant, source, deform_tensor(source, chart, hole),
                  deform_tensor(plain, chart, hole)]
        for line in _sampled_lines(chart, 3, seed=37):
            arcs = self._arcs(line, hole)
            for field in fields:
                batch = field.evaluate_lines([(line, arcs)])
                assert batch.shape == (len(arcs),) + (n,) * sum(rank)
                for arc, row in zip(arcs, batch):
                    assert np.array_equal(row, field.evaluate_lines([(line, (arc,))])[0]), \
                        (field.label, arc)
                    if field.source is None:
                        # a field defined pointwise reads the point path exactly
                        assert np.array_equal(row, field.evaluate(line.point_at_arc(arc))), \
                            (field.label, arc)
                assert field.evaluate_lines([(line, [])]).shape == (0,) + (n,) * sum(rank)

    def test_stored_blocks_are_read_only(self, charts):
        chart = charts["torus7"]
        frame = extend_frame(chart)
        given = np.array([1.0, 2.0])
        K = constant_tensor(given, frame, (1, 0))
        given += 1.0            # the caller's array stays its own and writable
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        line = _sampled_lines(chart, 1, seed=41)[0]
        for field in (K, deform_tensor(K, chart, hole),
                      deform_tensor(_linear_field(chart)[0], chart, hole)):
            before = field.evaluate(chart.c0).copy()
            value = field.evaluate(chart.c0)
            with pytest.raises(ValueError):
                value += 5.0
            assert np.array_equal(field.evaluate(chart.c0), before)
            assert np.array_equal(field.evaluate_lines([(line, (0.0,))])[0], before)
        row = K.evaluate_lines([(line, (0.5 * line.length,))])[0]
        with pytest.raises(ValueError):
            row[0] = 5.0
        assert np.array_equal(K.evaluate(chart.c0), [1.0, 2.0])

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_continuity_point_reads_independent_of_gate_count(self, monkeypatch, strategy):
        # every probe but the hole-boundary seam and z reads the line in a
        # batch, so point-path evaluations per line do not grow with its gates
        c = coordinate_torus(12)
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        calls = []
        evaluate = sf.fields.TensorField.evaluate
        evaluate_points = sf.fields.TensorField.evaluate_points

        def counted(field, pt):
            calls.append(("evaluate", field.label))
            return evaluate(field, pt)

        def counted_points(field, pts):
            calls.append(("evaluate_points", field.label))
            return evaluate_points(field, pts)

        monkeypatch.setattr(sf.fields.TensorField, "evaluate", counted)
        monkeypatch.setattr(sf.fields.TensorField, "evaluate_points", counted_points)
        per_report = {}
        for samples in (1, 3):
            for seed in range(12):
                calls.clear()
                rep = continuity_report(Kbar, chart, hole, samples=samples, seed=seed)
                gates = sum(p.seam == "gate" for p in rep.probes)
                per_report.setdefault(tuple(calls), set()).add((samples, gates))
        # K̄(c0), then one batched point read of K̄ whose spine points are
        # one batched point read of K, whatever the sample or gate count
        assert list(per_report) == [(("evaluate", "deformed(linear)"),
                                     ("evaluate_points", "deformed(linear)"),
                                     ("evaluate_points", "linear"))], per_report
        assert len(next(iter(per_report.values()))) > 6


class TestPointReads:
    """``evaluate_points`` against one ``evaluate`` per point, bit for bit,
    on white points, seam points, spine points and c0 together."""

    @staticmethod
    def _points(chart, hole):
        rng = random.Random(47)
        c = chart.complex
        pts = [chart.c0]
        for line in _sampled_lines(chart, 4, seed=53):
            s0, _ = hole.split(line)
            pts += [line.point_at_arc(s0), line.endpoint,
                    line.point_at_arc(0.5 * line.length), chart.c0]
        pts += [sample_interior(c, rng, rng.randrange(len(c.top_simplices))) for _ in range(6)]
        return pts

    @pytest.mark.parametrize("rank", [(0, 0), (1, 0), (1, 1)])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_batch_equals_single(self, census, name, strategy, rank):
        c = coordinate_torus(12) if name == "torus12" else census[name]
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        frame = extend_frame(chart)
        n = c.dimension
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        plain = _plain_field(frame, rank)
        constant = constant_tensor(np.arange(2.0, 2.0 + n ** sum(rank)), frame, rank)
        source = _linear_field(chart, rank=rank)[0] if c.vertex_coords else plain
        pts = self._points(chart, hole)
        for field in (plain, constant, source, deform_tensor(source, chart, hole),
                      deform_tensor(plain, chart, hole), deform_tensor(constant, chart, hole)):
            batch = field.evaluate_points(pts)
            assert batch.shape == (len(pts),) + (n,) * sum(rank)
            for pt, row in zip(pts, batch):
                assert np.array_equal(row, field.evaluate(pt)), (field.label, pt)
                assert row.tobytes() == field.evaluate_points([pt])[0].tobytes()
            assert field.evaluate_points([]).shape == (0,) + (n,) * sum(rank)

    def test_deformed_point_read_relocates(self, census, monkeypatch):
        # every white point but c0 is located again, c0 and the spine points
        # are not, and the located points read K through one line-rule call
        chart = _chart(census, "torus7", "random")
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        pts = self._points(chart, hole)
        white = [pt for pt in pts if chart.spine_face_of(pt) is None and not chart.is_c0(pt)]
        located, reads = [], []
        locate, rule = chart.locate, K.line_rule
        monkeypatch.setattr(chart, "locate", lambda pt: located.append(pt) or locate(pt))
        monkeypatch.setattr(K, "line_rule", lambda requests: reads.append(requests) or
                            rule(requests))
        rows = Kbar.evaluate_points(pts)
        assert located == white
        assert len(reads) == 1 and len(reads[0]) <= len(white)
        for pt, row in zip(pts, rows):
            if pt in white:
                line, arc = locate(pt)
                assert np.array_equal(row, Kbar.evaluate_lines([(line, (arc,))])[0])

    def test_white_point_locate_declines_is_a_field_error(self, census):
        # the barycenter of facet 8 on the bfs chart of torus7 is white, but
        # locate declines it; the deformed field's read says why, in one
        # batch and alone
        chart = _chart(census, "torus7", "bfs")
        K = constant_tensor(np.array([1.5, -2.25]), extend_frame(chart), (1, 0))
        Kbar = deform_tensor(K, chart, black_hole_region(chart, 0.05))
        pt = PointRef(8, (1 / 3, 1 / 3, 1 / 3))
        assert chart.spine_face_of(pt) is None and not chart.is_c0(pt)
        with pytest.raises(ChartDomainError, match="^interval family of facet 12 degenerates"):
            chart.locate(pt)
        for read in (lambda: Kbar.evaluate_points([chart.c0, pt]), lambda: Kbar.evaluate(pt)):
            with pytest.raises(FieldDomainError) as err:
                read()
            assert str(err.value).startswith(
                "point lies on no broken line: interval family of facet 12 degenerates")

    @pytest.mark.parametrize("stack, message", [
        (lambda pts: np.array([[math.nan, 0.0] if k == 2 else [1.0, 2.0]
                               for k in range(len(pts))]), "non-finite components at {}"),
        (lambda pts: np.zeros((len(pts), 3)), "component stack has shape"),
    ], ids=["non-finite", "shape"])
    def test_bad_stack_names_its_point(self, charts, stack, message):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        pts = [line.endpoint for line in _sampled_lines(chart, 4, seed=59)]
        field = sf.fields.TensorField((1, 0), frame, stack)
        with pytest.raises(FieldDomainError) as err:
            field.evaluate_points(pts)
        assert str(err.value).startswith(message.format(pts[2]))


def _jump(a: np.ndarray, b: np.ndarray) -> float:
    """The largest component difference of two blocks, 0.0 for one block."""
    if a is b:
        return 0.0
    return float(np.abs(a - b).max()) if a.shape else float(abs(a - b))


def reference_continuity_report(kbar, chart, hole, samples, seed=0):
    """``continuity_report`` as it read the fields before the stacked read:
    one deformed-field batch and one input-field batch per line, and the
    jumps of each line taken on their own."""
    fields = sf.fields
    fields._require_positive(samples=samples)
    levels = fields.PROBE_LEVELS
    base = kbar.evaluate(chart.c0)
    probes = []
    nonsmooth = []
    boundary_seam = 0.0
    spine_limit = 0.0
    gate_jump = 0.0
    input_gate_jump = 0.0
    for index, (line, _) in enumerate(fields._sampled_lines(chart, samples, seed)):
        s0, s1 = hole.split(line)
        nonsmooth.append((index, s0))
        step = fields.GEOMETRIC_TOL * s1
        deltas = [step / 2 ** k for k in range(levels)]
        gates = []
        for acc in line.segment_ends[:-1]:
            delta = min(step, acc / 2, (line.length - acc) / 2)
            if delta > 0.0:
                gates.append((acc, delta))
        before = [acc - delta for acc, delta in gates]
        after = [acc + delta for acc, delta in gates]
        values = kbar.evaluate_lines([(line, [s0 + d for d in deltas] + [s0 - d for d in deltas] +
                                       [line.length - step] + before + after)])
        inner, outer = values[:levels], values[levels:2 * levels]
        near = values[2 * levels]
        at = 2 * levels + 1
        before_vals, after_vals = values[at:at + len(gates)], values[at + len(gates):]

        at_seam = _jump(kbar.evaluate(line.point_at_arc(s0)), base)
        boundary_seam = max(boundary_seam, at_seam)
        probes.append(fields.ContinuityProbe(index, "hole-boundary", s0, 0.0, at_seam, 0.0))
        for delta, jump in zip(deltas, fields._jumps(inner, outer)):
            probes.append(fields.ContinuityProbe(index, "hole-boundary", s0, delta, jump, 0.0))

        sj = _jump(near, kbar.evaluate(line.endpoint))
        spine_limit = max(spine_limit, sj)
        probes.append(fields.ContinuityProbe(index, "spine-limit", line.length, step, sj, 0.0))

        gate_jumps = fields._jumps(after_vals, before_vals)
        input_jumps = [0.0] * len(gates)
        if kbar.source is not None:
            read = kbar.source.evaluate_lines([(line, before + after)])
            input_jumps = fields._jumps(read[len(gates):], read[:len(gates)])
        for (acc, delta), gj, ij in zip(gates, gate_jumps, input_jumps):
            gate_jump = max(gate_jump, gj)
            input_gate_jump = max(input_gate_jump, ij)
            probes.append(fields.ContinuityProbe(index, "gate", acc, delta, gj, ij))

    return fields.ContinuityReport(tuple(zip(*probes)), boundary_seam, spine_limit,
                                   gate_jump, input_gate_jump, tuple(nonsmooth))


def reference_deformation_samples(kbar, chart, hole, lines, per_line, seed=0):
    """``deformation_samples`` with one batch read per line."""
    sf.fields._require_positive(lines=lines, per_line=per_line)
    rows = []
    for index, (line, _) in enumerate(sf.fields._sampled_lines(chart, lines, seed)):
        arcs = [line.length * k / per_line for k in range(per_line + 1)]
        values = kbar.evaluate_lines([(line, arcs)]).reshape(len(arcs), -1).tolist()
        rows.extend([index, arc] + row for arc, row in zip(arcs, values))
    return rows


def _parity_field(frame, rank):
    """A field with no line rule that jumps by 1 across every gate."""
    shape = (frame.dimension,) * (rank[0] + rank[1])
    return sf.fields.TensorField(rank, frame,
                                 pointwise(lambda pt: np.full(shape, float(pt.top % 2))),
                                 label="parity")


class TestStackedReads:
    """The seam report and the sample rows read every sampled line in one
    stack, with the values, probes and rows of one read per line."""

    @pytest.mark.parametrize("rank", [(0, 0), (1, 0), (1, 1)])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_equals_one_read_per_line(self, census, name, strategy, rank):
        c = coordinate_torus(12) if name == "torus12" else census[name]
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        frame = extend_frame(chart)
        n = c.dimension
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        inputs = [constant_tensor(np.arange(2.0, 2.0 + n ** sum(rank)), frame, rank),
                  _plain_field(frame, rank), _parity_field(frame, rank)]
        if c.vertex_coords:
            inputs.append(_linear_field(chart, rank=rank)[0])
        for K in inputs:
            for field in (K, deform_tensor(K, chart, hole)):
                for seed in (3, 4):
                    got = continuity_report(field, chart, hole, samples=6, seed=seed)
                    want = reference_continuity_report(field, chart, hole, samples=6, seed=seed)
                    assert got == want, (field.label, seed)
                    assert got.probes == want.probes, (field.label, seed)
                    got = deformation_samples(field, chart, hole, lines=6, per_line=16, seed=seed)
                    assert got == reference_deformation_samples(field, chart, hole, lines=6,
                                                                per_line=16, seed=seed)

    @staticmethod
    def _counted_rules(monkeypatch, K, Kbar):
        """Record (field, rule, rows read, inside a deformed-field read) of
        each line-rule and point-rule call."""
        calls, reading = [], []

        def counted(name, rule, kind, size):
            def spy(requests):
                calls.append((name, kind, size(requests), bool(reading)))
                if name == "Kbar":
                    reading.append(True)
                try:
                    return rule(requests)
                finally:
                    if name == "Kbar":
                        reading.pop()
            return spy

        for name, field in (("Kbar", Kbar), ("K", K)):
            monkeypatch.setattr(field, "line_rule", counted(
                name, field.line_rule, "lines", lambda r: sum(len(arcs) for _, arcs in r)))
            monkeypatch.setattr(field, "point_rule", counted(
                name, field.point_rule, "points", len))
        return calls

    @pytest.mark.parametrize("samples", [1, 5, 20])
    def test_one_read_per_field(self, monkeypatch, samples):
        # the report reads K̄(c0) through the deformed field's point rule,
        # then the deformed field at the seam points and the spine points z
        # in one point read, whose z read K in one point read and whose
        # located seam points read K in one line read; then the deformed
        # field once at every probe, whose tails read K once inside it, and
        # K once at the gate probes
        c = coordinate_torus(12)
        chart = build_chart(c, sf.decompose(c, root=0, strategy="dfs", seed=0),
                            Metric.from_complex(c))
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        calls = self._counted_rules(monkeypatch, K, Kbar)
        rep = continuity_report(Kbar, chart, hole, samples=samples, seed=0)
        gates = sum(p.seam == "gate" for p in rep.probes)
        assert gates
        probes = samples * (2 * sf.fields.PROBE_LEVELS + 1) + 2 * gates
        assert [(field, kind, nested) for field, kind, _, nested in calls] == [
            ("Kbar", "points", False), ("Kbar", "points", False), ("K", "points", True),
            ("K", "lines", True), ("Kbar", "lines", False), ("K", "lines", True),
            ("K", "lines", False)]
        assert [calls[k][2] for k in (0, 1, 2, 4, 6)] == [1, 2 * samples, samples, probes,
                                                          2 * gates]
        # a located seam point whose arc rounds below s0 reads K(c0), not K
        assert 0 < calls[3][2] <= samples
        calls.clear()
        rows = deformation_samples(Kbar, chart, hole, lines=samples, per_line=16, seed=0)
        # the sample rows read no point: the one deformed-field read of all
        # rows and the one K read of its tails are every rule call
        assert len(rows) == samples * 17
        assert [(field, kind, nested) for field, kind, _, nested in calls] == [
            ("Kbar", "lines", False), ("K", "lines", True)]
        assert calls[0][2] == samples * 17

    def test_non_finite_row_names_its_line_and_arc(self, census):
        # a rule that is NaN in one facet: the error names the first bad row
        # in request order, on a later line than the first
        c = coordinate_torus(12)
        chart = build_chart(c, sf.decompose(c, root=0, strategy="random", seed=0),
                            Metric.from_complex(c))
        frame = extend_frame(chart)
        lines = [line for line, _ in sf.fields._sampled_lines(chart, 6, 2)]
        requests = [(line, [line.length * k / 16 for k in range(17)]) for line in lines]
        def tops(reads):
            return sf.chart.rows_on_lines(reads)[0].tolist()

        first = set(tops(requests[:1]))
        bad = next(top for top in tops(requests[1:]) if top not in first)

        def rule(reads):
            return np.array([[math.nan, 0.0] if top == bad else [1.0, 2.0]
                             for top in tops(reads)])

        K = sf.fields.TensorField((1, 0), frame, pointwise(lambda pt: np.zeros(2)),
                                  line_rule=rule)
        line, arc = next((line, arc) for line, arcs in requests
                         for arc, top in zip(arcs, tops([(line, arcs)])) if top == bad)
        assert line is not lines[0]
        with pytest.raises(FieldDomainError) as err:
            K.evaluate_lines(requests)
        assert str(err.value) == \
            f"non-finite components at arc {arc} of the line to {line.endpoint}"


class TestDefaultLineRule:
    """A built-in field rebuilt from its point rule alone reads its lines
    through the default line rule, at ``point_at_arc`` of every arc, and
    must give the built-in line rule's reads, seam report and sample rows
    bit for bit, as K and deformed."""

    @pytest.mark.parametrize("rank", [(0, 0), (1, 1)])
    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_matches_built_in_line_rule(self, census, name, strategy, rank):
        c = coordinate_torus(12) if name == "torus12" else census[name]
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        frame = extend_frame(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        built_in = [constant_tensor(np.arange(2.0, 2.0 + c.dimension ** sum(rank)), frame, rank)]
        if c.vertex_coords:
            built_in.append(_linear_field(chart, rank=rank)[0])
        requests = [(line, TestBatchReads._arcs(line, hole))
                    for line in _sampled_lines(chart, 4, seed=61)]
        for f in built_in:
            rebuilt = sf.fields.TensorField(f.rank, f.frame, f.point_rule)
            pairs = [(f, rebuilt), (deform_tensor(f, chart, hole),
                                    deform_tensor(rebuilt, chart, hole))]
            for want, got in pairs:
                assert got.evaluate_lines(requests).tobytes() == \
                    want.evaluate_lines(requests).tobytes(), want.label
                for seed in (3, 4):
                    assert repr(continuity_report(got, chart, hole, samples=6, seed=seed)) == \
                        repr(continuity_report(want, chart, hole, samples=6, seed=seed))
                    assert repr(deformation_samples(got, chart, hole, 6, 16, seed)) == \
                        repr(deformation_samples(want, chart, hole, 6, 16, seed))


class TestLocateCalls:
    """Probes and sample rows walk the line they already hold: locate runs
    once per sampling attempt, plus the one point-path seam probe per line.
    The chart keeps its last draw, so a report and sample rows with the same
    count and seed walk each sampled line once."""

    @staticmethod
    def _instrument(monkeypatch, chart):
        attempts = []
        sampled = []     # lines located from a sampled point
        calls = []
        draw, locate = sf.fields.sample_interior, chart.locate

        def sample(*args):
            attempts.append(draw(*args))
            return attempts[-1]

        def counted(pt):
            calls.append(pt)
            result = locate(pt)
            if attempts and pt is attempts[-1]:
                sampled.append(result[0])
            return result

        monkeypatch.setattr(sf.fields, "sample_interior", sample)
        monkeypatch.setattr(chart, "locate", counted)
        return attempts, sampled, calls

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_continuity_report(self, census, monkeypatch, strategy):
        chart = _chart(census, "torus7", strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        attempts, sampled, calls = self._instrument(monkeypatch, chart)
        levels = sf.fields.PROBE_LEVELS
        rep = continuity_report(Kbar, chart, hole, samples=12, seed=3)
        assert len(sampled) == 12
        assert len(calls) <= 2 * len(attempts)
        assert len(calls) == len(attempts) + len(sampled)
        want = sum(1 + levels + 1 + len(line.segments) - 1 for line in sampled)
        assert len(rep.probes) == want

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_deformation_samples(self, census, monkeypatch, strategy):
        from spineforge.fields import deformation_samples
        chart = _chart(census, "torus7", strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        attempts, sampled, calls = self._instrument(monkeypatch, chart)
        rows = deformation_samples(Kbar, chart, hole, lines=9, per_line=16, seed=3)
        assert len(calls) == len(attempts)
        assert len(sampled) == 9
        assert len(rows) == 9 * 17

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_report_then_samples_share_one_draw(self, census, monkeypatch, strategy):
        # the CLI and the benchmark pass one count and seed to both calls
        chart = _chart(census, "torus7", strategy)
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        attempts, sampled, calls = self._instrument(monkeypatch, chart)
        continuity_report(Kbar, chart, hole, samples=9, seed=3)
        rows = deformation_samples(Kbar, chart, hole, lines=9, per_line=16, seed=3)
        assert len(calls) == 2 * 9
        assert len(attempts) == len(sampled) == 9
        assert len(rows) == 9 * 17

    @pytest.mark.parametrize("count, seed", [(8, 3), (9, 4), (1, 3)])
    def test_other_count_or_seed_draws_again(self, census, monkeypatch, count, seed):
        from spineforge.fields import _sampled_lines as drawn
        chart = _chart(census, "torus7", "random")
        first = drawn(chart, 9, 3)
        attempts, sampled, calls = self._instrument(monkeypatch, chart)
        again = drawn(chart, count, seed)
        assert len(attempts) == len(calls) == count
        fresh = drawn(_chart(census, "torus7", "random"), count, seed)
        assert [line.segments for line, _ in again] == [line.segments for line, _ in fresh]
        assert [arc for _, arc in again] == [arc for _, arc in fresh]
        # one entry: the first draw is gone and is walked again
        calls.clear()
        assert [line.segments for line, _ in drawn(chart, 9, 3)] == \
            [line.segments for line, _ in first]
        assert len(calls) == 9

    @pytest.mark.parametrize("sample", [
        lambda kbar, chart, hole: continuity_report(kbar, chart, hole, samples=5, seed=3),
        lambda kbar, chart, hole: deformation_samples(kbar, chart, hole, lines=5,
                                                      per_line=4, seed=3),
    ], ids=["continuity_report", "deformation_samples"])
    def test_unlocated_point_raises(self, census, monkeypatch, sample):
        # a sampled point off every broken line is an error, not a skipped draw
        chart = _chart(census, "torus7", "random")
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        locate = chart.locate
        raised = []

        def fails_at_third(pt):
            # the third locate of every call, a sampled point: the draw that
            # raised must not be kept, so a second call draws again and raises
            if len(raised) % 3 == 2:
                raised.append(pt)
                raise ChartDomainError("no broken line here")
            raised.append(pt)
            return locate(pt)

        monkeypatch.setattr(chart, "locate", fails_at_third)
        for _ in range(2):
            raised.clear()
            with pytest.raises(ChartDomainError, match="no broken line here"):
                sample(Kbar, chart, hole)
            assert len(raised) == 3

    @pytest.mark.parametrize("sample, name", [
        (lambda kbar, chart, hole: continuity_report(kbar, chart, hole, samples=0), "samples"),
        (lambda kbar, chart, hole: continuity_report(kbar, chart, hole, samples=-2), "samples"),
        (lambda kbar, chart, hole: deformation_samples(kbar, chart, hole, lines=0,
                                                       per_line=4), "lines"),
        (lambda kbar, chart, hole: deformation_samples(kbar, chart, hole, lines=3,
                                                       per_line=0), "per_line"),
        (lambda kbar, chart, hole: deformation_samples(kbar, chart, hole, lines=3,
                                                       per_line=-1), "per_line"),
    ], ids=["samples0", "samples-2", "lines0", "per_line0", "per_line-1"])
    def test_a_check_over_nothing_raises(self, census, monkeypatch, sample, name):
        # a report over no line would pass with every seam 0.0; the count is
        # rejected before any point is drawn
        chart = _chart(census, "torus7", "random")
        K, _ = _linear_field(chart, rank=(1, 1))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        Kbar = deform_tensor(K, chart, hole)
        attempts, _, calls = self._instrument(monkeypatch, chart)
        with pytest.raises(FieldDomainError, match=f"^{name} must be at least 1"):
            sample(Kbar, chart, hole)
        assert not attempts and not calls


class TestFieldFiles:
    def test_parse_constant(self):
        spec = parse_fld("type 1 1\nconstant\n1 0\n0 1\n")
        assert spec.rank == (1, 1)
        assert spec.kind == "constant"
        assert spec.values == (1.0, 0.0, 0.0, 1.0)

    def test_parse_linear(self):
        spec = parse_fld("type 1 0\nlinear\n0.5 1 0 0\n-0.5 0 1 0\n")
        assert spec.kind == "linear"
        assert len(spec.values) == 2

    def test_parse_errors(self):
        with pytest.raises(FieldDomainError):
            parse_fld("tensor 1 0\nconstant\n1\n")
        with pytest.raises(FieldDomainError):
            parse_fld("type 1 0\ncubic\n1\n")
        with pytest.raises(FieldDomainError):
            parse_fld("type -1 0\nconstant\n1\n")

    @pytest.mark.parametrize("text, message", [
        ("", "field file must start with 'type r s'"),
        ("# comments only\n\n", "field file must start with 'type r s'"),
        ("type 1 0\n", "second line must be 'constant' or 'linear'"),
    ], ids=["empty", "comments-only", "lone-type-line"])
    def test_parse_error_messages(self, text, message):
        with pytest.raises(FieldDomainError) as err:
            parse_fld(text)
        assert str(err.value) == message

    def test_linear_needs_exact_row_count(self, charts):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        spec = parse_fld("type 1 0\nlinear\n0.5 1 0 0\n")
        with pytest.raises(FieldDomainError,
                           match=r"^linear field needs 2 component rows, got 1$"):
            field_from_spec(spec, chart, frame)

    def test_constant_needs_exact_count(self, charts):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        with pytest.raises(FieldDomainError):
            field_from_spec(parse_fld("type 1 0\nconstant\n1 2 3\n"), chart, frame)

    def test_linear_needs_coords(self, charts):
        chart = charts["rp2_6"]
        frame = extend_frame(chart)
        spec = parse_fld("type 0 0\nlinear\n0 1 1 1\n")
        with pytest.raises(InvalidComplexError):
            field_from_spec(spec, chart, frame)

    def test_linear_row_width_checked(self, charts):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        spec = parse_fld("type 0 0\nlinear\n0 1\n")
        with pytest.raises(FieldDomainError):
            field_from_spec(spec, chart, frame)

    def test_linear_evaluates_ambient(self, charts, census):
        chart = charts["sphere_tet"]
        frame = extend_frame(chart)
        spec = parse_fld("type 0 0\nlinear\n1.0 1.0 0.0 0.0\n")
        K = field_from_spec(spec, chart, frame)
        c = census["sphere_tet"]
        vertex0 = PointRef(0, (1.0, 0.0, 0.0))
        want = 1.0 + c.vertex_coords[c.top_simplices[0][0]][0]
        assert float(K.evaluate(vertex0)) == pytest.approx(want)
