import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spineforge as sf
from spineforge import simplicial
from spineforge.simplicial import (GEOMETRIC_TOL, InvalidComplexError, Metric,
                                   SimplicialComplex, ValidationReport,
                                   format_tri, parse_tri)
from spineforge.spine import _gate_table

from grids import coordinate_torus, freudenthal_torus3, grid_surface
from helpers import euler_characteristic, face_id, reference_component_count


def brute_cofacets(tops, face):
    """Independent cofacet oracle: plain subset scan of the facet list."""
    fs = set(face)
    return [i for i, t in enumerate(tops) if fs <= set(t)]


def reference_validation(c):
    """Oracle: the closed-manifold checks with every vertex link rebuilt by
    scanning all facets, O(V*F)."""
    ridge_violations = tuple(
        (rid, len(cof)) for rid, cof in enumerate(c.ridge_cofacets) if len(cof) != 2)
    adj = {i: set() for i in range(len(c.top_simplices))}
    for cof in c.ridge_cofacets:
        if len(cof) == 2:
            a, b = cof
            adj[a].add(b)
            adj[b].add(a)
    seen = {0}
    stack = [0]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    dual_connected = len(seen) == len(c.top_simplices)

    link_violations = []
    if c.dimension == 1:
        degree = [0] * c.vertex_count
        for t in c.top_simplices:
            for v in t:
                degree[v] += 1
        for v, deg in enumerate(degree):
            if deg != 2:
                link_violations.append((v, f"vertex in {deg} edges, expected 2"))
    elif c.dimension == 2:
        for v in range(c.vertex_count):
            link_edges = [tuple(w for w in t if w != v)
                          for t in c.top_simplices if v in t]
            deg = {}
            for a, b in link_edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if not link_edges:
                link_violations.append((v, "empty link"))
                continue
            if any(d != 2 for d in deg.values()):
                link_violations.append((v, "link is not 2-regular"))
                continue
            nbr = {}
            for a, b in link_edges:
                nbr.setdefault(a, []).append(b)
                nbr.setdefault(b, []).append(a)
            start = link_edges[0][0]
            cycle = {start}
            stack = [start]
            while stack:
                u = stack.pop()
                for w in nbr[u]:
                    if w not in cycle:
                        cycle.add(w)
                        stack.append(w)
            if len(cycle) != len(deg):
                link_violations.append((v, "link splits into several cycles"))
    return ValidationReport(ridge_violations, dual_connected,
                            tuple(link_violations), c.dimension <= 2)


def graph_distances(c, source):
    """Edge-graph distance from one vertex to every vertex."""
    nbrs = {v: set() for v in range(c.vertex_count)}
    for a, b in c.faces[1]:
        nbrs[a].add(b)
        nbrs[b].add(a)
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for u in frontier:
            for w in nbrs[u]:
                if w not in dist:
                    dist[w] = dist[u] + 1
                    nxt.append(w)
        frontier = nxt
    return dist


def merge_vertices(c, keep, drop):
    """Identify ``drop`` with ``keep``; the last vertex takes ``drop``'s label
    so that the labels stay dense."""
    last = c.vertex_count - 1
    relabel = {drop: keep, last: drop} if drop != last else {drop: keep}
    return SimplicialComplex(c.dimension, [tuple(relabel.get(v, v) for v in t)
                                           for t in c.top_simplices])


MERGED = (0, 3 * 6 + 3)   # vertices (0, 0) and (3, 3) of the 6 x 6 torus grid


def merged_torus():
    return merge_vertices(grid_surface(6), *MERGED)


def torus_of_revolution(k, big=2.0, small=1.0):
    """k x k torus grid with its vertices on a torus of revolution in R^3."""
    grid = grid_surface(k)
    coords = []
    for i in range(k):
        for j in range(k):
            u, v = 2 * math.pi * i / k, 2 * math.pi * j / k
            ring = big + small * math.cos(v)
            coords.append((ring * math.cos(u), ring * math.sin(u), small * math.sin(v)))
    return SimplicialComplex(2, grid.top_simplices, vertex_coords=coords)


class TestConstruction:
    def test_rejects_duplicate_facet(self):
        with pytest.raises(InvalidComplexError):
            SimplicialComplex(1, [(0, 1), (1, 0)])

    def test_rejects_repeated_vertex(self):
        with pytest.raises(InvalidComplexError):
            SimplicialComplex(2, [(0, 1, 1), (0, 1, 2)])

    def test_rejects_sparse_vertices(self):
        with pytest.raises(InvalidComplexError):
            SimplicialComplex(1, [(0, 2), (2, 3), (0, 3)])

    def test_rejects_wrong_arity(self):
        with pytest.raises(InvalidComplexError):
            SimplicialComplex(2, [(0, 1)])

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_coords(self, value):
        with pytest.raises(InvalidComplexError) as info:
            SimplicialComplex(1, [(0, 1), (1, 2), (0, 2)],
                              vertex_coords=[(0.0, 0.0), (value, 1.0), (1.0, 0.0)])
        assert info.value.coords

    def test_rejects_mixed_coordinate_rows(self):
        with pytest.raises(InvalidComplexError,
                           match=r"^coordinate rows have mixed lengths$") as info:
            SimplicialComplex(1, [(0, 1), (1, 2), (0, 2)],
                              vertex_coords=[(0.0, 0.0), (1.0, 0.0, 0.0), (0.0, 1.0)])
        assert info.value.coords

    def test_face_ids_are_lexicographic(self, census):
        c = census["sphere_tet"]
        for k, faces in enumerate(c.faces):
            assert list(faces) == sorted(faces)
            for i, f in enumerate(faces):
                assert face_id(c, k, f) == i

    def test_face_sets_match_brute_force(self, census):
        c = census["torus7"]
        for k in range(c.dimension + 1):
            expected = set()
            for t in c.top_simplices:
                expected.update(combinations(t, k + 1))
            assert set(c.faces[k]) == expected


class TestValidation:
    @pytest.mark.parametrize("name", ["circle3", "sphere_tet", "torus7",
                                      "rp2_6", "sphere3_pent"])
    def test_census_passes(self, census, name):
        assert sf.validate_closed_manifold(census[name]).ok

    def test_missing_triangle_breaks_three_edges(self, census):
        tops = list(census["sphere_tet"].top_simplices)
        removed = tops.pop()
        c = SimplicialComplex(2, tops)
        report = sf.validate_closed_manifold(c)
        bad = {c.faces[1][rid] for rid, _ in report.ridge_violations}
        expected = {f for f in combinations(removed, 2)
                    if len(brute_cofacets(tops, f)) != 2}
        assert bad == expected
        assert len(bad) == 3
        assert not report.ok

    def test_pinched_link_detected(self):
        # two triangles joined only at vertex 0: links of 0 split
        c = SimplicialComplex(2, [(0, 1, 2), (0, 3, 4)])
        report = sf.validate_closed_manifold(c)
        assert not report.ok

    def test_split_link_alone(self):
        # two far-apart torus vertices merged: every ridge keeps two cofacets
        # and the dual graph is untouched, so only the link check can fail
        keep, drop = MERGED
        assert graph_distances(grid_surface(6), keep)[drop] >= 3
        report = sf.validate_closed_manifold(merged_torus())
        assert report.ridge_violations == ()
        assert report.dual_connected
        assert report.link_violations == ((keep, "link splits into several cycles"),)


def oracle_complexes():
    """(id, complex) pairs for the validation oracle, passing and failing."""
    cases = [(name, sf.build_census(name)) for name in sf.census_names()]
    for k in (3, 4, 8):
        cases.append((f"torus{k}", grid_surface(k)))
        cases.append((f"klein{k}", grid_surface(k, klein=True)))
    for name in ("sphere_tet", "torus7", "circle3"):
        tops = list(sf.build_census(name).top_simplices)
        tops.pop(len(tops) // 2)
        cases.append((f"{name}-minus-facet", SimplicialComplex(len(tops[0]) - 1, tops)))
    cases.append(("torus6-merged", merged_torus()))
    cases.append(("torus6-merged-minus-facet",
                  SimplicialComplex(2, merged_torus().top_simplices[1:])))
    cases.append(("pinched", SimplicialComplex(2, [(0, 1, 2), (0, 3, 4)])))
    return cases


class TestValidationOracle:
    """The vertex-star pass against the link scan it replaced."""

    @pytest.mark.parametrize("c", [pytest.param(c, id=name)
                                   for name, c in oracle_complexes()])
    def test_report_equals_reference(self, c):
        assert sf.validate_closed_manifold(c) == reference_validation(c)

    def test_cases_cover_every_verdict(self):
        reports = [reference_validation(c) for _, c in oracle_complexes()]
        assert any(r.ok for r in reports)
        assert any(r.ridge_violations for r in reports)
        assert any(not r.dual_connected for r in reports)
        whys = {why for r in reports for _, why in r.link_violations}
        assert {"link is not 2-regular", "link splits into several cycles"} <= whys
        assert any(why.startswith("vertex in") for why in whys)


class TestDualGraph:
    """The dual graph as ``decompose`` reads it: per facet, the gate step
    across each of its ridges."""

    @pytest.mark.parametrize("name,nodes,edges,degree", [
        ("circle3", 3, 3, 2),
        ("sphere_tet", 4, 6, 3),
        ("sphere3_pent", 5, 10, 4),
    ])
    def test_counts(self, census, name, nodes, edges, degree):
        c = census[name]
        table = _gate_table(c)
        assert len(table) == nodes
        assert len(c.ridge_cofacets) == edges
        assert all(len(row) == degree for row in table)
        # each ridge is crossed from both of its cofacets, in ridge-id order
        for facet, row in enumerate(table):
            assert [s.gate for s in row] == sorted(s.gate for s in row)
            for parent, rid, child in row:
                assert parent == facet
                assert sorted(c.ridge_cofacets[rid]) == sorted((facet, child))
        # independent count: facet pairs sharing a ridge
        pairs = sum(1 for a, b in combinations(c.top_simplices, 2)
                    if len(set(a) & set(b)) == c.dimension)
        assert len(c.ridge_cofacets) == pairs
        assert len(sf.decompose(c).gates) == nodes - 1

    def test_rejects_open_complex(self, census):
        tops = list(census["sphere_tet"].top_simplices)[:-1]
        open_complex = SimplicialComplex(2, tops)
        with pytest.raises(InvalidComplexError,
                           match=r"^ridge \(1, 2\) has 1 cofacets, expected 2$"):
            sf.decompose(open_complex)
        assert open_complex._derived.get("gates") is None

    def test_ridge_double_counting(self, census):
        for c in census.values():
            n = c.dimension
            assert (n + 1) * len(c.top_simplices) == 2 * len(c.faces[n - 1])


class TestEuler:
    def test_sphere(self, census):
        assert euler_characteristic(census["sphere_tet"]) == 2

    def test_torus(self, census):
        c = census["torus7"]
        assert c.f_vector == (7, 21, 14)
        assert euler_characteristic(c) == 0

    def test_projective_plane(self, census):
        c = census["rp2_6"]
        assert c.f_vector == (6, 15, 10)
        assert euler_characteristic(c) == 1

    @given(st.permutations(list(range(4))))
    def test_invariant_under_relabeling(self, perm):
        tops = [tuple(perm[v] for v in t) for t in combinations(range(4), 3)]
        assert euler_characteristic(SimplicialComplex(2, tops)) == 2


class TestMetric:
    def test_unit_default_without_coords(self, census):
        m = Metric.from_complex(census["rp2_6"])
        assert all(l == 1.0 for l in m.edge_lengths.values())

    def test_euclidean_with_coords(self, census):
        m = Metric.from_complex(census["sphere_tet"])
        assert all(abs(l - math.sqrt(8.0)) < 1e-12 for l in m.edge_lengths.values())

    def test_vertex_distance_is_edge_length(self, census):
        c = census["rp2_6"]
        m = Metric.from_complex(c)
        verts = c.top_simplices[0]
        assert m.dist(verts, (1.0, 0.0, 0.0), (0.0, 1.0, 0.0)) == pytest.approx(1.0)

    def test_barycenter_distance_equilateral(self, census):
        # circumradius of a unit equilateral triangle is 1/sqrt(3)
        c = census["rp2_6"]
        m = Metric.from_complex(c)
        verts = c.top_simplices[0]
        d = m.dist(verts, (1 / 3, 1 / 3, 1 / 3), (1.0, 0.0, 0.0))
        assert d == pytest.approx(1 / math.sqrt(3))

    def test_lengths_at_scalar_ids(self):
        # two scalar ids broadcast to a 0-d array, like any other shapes
        m = Metric({(0, 1): 1.5, (1, 2): 2.0, (0, 5): 0.25})
        assert m.lengths_at(0, 1).shape == ()
        assert m.lengths_at(0, 1) == 1.5 and m.lengths_at(2, 1) == 2.0
        assert m.lengths_at(1, 2, squared=True) == 4.0
        assert math.isnan(m.lengths_at(0, 2))                  # no such edge
        assert math.isnan(m.lengths_at(0, 9))                  # past every vertex id
        assert m.lengths_at(1, 1) == 0.0 and m.lengths_at(9, 9) == 0.0
        row = m.lengths_at(0, [1, 2, 0, 5])
        assert row[0] == 1.5 and math.isnan(row[1]) and row[2] == 0.0 and row[3] == 0.25

    def test_lengths_at_matches_length(self, census):
        c = census["torus7"]
        m = Metric.from_complex(c)
        for u, v in c.faces[1]:
            assert m.lengths_at(u, v) == m.length(u, v) == m.lengths_at(v, u)
            assert m.lengths_at(u, v, squared=True) == m.length(u, v) * m.length(u, v)

    @staticmethod
    def _assert_per_edge_formula(c):
        # the per-edge scalar rule the stacked pass follows: each difference
        # squared as d * d, the squares added left to right
        m = Metric.from_complex(c)
        assert list(m.edge_lengths) == list(c.faces[1])
        for (u, v), length in m.edge_lengths.items():
            if c.vertex_coords is None:
                want = 1.0
            else:
                pu, pv = c.vertex_coords[u], c.vertex_coords[v]
                total = 0.0
                for a, b in zip(pu, pv):
                    total += (a - b) * (a - b)
                want = math.sqrt(total)
            assert length.hex() == want.hex(), (u, v)

    @pytest.mark.parametrize("name", sf.census_names())
    def test_from_complex_is_the_per_edge_formula_on_census(self, census, name):
        self._assert_per_edge_formula(census[name])

    def test_from_complex_is_the_per_edge_formula_at_scale(self):
        # 6912 edges and 20 736 squared terms, enough that a square taken by
        # Python's ** (libm's pow) or a sum the builtin compensates, as 3.12+
        # does, would miss the rule on some of them
        self._assert_per_edge_formula(coordinate_torus(48))

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidComplexError):
            Metric({(0, 1): 0.0})

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(InvalidComplexError):
            Metric({(0, 1): 1.0, (1, 2): length})

    def test_rejects_length_whose_square_overflows(self):
        # a NaN height could then come from inf - inf, not only from a
        # missing edge, and the chart would be built with it
        Metric({(0, 1): 1.3e154})
        for length in (1.35e154, 1e160, 10 ** 200):
            with pytest.raises(InvalidComplexError) as err:
                Metric({(0, 1): 1.0, (1, 2): length})
            assert str(err.value) == (f"edge (1, 2) has length {length}, expected a "
                                      "positive number with a finite square")

    def test_rejects_triangle_violation(self, census):
        c = census["rp2_6"]
        lengths = {e: 1.0 for e in c.faces[1]}
        lengths[(0, 1)] = 5.0
        with pytest.raises(InvalidComplexError):
            Metric(lengths).validate(c)

    def test_rejects_unrealizable_tetrahedron(self, census):
        # every triangle here is unit or (1, 1, 1.9), so the triangle
        # inequality holds; but five unit edges hold the sixth of a
        # tetrahedron to at most sqrt(3)
        c = census["sphere3_pent"]
        lengths = {e: 1.0 for e in c.faces[1]}
        lengths[(0, 1)] = 1.9
        with pytest.raises(InvalidComplexError, match=r"3-face \(0, 1, 2, 3\)"):
            Metric(lengths).validate(c)
        lengths[(0, 1)] = 1.7
        Metric(lengths).validate(c)
        lengths[(0, 1)] = math.sqrt(3.0)      # flat, as flat triangles pass
        Metric(lengths).validate(c)


class TestTriFormat:
    def test_round_trip_bit_exact(self, census):
        for c in census.values():
            text = format_tri(c)
            back = parse_tri(text)
            assert back.dimension == c.dimension
            assert back.top_simplices == c.top_simplices
            assert back.vertex_coords == c.vertex_coords
            assert format_tri(back) == text

    def test_comments_and_blank_lines(self):
        text = "# a circle\ndim 1\n0 1\n\n1 2  # last\n0 2\n"
        c = parse_tri(text)
        assert c.f_vector == (3, 3)

    def test_coords_block(self):
        text = "dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0.5 1.0\n0 1\n1 2\n0 2\n"
        c = parse_tri(text)
        assert c.vertex_coords == ((0.0, 0.0), (1.0, 0.0), (0.5, 1.0))

    def test_bad_header(self):
        with pytest.raises(InvalidComplexError):
            parse_tri("dimension 2\n0 1 2\n")

    def test_bad_facet_line(self):
        with pytest.raises(InvalidComplexError):
            parse_tri("dim 1\n0 1 2\n")

    def test_missing_file_is_os_error(self, tmp_path):
        with pytest.raises(OSError):
            sf.read_tri(tmp_path / "missing.tri")

    def test_torus_48_round_trip_bit_exact(self):
        c = torus_of_revolution(48)
        text = format_tri(c)
        back = parse_tri(text)
        assert back.top_simplices == c.top_simplices
        assert back.vertex_coords == c.vertex_coords
        assert format_tri(back) == text

    def test_coords_block_to_end_of_file(self):
        # every row is read as a coordinate, so no facet is left
        with pytest.raises(InvalidComplexError) as info:
            parse_tri("dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0.5 1.0\n")
        assert str(info.value) == "complex needs at least one facet"

    def test_integer_rows_of_facet_length_are_facets(self):
        # with d = n + 1 an integer-only row ends the coordinate block
        text = "dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0.5 1.0\n0 1\n1 2\n0 2\n"
        assert parse_tri(text).top_simplices == ((0, 1), (1, 2), (0, 2))
        with pytest.raises(InvalidComplexError) as info:
            parse_tri("dim 1\ncoords 2\n0 0\n1 0\n0 1\n0 1\n1 2\n0 2\n")
        assert str(info.value) == "line 3: facet (0, 0) repeats a vertex"

    @pytest.mark.parametrize("text,message", [
        ("dim 1\n0 1\n1 1\n0 2\n", "line 3: facet (1, 1) repeats a vertex"),
        ("dim 1\n0 1\n# c\n\n1 2\n0 2\n2 1\n", "line 7: duplicate facet (1, 2)"),
        ("dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0 1\n1 2\n0 2\n",
         "line 2: 2 coordinate rows for 3 vertices"),
        ("dim 2\ncoords 1\n0.0\n1.0\n2.0\n3.0\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n",
         "line 2: ambient dimension 1 below complex dimension 2"),
        ("dim 1\n0 1\n1 3\n0 3\n", "vertices must be dense integers 0..V-1"),
    ], ids=["repeated-vertex", "duplicate-facet", "coordinate-rows",
            "ambient-dimension", "sparse-vertices"])
    def test_constructor_errors_name_the_line(self, text, message):
        with pytest.raises(InvalidComplexError) as info:
            parse_tri(text)
        assert str(info.value) == message

    def test_write_read(self, tmp_path, census):
        path = tmp_path / "t.tri"
        sf.write_tri(census["torus7"], path)
        back = sf.read_tri(path)
        assert back.top_simplices == census["torus7"].top_simplices


# -- the one-pass load path against the loops it replaced ---------------------

def reference_lattice(dimension, tops):
    """The face lattice as first built: one set pass per face dimension, then
    a second pass over the ridges that looks each one up in ``face_index``."""
    faces = []
    for k in range(dimension):
        fs = set()
        for t in tops:
            fs.update(combinations(t, k + 1))
        faces.append(tuple(sorted(fs)))
    faces.append(tuple(sorted(tops)))
    face_index = tuple({f: i for i, f in enumerate(fk)} for fk in faces)
    if dimension >= 1:
        cof = [[] for _ in faces[dimension - 1]]
        for ti, t in enumerate(tops):
            for f in combinations(t, dimension):
                cof[face_index[dimension - 1][f]].append(ti)
        ridge_cofacets = tuple(tuple(v) for v in cof)
    else:
        ridge_cofacets = ()
    return tuple(faces), face_index, ridge_cofacets


def reference_star_validation(c):
    """The closed-manifold checks as written before links were read off the
    ridge check: a star per vertex and a degree dict per link."""
    ridge_violations = tuple(
        (rid, len(cof)) for rid, cof in enumerate(c.ridge_cofacets) if len(cof) != 2)
    dual_connected = reference_component_count(
        [(i,) for i in range(len(c.top_simplices))]
        + [cof for cof in c.ridge_cofacets if len(cof) == 2]) == 1
    stars = [[] for _ in range(c.vertex_count)]
    for t in c.top_simplices:
        for v in t:
            stars[v].append(t)
    link_violations = []
    if c.dimension == 1:
        for v, star in enumerate(stars):
            if len(star) != 2:
                link_violations.append((v, f"vertex in {len(star)} edges, expected 2"))
    elif c.dimension == 2:
        for v, star in enumerate(stars):
            link_edges = [tuple(w for w in t if w != v) for t in star]
            deg = {}
            for a, b in link_edges:
                deg[a] = deg.get(a, 0) + 1
                deg[b] = deg.get(b, 0) + 1
            if any(d != 2 for d in deg.values()):
                link_violations.append((v, "link is not 2-regular"))
            elif reference_component_count(link_edges) != 1:
                link_violations.append((v, "link splits into several cycles"))
    return ValidationReport(ridge_violations, dual_connected,
                            tuple(link_violations), c.dimension <= 2)


def reference_metric_validate(m, c):
    """``Metric.validate`` with the triangle inequality checked one 2-face at
    a time through ``length``."""
    for u, v in (c.faces[1] if c.dimension >= 1 else ()):
        if (u, v) not in m.edge_lengths:
            raise InvalidComplexError(f"metric misses edge {(u, v)}")
    if c.dimension >= 2:
        for a, b, d in c.faces[2]:
            lab, lad, lbd = m.length(a, b), m.length(a, d), m.length(b, d)
            slack = GEOMETRIC_TOL * max(lab, lad, lbd)
            if lab > lad + lbd + slack or lad > lab + lbd + slack or lbd > lab + lad + slack:
                raise InvalidComplexError(
                    f"triangle inequality fails on 2-face {(a, b, d)}")
    for k in range(3, c.dimension + 1):
        for face in c.faces[k]:
            det, scale = m._gram_det(face)
            if det < -GEOMETRIC_TOL * scale:
                raise InvalidComplexError(
                    f"Cayley-Menger determinant of {k}-face {face} has the wrong "
                    "sign: no Euclidean simplex has its edge lengths")


def _reference_is_int_token(tok):
    try:
        int(tok)
        return True
    except ValueError:
        return False


def reference_tokens(text):
    """(1-based line number, tokens) of every non-blank line of a .tri text,
    one line at a time: cut at '#', strip, split."""
    for number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield number, line.split()


def reference_bad_line(number, what, toks):
    return InvalidComplexError(f"line {number}: {what} {' '.join(toks)!r}")


def reference_parse_tri(text):
    """``parse_tri`` as written before, one line at a time: every token of a
    coordinate row of facet length tried with ``int()``, and every facet
    token parsed twice.  It shares no code with the parser."""
    bad_line = reference_bad_line
    lines = list(reference_tokens(text))
    if not lines:
        raise InvalidComplexError("first line must be 'dim n'")
    number, head = lines[0]
    if head[0] != "dim" or len(head) != 2:
        raise bad_line(number, "first line must be 'dim n', got", head)
    try:
        n = int(head[1])
    except ValueError:
        raise bad_line(number, "bad dimension in", head)
    i = 1
    coords = coords_number = None
    if i < len(lines) and lines[i][1][0] == "coords":
        coords_number, toks = lines[i]
        if len(toks) != 2 or not _reference_is_int_token(toks[1]):
            raise bad_line(coords_number, "coords line must be 'coords d', got", toks)
        d = int(toks[1])
        coords = []
        i += 1
        while i < len(lines):
            number, toks = lines[i]
            looks_coord = len(toks) == d and (
                d != n + 1 or not all(_reference_is_int_token(t) for t in toks))
            if not looks_coord:
                break
            try:
                row = tuple(float(t) for t in toks)
            except ValueError:
                raise bad_line(number, "bad coordinate line", toks)
            if not all(map(math.isfinite, row)):
                raise bad_line(number, "non-finite coordinate in", toks)
            coords.append(row)
            i += 1
    tops = []
    facet_numbers = []
    ids = {}
    for number, toks in lines[i:]:
        if len(toks) != n + 1 or not all(_reference_is_int_token(t) for t in toks):
            raise bad_line(number, "bad facet line", toks)
        for t in toks:
            if t not in ids:
                ids[t] = int(t)
        tops.append(tuple(map(ids.__getitem__, toks)))
        facet_numbers.append(number)
    try:
        return SimplicialComplex(n, tops, vertex_coords=coords)
    except InvalidComplexError as exc:
        if exc.facet is not None:
            number = facet_numbers[exc.facet]
        elif exc.coords:
            number = coords_number
        else:
            raise
        raise InvalidComplexError(f"line {number}: {exc}") from None


def outcome(fn, *args):
    """What a call gives: its value, or its exception's class and message."""
    try:
        return "ok", fn(*args)
    except Exception as exc:   # the class and message are compared
        return type(exc), str(exc)


def lattice_of(c):
    """Everything the constructor derives, with each face index's key order."""
    return (c.dimension, c.top_simplices, c.vertex_coords, c.faces,
            [list(fi.items()) for fi in c.face_index], c.ridge_cofacets)


def relabelled(c, offset, keep=()):
    """``c``'s facets with every vertex moved up by ``offset``, except the
    vertices in ``keep``; with ``keep`` = (0,) and offset V - 1, a second copy
    meets the first at vertex 0 only."""
    return [tuple(v if v in keep else v + offset for v in t) for t in c.top_simplices]


def load_cases():
    """(id, complex) pairs for the load-path references: closed manifolds of
    every dimension the package builds, and each kind of violation."""
    cases = [(name, sf.build_census(name)) for name in sf.census_names()]
    for k in range(3, 13):
        cases.append((f"torus{k}", grid_surface(k)))
        cases.append((f"klein{k}", grid_surface(k, klein=True)))
    cases += [(f"torus3d{k}", freudenthal_torus3(k)) for k in (3, 4)]
    torus, tet = grid_surface(4), sf.build_census("sphere_tet")
    cases += [
        ("pinched-tori", SimplicialComplex(
            2, torus.top_simplices + tuple(relabelled(torus, 15, keep=(0,))))),
        ("two-spheres", SimplicialComplex(2, tet.top_simplices + tuple(relabelled(tet, 4)))),
        ("ridge-with-three-cofacets", SimplicialComplex(2, tet.top_simplices + ((0, 1, 4),))),
        ("boundary-ridge", SimplicialComplex(2, tet.top_simplices[1:])),
        ("torus6-merged", merged_torus()),
        ("theta-graph", SimplicialComplex(1, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3)])),
        ("point", SimplicialComplex(0, [(0,)])),
        ("sphere4", SimplicialComplex(4, list(combinations(range(6), 5)))),
        ("coordinate-torus6", sf.simplicial.parse_tri(format_tri(torus_of_revolution(6)))),
    ]
    return cases


LOAD_CASES = [pytest.param(c, id=name) for name, c in load_cases()]


class TestOnePassLoad:
    """Each one-pass rewrite of the load path equals the loop it replaced."""

    @pytest.mark.parametrize("c", LOAD_CASES)
    def test_lattice_equals_reference(self, c):
        faces, face_index, ridge_cofacets = reference_lattice(c.dimension, c.top_simplices)
        assert lattice_of(c)[3:] == (faces, [list(fi.items()) for fi in face_index],
                                     ridge_cofacets)

    @pytest.mark.parametrize("c", LOAD_CASES)
    def test_validation_equals_star_pass(self, c):
        c = SimplicialComplex(c.dimension, c.top_simplices)   # no cached report
        assert sf.validate_closed_manifold(c) == reference_star_validation(c)

    def test_valid_rows_take_the_bulk_path(self, monkeypatch):
        # _scanned_facets only names a row at fault; no valid input reads it
        def scanned(n, rows):
            raise AssertionError("a valid input was scanned row by row")

        monkeypatch.setattr(simplicial, "_scanned_facets", scanned)
        for _, c in load_cases():
            assert lattice_of(parse_tri(format_tri(c))) == lattice_of(c)

    def test_cases_cover_every_verdict(self):
        reports = {name: reference_star_validation(c) for name, c in load_cases()}
        pinched = reports["pinched-tori"]
        assert pinched.link_violations == ((0, "link splits into several cycles"),)
        assert not pinched.dual_connected and not pinched.ridge_violations
        assert not reports["two-spheres"].dual_connected
        assert (0, 3) in reports["ridge-with-three-cofacets"].ridge_violations
        assert (0, 1) in reports["boundary-ridge"].ridge_violations
        whys = {why for r in reports.values() for _, why in r.link_violations}
        assert whys == {"link is not 2-regular", "link splits into several cycles",
                        "vertex in 3 edges, expected 2"}
        assert all(reports[f"{s}{k}"].ok for s in ("torus", "klein") for k in range(3, 13))

    @pytest.mark.parametrize("k", [4, 8, 16])
    def test_validation_counts_once_per_vertex_link(self, monkeypatch, k):
        # one count of the dual graph and one per vertex link; no star pass
        calls = []
        count = sf.simplicial.component_count

        def counted(simplices, table):
            calls.append(1)
            return count(simplices, table)
        monkeypatch.setattr(sf.simplicial, "component_count", counted)
        c = grid_surface(k)
        assert sf.validate_closed_manifold(c).ok
        assert len(calls) == c.vertex_count + 1

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(1, 12).flatmap(lambda labels: st.tuples(
        st.just(labels), st.booleans(),
        st.lists(st.lists(st.integers(0, labels - 1), max_size=4), max_size=20))))
    def test_union_find_equals_dict_version(self, case):
        # with every label first as its own singleton, as the dual graph check
        # feeds its facets, isolated labels count as components
        labels, singletons, simplices = case
        if singletons:
            simplices = [(v,) for v in range(labels)] + simplices
        table = [-1] * labels
        want = (len({v for s in simplices for v in s}), reference_component_count(simplices))
        for _ in range(2):   # the table is reset, so it serves the next call as it is
            assert simplicial.component_count(simplices, table) == want
            assert table == [-1] * labels


def _edge_scan(c, pick):
    """Unit lengths on ``c``'s edges, with ``pick(edge)`` where it is not None."""
    lengths = {}
    for e in c.faces[1]:
        lengths[e] = pick(e) or 1.0
    return lengths


def metric_cases():
    """(id, complex, edge lengths): realisable metrics, metrics that fail the
    triangle inequality on one or many faces, and lengths within a few ulps
    of the slack on either side."""
    cases = []
    for name in ("sphere_tet", "torus7", "rp2_6", "sphere3_pent"):
        c = sf.build_census(name)
        cases.append((name, c, dict(Metric.from_complex(c).edge_lengths)))
    for k in (3, 6, 12):
        c = torus_of_revolution(k)
        cases.append((f"revolution{k}", c, dict(Metric.from_complex(c).edge_lengths)))
    for k, seed in ((4, 0), (8, 1), (12, 2)):
        rng = random.Random(seed)
        c = grid_surface(k, klein=seed == 1)
        cases.append((f"random{k}", c, _edge_scan(c, lambda e: rng.uniform(0.4, 2.2))))
    # one edge of the 5 x 5 torus at the slack: long > 1 + 1 + 1e-9 * long
    edge = grid_surface(5).faces[1][7]
    edge_limit = 2.0 / (1.0 - GEOMETRIC_TOL)
    for steps in (-2, -1, 0, 1, 2):
        long = edge_limit
        for _ in range(abs(steps)):
            long = math.nextafter(long, math.inf if steps > 0 else 0.0)
        c = grid_surface(5)
        cases.append((f"slack{steps:+d}", c, _edge_scan(c, lambda e: long if e == edge else None)))
    c = sf.build_census("sphere3_pent")
    cases.append(("pent-unrealisable", c, _edge_scan(c, lambda e: 1.9 if e == (0, 1) else None)))
    c = sf.build_census("rp2_6")
    cases.append(("rp2-missing-edge", c, {e: 1.0 for e in c.faces[1][1:]}))
    return cases


class TestStackedTriangleCheck:
    """``Metric.validate`` against the per-face loop it replaced."""

    @pytest.mark.parametrize("c,lengths", [pytest.param(c, l, id=name)
                                           for name, c, l in metric_cases()])
    def test_equals_reference(self, c, lengths):
        assert outcome(Metric(lengths).validate, c) == \
            outcome(reference_metric_validate, Metric(lengths), c)

    def test_cases_cover_every_verdict(self):
        verdicts = {name: outcome(reference_metric_validate, Metric(l), c)
                    for name, c, l in metric_cases()}
        assert verdicts["revolution12"] == ("ok", None)
        assert verdicts["slack+0"] == verdicts["slack-1"] == ("ok", None)
        assert verdicts["slack+1"][1].startswith("triangle inequality fails")
        assert verdicts["random12"][1].startswith("triangle inequality fails")
        assert verdicts["pent-unrealisable"][1].startswith("Cayley-Menger")
        assert verdicts["rp2-missing-edge"][1].startswith("metric misses edge")

    def test_first_of_two_failing_faces_is_named(self, census):
        # (0, 1) and (3, 4) each break the faces they bound, and no face holds
        # both; the face named is the first failing one in faces[2] order
        c = census["rp2_6"]
        lengths = {e: 1.0 for e in c.faces[1]}
        lengths[(0, 1)] = lengths[(3, 4)] = 2.5
        failing = [f for f in c.faces[2]
                   if {(0, 1), (3, 4)} & set(combinations(f, 2))]
        assert not any({(0, 1), (3, 4)} <= set(combinations(f, 2)) for f in failing)
        assert len(failing) == 4
        with pytest.raises(InvalidComplexError) as info:
            Metric(lengths).validate(c)
        assert str(info.value) == f"triangle inequality fails on 2-face {failing[0]}"
        assert outcome(reference_metric_validate, Metric(lengths), c) == \
            (InvalidComplexError, str(info.value))


def parse_texts():
    """(id, .tri text) pairs for the parse reference."""
    texts = [(name, format_tri(sf.build_census(name))) for name in sf.census_names()]
    for k in range(3, 13):
        texts.append((f"torus{k}", format_tri(grid_surface(k))))
        texts.append((f"klein{k}", format_tri(grid_surface(k, klein=True))))
    texts.append(("revolution8", format_tri(torus_of_revolution(8))))
    texts += [(f"torus3d{k}", format_tri(freudenthal_torus3(k))) for k in (3, 4)]
    circle = "dim 1\n{}\n{}\n{}\n"
    texts += [
        # float tokens in facet rows
        ("facet-float", circle.format("0 1", "1.0 2", "0 2")),
        ("facet-exponent", circle.format("0 1", "1 2", "0 2e0")),
        ("facet-nan", circle.format("0 1", "1 nan", "0 1")),
        ("facet-inf", "dim 2\n0 1 2\n0 1 3\n0 2 inf\n1 2 3\n"),
        ("facet-word", circle.format("0 1", "1 two", "0 2")),
        ("facet-short", circle.format("0 1", "1", "0 2")),
        # integer-looking coordinate rows when d = n + 1
        ("coords-int-rows", "dim 1\ncoords 2\n0 0\n1 0\n0 1\n0 1\n1 2\n0 2\n"),
        ("coords-mixed-row", "dim 1\ncoords 2\n0 0.5\n1 0\n0 1\n0 1\n1 2\n0 2\n"),
        ("coords-float-rows", "dim 1\ncoords 2\n0.0 0.0\n1e0 0\n0.5 1.0\n0 1\n1 2\n0 2\n"),
        ("coords-sign-row", "dim 1\ncoords 2\n0.5 -\n1.0 0.0\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        ("coords-inf-row", "dim 1\ncoords 2\n0.5 Infinity\n1.0 0.0\n0 1\n0 1\n1 2\n0 2\n"),
        ("coords-NaN-row", "dim 1\ncoords 2\nNaN 0\n1.0 0.0\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        ("coords-wide", "dim 1\ncoords 3\n0 0 0\n1 0 0\n0 1 0\n0 1\n1 2\n0 2\n"),
        ("coords-x", "dim 1\ncoords x\n0 1\n1 2\n0 2\n"),
        ("coords-underscore", "dim 1\ncoords 2\n1_0 0.5\n1.0 0.0\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        # tokens that int() accepts: underscores, signs and non-ASCII digits
        ("underscore", "dim 1\n" + "".join(f"{v} {v + 1}\n" for v in range(9))
         + "9 1_0\n1_0 0_0\n"),
        ("signs", circle.format("+0 1", "1 +2", "-0 2")),
        ("arabic-indic", circle.format("٠ ١", "١ ٢", "٠ ٢")),
        ("fullwidth", circle.format("０ 1", "1 ２", "0 2")),
        ("underscore-int-coords", "dim 1\ncoords 2\n1_0 0\n0 1\n0 1\n1 2\n0 2\n"),
        ("arabic-indic-coords", "dim 1\ncoords 2\n٠ 0.5\n1 0\n0 1\n0 1\n1 2\n0 2\n"),
        # header faults
        ("empty", "# nothing\n"),
        ("no-dim", "dimension 2\n0 1 2\n"),
        ("bad-dim", "dim two\n0 1 2\n"),
        ("negative-dim", "dim -1\n0\n"),
        ("negative-dim-word", "dim -1\nx\n"),
        ("point", "dim 0\n0\n"),
        ("point-word", "dim 0\nx\n"),
        ("huge-dim", "dim 99999999999999999999\n0 1\n"),
        ("huge-dim-no-facets", "dim 99999999999999999999\n# none\n"),
        ("negative-dim-no-facets", "dim -3\n"),
        # what one join-and-split per block could get wrong: comments, line
        # ends and separators that splitlines breaks on, runs of blanks
        ("comment-after-coords", "dim 1\ncoords 2\n0.0 0.0 # a\n1.0 0.0#b\n0.0 1.0\n"
         "0 1\n1 2\n0 2\n"),
        ("comment-after-facet", "dim 1 # circle\n0 1 # first\n1 2#\n# 9 9\n0 2\n"),
        ("comment-hides-token", "dim 1\ncoords 2\n0.0 0.0\n1.0 # 0.0\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        ("crlf", "dim 1\r\ncoords 2\r\n0.0 0.0\r\n1.0 0.0\r\n0.0 1.0\r\n0 1\r\n1 2\r\n0 2\r\n"),
        ("separators", "dim 1\x1ccoords 2\u20280.0 0.0\x1d1.0 0.0\x1e0.0 1.0\x85"
         "0 1\u20291 2\x0b0 2\x0c"),
        ("separator-splits-facet", "dim 2\n0 1 2\n0 1\u20283\n0 2 3\n1 2 3\n"),
        ("separator-splits-coords", "dim 1\ncoords 2\n0.0\x1c0.0\n1.0 0.0\n0.0 1.0\n"
         "0 1\n1 2\n0 2\n"),
        ("tabs-and-spaces", "dim\t1\ncoords   2\n\t0.0  0.0 \n 1.0\t\t0.0\n0.0 \t 1.0\n"
         "  0   1\n1\t2\n\t0 2\t\n"),
        ("coords-end-at-int-row", "dim 1\ncoords 2\n\n0.5 0.0\n\n1.0 0.5 # c\n0.0 1.0\n\n"
         "# facets\n0 1\n1 2\n0 2\n"),
        ("coords-end-at-int-row-early", "dim 1\ncoords 2\n0.5 0.0\n1 0\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        ("coords-blank-after-header", "dim 2\ncoords 3\n\n\n0 0 0.\n1. 0 0\n0 1. 0\n0 0 1.\n"
         "0 1 2\n0 1 3\n0 2 3\n1 2 3\n"),
        ("coords-bad-last-row", "dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0.0 1.x\n0 1\n1 2\n0 2\n"),
        ("coords-only", "dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n"),
        ("facet-bad-last-token", "dim 1\n0 1\n1 2\n0 2x\n"),
        ("facet-bad-last-line-count", "dim 1\n0 1\n1 2\n0 2 3\n"),
        ("facet-count-before-word", "dim 1\n0 1\n1 2 0\n0 x\n"),
        ("facet-word-before-count", "dim 1\n0 1\n1 x\n0 1 2\n"),
        ("facet-repeat-after-blank", "dim 1\n0 1\n\n\n1 2\n\n1 1\n"),
        ("facet-word-after-blank", "dim 1\n0 1\n\n \n1 x\n0 2\n"),
        ("coords-word-after-blank", "dim 1\ncoords 2\n0.0 0.0\n\n1.0 x\n0.0 1.0\n0 1\n1 2\n0 2\n"),
        ("no-final-newline", "dim 1\ncoords 2\n0.0 0.0\n1.0 0.0\n0.0 1.0\n0 1\n1 2\n0 2"),
        ("no-final-newline-bad", "dim 1\n0 1\n1 2\n0 2.5"),
    ]
    return texts


class TestParseReference:
    """``parse_tri`` against the parse loop it replaced: the same complex, or
    the same exception class and message, which names the same line."""

    @pytest.mark.parametrize("text", [pytest.param(t, id=name) for name, t in parse_texts()])
    def test_equals_reference(self, text):
        new, old = outcome(parse_tri, text), outcome(reference_parse_tri, text)
        if new[0] == "ok" and old[0] == "ok":
            assert lattice_of(new[1]) == lattice_of(old[1])
        else:
            assert new == old

    def test_cases_cover_every_verdict(self):
        results = {name: outcome(reference_parse_tri, text) for name, text in parse_texts()}
        assert results["facet-float"] == (InvalidComplexError,
                                          "line 3: bad facet line '1.0 2'")
        assert results["coords-int-rows"] == (InvalidComplexError,
                                              "line 3: facet (0, 0) repeats a vertex")
        assert results["coords-sign-row"] == (InvalidComplexError,
                                              "line 3: bad coordinate line '0.5 -'")
        assert results["underscore"][0] == "ok"
        assert results["underscore"][1].vertex_count == 11
        assert results["arabic-indic"][0] == "ok"
        assert results["arabic-indic"][1].top_simplices == ((0, 1), (1, 2), (0, 2))
        assert results["coords-underscore"][0] == "ok"

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.lists(st.sampled_from(
        ["0", "1", "2", "3", "1_0", "٣", "+1", "-0", "0.5", "1e0", "2.", "nan",
         "inf", "-", "x", "E", "0x1"]), min_size=1, max_size=3), max_size=8),
        st.sampled_from(["dim -1\n", "dim 0\n", "dim 1\n", "dim 2\n", "dim 1\ncoords 2\n",
                         "dim 2\ncoords 3\n", "dim 1\ncoords 1\n", "dim 0\ncoords 1\n"]))
    def test_random_rows_equal_reference(self, rows, head):
        text = head + "".join(" ".join(r) + "\n" for r in rows)
        new, old = outcome(parse_tri, text), outcome(reference_parse_tri, text)
        if new[0] == "ok" and old[0] == "ok":
            assert lattice_of(new[1]) == lattice_of(old[1])
        else:
            assert new == old

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(st.tuples(st.sampled_from(["0 1", "1 2", "0 2", "0.0 1.0", "1.0 0.0",
                                               "0 0.5", "1 0", "1 x", "0 1 2", ""]),
                              st.sampled_from([" ", "\t", "  ", " \t "]),
                              st.sampled_from(["\n", "\r\n", "\x1c", "\u2028", "\n\n",
                                               " # c\n", "#\n", "\x0b"])),
                    max_size=8),
           st.sampled_from(["dim 1\n", "dim 1\ncoords 2\n", "dim 1 # h\n\ncoords 2\n"]))
    def test_random_layout_equals_reference(self, rows, head):
        # blanks, comments and line ends between and inside the blocks
        text = head + "".join(row.replace(" ", blank) + end for row, blank, end in rows)
        new, old = outcome(parse_tri, text), outcome(reference_parse_tri, text)
        if new[0] == "ok" and old[0] == "ok":
            assert lattice_of(new[1]) == lattice_of(old[1])
        else:
            assert new == old


# -- the bulk load path against the per-row loops it replaced -----------------

def reference_complex(dimension, top_simplices, vertex_coords=None):
    """What the constructor kept, as ``lattice_of`` lists it, built one row
    at a time: each facet converted and checked on its own, the ridges and
    their cofacets from one dict over every facet's ridges, and each
    coordinate converted by ``float`` and checked on its own."""
    if dimension < 0:
        raise InvalidComplexError("dimension must be non-negative")
    n = int(dimension)
    tops = []
    seen = set()
    for i, s in enumerate(top_simplices):
        t = tuple(sorted(map(int, s)))
        if len(t) != n + 1:
            raise InvalidComplexError(f"facet {t} has {len(t)} vertices, expected {n + 1}",
                                      facet=i)
        if len(set(t)) != len(t):
            raise InvalidComplexError(f"facet {t} repeats a vertex", facet=i)
        if t in seen:
            raise InvalidComplexError(f"duplicate facet {t}", facet=i)
        seen.add(t)
        tops.append(t)
    if not tops:
        raise InvalidComplexError("complex needs at least one facet")
    verts = sorted({v for t in tops for v in t})
    if verts[0] < 0 or verts != list(range(len(verts))):
        raise InvalidComplexError("vertices must be dense integers 0..V-1")
    faces = [tuple([(v,) for v in verts])] if n >= 2 else []
    for k in range(1, n - 1):
        fs = set()
        for t in tops:
            fs.update(combinations(t, k + 1))
        faces.append(tuple(sorted(fs)))
    cofacets = {}
    for ti, t in enumerate(tops):
        for f in combinations(t, n):
            cofacets.setdefault(f, []).append(ti)
    if n >= 1:
        faces.append(tuple(sorted(cofacets)))
        ridge_cofacets = tuple(tuple(cofacets[f]) for f in faces[-1])
    else:
        ridge_cofacets = ()
    faces.append(tuple(sorted(tops)))
    coords = None
    if vertex_coords is not None:
        coords = [tuple(float(x) for x in p) for p in vertex_coords]
        if len(coords) != len(verts):
            raise InvalidComplexError(
                f"{len(coords)} coordinate rows for {len(verts)} vertices", coords=True)
        dims = {len(p) for p in coords}
        if len(dims) != 1:
            raise InvalidComplexError("coordinate rows have mixed lengths", coords=True)
        d = dims.pop()
        if d < max(1, n):
            raise InvalidComplexError(
                f"ambient dimension {d} below complex dimension {n}", coords=True)
        if not all(math.isfinite(x) for p in coords for x in p):
            raise InvalidComplexError("non-finite vertex coordinate", coords=True)
        coords = tuple(coords)
    return (n, tuple(tops), coords, tuple(faces),
            [list({f: i for i, f in enumerate(fk)}.items()) for fk in faces], ridge_cofacets)


def built(fn, *args):
    """``outcome`` with an error's facet and coords marks, which the parser
    turns into a line number."""
    try:
        return "ok", fn(*args)
    except Exception as exc:   # the class, message and marks are compared
        return type(exc), str(exc), getattr(exc, "facet", None), getattr(exc, "coords", None)


def constructed(dimension, tops, coords=None):
    return lattice_of(SimplicialComplex(dimension, tops, vertex_coords=coords))


def constructor_cases():
    """(id, dimension, facet rows, coordinate rows): every load case, and
    inputs at fault in each way the constructor names, alone and in pairs
    where the first fault in row order must win."""
    cases = [(name, c.dimension, c.top_simplices, c.vertex_coords) for name, c in load_cases()]
    tri = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
    plane = [(0.0, 0.0), (1.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    cases += [
        ("unsorted-rows", 2, [(2, 1, 0), (3, 0, 1), (0, 3, 2), (3, 2, 1)], None),
        ("lists-and-arrays", 2, [[0, 1, 2], np.array([1, 0, 3]), (0, 2, 3), [3, 2, 1]], None),
        ("float-ids", 2, [(0.0, 1.9, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)], None),
        ("string-ids", 1, [("0", "1"), ("1", "2"), ("0", "2")], None),
        ("set-rows", 2, [{0, 1, 2}, {0, 1, 3}, {0, 2, 3}, {1, 2, 3}], None),
        ("generator", 2, lambda: (t for t in tri), None),
        ("array", 2, np.array(tri), None),
        ("array-unsorted-rows", 2, np.array(tri)[:, ::-1], None),
        ("no-facets", 2, [], None),
        ("negative-dimension", -1, tri, None),
        ("short-row", 2, tri[:2] + [(0, 2)] + tri[2:], None),
        ("long-row", 2, tri + [(0, 1, 2, 3)], None),
        ("repeat", 2, tri + [(4, 4, 1)], None),
        ("duplicate", 2, tri + [(2, 1, 0)], None),
        ("repeat-before-duplicate", 2, tri + [(1, 1, 2), (0, 1, 2)], None),
        ("duplicate-before-short-row", 2, tri + [(0, 1, 2), (5,)], None),
        ("nan-id", 2, tri + [(0, math.nan, 1)], None),
        ("word-id", 1, [(0, 1), (1, "two")], None),
        ("sparse", 2, [(0, 1, 2), (0, 1, 4), (0, 2, 4), (1, 2, 4)], None),
        ("negative-id", 2, [(-1, 1, 2), (-1, 1, 3), (-1, 2, 3), (1, 2, 3)], None),
        ("huge-id", 2, tri + [(0, 1, 10 ** 30)], None),
        ("huge-id-after-repeat", 2, tri + [(4, 4, 1), (0, 1, 10 ** 30)], None),
        ("id-2**63", 2, tri + [(0, 1, 2 ** 63)], None),
        ("point", 0, [(0,)], [(0.5,)]),
        ("two-points", 0, [(1,), (0,)], None),
        ("coords", 2, tri, plane),
        ("coords-int-and-string", 2, tri, [(0, "1.5"), (1, 0), (0, 1), (1, 1)]),
        ("coords-array", 2, tri, np.array(plane)),
        ("coords-count", 2, tri, plane[:3]),
        ("coords-mixed", 2, tri, plane[:3] + [(1.0, 1.0, 0.0)]),
        ("coords-narrow", 2, tri, [(x,) for x, _ in plane]),
        ("coords-empty-rows", 2, tri, [()] * 4),
        ("coords-inf", 2, tri, plane[:3] + [(1.0, math.inf)]),
        ("coords-nan", 2, tri, [(math.nan, 0.0)] + plane[1:]),
        ("coords-word", 2, tri, plane[:3] + [(1.0, "x")]),
        ("coords-iterators", 2, tri, lambda: (iter(p) for p in plane)),
        ("coords-scalars", 2, tri, [0.0, 1.0, 2.0, 3.0]),
        ("coords-none", 2, tri, plane[:3] + [None]),
        ("facet-fault-before-coords-fault", 2, tri + [(0, 1)], plane[:3]),
    ]
    return cases


class TestBulkConstructor:
    """The constructor's bulk passes against the per-row loop they replaced:
    the same lattice, or the same error class, text and marks."""

    @pytest.mark.parametrize("n,tops,coords", [pytest.param(n, t, x, id=name)
                                               for name, n, t, x in constructor_cases()])
    def test_equals_reference(self, n, tops, coords):
        # a generator is read once, so each side gets its own
        rows = tops if callable(tops) else lambda: tops
        points = coords if callable(coords) else lambda: coords
        assert built(constructed, n, rows(), points()) == \
            built(reference_complex, n, rows(), points())

    def test_cases_cover_every_verdict(self):
        verdicts = {name: built(reference_complex, n, t() if callable(t) else t,
                                x() if callable(x) else x)
                    for name, n, t, x in constructor_cases()}
        messages = {v[1].split(" ")[0] for v in verdicts.values() if v[0] != "ok"}
        assert {"facet", "duplicate", "complex", "vertices", "dimension", "could",
                "3", "coordinate", "ambient", "non-finite"} <= messages
        assert verdicts["repeat-before-duplicate"][1] == "facet (1, 1, 2) repeats a vertex"
        assert verdicts["duplicate-before-short-row"][1] == "duplicate facet (0, 1, 2)"
        assert verdicts["huge-id-after-repeat"][1] == "facet (1, 4, 4) repeats a vertex"
        assert verdicts["huge-id"][1] == "vertices must be dense integers 0..V-1"
        assert verdicts["float-ids"][0] == verdicts["set-rows"][0] == "ok"
        assert verdicts["generator"][0] == verdicts["coords-int-and-string"][0] == "ok"
        assert verdicts["coords-iterators"][0] == "ok"

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(st.integers(0, 3), st.lists(st.lists(st.integers(-1, 7), min_size=1, max_size=5),
                                       max_size=12))
    def test_random_rows_equal_reference(self, n, tops):
        assert built(constructed, n, tops) == built(reference_complex, n, tops)

    def test_ridges_of_one_and_three_cofacets_equal_reference(self):
        # edge (0, 1) has three cofacets and edges (0, 4) and (1, 4) one
        # each, so the cofacets are cut at the group starts, not paired
        tops = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3), (0, 1, 4)]
        c = SimplicialComplex(2, tops)
        assert sorted(set(map(len, c.ridge_cofacets))) == [1, 2, 3]
        assert built(constructed, 2, tops) == built(reference_complex, 2, tops)

    @pytest.mark.parametrize("text", [pytest.param(t, id=name) for name, t in parse_texts()] + [
        pytest.param("dim 1 # head\n\n  0 1\t# a\n1 2\r\n# only\n0 2\n \n", id="spaces")])
    def test_tokens_equal_reference(self, text):
        # every non-blank line keeps its number, count and tokens, and a
        # blank one, a line that is only a comment included, counts 0
        lines, counts = simplicial._line_table(text)
        assert len(counts) == len(lines) == len(text.splitlines())
        table = [(number, count, line.split())
                 for number, (line, count) in enumerate(zip(lines, counts.tolist()), 1) if count]
        assert table == [(number, len(toks), toks) for number, toks in reference_tokens(text)]
