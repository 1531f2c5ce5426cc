import math
from itertools import combinations

import pytest
from hypothesis import given
from hypothesis import strategies as st

import spineforge as sf
from spineforge.simplicial import (InvalidComplexError, Metric,
                                   SimplicialComplex, ValidationReport,
                                   format_tri, parse_tri)

from grids import grid_surface


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

    def test_face_ids_are_lexicographic(self, census):
        c = census["sphere_tet"]
        for k, faces in enumerate(c.faces):
            assert list(faces) == sorted(faces)
            for i, f in enumerate(faces):
                assert c.face_id(k, f) == i

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
    @pytest.mark.parametrize("name,nodes,edges,degree", [
        ("circle3", 3, 3, 2),
        ("sphere_tet", 4, 6, 3),
        ("sphere3_pent", 5, 10, 4),
    ])
    def test_counts(self, census, name, nodes, edges, degree):
        c = census[name]
        g = sf.build_dual_graph(c)
        assert g.node_count == nodes
        assert len(g.edges) == edges
        assert all(len(a) == degree for a in g.adjacency)
        # independent count: facet pairs sharing a ridge
        pairs = sum(1 for a, b in combinations(c.top_simplices, 2)
                    if len(set(a) & set(b)) == c.dimension)
        assert len(g.edges) == pairs

    def test_rejects_open_complex(self, census):
        tops = list(census["sphere_tet"].top_simplices)[:-1]
        with pytest.raises(InvalidComplexError):
            sf.build_dual_graph(SimplicialComplex(2, tops))

    def test_ridge_double_counting(self, census):
        for c in census.values():
            n = c.dimension
            assert (n + 1) * len(c.top_simplices) == 2 * len(c.faces[n - 1])


class TestEuler:
    def test_sphere(self, census):
        assert sf.euler_characteristic(census["sphere_tet"]) == 2

    def test_torus(self, census):
        c = census["torus7"]
        assert c.f_vector == (7, 21, 14)
        assert sf.euler_characteristic(c) == 0

    def test_projective_plane(self, census):
        c = census["rp2_6"]
        assert c.f_vector == (6, 15, 10)
        assert sf.euler_characteristic(c) == 1

    @given(st.permutations(list(range(4))))
    def test_invariant_under_relabeling(self, perm):
        tops = [tuple(perm[v] for v in t) for t in combinations(range(4), 3)]
        assert sf.euler_characteristic(SimplicialComplex(2, tops)) == 2


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
            assert m.lengths_at(u, v, squared=True) == m.length(u, v) ** 2

    def test_rejects_nonpositive_length(self):
        with pytest.raises(InvalidComplexError):
            Metric({(0, 1): 0.0})

    @pytest.mark.parametrize("length", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_length(self, length):
        with pytest.raises(InvalidComplexError):
            Metric({(0, 1): 1.0, (1, 2): length})

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
