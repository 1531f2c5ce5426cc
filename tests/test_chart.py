import copy
import dataclasses
import math
import random
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import spineforge as sf
from spineforge.chart import (BlackPointError, BrokenLine, CellChart, ChartDomainError,
                              PointRef, Segment, ambient_position, broken_line_to,
                              build_chart, forward_map, geometric_tol, inverse_map,
                              point_gap, retract, retraction_samples, rows_on_lines,
                              sample_interior, stretch)
from spineforge.simplicial import (GEOMETRIC_TOL, JUMP_TOL, MEMBERSHIP_TOL, InvalidComplexError,
                                   Metric, SimplicialComplex)

from grids import coordinate_torus, freudenthal_torus3, grid_surface
from helpers import arc_gap, broken_line_faults

ALL = ["circle3", "sphere_tet", "torus7", "rp2_6", "sphere3_pent"]


def uniform(n):
    return (1.0 / (n + 1),) * (n + 1)


def named_complex(census, name):
    """A census entry, or the 12 x 12 coordinate torus or Klein grid."""
    if name == "torus12":
        return coordinate_torus(12)
    if name == "klein12":
        return grid_surface(12, klein=True)
    return census[name]


def tree_depth(d):
    depth = {d.root: 0}
    for g in d.gates:
        depth[g.child] = depth[g.parent] + 1
    return depth


def gate_center(c, step):
    """Center of a gate in its parent: 1/n on the gate's slots, 0.0 elsewhere."""
    n = c.dimension
    gate_face = c.faces[n - 1][step.gate]
    return PointRef(step.parent, tuple(1.0 / n if v in gate_face else 0.0
                                       for v in c.top_simplices[step.parent]))


def opposite_vertex(c, step):
    """The child's one vertex off its entry gate."""
    gate_face = c.faces[c.dimension - 1][step.gate]
    return next(v for v in c.top_simplices[step.child] if v not in gate_face)


def bits(bary):
    """Bit pattern of each coordinate; unlike ==, it tells -0.0 from 0.0."""
    return tuple(float(x).hex() for x in bary)


class TestStretch:
    def test_formula_midpoint(self):
        assert stretch(0.5, 1.0, 1.0) == 1.0

    def test_fixed_start(self):
        assert stretch(0.0, 2.0, 3.0) == 0.0

    def test_identity_when_child_empty(self):
        assert stretch(1.0, 1.0, 0.0) == 1.0

    def test_endpoint_identity(self):
        for s1, s2 in [(0.7, 1.3), (2.0, 0.25), (1e-3, 5.0)]:
            assert abs(stretch(s1, s1, s2) - (s1 + s2)) <= 1e-12 * (s1 + s2)

    def test_domain_violations(self):
        with pytest.raises(ChartDomainError):
            stretch(0.5, 0.0, 1.0)
        with pytest.raises(ChartDomainError):
            stretch(0.5, 1.0, -1.0)
        with pytest.raises(ChartDomainError):
            stretch(-0.1, 1.0, 1.0)
        with pytest.raises(ChartDomainError):
            stretch(1.5, 1.0, 1.0)

    # two adjacent floats whose images round to one float: the exact map is
    # strictly increasing, its float evaluation only non-decreasing
    @example(0.01, 0.010000000000000002, 3.25, 0.5)
    @given(st.floats(0.01, 0.99), st.floats(0.01, 0.99),
           st.floats(0.1, 10.0), st.floats(0.0, 10.0))
    def test_strictly_increasing(self, a, b, s1, s2):
        lo, hi = sorted((a * s1, b * s1))
        assert stretch(lo, s1, s2) <= stretch(hi, s1, s2)
        # s * (s1 + s2) / s1 rounds twice, a relative error of at most 2^-52
        # per image, so images of arcs more than 4 ulps apart cannot meet
        if hi - lo > 4 * math.ulp(hi):
            assert stretch(lo, s1, s2) < stretch(hi, s1, s2)


class TestBuildChart:
    def test_record_counts(self, census, charts):
        for name, expected in [("circle3", 2), ("sphere_tet", 3), ("torus7", 13)]:
            assert len(charts[name].decomposition.gates) == expected

    def test_root_step_apex_is_barycenter(self, charts):
        chart = charts["sphere_tet"]
        rec = chart.decomposition.gates[0]
        assert rec.parent == chart.root

    def test_later_steps_inherit_gate_structure(self, charts):
        chart = charts["torus7"]
        children = {rec.child for rec in chart.decomposition.gates}
        for rec in chart.decomposition.gates:
            if rec.parent != chart.root:
                assert rec.parent in children

    def test_records_follow_growth_order(self, charts):
        chart = charts["torus7"]
        gates = chart.decomposition.gates
        c = chart.complex
        n1 = c.dimension + 1
        # the walk's tables hold the decomposition's own steps: each child's
        # parent, and the child entered through the parent's slot off its gate
        assert chart._parent[chart.root] is None
        assert all(chart._parent[g.child] == g.parent for g in gates)
        downs = {}
        for g in gates:
            gate = c.faces[n1 - 2][g.gate]
            off = next(k for k, v in enumerate(c.top_simplices[g.parent]) if v not in gate)
            downs[g.parent * n1 + off] = g.child
        assert {k: v for k, v in enumerate(chart._down) if v is not None} == downs

    def test_gate_center_and_opposite_vertex(self, census, charts):
        c = census["sphere_tet"]
        chart = charts["sphere_tet"]
        for rec in chart.decomposition.gates:
            gate_face = c.faces[1][rec.gate]
            assert opposite_vertex(c, rec) not in gate_face
            assert opposite_vertex(c, rec) in c.top_simplices[rec.child]
            center = gate_center(c, rec)
            assert center.top == rec.parent
            verts = c.top_simplices[rec.parent]
            for v, w in zip(verts, center.bary):
                assert w == (0.5 if v in gate_face else 0.0)

    def test_builds_one_point(self, monkeypatch):
        # c0 is the chart's only point; the gates are the decomposition's own
        c = grid_surface(12)
        d = sf.decompose(c, root=0, strategy="random", seed=3)
        m = Metric.from_complex(c)
        built = []
        check = PointRef.__post_init__

        def counted(pt):
            built.append(pt)
            check(pt)

        monkeypatch.setattr(PointRef, "__post_init__", counted)
        chart = build_chart(c, d, m)
        assert built == [chart.c0]

    def test_circle3_child_intervals_are_whole_edges(self, census):
        # n=1: the gate "face center" is the vertex itself and each child
        # interval runs across the whole edge
        c = census["circle3"]
        chart = build_chart(c, sf.decompose(c), Metric.from_complex(c))
        for rec in chart.decomposition.gates:
            p, q, _, length, _ = chart._chord(
                rec.child, chart._transfer(gate_center(c, rec).bary, rec.parent, rec.child))
            assert sorted((p, q)) == sorted(((1.0, 0.0), (0.0, 1.0)))
            assert length == pytest.approx(
                Metric.from_complex(c).length(*c.top_simplices[rec.child]))


class TestForwardMap:
    def test_barycenter_is_fixed(self, charts):
        for chart in charts.values():
            assert forward_map(chart, chart.c0) == chart.c0

    def test_circle3_midpoint_lands_on_gate_when_lengths_match(self, census):
        # s1 = s2 = 0.5: the ray midpoint stretches exactly onto the junction
        c = census["circle3"]
        d = sf.decompose(c, root=0)
        m = Metric({(0, 1): 1.0, (0, 2): 0.5, (1, 2): 0.5})
        chart = build_chart(c, d, m)
        img = forward_map(chart, PointRef(0, (0.75, 0.25)))
        assert img.top == 0
        assert img.bary == pytest.approx((1.0, 0.0), abs=1e-12)

    def test_rejects_non_root_and_boundary(self, charts):
        chart = charts["sphere_tet"]
        with pytest.raises(ChartDomainError):
            forward_map(chart, PointRef(1, uniform(2)))
        with pytest.raises(ChartDomainError):
            forward_map(chart, PointRef(0, (0.5, 0.5, 0.0)))

    @pytest.mark.parametrize("name", ALL)
    def test_round_trip_forward_then_inverse(self, charts, name):
        chart = charts[name]
        rng = random.Random(101)
        worst = 0.0
        for _ in range(300):
            x = sample_interior(chart.complex, rng, chart.root)
            back = inverse_map(chart, forward_map(chart, x))
            assert back.top == chart.root
            worst = max(worst, max(abs(a - b) for a, b in zip(x.bary, back.bary)))
        assert worst <= 1e-9

    @pytest.mark.parametrize("name", ALL)
    def test_round_trip_inverse_then_forward(self, charts, name):
        chart = charts[name]
        rng = random.Random(33)
        worst = 0.0
        for _ in range(300):
            q = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            again = forward_map(chart, inverse_map(chart, q))
            worst = max(worst, point_gap(chart, q, again))
        assert worst <= 1e-9

    def test_monotone_along_a_ray(self, charts):
        # increasing radial arc maps to strictly increasing arc along the line
        chart = charts["torus7"]
        rng = random.Random(5)
        direction = sample_interior(chart.complex, rng, chart.root)
        arcs = []
        for k in range(1, 40):
            w = k / 40.0
            x = PointRef(chart.root, tuple(
                c + w * (d - c) for c, d in zip(chart.c0.bary, direction.bary)))
            y = forward_map(chart, x)
            line, arc = chart.locate(y)
            arcs.append(arc)
        assert all(a < b for a, b in zip(arcs, arcs[1:]))

    def test_gate_seam_modulus_of_continuity(self, charts):
        # approach the preimage of a gate junction; halving the domain offset
        # must (at least) halve the image gap, 4 dyadic levels
        chart = charts["sphere_tet"]
        rec = chart.decomposition.gates[0]
        b = gate_center(chart.complex, rec).bary
        s_ray = chart._dist(chart.root, chart.c0.bary, b)
        junction = chart._transfer(b, chart.root, rec.child)
        _, _, _, s2, _ = chart._chord(rec.child, junction)
        s_star = s_ray * s_ray / (s_ray + s2)   # preimage arc of the junction
        jref = PointRef(rec.child, junction)
        gaps = []
        for k in range(4):
            offset = 0.05 / (2 ** k)
            arc = s_star * (1 - offset)
            x = PointRef(chart.root, tuple(
                c + (arc / s_ray) * (d - c) for c, d in zip(chart.c0.bary, b)))
            gaps.append(point_gap(chart, jref, forward_map(chart, x)))
        for a, b_ in zip(gaps, gaps[1:]):
            assert b_ <= 0.5001 * a + 1e-12


class TestInverseMap:
    def test_barycenter(self, charts):
        chart = charts["rp2_6"]
        assert inverse_map(chart, chart.c0) == chart.c0

    def test_gate_interior_sample_maps_inside(self, charts):
        chart = charts["sphere_tet"]
        rec = chart.decomposition.gates[0]
        junction = chart._transfer(gate_center(chart.complex, rec).bary, rec.parent,
                                   rec.child)
        pre = inverse_map(chart, PointRef(rec.child, junction))
        assert pre.top == chart.root
        assert all(x > 1e-9 for x in pre.bary)

    def test_spine_point_rejected_with_diagnostic(self, census, charts):
        c = census["sphere_tet"]
        chart = charts["sphere_tet"]
        rid = chart.decomposition.spine[0]
        face = c.faces[1][rid]
        verts = c.top_simplices[c.ridge_cofacets[rid][0]]
        bary = tuple(0.5 if v in face else 0.0 for v in verts)
        with pytest.raises(BlackPointError) as err:
            inverse_map(chart, PointRef(c.ridge_cofacets[rid][0], bary))
        assert str(face) in str(err.value)


class TestBrokenLines:
    def test_circle3_star_tree_two_segments_each_side(self, census):
        c = census["circle3"]
        d = sf.decompose(c, root=0, strategy="bfs")       # gates at both root ends
        chart = build_chart(c, d, Metric.from_complex(c))
        spine_vertex = c.faces[0][d.spine[0]][0]
        for side in set(c.ridge_cofacets[d.spine[0]]):
            verts = c.top_simplices[side]
            z = PointRef(side, tuple(1.0 if v == spine_vertex else 0.0 for v in verts))
            line = broken_line_to(chart, z)
            assert len(line.segments) == 2

    def test_circle3_path_tree_one_and_three_segments(self, census):
        # dfs grows a path, so the spine vertex bounds the root: the two sides
        # reach it with one segment and with three
        c = census["circle3"]
        d = sf.decompose(c, root=0, strategy="dfs")
        chart = build_chart(c, d, Metric.from_complex(c))
        spine_vertex = c.faces[0][d.spine[0]][0]
        lengths = []
        for side in sorted(set(c.ridge_cofacets[d.spine[0]])):
            verts = c.top_simplices[side]
            z = PointRef(side, tuple(1.0 if v == spine_vertex else 0.0 for v in verts))
            lengths.append(len(broken_line_to(chart, z).segments))
        assert sorted(lengths) == [1, 3]

    def test_sphere_tet_segment_count_is_depth_plus_one(self, census, charts):
        c = census["sphere_tet"]
        chart = charts["sphere_tet"]
        depth = {chart.root: 0}
        for rec in chart.decomposition.gates:
            depth[rec.child] = depth[rec.parent] + 1
        for rid in chart.decomposition.spine:
            face = c.faces[1][rid]
            for side in c.ridge_cofacets[rid]:
                verts = c.top_simplices[side]
                z = PointRef(side, tuple(0.5 if v in face else 0.0 for v in verts))
                line = broken_line_to(chart, z)
                assert len(line.segments) == depth[side] + 1
                first = line.segments[0]
                assert PointRef(first.top, first.start) == chart.c0

    @pytest.mark.parametrize("name", ALL)
    def test_junction_consistency(self, census, charts, name):
        c = census[name]
        chart = charts[name]
        rng = random.Random(77)
        worst = 0.0
        for rid in chart.decomposition.spine:
            for side in c.ridge_cofacets[rid]:
                face = c.faces[c.dimension - 1][rid]
                raw = [rng.random() + 0.1 for _ in face]
                s = sum(raw)
                weights = dict(zip(face, (x / s for x in raw)))
                verts = c.top_simplices[side]
                z = PointRef(side, tuple(weights.get(v, 0.0) for v in verts))
                line = broken_line_to(chart, z)
                for a, b in zip(line.segments, line.segments[1:]):
                    worst = max(worst, point_gap(chart, PointRef(a.top, a.end),
                                                 PointRef(b.top, b.start)))
                last = line.segments[-1]
                worst = max(worst, point_gap(chart, PointRef(last.top, last.end), z))
        assert worst <= 1e-9

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL)
    def test_full_arc_is_the_endpoint(self, census, name, strategy):
        c = census[name]
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        rng = random.Random(5)
        for _ in range(40):
            line, _ = chart.locate(sample_interior(c, rng, rng.randrange(len(c.top_simplices))))
            assert line.point_at_arc(line.length) == line.endpoint
            assert line.point_at_arc(2.0 * line.length) == line.endpoint

    @staticmethod
    def _scan_point_at_arc(line, s):
        """Oracle: walk the segments from the first, summing their lengths."""
        if s <= 0.0:
            return PointRef(line.segments[0].top, line.segments[0].start)
        if s >= line.length:
            return line.endpoint
        acc = 0.0
        for seg in line.segments:
            if s <= acc + seg.length or seg is line.segments[-1]:
                w = (s - acc) / seg.length if seg.length > 0 else 1.0
                if w >= 1.0:
                    return PointRef(seg.top, seg.end)
                return PointRef(seg.top, tuple(x + w * (y - x) for x, y in
                                               zip(seg.start, seg.end)))
            acc += seg.length

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["grid12"])
    def test_point_at_arc_matches_scan(self, census, name, strategy):
        c = grid_surface(12) if name == "grid12" else census[name]
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        rng = random.Random(9)
        for _ in range(20):
            line, _ = chart.locate(sample_interior(c, rng, rng.randrange(len(c.top_simplices))))
            arcs = [rng.uniform(-0.1, 1.1) * line.length for _ in range(30)]
            acc = 0.0
            for seg in line.segments:
                acc += seg.length
                arcs += [acc, math.nextafter(acc, 0.0), math.nextafter(acc, math.inf)]
            for s in arcs:
                assert line.point_at_arc(s) == self._scan_point_at_arc(line, s), s
            # the many-arc lookup is the same arithmetic, without the points
            tops, rows = rows_on_lines([(line, arcs)])
            assert len(tops) == len(rows) == len(arcs)
            for s, top, row in zip(arcs, tops.tolist(), rows.tolist()):
                assert PointRef(top, tuple(row)) == self._scan_point_at_arc(line, s), s

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12", "klein12"])
    def test_segments_are_points_of_their_facets(self, census, name, strategy):
        # segments carry the walk's barycentric tuples unvalidated; each end
        # must still make a valid point of the segment's facet
        c = named_complex(census, name)
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        rng = random.Random(31)
        lines = [chart.locate(sample_interior(c, rng, top))[0]
                 for top in range(len(c.top_simplices))]
        for rid in d.spine:
            side = c.ridge_cofacets[rid][0]
            face = c.faces[c.dimension - 1][rid]
            z = tuple(1.0 / len(face) if v in face else 0.0 for v in c.top_simplices[side])
            lines.append(broken_line_to(chart, PointRef(side, z)))
        for line in lines:
            for seg in line.segments:
                assert type(seg) is Segment
                assert type(seg.start) is tuple and type(seg.end) is tuple
                PointRef(seg.top, seg.start)
                PointRef(seg.top, seg.end)

    @pytest.mark.parametrize("strategy", ["dfs", "random"])
    def test_deep_lines_pass_through_their_point(self, strategy):
        # the dfs chart of the 12 x 12 grid torus has lines past depth 250
        c = grid_surface(12)
        d = sf.decompose(c, root=0, strategy=strategy, seed=1)
        chart = build_chart(c, d, Metric.from_complex(c))
        rng = random.Random(1)
        for _ in range(150):
            x = sample_interior(c, rng, rng.randrange(len(c.top_simplices)))
            line, arc = chart.locate(x)
            assert point_gap(chart, x, line.point_at_arc(arc)) <= 1e-12
            again = broken_line_to(chart, line.endpoint)
            assert abs(again.length - line.length) <= 1e-9

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_line_ends_at_every_spine_face_point(self, census, name, strategy):
        # the barycenter of every face of every spine ridge, the ridge
        # itself included, given in each cofacet and asked for from each
        # side: the line ends in that side's facet within JUMP_TOL of it.
        # A lower face that also bounds a gate lies on no interval family,
        # and there the walk raises before any line is built.
        c = named_complex(census, name)
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        worst, ends = 0.0, set()
        for rid in d.spine:
            ridge, sides = c.faces[c.dimension - 1][rid], c.ridge_cofacets[rid]
            for size in range(1, len(ridge) + 1):
                for face in combinations(ridge, size):
                    for own in sides:
                        z = PointRef(own, tuple(1.0 / size if v in face else 0.0
                                                for v in c.top_simplices[own]))
                        for side in sides:
                            try:
                                line = broken_line_to(chart, z, side=side)
                            except ChartDomainError as err:
                                assert size < len(ridge)
                                assert "point sits on a gate-boundary stratum" in str(err)
                                continue
                            ends.add(size)
                            assert line.endpoint.top == side
                            at = chart._transfer(z.bary, own, side)
                            worst = max(worst, chart._dist(side, line.endpoint.bary, at))
        assert worst <= JUMP_TOL
        assert sorted(ends) == list(range(1, c.dimension + 1))

    def test_endpoint_must_be_black(self, charts):
        chart = charts["torus7"]
        with pytest.raises(ChartDomainError):
            broken_line_to(chart, chart.c0)

    def test_side_argument_transfers(self, census, charts):
        c = census["sphere_tet"]
        chart = charts["sphere_tet"]
        rid = chart.decomposition.spine[0]
        a, b = c.ridge_cofacets[rid]
        face = c.faces[1][rid]
        za = PointRef(a, tuple(0.5 if v in face else 0.0 for v in c.top_simplices[a]))
        line_b = broken_line_to(chart, za, side=b)
        assert line_b.segments[-1].top == b


@pytest.fixture(scope="module")
def lookup_lines(census):
    """Sampled lines of each census chart and of the 12 x 12 grid, under each
    strategy, one list per chart: lines of 1 to about 270 segments."""
    charts = []
    for name in ALL + ["grid12"]:
        c = grid_surface(12) if name == "grid12" else census[name]
        for strategy in ("bfs", "dfs", "random"):
            d = sf.decompose(c, root=0, strategy=strategy, seed=0)
            chart = build_chart(c, d, Metric.from_complex(c))
            rng = random.Random(13)
            points = [sample_interior(c, rng, rng.randrange(len(c.top_simplices)))
                      for _ in range(4)]
            charts.append([chart.locate(pt)[0] for pt in points])
    return charts


def _lookup_arc(line, kind, pick, side):
    """An arc of one kind: a fraction of the line (kind 0), a segment end or
    a neighbour of one (1), at or below 0 (2), at or past the length (3)."""
    ends = line.segment_ends
    if kind == 0:
        return line.length * pick / 64.0
    if kind == 1:
        acc = ends[pick % len(ends)]
        return acc if side == 0 else math.nextafter(acc, side * math.inf)
    if kind == 2:
        return (0.0, -0.0, math.nextafter(0.0, -1.0), -line.length, -math.inf)[pick % 5]
    return (line.length, math.nextafter(line.length, math.inf), 2.0 * line.length,
            math.inf, ends[-1])[pick % 5]


class TestLineSelfChecks:
    """``helpers.broken_line_faults`` and ``helpers.arc_gap`` on the lines
    through points of random facets: they need no reference walk, so they
    reach the deep dfs lines of the 48x48 torus and T^3 k = 6."""

    NAMES = [*ALL, "torus12", "torus48", "torus3d4", "torus3d6"]

    @pytest.fixture(scope="class")
    def complexes(self, census):
        return {**census, "torus12": coordinate_torus(12), "torus48": coordinate_torus(48),
                "torus3d4": freudenthal_torus3(4), "torus3d6": freudenthal_torus3(6)}

    @staticmethod
    def points(c, strategy, count):
        """A chart of c on the strategy's tree and count points of random
        facets; the dfs lines of the 48x48 torus and of T^3 k = 6 are about
        2 000 and 600 segments deep, so a quarter as many of their points
        are asked for."""
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0),
                            Metric.from_complex(c))
        if strategy == "dfs" and len(c.top_simplices) > 1000:
            count //= 4
        rng = random.Random(0)
        tops = len(c.top_simplices)
        return chart, [sample_interior(c, rng, rng.randrange(tops)) for _ in range(count)]

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", NAMES)
    def test_lines_are_contiguous(self, complexes, name, strategy):
        chart, points = self.points(complexes[name], strategy, 200)
        for p in points:
            line, _ = chart.locate(p)
            assert broken_line_faults(chart, line) == []

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", NAMES)
    def test_arcs_lead_back_to_their_points(self, complexes, name, strategy):
        chart, points = self.points(complexes[name], strategy, 300)
        assert max(arc_gap(chart, p) for p in points) <= 1.0


class TestRowLookup:
    """``rows_on_lines`` against the scan oracle and ``point_at_arc``, bit
    for bit, tops included, on requests of mixed sizes."""

    arc = st.tuples(st.integers(0, 3), st.integers(-16, 80), st.sampled_from([-1, 0, 1]))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(chart=st.integers(0, 17),
           requests=st.lists(st.tuples(st.integers(0, 3), st.lists(arc, max_size=12)),
                             max_size=6))
    @example(chart=0, requests=[])
    @example(chart=17, requests=[(0, []), (1, [(3, 0, 0)]), (2, [])])
    def test_matches_scan_and_point_at_arc(self, lookup_lines, chart, requests):
        lines = lookup_lines[chart]
        requests = [(lines[i], [_lookup_arc(lines[i], *a) for a in arcs]) for i, arcs in requests]
        tops, rows = rows_on_lines(requests)
        wanted = [(line, s) for line, arcs in requests for s in arcs]
        assert len(tops) == len(rows) == len(wanted)
        for (line, s), top, row in zip(wanted, tops.tolist(), rows.tolist()):
            scan = TestBrokenLines._scan_point_at_arc(line, s)
            point = line.point_at_arc(s)
            assert top == scan.top == point.top, s
            assert bits(row) == bits(scan.bary) == bits(point.bary), s


class TestTableWalk:
    """The walk's closed-form chord lengths and gate index maps against the
    metric and the ``_transfer`` they stand in for."""

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12", "klein12"])
    def test_chord_lengths_match_the_metric(self, census, name, strategy):
        c = named_complex(census, name)
        m = Metric.from_complex(c)
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0), m)
        rng = random.Random(12)
        for top, verts in enumerate(c.top_simplices):
            if top == chart.root:
                continue
            y = sample_interior(c, rng, top).bary
            p, q, arc, length, _ = chart._chord(top, y)
            assert abs(length - m.dist(verts, p, q)) <= 1e-12 * length
            assert abs(arc - m.dist(verts, p, y)) <= 1e-12 * length
            # the parent's chord, from the ascent's first step
            parent, start, end, length = chart._ascend(top, y)[0][-2]
            if parent != chart.root:
                pverts = c.top_simplices[parent]
                assert abs(length - m.dist(pverts, start, end)) <= 1e-12 * length

    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_gate_maps_match_transfer(self, census, name):
        c = named_complex(census, name)
        n = c.dimension
        chart = build_chart(c, sf.decompose(c, root=0, strategy="random", seed=3),
                            Metric.from_complex(c))
        rng = random.Random(21)
        for rec in chart.decomposition.gates:
            child, parent = rec.child, rec.parent
            _, up, down = chart._gate_maps[child]
            gate = c.faces[n - 1][rec.gate]
            for _ in range(3):
                raw = [rng.random() + 0.01 for _ in gate]
                weights = dict(zip(gate, (x / sum(raw) for x in raw)))
                y = tuple(weights.get(v, 0.0) for v in c.top_simplices[child])
                x = tuple(weights.get(v, 0.0) for v in c.top_simplices[parent])
                assert bits(up(y)) == bits(chart._transfer(y, child, parent))
                assert bits(down(x)) == bits(chart._transfer(x, parent, child))
            # _transfer, which broken_line_to and point_gap use, refuses a
            # stray weight off the gate
            off_child = c.top_simplices[child].index(opposite_vertex(c, rec))
            off_parent = next(k for k, v in enumerate(c.top_simplices[parent])
                              if v not in gate)
            for bary, slot, ends in ((y, off_child, (child, parent)),
                                     (x, off_parent, (parent, child))):
                stray = tuple(1e-6 if k == slot else w for k, w in enumerate(bary))
                with pytest.raises(ChartDomainError,
                                   match=f"outside the face shared by facets {ends[0]} and {ends[1]}"):
                    chart._transfer(stray, *ends)
        # the walk gathers with no stray-weight check: where a line crosses a
        # gate, both sides' off-gate slots hold exactly 0.0, so each segment
        # end is _transfer of the next segment's start bit for bit, both ways
        for top in range(len(c.top_simplices)):
            line, _ = chart.locate(sample_interior(c, rng, top))
            for a, b in zip(line.segments, line.segments[1:]):
                assert bits(chart._transfer(a.end, a.top, b.top)) == bits(b.start)
                assert bits(chart._transfer(b.start, b.top, a.top)) == bits(a.end)


class TestFacetHeights:
    """Every facet's height is computed at build, in one stacked pass, and
    equals the Metric.dist reading it replaces bit for bit."""

    @staticmethod
    def metric_height(chart, top):
        n = chart.complex.dimension
        ov = chart._gate_maps[top][0]
        centroid = [1.0 / n] * (n + 1)
        centroid[ov] = 0.0
        vertex = [0.0] * (n + 1)
        vertex[ov] = 1.0
        return chart.metric.dist(chart.complex.top_simplices[top], vertex, centroid)

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", [*sf.census_names(), "torus12", "klein12"])
    def test_height_is_metric_dist(self, census, name, strategy):
        c = census[name] if name in census else grid_surface(12, klein=name == "klein12")
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        for step in d.gates:
            assert chart._heights[step.child] == self.metric_height(chart, step.child)

    def test_coordinate_torus_heights_are_metric_dist(self):
        # the squares must be taken as Metric.sq_dist takes them: numpy's
        # square of 6 of this torus's 1728 edge lengths is an ulp off Python's
        c = coordinate_torus(24)
        m = Metric.from_complex(c)
        for strategy in ("bfs", "dfs", "random"):
            chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=0), m)
            for step in chart.decomposition.gates:
                assert chart._heights[step.child] == self.metric_height(chart, step.child)

    def test_chart_of_a_point_has_no_height(self):
        # no gate, so no non-root facet; the pass must not divide by n = 0
        c = SimplicialComplex(0, [(0,)])
        chart = build_chart(c, sf.decompose(c), Metric.from_complex(c))
        assert math.isnan(chart._heights[0])

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", [*sf.census_names(), "grid12", "torus12"])
    def test_root_dist_is_metric_dist(self, census, name, strategy):
        # random root points, some on faces so that sq_dist's zero-difference
        # skips are taken, against Metric.dist bit for bit
        c = census[name] if name in census else \
            grid_surface(12) if name == "grid12" else coordinate_torus(12)
        m = Metric.from_complex(c)
        n1 = c.dimension + 1
        for seed in range(3):
            chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=seed), m)
            verts = c.top_simplices[chart.root]
            rng = random.Random(seed)
            points = [chart.c0.bary]
            for k in range(30):
                bary = list(sample_interior(c, rng, chart.root).bary)
                for slot in rng.sample(range(n1), k % n1):
                    bary[slot] = 0.0
                points.append(tuple(x / sum(bary) for x in bary))
            for a in points:
                for b in points[::3]:
                    assert chart._root_dist(a, b).hex() == m.dist(verts, a, b).hex()

    def test_walk_into_a_facet_without_metric_edge_raises(self, census):
        # a hand-built metric may lack an edge, of a non-root facet or of the
        # root; the chart is refused at build, naming the edge, rather than
        # built with no height (or no root squared length) for its facets,
        # and no step table is kept for it, so a second build raises again
        c = census["torus7"]
        d = sf.decompose(c)
        build_chart(c, d, Metric.from_complex(c))
        entry = c._derived["step_geometry"]
        for edge in ((1, 5), (0, 1)):
            lengths = dict(Metric.from_complex(c).edge_lengths)
            del lengths[edge]
            metric = Metric(lengths)
            top = next(t for t, f in enumerate(c.top_simplices) if set(edge) <= set(f))
            assert (top == d.root) == (edge == (0, 1))
            for _ in range(2):
                with pytest.raises(InvalidComplexError) as err:
                    build_chart(c, d, metric)
                assert str(err.value) == f"metric misses edge {edge}"
                assert c._derived["step_geometry"] is entry

    def test_build_makes_no_dist_call(self, monkeypatch):
        c = coordinate_torus(12)
        d = sf.decompose(c, root=0, strategy="random", seed=3)
        m = Metric.from_complex(c)
        calls = []
        monkeypatch.setattr(Metric, "dist", lambda *args: calls.append(args))
        monkeypatch.setattr(Metric, "sq_dist", lambda *args: calls.append(args))
        build_chart(c, d, m)
        assert calls == []


class TestWalkCost:
    """The walk measures a distance only in the root facet, from the root's
    squared edge lengths read at build (``CellChart._root_dist``): once for
    the root segment of a non-root point, twice for a root ray, and never
    through Metric.dist.  Heights come from the build, so this holds from
    the first walk on a fresh chart."""

    @pytest.fixture(scope="class")
    def dfs12(self):
        # the dfs chart of the 12 x 12 grid torus has lines past depth 250
        c = grid_surface(12)
        d = sf.decompose(c, root=0, strategy="dfs", seed=1)
        return build_chart(c, d, Metric.from_complex(c)), tree_depth(d)

    @staticmethod
    def root_dist_calls(monkeypatch):
        """The list each root distance appends to; a Metric.dist call fails."""
        calls = []
        original = CellChart._root_dist

        def counted(self, a, b):
            calls.append(1)
            return original(self, a, b)

        def forbidden(*args):
            raise AssertionError("the walk called Metric.dist")

        monkeypatch.setattr(CellChart, "_root_dist", counted)
        monkeypatch.setattr(Metric, "sq_dist", forbidden)
        return calls

    def dist_calls(self, monkeypatch):
        calls = self.root_dist_calls(monkeypatch)

        def count(fn, *args):
            fn(*args)          # warm pass
            calls.clear()
            fn(*args)
            return len(calls)
        return count

    def test_locate_and_inverse_map_independent_of_depth(self, dfs12, monkeypatch):
        chart, depth = dfs12
        count = self.dist_calls(monkeypatch)
        rng = random.Random(3)
        shallow = sorted(top for top, k in depth.items() if k <= 5)
        deep = sorted(top for top, k in depth.items() if k >= 60)
        assert len(deep) > 100
        for top in shallow + deep[::10]:
            p = sample_interior(chart.complex, rng, top)
            expected = 2 if top == chart.root else 1
            assert count(chart.locate, p) == expected, depth[top]
            assert count(inverse_map, chart, p) == expected, depth[top]

    def test_first_locate_on_a_fresh_chart(self, dfs12, monkeypatch):
        chart, depth = dfs12
        rng = random.Random(4)
        shallow = sorted(top for top, k in depth.items() if k <= 5)
        deep = sorted(top for top, k in depth.items() if k >= 60)
        points = [sample_interior(chart.complex, rng, top) for top in shallow + deep[::20]]
        calls = self.root_dist_calls(monkeypatch)
        for p in points:
            fresh = build_chart(chart.complex, chart.decomposition, chart.metric)
            calls.clear()
            fresh.locate(p)
            assert len(calls) == (2 if p.top == chart.root else 1), depth[p.top]

    def test_locate_builds_one_point(self, dfs12, monkeypatch):
        # the line's endpoint; its segments hold plain barycentric tuples
        chart, depth = dfs12
        rng = random.Random(6)
        shallow = sorted(top for top, k in depth.items() if k <= 5)
        deep = sorted(top for top, k in depth.items() if k >= 60)
        points = [sample_interior(chart.complex, rng, top) for top in shallow + deep[::10]]
        built = []
        check = PointRef.__post_init__

        def counted(self):
            built.append(self)
            check(self)

        monkeypatch.setattr(PointRef, "__post_init__", counted)
        for p in points:
            built.clear()
            line, _ = chart.locate(p)
            assert len(built) == 1 and built[0] is line.endpoint, depth[p.top]

    def test_forward_map_makes_two(self, dfs12, monkeypatch):
        # float root points reach images only a few levels deep on this chart
        # (root coordinates run out of bits), so the descent is bounded by
        # the images it reaches, up to depth 8 here
        chart, depth = dfs12
        count = self.dist_calls(monkeypatch)
        rng = random.Random(4)
        reached = set()
        for _ in range(200):
            b = chart._ray(sample_interior(chart.complex, rng, chart.root).bary)[0]
            w = 1.0 - 2.0 ** -rng.randrange(1, 30)
            x = PointRef(chart.root, tuple(c + w * (e - c) for c, e in zip(chart.c0.bary, b)))
            assert count(forward_map, chart, x) == 2
            reached.add(depth[forward_map(chart, x).top])
        assert max(reached) >= 5 and 0 in reached


def reference_walk(chart):
    """A copy of ``chart`` whose walk is the one the flat tables replaced:
    entry steps and gate records in dicts, each exit ridge looked up by its
    vertex tuple, a stray-weight check at every crossing and heights read
    through a method.  It is the oracle the table walk must match bit for
    bit, exceptions included."""
    c = chart.complex
    n = c.dimension
    tops = c.top_simplices
    spine_set = frozenset(chart.decomposition.spine)
    entry = {g.child: g for g in chart.decomposition.gates}
    gate_record = {g.gate: g for g in chart.decomposition.gates}
    gate_maps = {}
    for g in chart.decomposition.gates:
        cv, pv = tops[g.child], tops[g.parent]
        ov = next(k for k, v in enumerate(cv) if v not in pv)
        off = next(k for k, v in enumerate(pv) if v not in cv)
        gate_maps[g.child] = (ov, off,
                              tuple(ov if k == off else cv.index(v) for k, v in enumerate(pv)),
                              tuple(off if k == ov else pv.index(v) for k, v in enumerate(cv)))
    ref = copy.copy(chart)

    def height(top):
        return chart._heights[top]

    def facet_ridge(top, local):
        verts = tops[top]
        return c.face_index[n - 1][verts[:local] + verts[local + 1:]]

    def cross(bary, child, upward):
        ov, off, up, down = gate_maps[child]
        stray = abs(bary[ov if upward else off])
        if stray > GEOMETRIC_TOL:
            parent = entry[child].parent
            pair = (child, parent) if upward else (parent, child)
            raise ChartDomainError(
                f"point carries weight {stray} outside the face shared by "
                f"facets {pair[0]} and {pair[1]}")
        out = [bary[i] for i in (up if upward else down)]
        out[off if upward else ov] = 0.0
        return tuple(out)

    def chord(top, y):
        ov = gate_maps[top][0]
        t_y = y[ov]
        p = [yi + t_y / n for yi in y]
        p[ov] = 0.0
        m, exit_local = min((pi, i) for i, pi in enumerate(p) if i != ov)
        if m <= MEMBERSHIP_TOL:
            raise ChartDomainError(
                f"interval family of facet {top} degenerates at {tuple(y)}; "
                "point sits on a gate-boundary stratum")
        t_max = n * m
        q = [pi - m for pi in p]
        q[ov] = t_max
        q[exit_local] = 0.0
        h = height(top)
        return tuple(p), tuple(q), t_y * h, t_max * h, exit_local

    def ascend(top, y):
        if top == chart.root:
            b, arc, length, exit_local = chart._ray(y)
            return [(top, chart.c0.bary, b, length)], arc, exit_local
        j, q, arc, length, exit_local = chord(top, y)
        segments = [(top, j, q, length)]
        while True:
            parent = entry[top].parent
            j = cross(j, top, upward=True)
            if parent == chart.root:
                segments.append((parent, chart.c0.bary, j,
                                 chart._dist(parent, chart.c0.bary, j)))
                segments.reverse()
                return segments, arc, exit_local
            ov = gate_maps[parent][0]
            t_j = j[ov]
            start = [x + t_j / n for x in j]
            start[ov] = 0.0
            start = tuple(start)
            segments.append((parent, start, j, t_j * height(parent)))
            top, j = parent, start

    def descend(top, q, exit_local):
        while True:
            rid = facet_ridge(top, exit_local)
            step = gate_record.get(rid)
            if step is None:
                if rid in spine_set:
                    return
                raise InvalidComplexError(f"ridge {rid} is neither gate nor spine")
            top = step.child
            p, q, _, length, exit_local = chord(top, cross(q, top, upward=False))
            yield top, p, q, length

    ref._ascend, ref._descend = ascend, descend
    return ref


def frozen(value):
    """Bit pattern of a walk output, for exact comparison."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, PointRef):
        return value.top, bits(value.bary)
    if isinstance(value, BrokenLine):
        return ([(s.top, bits(s.start), bits(s.end), s.length.hex()) for s in value.segments],
                frozen(value.endpoint), value.length.hex())
    return tuple(frozen(v) for v in value)


def outcome(fn, *args):
    """What a call returns, as bits, or the class and message it raises."""
    try:
        return frozen(fn(*args))
    except (ChartDomainError, InvalidComplexError) as e:
        return type(e), str(e)


class TestReferenceWalk:
    """``locate``, ``inverse_map``, ``forward_map``, ``retract`` and
    ``broken_line_to`` on the table walk against the same calls on the walk
    it replaced, bit for bit."""

    @pytest.fixture(scope="class")
    def torus48(self):
        c = coordinate_torus(48)
        return c, Metric.from_complex(c)

    @staticmethod
    def calls(chart, rng, count):
        """(function, args) of each public walk call on count points of
        random facets, some on faces, plus c0 and the spine's ridges."""
        c = chart.complex
        n1 = c.dimension + 1
        tops = c.top_simplices
        points = [chart.c0]
        for k in range(count):
            p = sample_interior(c, rng, rng.randrange(len(tops)))
            if k % 4 == 3:   # onto a face: the spine, or a gate-boundary stratum
                bary = list(p.bary)
                for slot in rng.sample(range(n1), rng.randrange(1, n1)):
                    bary[slot] = 0.0
                p = PointRef(p.top, tuple(x / sum(bary) for x in bary))
            points.append(p)
        out = []
        for p in points:
            out += [(chart.locate, (p,)), (inverse_map, (chart, p)),
                    (retract, (chart, p, rng.random()))]
            # forward_map of p's preimage, and of a root point near the root's
            # boundary, whose image lies deep
            try:
                out.append((forward_map, (chart, inverse_map(chart, p))))
            except (ChartDomainError, InvalidComplexError):
                pass
            b = chart._ray(sample_interior(c, rng, chart.root).bary)[0]
            w = 1.0 - 2.0 ** -rng.randrange(1, 40)
            x = tuple(c + w * (e - c) for c, e in zip(chart.c0.bary, b))
            out.append((forward_map, (chart, PointRef(chart.root, x))))
        ridge_faces = c.faces[n1 - 2]
        for rid in chart.decomposition.spine[:count]:
            side, other = c.ridge_cofacets[rid]
            raw = [rng.random() + 0.01 for _ in ridge_faces[rid]]
            weights = dict(zip(ridge_faces[rid], (x / sum(raw) for x in raw)))
            z = PointRef(side, tuple(weights.get(v, 0.0) for v in tops[side]))
            out += [(broken_line_to, (chart, z)), (broken_line_to, (chart, z, other))]
        return out

    def check(self, chart, seed, count):
        ref = reference_walk(chart)
        for fn, args in self.calls(chart, random.Random(seed), count):
            got = outcome(fn, *args)
            want = outcome(fn, *((ref,) + args[1:] if args[0] is chart else args))
            assert got == want, (fn.__name__, args)

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", [*sf.census_names(), "torus12"])
    def test_matches_the_reference(self, census, name, strategy):
        c = named_complex(census, name)
        m = Metric.from_complex(c)
        for seed in range(3):
            chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=seed), m)
            self.check(chart, seed, 40)

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    def test_matches_the_reference_on_the_48_torus(self, torus48, strategy):
        c, m = torus48
        for seed in range(2):
            chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=seed), m)
            self.check(chart, seed, 6)

    def test_matches_the_reference_on_bad_input(self, census):
        # a hand-built decomposition that lists no spine, where the walk
        # raises as a line leaves the cell; a metric without an edge gets no
        # chart to walk, as its build raises
        c = census["torus7"]
        d = sf.decompose(c, root=0, strategy="random", seed=2)
        m = Metric.from_complex(c)
        self.check(build_chart(c, dataclasses.replace(d, spine=()), m), 5, 20)
        lengths = dict(m.edge_lengths)
        del lengths[(1, 5)]
        assert outcome(build_chart, c, d, Metric(lengths)) == \
            (InvalidComplexError, "metric misses edge (1, 5)")


def reference_spine_closure(c, d):
    """Every face of every spine ridge, the ridge itself included, mapped to
    the first ridge of ``d.spine``, in its order, that contains it: the dict
    each chart built before the spine mask replaced it."""
    n = c.dimension
    faces, index = c.faces, c.face_index
    closure = {}
    for rid in d.spine:
        for k in range(n):
            for sub in combinations(faces[n - 1][rid], k + 1):
                if sub not in closure:
                    closure[faces[k][index[k][sub]]] = rid
    return closure


def reference_face_chart(chart):
    """A copy of ``chart`` whose ``spine_face_of`` and walk end check read
    the closure dict, as they did before the spine mask."""
    c = chart.complex
    n1 = c.dimension + 1
    closure = reference_spine_closure(c, chart.decomposition)
    ref = copy.copy(chart)

    def spine_face_of(pt):
        verts = c.top_simplices[pt.top]
        carrier = tuple(v for v, x in zip(verts, pt.bary) if x > MEMBERSHIP_TOL)
        if len(carrier) == len(verts):
            return None
        return closure.get(carrier)

    def descend(top, q, exit_local):
        while True:
            child = chart._down[top * n1 + exit_local]
            if child is None:
                verts = c.top_simplices[top]
                face = verts[:exit_local] + verts[exit_local + 1:]
                if face not in closure:
                    rid = c.face_index[n1 - 2][face]
                    raise InvalidComplexError(f"ridge {rid} is neither gate nor spine")
                return
            top = child
            p, q, _, length, exit_local = chart._chord(top, chart._gate_maps[top][2](q))
            yield top, p, q, length

    ref.spine_face_of, ref._descend = spine_face_of, descend
    return ref


def face_points(c):
    """The barycenter of every face of every facet, the facet itself
    included: points on each vertex, edge, ..., ridge and inside."""
    n1 = c.dimension + 1
    for top in range(len(c.top_simplices)):
        for k in range(1, n1 + 1):
            for slots in combinations(range(n1), k):
                yield PointRef(top, tuple(1.0 / k if i in slots else 0.0 for i in range(n1)))


class TestSpineFaceOracle:
    """``spine_face_of``, ``locate`` and ``inverse_map`` on the spine mask
    against the closure dict it replaced: the same ridge ids, the same
    ``BlackPointError`` texts and the same "neither gate nor spine"."""

    @staticmethod
    def check(chart):
        ref = reference_face_chart(chart)
        black = 0
        for p in face_points(chart.complex):
            rid = chart.spine_face_of(p)
            assert rid == ref.spine_face_of(p), p
            black += rid is not None
            assert outcome(chart.locate, p) == outcome(ref.locate, p), p
            assert outcome(inverse_map, chart, p) == outcome(inverse_map, ref, p), p
        return black

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", [*sf.census_names(), "torus12", "klein12"])
    def test_matches_the_closure_dict(self, census, name, strategy):
        c = named_complex(census, name)
        chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=1),
                            Metric.from_complex(c))
        assert self.check(chart) > 0

    @pytest.mark.parametrize("name", ["sphere3_pent", "torus7", "torus12"])
    def test_hand_built_spines(self, census, name):
        # a lower face takes the first spine ridge in the decomposition's own
        # order, so reversed and shuffled spines pick other ridges; without a
        # spine, or with half of it, lines end at ridges that are neither
        c = named_complex(census, name)
        m = Metric.from_complex(c)
        d = sf.decompose(c, root=0, strategy="random", seed=4)
        shuffled = list(d.spine)
        random.Random(4).shuffle(shuffled)
        for spine in (d.spine[::-1], tuple(shuffled), (), d.spine[::2]):
            self.check(build_chart(c, dataclasses.replace(d, spine=spine), m))

    def test_unsorted_spine_picks_its_first_ridge(self, census):
        c = census["sphere3_pent"]
        d = sf.decompose(c, root=0, strategy="bfs", seed=0)
        m = Metric.from_complex(c)
        ridges = c.faces[c.dimension - 1]
        # a vertex of the first and of the last spine ridge, in a facet
        vertex = next(v for v in ridges[d.spine[0]] if v in ridges[d.spine[-1]])
        top = next(t for t, verts in enumerate(c.top_simplices) if vertex in verts)
        p = PointRef(top, tuple(1.0 if v == vertex else 0.0 for v in c.top_simplices[top]))
        picks = [build_chart(c, dataclasses.replace(d, spine=spine), m).spine_face_of(p)
                 for spine in (d.spine, d.spine[::-1])]
        assert picks == [d.spine[0], d.spine[-1]]


class CountingRidges(tuple):
    """A ridge listing that records every ridge id read from it."""

    def __getitem__(self, rid):
        self.reads.append(rid)
        return tuple.__getitem__(self, rid)


class TestLowerFaceLookup:
    """A point on a face below ridge dimension is matched among the ridges
    at one of its vertices, not across the whole spine."""

    @pytest.mark.parametrize("name,k", [("torus", 48), ("torus3d", 4)])
    def test_reads_no_more_ridges_than_the_vertex_star(self, name, k):
        c = grid_surface(k) if name == "torus" else freudenthal_torus3(k)
        n = c.dimension
        chart = build_chart(c, sf.decompose(c, strategy="random", seed=1), Metric.from_complex(c))
        stars = sf.chart.vertex_ridges(c)
        ridges = c.faces[n - 1]
        assert [sorted(r for r in range(len(ridges)) if v in ridges[r])
                for v in range(c.vertex_count)] == list(map(list, stars))
        counting = CountingRidges(ridges)
        counting.reads = []
        c.faces = c.faces[:n - 1] + (counting,) + c.faces[n:]
        black = 0
        for top in range(0, len(c.top_simplices), 5):
            for slot in range(n + 1):
                p = PointRef(top, tuple(1.0 if i == slot else 0.0 for i in range(n + 1)))
                counting.reads.clear()
                rid = chart.spine_face_of(p)
                vertex = c.top_simplices[top][slot]
                assert len(counting.reads) <= len(stars[vertex])
                # the first spine ridge at the vertex, in the spine's own order
                assert rid == next((r for r in chart.decomposition.spine
                                    if vertex in ridges[r]), None)
                black += rid is not None
        assert black > 0

    def test_lines_end_at_the_first_spine_position(self, census):
        # with the spine cut to its first ridge, at position 0, every line
        # that reaches the spine ends there: position 0 reads as spine in
        # the walk's end check and in spine_face_of
        c = census["torus7"]
        d = sf.decompose(c, strategy="random", seed=2)
        chart = build_chart(c, dataclasses.replace(d, spine=d.spine[:1]), Metric.from_complex(c))
        rng = random.Random(2)
        ends = []
        for top in [*range(len(c.top_simplices))] * 20:
            try:
                line, _ = chart.locate(sample_interior(c, rng, top))
            except InvalidComplexError:
                continue    # a line that ends at a ridge cut from the spine
            ends.append(chart.spine_face_of(line.endpoint))
        assert ends and set(ends) == {d.spine[0]}


class TestNearC0:
    """A root point within about 1e-4 of c0 has a ray whose exit ``_ray``
    leaves up to 1.1e-12 off a unit sum; ``locate`` divides it by its sum."""

    def test_locate_beside_c0(self, charts):
        chart = charts["circle3"]
        p = PointRef(0, (0.5000249757173356, 0.49997502428266444))
        line, arc = chart.locate(p)
        assert abs(sum(line.segments[0].end) - 1.0) <= MEMBERSHIP_TOL
        assert 0.0 < arc < line.segments[0].length
        assert line.point_at_arc(arc).top == 0

    @pytest.mark.parametrize("name", ALL + ["torus12"])
    def test_every_point_beside_c0_is_located(self, census, name):
        c = named_complex(census, name)
        n1 = c.dimension + 1
        chart = build_chart(c, sf.decompose(c, root=0, strategy="bfs"), Metric.from_complex(c))
        rng = random.Random(11)
        for _ in range(300):
            raw = [rng.random() - 0.5 for _ in range(n1)]
            mean = sum(raw) / n1
            scale = 10.0 ** rng.uniform(-9, -3)
            p = PointRef(0, tuple(1.0 / n1 + scale * (x - mean) for x in raw))
            if chart.is_c0(p):
                continue
            line, arc = chart.locate(p)
            assert point_gap(chart, line.point_at_arc(arc), p) <= GEOMETRIC_TOL


class TestWalkSteps:
    """The walk takes one step per level: the ascent from a facet of depth d
    yields d + 1 segments, and the descent one segment per ``_down`` read
    that finds a child, ending at the one read that finds the spine."""

    class Reads(list):
        """A table that counts the reads that find an entry and those that
        find None."""

        def __getitem__(self, k):
            value = super().__getitem__(k)
            self.hits[value is None] += 1
            return value

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ["torus12", "sphere3_pent"])
    def test_segments_per_level(self, census, name, strategy):
        c = named_complex(census, name)
        d = sf.decompose(c, root=0, strategy=strategy, seed=0)
        chart = build_chart(c, d, Metric.from_complex(c))
        depth = tree_depth(d)
        parents, down = self.Reads(chart._parent), self.Reads(chart._down)
        chart._parent, chart._down = parents, down
        rng = random.Random(8)
        for top in range(len(c.top_simplices)):
            y = sample_interior(c, rng, top)
            parents.hits = [0, 0]
            segments, _, _ = chart._ascend(top, y.bary)
            assert len(segments) == depth[top] + 1
            assert parents.hits == [depth[top], 0]
            down.hits = [0, 0]
            line, _ = chart.locate(y)
            steps, ends = down.hits
            assert ends == 1
            assert len(line.segments) == depth[top] + 1 + steps


class TestRetract:
    @pytest.mark.parametrize("name", ALL)
    def test_time_zero_is_bit_exact_identity(self, charts, name):
        chart = charts[name]
        rng = random.Random(9)
        for _ in range(50):
            x = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            assert retract(chart, x, 0.0) is x

    @pytest.mark.parametrize("name", ALL)
    def test_time_one_lands_on_spine(self, charts, name):
        chart = charts[name]
        rng = random.Random(10)
        for _ in range(50):
            x = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            z = retract(chart, x, 1.0)
            assert chart.spine_face_of(z) is not None

    def test_arc_length_law(self, charts):
        chart = charts["torus7"]
        rng = random.Random(11)
        for _ in range(100):
            x = sample_interior(chart.complex, rng,
                                rng.randrange(len(chart.complex.top_simplices)))
            t = rng.random()
            line, arc = chart.locate(x)
            s_x = line.length - arc
            y = retract(chart, x, t)
            line2, arc2 = chart.locate(y)
            assert abs((line2.length - arc2) - (1 - t) * s_x) <= 1e-9

    def test_explicit_arc_value(self, census):
        # t = 0.5 with s(x) = 0.8 puts the image at arc 0.4 from z
        c = census["circle3"]
        d = sf.decompose(c, root=0)
        m = Metric({(0, 1): 1.0, (0, 2): 0.6, (1, 2): 0.6})
        chart = build_chart(c, d, m)
        x = PointRef(0, (0.8, 0.2))   # arc 0.3 from c0, line length 1.1, s(x)=0.8
        line, arc = chart.locate(x)
        assert line.length - arc == pytest.approx(0.8)
        y = retract(chart, x, 0.5)
        line2, arc2 = chart.locate(y)
        assert line2.length - arc2 == pytest.approx(0.4, abs=1e-9)

    def test_spine_points_never_move(self, census, charts):
        c = census["rp2_6"]
        chart = charts["rp2_6"]
        rid = chart.decomposition.spine[0]
        side = c.ridge_cofacets[rid][0]
        face = c.faces[1][rid]
        z = PointRef(side, tuple(0.5 if v in face else 0.0 for v in c.top_simplices[side]))
        for t in (0.0, 0.3, 1.0):
            assert retract(chart, z, t) is z

    def test_barycenter_uses_first_gate_convention(self, charts):
        chart = charts["sphere_tet"]
        y = retract(chart, chart.c0, 1.0)
        assert chart.spine_face_of(y) is not None

    @pytest.mark.parametrize("strategy", ["bfs", "dfs", "random"])
    @pytest.mark.parametrize("name", ALL + ["torus12", "klein12"])
    def test_barycenter_follows_the_first_gate_center(self, census, name, strategy):
        # c0 flows from arc 0 along one fixed root line: the line through the
        # root point with barycentrics proportional to (1, 2, ..., n+1).  The
        # first gate's center, the former convention, starts a line whose
        # chord ends on the child's apex vertex, where the walk raised on most
        # trees; this line flows on every chart and reaches the spine.
        c = named_complex(census, name)
        n1 = c.dimension + 1
        for seed in range(4):
            chart = build_chart(c, sf.decompose(c, root=0, strategy=strategy, seed=seed),
                                Metric.from_complex(c))
            ray = PointRef(chart.root, tuple(k / (n1 * (n1 + 1) / 2) for k in range(1, n1 + 1)))
            line, _ = chart.locate(ray)
            for t in (0.3, 1.0):
                want = line.endpoint if t == 1.0 else \
                    line.point_at_arc(line.length - (1.0 - t) * line.length)
                got = retract(chart, chart.c0, t)
                assert got.top == want.top
                assert bits(got.bary) == bits(want.bary)
            assert chart.spine_face_of(got) is not None

    def test_time_out_of_range(self, charts):
        chart = charts["circle3"]
        with pytest.raises(ChartDomainError):
            retract(chart, chart.c0, 1.5)


class TestPointRef:
    @pytest.mark.parametrize("slot", [0, 1, 2])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_coordinate_rejected(self, bad, slot):
        bary = [0.5, 0.5, 0.5]
        bary[slot] = bad
        with pytest.raises(ChartDomainError, match=f"coordinate {slot} of .* is {bad}"):
            PointRef(3, tuple(bary))

    def test_membership_rule(self):
        tol = sf.simplicial.MEMBERSHIP_TOL
        PointRef(0, (1.0 + tol / 2, 0.0, 0.0))
        PointRef(0, (0.5 + tol / 2, 0.5, -tol / 2))
        with pytest.raises(ChartDomainError, match="sum"):
            PointRef(0, (1.0 + 2 * tol, 0.0, 0.0))
        with pytest.raises(ChartDomainError, match="sum"):
            PointRef(0, ())
        with pytest.raises(ChartDomainError, match="negative"):
            PointRef(0, (0.5 + 2 * tol, 0.5, -2 * tol))


class TestSamplingAndTolerance:
    def test_retraction_samples_shape(self, charts):
        chart = charts["sphere_tet"]
        rows = retraction_samples(chart, count=5, t_steps=4, seed=1)
        assert len(rows) == 25
        for row in rows:
            assert 0.0 <= row[0] <= 1.0
            assert len(row) == 2 + chart.complex.dimension + 1

    def test_retraction_samples_walk_each_point_once(self, monkeypatch):
        # every time step reads the one held line, and the rows are the ones
        # retract gives point by point
        c = grid_surface(12)
        chart = build_chart(c, sf.decompose(c, strategy="dfs", seed=1), Metric.from_complex(c))
        count, t_steps = 30, 4
        rng = random.Random(0)
        expected = []
        for _ in range(count):
            x = sample_interior(c, rng, rng.randrange(len(c.top_simplices)))
            for k in range(t_steps + 1):
                y = retract(chart, x, k / t_steps)
                expected.append((k / t_steps, y.top) + y.bary)
        calls = []
        locate = chart.locate
        monkeypatch.setattr(chart, "locate", lambda pt: calls.append(pt) or locate(pt))
        rows = retraction_samples(chart, count, t_steps, seed=0)
        assert len(calls) == count
        assert rows == expected

    def test_ambient_position(self, census):
        c = census["sphere_tet"]
        pt = PointRef(0, (1.0, 0.0, 0.0))
        assert ambient_position(c, pt) == c.vertex_coords[c.top_simplices[0][0]]

    def test_tolerance_env_override(self, monkeypatch, capsys, tmp_path):
        # the tolerances are constants: the environment cannot loosen a gate
        from spineforge import cli
        fld = tmp_path / "l.fld"
        fld.write_text("type 1 0\nlinear\n0.1 0.2 -0.1 0.05\n0.3 -0.15 0.1 0.2\n")
        argv = ["deform", "--census", "torus7", "--field", str(fld)]
        monkeypatch.delenv("SPINEFORGE_TOL", raising=False)
        plain = cli.main(argv), capsys.readouterr()
        monkeypatch.setenv("SPINEFORGE_TOL", "1e3")
        assert geometric_tol() == 1e-9
        assert (cli.main(argv), capsys.readouterr()) == plain
