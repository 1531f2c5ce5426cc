"""The three workloads: inputs, set-up, one operation, per-layer numbers.

Each operation calls public functions of the package inside ``span(name)``
blocks; the untraced run passes a no-op span, so both runs execute the same
code.  An operation returns None when its output passed every check, or the
reason it failed; exceptions are caught by the caller and recorded by class.
"""

from __future__ import annotations

import math
import random
import statistics

import inputs

ROUND_TRIP_TOL = 1e-9          # the acceptance suite's chart bound
ROUND_TRIP_MISS = "round trip above 1e-9"
SEAM_MISS = "seam bound"
BANDS = ("d00_19", "d20_39", "d40up")


def band_of(depth):
    return BANDS[min(depth // 20, 2)]


class Workload:
    """Defaults for the hooks only some workloads need.

    ``known_outcomes`` names the failure reasons that are the package's
    documented shortfalls on this workload's inputs: they are not counted as
    failed operations, but an operation that meets one is not passed either,
    so they lower ``ok_share`` and ``ok_ops_per_s``.  Every other reason is
    a failure.
    """

    known_outcomes = frozenset()

    def prepare(self, state):
        """Benchmark bookkeeping on a ready input, outside every timing."""

    def wrap_targets(self):
        return []

    def layer_metrics(self, state, ops, spans_by_op):
        return {}


def tree_depths(d):
    """Gate-tree depth of every facet: the number of gates between it and
    the root, so also the number of line segments before a point in it."""
    depth = {d.root: 0}
    for g in d.gates:
        depth[g.child] = depth[g.parent] + 1
    return depth


class VerifyGrid(Workload):
    """The `spineforge verify` path on a torus and a Klein-bottle grid.

    Dense Smith normal form of the punctured complex is about 90% of an
    operation, and every operation on one complex shares its (input, root)
    punctured complex: caching or sparse elimination shows here only.
    """

    name = "verify-grid"
    k = 12
    setup_reps = 21
    traced_rate = 1.0          # operations per second on a slow host; sizes the traced run

    def __init__(self, sf, seed):
        self.sf = sf
        self.seed = seed
        self.texts = {"torus": inputs.torus_tri(self.k), "klein": inputs.klein_tri(self.k)}

    def setup(self, span):
        sf = self.sf
        out = []
        for text in self.texts.values():
            with span("simplicial.parse"):
                c = sf.simplicial.parse_tri(text)
            with span("simplicial.validate"):
                sf.validate_closed_manifold(c)
            with span("simplicial.metric"):
                sf.Metric.from_complex(c)
            out.append(c)
        return out

    def items(self):
        base = self.seed * 100_000
        i = 0
        while True:
            yield i % 2, base + i // 2
            i += 1

    def op(self, complexes, item, span, info):
        sf = self.sf
        which, seed = item
        c = complexes[which]
        with span("spine.decompose"):
            d = sf.decompose(c, root=0, strategy="random", seed=seed)
        with span("homology.verify"):
            report = sf.verify_theorem2(c, d)
        with span("spine.connected"):
            connected = sf.spine_connected(c, d)
        v, e, f = c.f_vector
        spine_verts = {x for rid in d.spine for x in c.faces[1][rid]}
        info.update(gates=len(d.gates), spine=len(d.spine),
                    snf_cells=v * e + e * (f - 1) + len(spine_verts) * len(d.spine))
        if not report.ok or report.punctured.groups != inputs.PUNCTURED_SURFACE_HOMOLOGY:
            return "homology mismatch"
        if not connected:
            return "spine disconnected"
        return None

    def wrap_targets(self):
        """verify_theorem2 looks these up at call time, so wrapping them
        splits its span into the punctured and the spine homology."""
        sf = self.sf
        return [
            (sf.homology, "punctured_complex", "homology.puncture"),
            (sf.homology, "homology_groups",
             lambda c: "homology.groups_punctured" if c.dimension == 2
             else "homology.groups_spine"),
            (sf.spine, "spine_subcomplex", "spine.subcomplex"),
        ]

    def layer_metrics(self, state, ops, spans_by_op):
        infos = [info for _, _, _, info in ops if "gates" in info]
        m = {}
        if infos:
            m["spine.gates"] = statistics.fmean(i["gates"] for i in infos)
            m["spine.spine_ridges"] = statistics.fmean(i["spine"] for i in infos)
            m["homology.snf_cells"] = statistics.fmean(i["snf_cells"] for i in infos)
        return m


class ChartWalk(Workload):
    """Seeded interior points on a 48 x 48 torus, through bfs and random
    charts: inverse_map, forward_map, the 1e-9 round trip, retract.

    The line walk is nearly all of an operation; line depths pass 60, so
    depth-linear cost and deep-line precision failures both show.
    """

    name = "chart-walk"
    k = 48
    # deep lines: locate declines the point, or the round trip misses 1e-9
    known_outcomes = frozenset({"ChartDomainError", ROUND_TRIP_MISS})
    setup_reps = 5
    traced_rate = 900.0
    tree_seed = 0              # one fixed random tree; the points vary with --seed
    segment_sample = 2000      # traced points whose broken line is measured

    def __init__(self, sf, seed):
        self.sf = sf
        self.seed = seed
        self.texts = {"torus": inputs.torus_tri(self.k)}

    def setup(self, span):
        sf = self.sf
        with span("simplicial.parse"):
            c = sf.simplicial.parse_tri(self.texts["torus"])
        with span("simplicial.validate"):
            sf.validate_closed_manifold(c)
        with span("simplicial.metric"):
            m = sf.Metric.from_complex(c)
        charts = []
        for strategy in ("bfs", "random"):
            with span("spine.decompose"):
                d = sf.decompose(c, root=0, strategy=strategy, seed=self.tree_seed)
            with span("chart.build"):
                charts.append(sf.build_chart(c, d, m))
        return charts

    def prepare(self, charts):
        self.depths = [tree_depths(ch.decomposition) for ch in charts]

    def items(self):
        rng = random.Random(self.seed)
        facets = 2 * self.k * self.k
        i = 0
        while True:
            which = i % 2
            top = rng.randrange(facets)
            raw = [-math.log(1.0 - rng.random()) for _ in range(3)]
            total = sum(raw)
            yield which, top, tuple(x / total for x in raw), rng.random()
            i += 1

    def band(self, item):
        which, top, _, _ = item
        return band_of(self.depths[which][top])

    def op(self, charts, item, span, info):
        sf = self.sf
        which, top, bary, t = item
        chart = charts[which]
        p = sf.PointRef(top, bary)
        with span("chart.inverse"):
            q = sf.inverse_map(chart, p)
        with span("chart.forward"):
            back = sf.forward_map(chart, q)
        err = sf.chart.point_gap(chart, p, back)
        info["err"] = err
        with span("chart.retract"):
            sf.retract(chart, p, t)
        return None if err <= ROUND_TRIP_TOL else ROUND_TRIP_MISS

    def layer_metrics(self, charts, ops, spans_by_op):
        m = {}
        for layer in ("inverse", "forward", "retract"):
            calls = [v[f"chart.{layer}"] for v in spans_by_op.values() if f"chart.{layer}" in v]
            if calls:
                m[f"chart.{layer}_us"] = statistics.median(calls) * 1e6
        depths = []
        for band in BANDS:
            rows = [(i, reason, info) for i, (_, reason, item, info) in enumerate(ops)
                    if self.band(item) == band]
            query = [sum(spans_by_op.get(i, {}).get(f"chart.{x}", 0.0)
                         for x in ("inverse", "forward", "retract")) for i, _, _ in rows]
            errs = [info["err"] for _, _, info in rows if "err" in info]
            if rows:
                m[f"chart.query_us.{band}"] = statistics.median(query) * 1e6
                m[f"chart.fail_share.{band}"] = sum(r is not None for _, r, _ in rows) / len(rows)
            m[f"chart.roundtrip_err_max.{band}"] = max(errs) if errs else -1.0
        for _, _, item, _ in ops:
            which, top, _, _ = item
            depths.append(self.depths[which][top])
        if depths:
            m["chart.line_depth_p50"] = statistics.median(depths)
            m["chart.line_depth_max"] = max(depths)
        segments = []
        for _, _, item, _ in ops[:self.segment_sample]:
            which, top, bary, _ = item
            try:
                line, _ = charts[which].locate(self.sf.PointRef(top, bary))
            except self.sf.ChartDomainError:
                continue
            segments.append(len(line.segments))
        if segments:
            m["chart.walk_segments"] = statistics.fmean(segments)
        return m


class DeformField(Workload):
    """The `spineforge deform` path on the 12 x 12 torus, one seed per
    operation, with a fixed linear type-(1,1) field.

    It walks the same chart as chart-walk but makes many locate calls along
    a few lines, so a line handle or line cache shows here and not there.
    """

    name = "deform-field"
    k = 12
    # cmd_deform's own verdict: it exits 1 (falsified), not with an error
    known_outcomes = frozenset({SEAM_MISS})
    setup_reps = 21
    traced_rate = 2.0
    eps_frac = 0.25
    samples = 20
    per_line = 16

    def __init__(self, sf, seed):
        self.sf = sf
        self.seed = seed
        self.texts = {"torus": inputs.torus_tri(self.k)}
        self.fld = inputs.linear_fld()

    def setup(self, span):
        sf = self.sf
        with span("simplicial.parse"):
            c = sf.simplicial.parse_tri(self.texts["torus"])
        with span("simplicial.validate"):
            sf.validate_closed_manifold(c)
        with span("simplicial.metric"):
            m = sf.Metric.from_complex(c)
        return c, m, sf.fields.parse_fld(self.fld)

    def items(self):
        seed = self.seed * 100_000
        while True:
            yield seed
            seed += 1

    def op(self, state, seed, span, info):
        sf = self.sf
        c, m, spec = state
        with span("spine.decompose"):
            d = sf.decompose(c, root=0, strategy="random", seed=seed)
        with span("chart.build"):
            chart = sf.build_chart(c, d, m)
        with span("fields.frame"):
            frame = sf.extend_frame(chart)
        with span("fields.deform_build"):
            field = sf.fields.field_from_spec(spec, chart, frame)
            eps = self.eps_frac * sf.fields.root_facet_clearance(chart)
            hole = sf.black_hole_region(chart, eps)
            kbar = sf.deform_tensor(field, chart, hole)
        with span("fields.continuity"):
            report = sf.continuity_report(kbar, chart, hole, samples=self.samples, seed=seed)
        # the checks cmd_deform applies before it picks its exit code
        seam_ok = (report.boundary_seam <= sf.chart.geometric_tol()
                   and report.spine_limit <= 1e-6 and report.gate_jump <= 1e-6)
        with span("fields.samples"):
            rows = sf.fields.deformation_samples(kbar, chart, hole, lines=self.samples,
                                                 per_line=self.per_line, seed=seed)
        info.update(probes=len(report.probes), rows=len(rows))
        if len(rows) != self.samples * (self.per_line + 1) or \
                not all(math.isfinite(x) for row in rows for x in row):
            return "deformation samples incomplete"
        return None if seam_ok else SEAM_MISS

    def layer_metrics(self, state, ops, spans_by_op):
        infos = [info for _, _, _, info in ops if "probes" in info]
        m = {}
        if infos:
            m["fields.probes"] = statistics.fmean(i["probes"] for i in infos)
            m["fields.sample_rows"] = statistics.fmean(i["rows"] for i in infos)
        return m


WORKLOADS = {w.name: w for w in (VerifyGrid, ChartWalk, DeformField)}
