"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the criterion lines.
"""

import random
import time

import numpy as np
import pytest

import spineforge as sf
from spineforge.chart import (PointRef, build_chart, forward_map, inverse_map,
                              point_gap, retract, sample_interior, stretch)
from spineforge.fields import (black_hole_region, constant_tensor,
                               deform_tensor, extend_frame, field_from_spec,
                               parse_fld, root_facet_clearance)
from spineforge.homology import homology_groups, punctured_complex
from spineforge.simplicial import Metric
from spineforge.spine import spine_subcomplex

from helpers import decomposition_json
from test_fields import gate_frame_agreement

ALL = ("circle3", "sphere_tet", "torus7", "rp2_6", "sphere3_pent")
SPINE_SIZES = {"circle3": 1, "sphere_tet": 3, "torus7": 8,
               "rp2_6": 6, "sphere3_pent": 6}
STRATEGIES = ("bfs", "dfs", "random")
SEEDS = range(100)
SIMPLY_CONNECTED = ("sphere_tet", "sphere3_pent")


def _criterion(name, ok, detail=""):
    print(f"[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          + (f" ({detail})" if detail else ""))
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def theorem2_sweep(census):
    """Every census complex x every root x 100 random seeds (plus the two
    deterministic strategies); records homology equality, connectivity and
    spine Betti numbers, and the elapsed wall time."""
    records = []
    t0 = time.perf_counter()
    for name in ALL:
        c = census[name]
        for root in range(len(c.top_simplices)):
            punct = homology_groups(punctured_complex(c, root))
            runs = [("bfs", 0), ("dfs", 0)] + [("random", s) for s in SEEDS]
            for strategy, seed in runs:
                d = sf.decompose(c, root=root, strategy=strategy, seed=seed)
                profile = homology_groups(spine_subcomplex(c, d).complex)
                equal = all(profile.group(k) == punct.group(k)
                            for k in range(c.dimension + 1))
                records.append({
                    "name": name,
                    "root": root,
                    "strategy": strategy,
                    "seed": seed,
                    "equal": equal,
                    "connected": sf.spine_connected(c, d),
                    "spine_b1": profile.group(1)[0],
                })
    elapsed = time.perf_counter() - t0
    return records, elapsed


def test_theorem1_counts(census):
    t0 = time.perf_counter()
    ok = True
    for name in ALL:
        c = census[name]
        for strategy in STRATEGIES:
            for seed in SEEDS:
                d = sf.decompose(c, root=0, strategy=strategy, seed=seed)
                if len(d.spine) != SPINE_SIZES[name]:
                    ok = False
    elapsed = time.perf_counter() - t0
    _criterion("theorem-1 spine counts",
               ok and elapsed < 1.0,
               f"5 complexes x 3 strategies x 100 seeds in {elapsed:.2f}s")


def test_theorem2_oracle(theorem2_sweep):
    records, elapsed = theorem2_sweep
    bad = [r for r in records if not r["equal"]]
    _criterion("theorem-2 homology oracle",
               not bad and elapsed < 30.0,
               f"{len(records)} runs, {len(bad)} mismatches, {elapsed:.2f}s")


def test_corollary21_connectivity(theorem2_sweep):
    records, _ = theorem2_sweep
    disconnected = [r for r in records if not r["connected"]]
    b1_violations = [r for r in records
                     if r["name"] in SIMPLY_CONNECTED and r["spine_b1"] != 0]
    _criterion("corollary-2.1 spine connectivity",
               not disconnected and not b1_violations,
               f"{len(records)} runs, {len(disconnected)} disconnected, "
               f"{len(b1_violations)} nonzero b1 on simply connected input")


def test_known_homology_sanity(census):
    expected = {
        "sphere_tet": ((1, ()), (0, ()), (1, ())),
        "torus7": ((1, ()), (2, ()), (1, ())),
        "rp2_6": ((1, ()), (0, (2,)), (0, ())),
        "sphere3_pent": ((1, ()), (0, ()), (0, ()), (1, ())),
    }
    bad = []
    for name, want in expected.items():
        got = homology_groups(census[name]).groups
        if got != want:
            bad.append((name, got))
    _criterion("known homology profiles", not bad, str(bad) if bad else "exact")


def test_chart_round_trip(charts):
    worst = 0.0
    for name in ALL:
        chart = charts[name]
        rng = random.Random(2024)
        tops = len(chart.complex.top_simplices)
        for _ in range(500):
            x = sample_interior(chart.complex, rng, chart.root)
            back = inverse_map(chart, forward_map(chart, x))
            worst = max(worst, max(abs(a - b) for a, b in zip(x.bary, back.bary)))
        for _ in range(500):
            q = sample_interior(chart.complex, rng, rng.randrange(tops))
            again = forward_map(chart, inverse_map(chart, q))
            worst = max(worst, point_gap(chart, q, again))
    stretch_ok = True
    for s1, s2 in [(1.0, 1.0), (0.3, 2.7), (5.0, 0.0), (1e-3, 1e3)]:
        if abs(stretch(s1, s1, s2) - (s1 + s2)) > 1e-12 * max(1.0, s1 + s2):
            stretch_ok = False
        if stretch(0.0, s1, s2) != 0.0:
            stretch_ok = False
    _criterion("chart round trip",
               worst <= 1e-9 and stretch_ok,
               f"1000 samples per complex, max error {worst:.2e}")


def test_retraction(charts):
    worst_arc = 0.0
    identity_ok = True
    endpoint_ok = True
    for name in ALL:
        chart = charts[name]
        rng = random.Random(4096)
        tops = len(chart.complex.top_simplices)
        for _ in range(500):
            x = sample_interior(chart.complex, rng, rng.randrange(tops))
            t = rng.random()
            if retract(chart, x, 0.0) is not x:
                identity_ok = False
            one = retract(chart, x, 1.0)
            if chart.spine_face_of(one) is None:
                endpoint_ok = False
            line, arc = chart.locate(x)
            s_x = line.length - arc
            y = retract(chart, x, t)
            if chart.spine_face_of(y) is None:
                line2, arc2 = chart.locate(y)
                gap = abs((line2.length - arc2) - (1 - t) * s_x)
            else:
                gap = abs((1 - t) * s_x)
            worst_arc = max(worst_arc, gap)
    _criterion("retraction homotopy",
               identity_ok and endpoint_ok and worst_arc <= 1e-9,
               f"500 (x,t) samples per complex, max arc error {worst_arc:.2e}")


def _lipschitz_field(chart, frame):
    n = chart.complex.dimension
    d = len(chart.complex.vertex_coords[0])
    rng = random.Random(555)
    rows = ["  ".join(repr(0.3 * (rng.random() - 0.5)) for _ in range(d + 1))
            for _ in range(n)]
    return field_from_spec(parse_fld("type 1 0\nlinear\n" + "\n".join(rows)),
                           chart, frame)


def test_frame_and_deformation_seams(charts):
    frame_worst = 0.0
    seam_worst = 0.0
    spine_worst = 0.0
    idempotent = True
    for name in ALL:
        chart = charts[name]
        frame = extend_frame(chart)
        for rec in chart.decomposition.gates:
            frame_worst = max(frame_worst,
                              gate_frame_agreement(chart, frame, rec))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        rng = random.Random(11)
        tops = len(chart.complex.top_simplices)

        n = chart.complex.dimension
        K0 = constant_tensor(np.arange(1.0, n * n + 1.0), frame, (1, 1))
        K0bar = deform_tensor(K0, chart, hole)
        for _ in range(100):
            p = sample_interior(chart.complex, rng, rng.randrange(tops))
            if not np.array_equal(K0bar.evaluate(p), K0.evaluate(p)):
                idempotent = False

        if chart.complex.vertex_coords is None:
            continue
        K = _lipschitz_field(chart, frame)
        Kbar = deform_tensor(K, chart, hole)
        base = K.evaluate(chart.c0)
        for _ in range(60):
            p = sample_interior(chart.complex, rng, rng.randrange(tops))
            line, _ = chart.locate(p)
            s0, _ = hole.split(line)
            seam_worst = max(seam_worst, float(np.abs(
                Kbar.evaluate(line.point_at_arc(s0)) - base).max()))
            near_z = line.point_at_arc(line.length - 1e-8)
            spine_worst = max(spine_worst, float(np.abs(
                Kbar.evaluate(near_z) - Kbar.evaluate(line.endpoint)).max()))
    _criterion("frame and deformation seams",
               frame_worst <= 1e-9 and seam_worst <= 1e-9
               and spine_worst <= 1e-6 and idempotent,
               f"frame {frame_worst:.2e}, boundary {seam_worst:.2e}, "
               f"spine {spine_worst:.2e}, constant idempotence "
               f"{'exact' if idempotent else 'BROKEN'}")


def test_determinism(census):
    c = census["torus7"]
    blobs = {decomposition_json(c, sf.decompose(c, root=2, strategy="random", seed=42))
             for _ in range(3)}
    _criterion("decomposition determinism",
               len(blobs) == 1,
               "3 repeated runs, identical serialized bytes")
