"""Output bytes depend on the input alone: not on the BLAS kernel NumPy
picks, not on how the interpreter's ``sum`` adds floats, and not on which
threads share a complex."""

import builtins
import math
import os
import random
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

import spineforge as sf
from spineforge import build_chart, cli, decompose, extend_frame
from spineforge.chart import PointRef, retraction_samples, sample_interior
from spineforge.fields import (black_hole_region, continuity_report, deform_tensor,
                               deformation_samples, field_from_spec, parse_fld,
                               root_facet_clearance)
from spineforge.simplicial import Metric, write_tri

from grids import coordinate_torus

LINEAR_FLD = ("type 1 0\nlinear\n"
              "0.1 0.2 -0.1 0.05\n"
              "0.3 -0.15 0.1 0.2\n")

# one deform run with its CSV, then the frame of the same tree, raw bytes
KERNEL_RUN = """
import sys
from spineforge import build_chart, cli, decompose, extend_frame
from spineforge.simplicial import Metric, read_tri

tri, fld, out = sys.argv[1:]
code = cli.main(["deform", tri, "--field", fld, "--strategy", "random", "--seed", "0",
                 "--out", out + ".csv"])
c = read_tri(tri)
frame = extend_frame(build_chart(c, decompose(c, strategy="random", seed=0),
                                 Metric.from_complex(c)))
with open(out + ".frames", "wb") as fh:
    for table in (frame.matrices, frame.transitions):
        for key in sorted(table):
            fh.write(table[key].tobytes())
sys.exit(code)
"""


@pytest.fixture(scope="module")
def torus12(tmp_path_factory):
    """The 12x12 coordinate torus and a linear field on it, as files."""
    folder = tmp_path_factory.mktemp("torus12")
    write_tri(coordinate_torus(12), folder / "torus12.tri")
    (folder / "lin.fld").write_text(LINEAR_FLD)
    return folder


def test_deform_bytes_and_frames_equal_under_every_blas_kernel(torus12, tmp_path):
    # each kernel setting needs its own process, as OpenBLAS reads it at load
    src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
    results = {}
    for kernel in (None, "Haswell", "Sandybridge"):
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        if kernel is not None:
            env["OPENBLAS_CORETYPE"] = kernel
        out = tmp_path / str(kernel)
        proc = subprocess.run([sys.executable, "-c", KERNEL_RUN, str(torus12 / "torus12.tri"),
                               str(torus12 / "lin.fld"), str(out)],
                              capture_output=True, env=env)
        assert proc.returncode == 0, proc.stderr
        results[kernel] = (proc.stdout, (tmp_path / f"{kernel}.csv").read_bytes(),
                           (tmp_path / f"{kernel}.frames").read_bytes())
    assert results[None][1].count(b"\n") == 20 * 17 + 1
    for kernel in ("Haswell", "Sandybridge"):
        assert results[kernel] == results[None], kernel


def neumaier(row):
    # CPython 3.12's sum of floats, transcribed
    total, comp = 0 + row[0], 0.0
    for x in row[1:]:
        t = total + x
        comp += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + comp if comp and math.isfinite(comp) else total


def test_outputs_do_not_follow_the_interpreter_sum(torus12, monkeypatch, capsys, tmp_path):
    # the builtin adds floats left to right before 3.12 and with Neumaier's
    # compensation from 3.12 on; no output may tell which one ran
    builtin_sum = builtins.sum

    def compensated_sum(iterable, start=0):
        items = list(iterable)
        if type(start) is int and start == 0 and items and \
                all(type(x) is float for x in items):
            return neumaier(items)
        return builtin_sum(items, start)

    tri, fld = str(torus12 / "torus12.tri"), str(torus12 / "lin.fld")

    def outputs(tag):
        csv = tmp_path / f"{tag}.csv"
        runs = [["deform", tri, "--field", fld, "--strategy", "random", "--seed", "0",
                 "--out", str(csv)],
                ["export-off", "retraction", tri, "--strategy", "dfs", "--samples", "40"]]
        out = []
        for argv in runs:
            code = cli.main(argv)
            out.append((code, capsys.readouterr().out))
        return out, csv.read_bytes()

    plain = outputs("plain")
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert sum([0.1, 0.2, 0.3]) == 0.6     # left to right gives 0.6000000000000001
    patched = outputs("patched")
    monkeypatch.undo()
    assert [code for code, _ in plain[0]] == [0, 0]
    assert patched == plain


def _tree(c, metric, seed):
    """Everything a chart and frame of one random tree give, as bytes or
    exact values, with the root's clearance, which the metric keeps, reads
    of a linear field, whose vertex table the complex keeps, and the spine
    ridge of points on the faces of every seventh facet."""
    chart = build_chart(c, decompose(c, strategy="random", seed=seed), metric)
    frame = extend_frame(chart)
    rng = random.Random(seed)
    points = [sample_interior(c, rng, rng.randrange(len(c.top_simplices))) for _ in range(20)]
    field = field_from_spec(parse_fld(LINEAR_FLD), chart, frame)
    faces = [PointRef(top, bary) for top in range(0, len(c.top_simplices), 7)
             for bary in ((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0),
                          (0.5, 0.5, 0.0), (0.5, 0.0, 0.5), (0.0, 0.5, 0.5))]
    return ([h.hex() for h in chart._heights], chart._parent, chart._down,
            [(k, v.tobytes()) for table in (frame.matrices, frame.transitions)
             for k, v in sorted(table.items())],
            retraction_samples(chart, 5, 4, seed),
            root_facet_clearance(chart).hex(), field.evaluate_points(points).tobytes(),
            [chart.spine_face_of(p) for p in faces])


def test_threads_sharing_one_complex_build_what_fresh_ones_build():
    # the complex fills its gate, step and vertex tables lazily, and the
    # metric its clearances, so the first trees on a new complex race to fill
    # them; every tree must still be the one built serially on a fresh
    # complex and metric
    seeds = range(8)
    serial = []
    for seed in seeds:
        fresh = coordinate_torus(12)
        serial.append(_tree(fresh, Metric.from_complex(fresh), seed))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            shared = coordinate_torus(12)
            metric = Metric.from_complex(shared)
            start = threading.Barrier(4, timeout=60)

            def build(seed):
                if seed < 4:
                    start.wait()
                return _tree(shared, metric, seed)

            with ThreadPoolExecutor(max_workers=4) as pool:
                assert list(pool.map(build, seeds, timeout=120)) == serial
    finally:
        sys.setswitchinterval(interval)


def test_every_seed_defaults_to_0():
    # each default call draws what the explicit seed=0 call draws, on a
    # chart of its own, so that no kept line draw is shared between them
    c = coordinate_torus(12)
    metric = Metric.from_complex(c)
    assert decompose(c, strategy="random") == decompose(c, strategy="random", seed=0)

    def deform(**seed):
        chart = build_chart(c, decompose(c, strategy="random", seed=2), metric)
        field = field_from_spec(parse_fld(LINEAR_FLD), chart, extend_frame(chart))
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        kbar = deform_tensor(field, chart, hole)
        return (retraction_samples(chart, 5, 4, **seed),
                continuity_report(kbar, chart, hole, samples=6, **seed).to_json_obj(),
                deformation_samples(kbar, chart, hole, lines=4, per_line=3, **seed))

    assert deform() == deform(seed=0)
