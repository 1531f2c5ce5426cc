"""The paper's claims past desk scale: M = C u K with K a connected spine of
dimension at most n - 1, verified against the punctured homology, and the
deformed field continuous across its seams, on grids of 800 to 32 768
facets, the Freudenthal 3-torus and the census, through the library and the
command line.  The command-line checks run in this process; each repeated-run
byte check runs its command in two processes with different hash seeds, so
that output which follows the hash seed or the process shows."""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys

import pytest

import spineforge as sf
from spineforge import (TensorField, black_hole_region, build_chart, cli, continuity_report,
                        decompose, deform_tensor, extend_frame)
from spineforge.chart import sample_interior
from spineforge.fields import (deformation_samples, field_from_spec, read_fld,
                               root_facet_clearance)
from spineforge.simplicial import Metric, format_tri, parse_tri, read_tri
from spineforge.spine import STRATEGIES

from grids import (bench_inputs, coordinate_torus, freudenthal_torus3, grid_surface,
                   torus3_in_r6)
from helpers import broken_line_faults, frame_isometry_deviation, lattice_of

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
# sha256 of `decompose torus64.tri --strategy S --seed 3`, recorded when the
# growth loop was rewritten, so that a faster loop cannot change a tree
DECOMPOSE64_DIGESTS = {
    "bfs": "4396abf4be1eddccebc4186e8fa6eba6cdeb7469670243a22ec47f5337b7e21f",
    "dfs": "f976a1d4e2209af00a88603fdddf44deeabde18b50ff4b710c30ea57c44aee9f",
    "random": "ba33a5906ae7cb41ee4fdf8e9978689566d7a11af1112512527e06ff131b2882",
}


def command(*argv):
    """Exit code and stdout of one command, run in this process."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue()


def run_twice(folder, *argv, out=False):
    """Run ``python -m spineforge argv`` in two processes at once, with hash
    seeds 1 and 2, each writing its stdout (and, with ``out``, its ``--out``
    CSV) to a file in ``folder``.  Both must exit 0 and write the same bytes;
    returns the stdout bytes."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    procs = []
    for seed in ("1", "2"):
        extra = ["--out", str(folder / f"{seed}.csv")] if out else []
        with open(folder / f"{seed}.stdout", "wb") as stdout:
            procs.append(subprocess.Popen(
                [sys.executable, "-m", "spineforge", *map(str, argv), *extra],
                stdout=stdout, stderr=subprocess.PIPE, env=dict(env, PYTHONHASHSEED=seed)))
    runs = []
    try:
        for seed, proc in zip(("1", "2"), procs):
            _, err = proc.communicate(timeout=600)
            assert proc.returncode == 0, err.decode()
            runs.append([(folder / f"{seed}.{kind}").read_bytes()
                         for kind in ("stdout", "csv")[:1 + out]])
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
    assert runs[0] == runs[1]
    return runs[0][0]


@pytest.fixture(scope="module")
def grid64():
    """The 64x64 grid torus and Klein bottle, 8192 facets each."""
    return {False: grid_surface(64), True: grid_surface(64, klein=True)}


@pytest.fixture(scope="module")
def files(tmp_path_factory, grid64):
    """The command-line inputs, written once.  The 12x12 and 48x48 tori and
    ``lin.fld`` have the benchmark's bytes (see the first test)."""
    folder = tmp_path_factory.mktemp("scale")
    torus3_r6, lin3 = torus3_in_r6(4)
    texts = {
        "torus20.tri": format_tri(grid_surface(20)),
        "klein20.tri": format_tri(grid_surface(20, klein=True)),
        "torus64.tri": format_tri(grid64[False]),
        "torus3d4.tri": format_tri(freudenthal_torus3(4)),
        "torus3d4r6.tri": format_tri(torus3_r6),
        "lin3.fld": lin3,
        "torus12.tri": format_tri(coordinate_torus(12)),
        "torus48.tri": format_tri(coordinate_torus(48)),
        "lin.fld": bench_inputs().linear_fld(),
        "scalar.fld": "type 0 0\nlinear\n0.3 0.1 -0.2 0.05\n",
        "const2.fld": "type 1 0\nconstant\n1.5 -2.25\n",
        "const3.fld": "type 1 1\nconstant\n1 2 3 4 5 6 7 8 9\n",
    }
    for name, text in texts.items():
        (folder / name).write_text(text, encoding="utf-8")
    return folder


@pytest.fixture(scope="module")
def torus48(files):
    """The 48x48 torus read from its file, and its metric, shared by the
    checks that compare it with freshly read copies and rebuilt fields."""
    c = read_tri(files / "torus48.tri")
    return c, Metric.from_complex(c)


@pytest.fixture(scope="module")
def torus128():
    """The 128x128 coordinate torus (32 768 facets) and its metric."""
    c = coordinate_torus(128)
    return c, Metric.from_complex(c)


def test_grids_write_the_benchmark_inputs(files):
    inputs = bench_inputs()
    assert (files / "torus12.tri").read_text() == inputs.torus_tri(12)
    assert (files / "torus48.tri").read_text() == inputs.torus_tri(48)
    assert (files / "lin.fld").read_text() == inputs.linear_fld()
    for k in (12, 48):
        assert format_tri(grid_surface(k, klein=True)) == inputs.klein_tri(k)


# -- verify and decompose at scale ----------------------------------------------

@pytest.mark.parametrize("name", ["torus20.tri", "klein20.tri"])
def test_verify_100_runs_on_800_facet_grids(files, name):
    # well under a second; a fall-back to dense elimination takes 25+
    # minutes.  Per-seed puncture work is caught by the call-count tests in
    # test_homology.py, not here
    assert command("verify", files / name, "--runs", "100")[0] == 0


def test_decompose_and_verify_64x64_torus(files, tmp_path):
    # 8192 facets: the load path (parse, ridge map, link check, triangle
    # check) runs at scale, two random-tree runs print the same bytes, and
    # the bfs, dfs and random trees match their recorded digests
    path = files / "torus64.tri"
    out = {"random": run_twice(tmp_path, "decompose", path, "--strategy", "random",
                               "--seed", "3")}
    for strategy in ("bfs", "dfs"):
        code, text = command("decompose", path, "--strategy", strategy, "--seed", "3")
        assert code == 0
        out[strategy] = text.encode()
    assert {s: hashlib.sha256(b).hexdigest() for s, b in out.items()} == DECOMPOSE64_DIGESTS
    assert command("verify", path, "--runs", "2")[0] == 0


@pytest.mark.parametrize("name", ["torus", "klein", "coordinate torus"])
def test_128x128_grids_parse_to_the_built_complex(torus128, name):
    # 32 768 facets: the complex parse_tri builds from format_tri's text
    # equals the built one table for table, and format_tri gives the text
    # back bit for bit
    c = torus128[0] if name == "coordinate torus" else grid_surface(128, klein=name == "klein")
    text = format_tri(c)
    parsed = parse_tri(text)
    assert lattice_of(parsed) == lattice_of(c)
    assert format_tri(parsed) == text


@pytest.mark.parametrize("klein", [False, True], ids=["torus", "klein"])
def test_spine_profiles_on_64x64_grids_equal_the_standalone_spine(grid64, klein):
    # verify reads each spine off its ridge ids in the input's labels, and
    # must agree with the homology of the relabelled spine complex, built
    # and computed on its own
    c = grid64[klein]
    for seed in range(20):
        d = decompose(c, strategy="random", seed=seed)
        report = sf.verify_theorem2(c, d)
        oracle = sf.homology_groups(sf.spine_subcomplex(c, d).complex)
        assert report.ok and report.spine == oracle, \
            (seed, report.to_json_obj(), oracle.to_json_obj())


@pytest.mark.parametrize("name", sf.census_names())
def test_verify_census_over_20_random_seeds(name):
    # spines of dimension 0 (circle3), 1 (the surfaces) and 2 (sphere3_pent);
    # a homology mismatch exits 1 and any error exits 2
    assert command("verify", "--census", name, "--runs", "20", "--strategy", "random")[0] == 0


def test_verify_and_decompose_freudenthal_3_torus(files, tmp_path):
    # the n = 3 load path (middle faces, ridge map, gate table) through the
    # command line, on 384 facets
    path = files / "torus3d4.tri"
    for strategy in STRATEGIES:
        assert command("verify", path, "--strategy", strategy, "--runs", "5")[0] == 0, strategy
    run_twice(tmp_path, "decompose", path, "--strategy", "random", "--seed", "3")


def test_deform_linear_field_on_freudenthal_3_torus_in_r6(files, tmp_path):
    # the step table and the frame rows in n = 3, on every tree
    argv = ("deform", files / "torus3d4r6.tri", "--field", files / "lin3.fld")
    for strategy in ("bfs", "dfs"):
        assert command(*argv, "--strategy", strategy, "--seed", "0")[0] == 0, strategy
    run_twice(tmp_path, *argv, "--strategy", "random", "--seed", "0")


# -- export-off, decompose and deform on the 12x12 and 48x48 tori ------------------

def test_export_off_retraction_on_dfs_chart_of_12x12_torus(files, tmp_path):
    # dfs lines here reach depth 268; every sampled point is located on its
    # own broken line (an error exits 2), and the flow depends on nothing
    # but the input
    argv = ("export-off", "retraction", files / "torus12.tri", "--strategy", "dfs",
            "--samples", "200")
    assert command(*argv)[0] == 0
    run_twice(tmp_path, *argv)


def test_two_decompose_runs_on_a_random_tree_are_byte_identical(files, tmp_path):
    run_twice(tmp_path, "decompose", files / "torus12.tri", "--strategy", "random",
              "--seed", "7")


@pytest.mark.parametrize("strategy", ["random", "dfs"])
def test_deform_linear_field_on_12x12_torus(files, strategy):
    # a degenerate frame exits 2 and a missed seam bound exits 1; on the dfs
    # tree, a probe offset that grows with the line reads a jump
    assert command("deform", files / "torus12.tri", "--field", files / "lin.fld",
                   "--strategy", strategy, "--seed", "0")[0] == 0


def test_deform_linear_field_on_48x48_torus(files):
    assert command("deform", files / "torus48.tri", "--field", files / "lin.fld",
                   "--strategy", "random", "--seed", "0")[0] == 0


def test_two_deform_runs_are_byte_identical(files, tmp_path):
    run_twice(tmp_path, "deform", files / "torus12.tri", "--field", files / "lin.fld",
              "--strategy", "dfs", "--seed", "0", out=True)


def test_deform_with_7_samples_writes_17_csv_rows_on_each_of_7_lines(files, tmp_path):
    # the report and the CSV read one line draw, kept by count and seed; a
    # key that missed the count would hand the CSV another draw's lines
    path = tmp_path / "s7.csv"
    assert command("deform", files / "torus12.tri", "--field", files / "lin.fld",
                   "--strategy", "random", "--seed", "3", "--samples", "7",
                   "--out", path)[0] == 0
    header, *rows = list(csv.reader(path.open()))
    assert header[:2] == ["line", "arc"]
    assert len(rows) == 7 * 17
    assert sorted({row[0] for row in rows}) == [str(k) for k in range(7)]
    assert all(math.isfinite(float(x)) for row in rows for x in row)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_deform_scalar_field_twice_on_12x12_torus(files, tmp_path, strategy):
    # each run reads every sampled line in one stack per field, and a 0-d
    # block's jumps are taken over no component axis
    run_twice(tmp_path, "deform", files / "torus12.tri", "--field", files / "scalar.fld",
              "--strategy", strategy, "--seed", "0", out=True)


def test_two_deform_runs_on_48x48_torus_are_byte_identical(files, tmp_path):
    # lines of thousands of segments, each read in one batch per line
    run_twice(tmp_path, "deform", files / "torus48.tri", "--field", files / "lin.fld",
              "--strategy", "random", "--seed", "0", out=True)


# -- frames, lines and fields through the library --------------------------------

def test_frames_and_seam_reports_on_one_48x48_complex_equal_fresh_ones(files, torus48):
    # charts and frames of one complex and metric share its step table, built
    # whole for the first tree; five random trees on it give the frames and
    # continuity JSON of the same trees on freshly read complexes, bit for bit
    spec = read_fld(files / "lin.fld")

    def run(c, m, seed):
        chart = build_chart(c, decompose(c, strategy="random", seed=seed), m)
        frame = extend_frame(chart)
        hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
        kbar = deform_tensor(field_from_spec(spec, chart, frame), chart, hole)
        report = continuity_report(kbar, chart, hole, samples=20, seed=seed)
        return (frame.matrices.tobytes(), frame.transitions.tobytes(),
                json.dumps(report.to_json_obj(), sort_keys=True).encode())

    shared, metric = torus48
    for seed in range(5):
        fresh = read_tri(files / "torus48.tri")
        assert run(shared, metric, seed) == run(fresh, Metric.from_complex(fresh), seed), seed


def test_linear_field_rebuilt_from_its_point_rule_reads_as_built_in_on_48x48_dfs(files, torus48):
    # dfs lines here run thousands of segments deep; the rebuilt field reads
    # them through the default line rule, at point_at_arc of every arc, and
    # gives the built-in line rule's seam JSON and sample rows, as K and
    # deformed
    c, metric = torus48
    chart = build_chart(c, decompose(c, strategy="dfs", seed=0), metric)
    frame = extend_frame(chart)
    hole = black_hole_region(chart, 0.25 * root_facet_clearance(chart))
    built_in = field_from_spec(read_fld(files / "lin.fld"), chart, frame)
    rebuilt = TensorField(built_in.rank, frame, built_in.point_rule)
    for name, want, got in (("K", built_in, rebuilt),
                            ("K-bar", deform_tensor(built_in, chart, hole),
                             deform_tensor(rebuilt, chart, hole))):
        for read in (lambda f: continuity_report(f, chart, hole, samples=20,
                                                 seed=0).to_json_obj(),
                     lambda f: deformation_samples(f, chart, hole, lines=20,
                                                   per_line=16, seed=0)):
            assert json.dumps(read(got)) == json.dumps(read(want)), name


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_frames_on_128x128_torus_are_isometries(torus128, strategy):
    # every facet's frame vectors have the root's Gram matrix, F^T G F =
    # G_root, to 1e-12 relative (1.1e-13 read on the dfs tree)
    c, metric = torus128
    chart = build_chart(c, decompose(c, strategy=strategy, seed=0), metric)
    assert frame_isometry_deviation(chart, extend_frame(chart)) <= 1e-12


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_broken_lines_on_128x128_torus_are_contiguous(torus128, strategy):
    # 20 lines through points of random facets: each segment ends where the
    # next starts, bit for bit, with positive finite lengths, and the line
    # ends on a spine ridge; the dfs lines run about 15 000 segments deep
    c, metric = torus128
    chart = build_chart(c, decompose(c, strategy=strategy, seed=0), metric)
    rng = random.Random(0)
    for _ in range(20):
        p = sample_interior(c, rng, rng.randrange(len(c.top_simplices)))
        line, _ = chart.locate(p)
        faults = broken_line_faults(chart, line)
        assert not faults, (p, faults[:3])


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize("name", ["sphere_tet", "torus7", "rp2_6", "sphere3_pent"])
def test_deformed_constant_field_is_the_constant(files, tmp_path, name, strategy):
    # K(c0) on the white prefix, the pullback in the tail and K(z) on the
    # spine all read the one constant block, so any leak in the rule shows as
    # a non-zero seam or a CSV row that differs from the constant
    fld = files / ("const3.fld" if name == "sphere3_pent" else "const2.fld")
    want = [float(x) for x in fld.read_text().split()[4:]]
    path = tmp_path / "const.csv"
    code, out = command("deform", "--census", name, "--field", fld, "--strategy", strategy,
                        "--out", path)
    assert code == 0
    seams = json.loads(out)["continuity"]
    kinds = ("boundary_seam", "spine_limit", "gate_jump")
    assert {k: seams[k] for k in kinds} == dict.fromkeys(kinds, 0.0)
    rows = list(csv.reader(path.open()))[1:]
    assert rows
    assert [r for r in rows if [float(x) for x in r[2:]] != want] == []
