import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spineforge as sf
from spineforge import cli
from spineforge.simplicial import SimplicialComplex, format_tri, write_tri

from grids import coordinate_torus

CONSTANT_FLD = "type 1 0\nconstant\n1.0 0.0\n"
LINEAR_FLD = ("type 1 0\nlinear\n"
              "0.1 0.2 -0.1 0.05\n"
              "0.3 -0.15 0.1 0.2\n")


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDecompose:
    def test_census_sphere_tet(self, capsys):
        code, out, _ = run(capsys, "decompose", "--census", "sphere_tet")
        assert code == 0
        doc = json.loads(out)
        assert doc["summary"]["spine"] == 3
        assert doc["summary"]["gates"] == 3
        assert doc["summary"]["spine_connected"] is True

    def test_torus7_seeded_and_deterministic(self, capsys):
        args = ("decompose", "--census", "torus7", "--strategy", "random",
                "--seed", "42")
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert json.loads(out1)["summary"]["spine"] == 8

    def test_missing_file_is_io_error(self, capsys, tmp_path):
        code, _, err = run(capsys, "decompose", str(tmp_path / "missing.tri"))
        assert code == 3
        assert "i/o" in err

    def test_tri_file_input(self, capsys, tmp_path, census):
        path = tmp_path / "rp2.tri"
        write_tri(census["rp2_6"], path)
        code, out, _ = run(capsys, "decompose", str(path))
        assert code == 0
        assert json.loads(out)["summary"]["spine"] == 6

    def test_invalid_complex_rejected(self, capsys, tmp_path):
        tet = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        two_tets = "".join(f"{a + k} {b + k} {c + k}\n" for k in (0, 4) for a, b, c in tet)
        for text, message in [("dim 2\n0 1 2\n0 1 3\n", "cofacets"),
                              ("dim 2\n" + two_tets, "error: dual graph is disconnected\n")]:
            path = tmp_path / "bad.tri"
            path.write_text(text)
            code, out, err = run(capsys, "decompose", str(path))
            assert (code, out) == (2, "")
            assert message in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.tri"
        path.write_text("dim 1\n0 1\n1 2\n0 2\n")
        code, _, _ = run(capsys, "decompose", "--census", "circle3", str(path))
        assert code == 2

    def test_root_past_the_facets_rejected(self, capsys):
        facets = len(sf.build_census("torus7").top_simplices)
        code, out, err = run(capsys, "decompose", "--census", "torus7", "--root", str(facets))
        assert (code, out, err) == (2, "", f"error: no facet with id {facets}\n")

    def test_no_source_rejected(self, capsys):
        code, _, _ = run(capsys, "decompose")
        assert code == 2

    def test_out_file(self, capsys, tmp_path):
        out_path = tmp_path / "d.json"
        code, out, _ = run(capsys, "decompose", "--census", "circle3",
                           "--out", str(out_path))
        assert code == 0
        assert out == ""
        assert json.loads(out_path.read_text())["summary"]["spine"] == 1


class TestVerify:
    def test_census_ok(self, capsys):
        code, out, _ = run(capsys, "verify", "--census", "rp2_6", "--runs", "20")
        assert code == 0
        doc = json.loads(out)
        assert doc["ok"] is True
        assert doc["failures"] == []

    def test_sphere3_pent_spine_profile(self, capsys, census):
        code, _, _ = run(capsys, "verify", "--census", "sphere3_pent",
                         "--runs", "20")
        assert code == 0
        c = census["sphere3_pent"]
        d = sf.decompose(c, strategy="random", seed=7)
        sub = sf.spine_subcomplex(c, d)
        assert sf.homology_groups(sub.complex).betti == (1, 0, 0)

    def test_falsification_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "run_verification",
                            lambda c, root, strategy, seeds:
                            [{"seed": 13, "reason": "homology mismatch"}])
        code, out, err = run(capsys, "verify", "--census", "sphere_tet",
                             "--runs", "5")
        assert code == 1
        assert "seed 13" in err
        assert json.loads(out)["ok"] is False


    @pytest.mark.parametrize("runs", ["0", "-1", "x"])
    def test_no_runs_rejected(self, capsys, runs):
        # a verification over no seeds checks nothing and must not report ok
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--census", "torus7", "--runs", runs])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        message = "not an integer: 'x'" if runs == "x" else "must be at least 1"
        assert f"--runs: {message}" in captured.err


class TestDeform:
    def test_constant_field_zero_jumps(self, capsys, tmp_path):
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        code, out, _ = run(capsys, "deform", "--census", "sphere_tet",
                           "--field", str(fld), "--eps-frac", "0.5",
                           "--samples", "10")
        assert code == 0
        doc = json.loads(out)
        assert doc["continuity"]["boundary_seam"] == 0.0
        assert doc["continuity"]["gate_jump"] == 0.0

    def test_linear_field_within_tolerance(self, capsys, tmp_path):
        fld = tmp_path / "l.fld"
        fld.write_text(LINEAR_FLD)
        code, out, _ = run(capsys, "deform", "--census", "sphere_tet",
                           "--field", str(fld), "--eps-frac", "0.25",
                           "--samples", "15")
        assert code == 0
        assert json.loads(out)["continuity"]["spine_limit"] <= 1e-6

    def test_linear_field_on_deep_dfs_lines(self, capsys, tmp_path):
        # dfs lines of the 288-facet torus run hundreds of facets deep, so the
        # tail compresses them strongly; a linear field must still pass
        path = tmp_path / "torus12.tri"
        write_tri(coordinate_torus(12), path)
        fld = tmp_path / "l.fld"
        fld.write_text(LINEAR_FLD)
        code, out, _ = run(capsys, "deform", str(path), "--field", str(fld),
                           "--strategy", "dfs", "--seed", "0")
        doc = json.loads(out)["continuity"]
        assert code == 0, doc
        assert doc["gate_jump"] <= 1e-6 and doc["spine_limit"] <= 1e-6

    def test_eps_fraction_one_rejected(self, capsys, tmp_path):
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        code, _, err = run(capsys, "deform", "--census", "sphere_tet",
                           "--field", str(fld), "--eps-frac", "1.0")
        assert code == 2
        assert "admissible" in err

    def test_eps_fraction_nan_rejected(self, capsys, tmp_path):
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        code, out, err = run(capsys, "deform", "--census", "sphere_tet",
                             "--field", str(fld), "--eps-frac", "nan")
        assert code == 2
        assert out == ""
        assert "hole radius must be positive, got nan" in err

    def test_eps_fraction_below_length_rounding_rejected(self, capsys, tmp_path):
        # a radius that rounds away against a line's length leaves no tail:
        # an error (exit 2), not an uncaught division by zero
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        code, out, err = run(capsys, "deform", "--census", "sphere_tet",
                             "--field", str(fld), "--eps-frac", "1e-20")
        assert code == 2
        assert out == ""
        assert "leaving it no tail" in err

    def test_csv_samples_written(self, capsys, tmp_path):
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        out_csv = tmp_path / "samples.csv"
        code, _, _ = run(capsys, "deform", "--census", "sphere_tet",
                         "--field", str(fld), "--samples", "5",
                         "--out", str(out_csv))
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "line,arc,c0,c1"
        assert len(lines) == 1 + 5 * 17

    def test_missing_field_file_flag(self, capsys):
        code, _, err = run(capsys, "deform", "--census", "sphere_tet")
        assert code == 2

    def test_field_needing_coords_rejected(self, capsys, tmp_path):
        fld = tmp_path / "l.fld"
        fld.write_text("type 0 0\nlinear\n0 1 1 1\n")
        code, _, _ = run(capsys, "deform", "--census", "rp2_6",
                         "--field", str(fld))
        assert code == 2

    @pytest.mark.parametrize("fld", [LINEAR_FLD, "type 0 0\nconstant\n1.5\n"],
                             ids=["linear", "scalar-constant"])
    def test_point_has_empty_spine(self, capsys, tmp_path, fld):
        # a single vertex has no ridge, so there is no spine to deform toward
        # and no frame to extend; decompose and verify say the same
        path = tmp_path / "point.tri"
        path.write_text("dim 0\n0\n")
        field = tmp_path / "f.fld"
        field.write_text(fld)
        for argv in (("deform", str(path), "--field", str(field)),
                     ("decompose", str(path)), ("verify", str(path))):
            code, out, err = run(capsys, *argv)
            assert (code, out, err) == (2, "", "error: decomposition has an empty spine\n")

    @pytest.mark.parametrize("samples", ["0", "-3"])
    def test_no_samples_rejected(self, capsys, tmp_path, samples):
        # with no probes every seam would read 0.0 and pass
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        with pytest.raises(SystemExit) as exc:
            cli.main(["deform", "--census", "sphere_tet", "--field", str(fld),
                      "--samples", samples])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--samples: must be at least 1" in captured.err


class TestMalformedInput:
    """Malformed files exit 2 with an 'error:' line naming the bad line."""

    @staticmethod
    def assert_rejected(code, out, err, culprit, number):
        assert code == 2
        assert out == ""
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and culprit in lines[0], err
        assert f"line {number}:" in lines[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,culprit,number", [
        ("dim 2\ncoords x\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "coords x", 2),
        ("dim 2\ncoords 3\n0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 abc 0.0\n"
         "0.0 0.0 1.0\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "0.0 abc 0.0", 5),
        ("dim 2\n0 1 2\n0 0 3\n0 2 3\n1 2 3\n",
         "facet (0, 0, 3) repeats a vertex", 3),
        ("dim 2\n0 1 2\n0 1 3\n# again\n0 2 3\n1 2 3\n2 0 1\n",
         "duplicate facet (0, 1, 2)", 7),
        ("dim 2\ncoords 3\n0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 1.0 0.0\n"
         "0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "3 coordinate rows for 4 vertices", 2),
    ], ids=["coords-dimension", "coordinate", "repeated-vertex", "duplicate-facet",
            "coordinate-rows"])
    def test_tri(self, capsys, tmp_path, text, culprit, number):
        path = tmp_path / "bad.tri"
        path.write_text(text)
        self.assert_rejected(*run(capsys, "decompose", str(path)), culprit, number)

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("command", [
        ("decompose",), ("export-off", "grid"), ("export-off", "retraction"),
        ("deform", "--field"),
    ], ids=["decompose", "grid", "retraction", "deform"])
    def test_non_finite_coordinate(self, capsys, tmp_path, token, command):
        # a circle of three vertices; the field file is valid
        path = tmp_path / "bad.tri"
        path.write_text(f"dim 1\ncoords 2\n0.0 0.0\n{token} 1.0\n1.0 0.0\n"
                        "0 1\n1 2\n0 2\n")
        fld = tmp_path / "ok.fld"
        fld.write_text("type 0 0\nconstant\n1.0\n")
        argv = command + (str(fld),) if command[0] == "deform" else command
        self.assert_rejected(*run(capsys, *argv, str(path)), f"{token} 1.0", 4)

    @pytest.mark.parametrize("text,culprit,number", [
        ("type a 0\nconstant\n1.0 0.0\n", "type a 0", 1),
        # a first token that only starts with "type" is no type line
        ("# a field\ntypes 1 1\nconstant\n1 2 3 4\n", "types 1 1", 2),
        ("type 1 0\nconstant\n1.0 zz\n", "1.0 zz", 3),
        ("type 1 0\nconstant\n1.0 nan\n", "1.0 nan", 3),
        ("type 1 0\nconstant\ninf 0.0\n", "inf 0.0", 3),
        ("type 1 0\nlinear\n0.1 0.2 -0.1 0.05\n0.3 -inf 0.1 0.2\n",
         "0.3 -inf 0.1 0.2", 4),
    ], ids=["tensor-type", "type-keyword", "component", "nan-component", "inf-component",
            "minus-inf-component"])
    def test_fld(self, capsys, tmp_path, text, culprit, number):
        path = tmp_path / "bad.fld"
        path.write_text(text)
        self.assert_rejected(*run(capsys, "deform", "--census", "sphere_tet",
                                  "--field", str(path)), culprit, number)


class TestExportOff:
    def test_spine_colored_edges(self, capsys):
        code, out, _ = run(capsys, "export-off", "spine", "--census", "sphere_tet")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "OFF"
        assert lines[1] == "4 3 0"
        face_rows = lines[6:]
        assert all(row.endswith("255 0 0") for row in face_rows)

    def test_torus7_complex(self, capsys):
        code, out, _ = run(capsys, "export-off", "complex", "--census", "torus7")
        assert code == 0
        assert out.splitlines()[1] == "7 14 0"

    def test_circle3_complex_edges(self, capsys):
        code, out, _ = run(capsys, "export-off", "complex", "--census", "circle3")
        assert code == 0
        assert out.splitlines()[1] == "3 3 0"

    def test_no_coords_exits_two(self, capsys):
        code, _, err = run(capsys, "export-off", "complex", "--census", "rp2_6")
        assert code == 2
        assert "coordinates" in err

    def test_dim4_without_coords_exits_two(self, capsys, tmp_path):
        tops = list(combinations(range(6), 5))
        path = tmp_path / "s4.tri"
        write_tri(SimplicialComplex(4, tops), path)
        code, _, _ = run(capsys, "export-off", "complex", str(path))
        assert code == 2

    def test_dim4_with_coords_exits_two(self, capsys, tmp_path):
        tops = list(combinations(range(6), 5))
        coords = [tuple(float(i == k) for i in range(5)) for k in range(5)] + [(-1.0,) * 5]
        path = tmp_path / "s4.tri"
        write_tri(SimplicialComplex(4, tops, vertex_coords=coords), path)
        code, _, err = run(capsys, "export-off", "complex", str(path))
        assert code == 2
        assert "OFF export supports dimension <= 3, got 4" in err

    @pytest.mark.parametrize("subject, message", [
        ("complex", "OFF is 3-D; coordinates have dimension 4"),
        ("spine", "OFF is 3-D; coordinates have dimension 4"),
        ("retraction", "OFF is 3-D; point has higher dimension"),
        ("grid", "OFF is 3-D; point has higher dimension"),
    ])
    def test_four_dimensional_coords_exit_two(self, capsys, tmp_path, subject, message):
        c = sf.build_census("sphere_tet")
        path = tmp_path / "tet4.tri"
        write_tri(SimplicialComplex(2, c.top_simplices,
                                    vertex_coords=[p + (0.5,) for p in c.vertex_coords]), path)
        code, out, err = run(capsys, "export-off", subject, str(path))
        assert (code, out) == (2, "")
        assert message in err

    @pytest.mark.parametrize("subject", ["retraction", "grid"])
    def test_point_cloud_without_coords_exits_two(self, capsys, subject):
        code, out, err = run(capsys, "export-off", subject, "--census", "rp2_6")
        assert (code, out) == (2, "")
        assert "complex carries no vertex coordinates" in err

    def test_retraction_point_cloud(self, capsys):
        code, out, _ = run(capsys, "export-off", "retraction", "--census",
                           "sphere_tet", "--samples", "4")
        assert code == 0
        lines = out.splitlines()
        assert lines[1] == "20 0 0"    # 4 samples x 5 time steps, no faces

    def test_grid_point_cloud(self, capsys):
        code, out, _ = run(capsys, "export-off", "grid", "--census",
                           "sphere_tet", "--samples", "6")
        assert code == 0
        count = int(out.splitlines()[1].split()[0])
        # interior lattice points of a triangle at level 6, minus the rays
        # that exit exactly through a corner stratum
        assert 0 < count <= 10
        code2, out2, _ = run(capsys, "export-off", "grid", "--census",
                             "sphere_tet", "--samples", "6")
        assert out2 == out

    @pytest.mark.parametrize("subject", ["retraction", "grid"])
    @pytest.mark.parametrize("samples", ["0", "-2"])
    def test_no_samples_rejected(self, capsys, subject, samples):
        with pytest.raises(SystemExit) as exc:
            cli.main(["export-off", subject, "--census", "sphere_tet",
                      "--samples", samples])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--samples: must be at least 1" in captured.err

    @pytest.mark.parametrize("samples", ["1", "2"])
    def test_small_grid_not_empty(self, capsys, samples):
        code, out, _ = run(capsys, "export-off", "grid", "--census",
                           "sphere_tet", "--samples", samples)
        assert code == 0
        assert int(out.splitlines()[1].split()[0]) >= 1

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "spine.off"
        code, _, _ = run(capsys, "export-off", "spine", "--census", "torus7",
                         "--out", str(target))
        assert code == 0
        assert target.read_text().startswith("OFF\n7 8 0")


class TestExitCodes:
    def test_disjoint_and_stable(self):
        assert (cli.EXIT_OK, cli.EXIT_FALSIFIED, cli.EXIT_INVALID, cli.EXIT_IO) \
            == (0, 1, 2, 3)


class TestModuleEntry:
    @pytest.mark.parametrize("argv", [("decompose", "--census", "torus7"),
                                      ("decompose", "missing.tri")],
                             ids=["ok", "io-error"])
    def test_python_dash_m_equals_main(self, capsys, tmp_path, monkeypatch, argv):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(capsys, *argv)
        src = os.path.dirname(os.path.dirname(os.path.abspath(sf.__file__)))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "spineforge", *argv],
                              capture_output=True, env=env)
        assert (proc.returncode, proc.stdout, proc.stderr) == \
            (code, out.encode(), err.encode())


# -- mutation fuzz over the command line ------------------------------------------

FUZZ_TRI = [format_tri(sf.build_census(name)) for name in ("circle3", "sphere_tet", "rp2_6")]
FUZZ_FLD = [CONSTANT_FLD, LINEAR_FLD, "type 1 1\nconstant\n1 0\n0 1\n"]
FUZZ_TOKENS = ["", "0", "1", "2", "-1", "3", "7", "99", "0.5", "-0.0", "1e-320", "1e308",
               "nan", "inf", "-inf", "x", "dim", "coords", "type", "constant", "linear",
               "#", "1 2", "0 1 2 3"]


@st.composite
def mutated(draw, texts):
    """A valid text with a few line and token edits: delete, duplicate, swap,
    replace or insert."""
    lines = draw(st.sampled_from(texts)).splitlines()
    for _ in range(draw(st.integers(1, 4))):
        op = draw(st.sampled_from(["delete", "duplicate", "swap", "replace", "insert"]))
        if not lines:
            lines.append(draw(st.sampled_from(FUZZ_TOKENS)))
            continue
        i = draw(st.integers(0, len(lines) - 1))
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        elif op == "swap":
            j = draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            toks = lines[i].split()
            replace = int(op == "replace" and bool(toks))
            k = draw(st.integers(0, len(toks) - replace))
            toks[k:k + replace] = [draw(st.sampled_from(FUZZ_TOKENS))]
            lines[i] = " ".join(toks)
    return "\n".join(lines) + "\n"


class TestFuzz:
    """Mutated input files never escape ``main`` and always exit with one of
    the four documented codes."""

    @settings(max_examples=60, deadline=None)
    @given(tri=mutated(FUZZ_TRI), fld=mutated(FUZZ_FLD), valid_tri=st.booleans())
    def test_mutated_files_exit_cleanly(self, tri, fld, valid_tri):
        with tempfile.TemporaryDirectory() as tmp:
            tri_path = os.path.join(tmp, "in.tri")
            fld_path = os.path.join(tmp, "in.fld")
            with open(tri_path, "w") as fh:
                # an intact sphere_tet lets deform reach the mutated field file
                fh.write(FUZZ_TRI[1] if valid_tri else tri)
            with open(fld_path, "w") as fh:
                fh.write(fld)
            for argv in (["decompose", tri_path],
                         ["verify", tri_path, "--runs", "1"],
                         ["export-off", "complex", tri_path],
                         ["export-off", "grid", tri_path],
                         ["deform", tri_path, "--field", fld_path, "--samples", "2"]):
                with contextlib.redirect_stdout(io.StringIO()), \
                        contextlib.redirect_stderr(io.StringIO()):
                    code = cli.main(argv)
                assert code in (0, 1, 2, 3), argv
