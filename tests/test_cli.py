import json
from itertools import combinations

import pytest

import spineforge as sf
from spineforge import cli
from spineforge.simplicial import SimplicialComplex, format_tri, write_tri

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
        path = tmp_path / "open.tri"
        path.write_text("dim 2\n0 1 2\n0 1 3\n")
        code, _, err = run(capsys, "decompose", str(path))
        assert code == 2
        assert "cofacets" in err

    def test_both_sources_rejected(self, capsys, tmp_path):
        path = tmp_path / "x.tri"
        path.write_text("dim 1\n0 1\n1 2\n0 2\n")
        code, _, _ = run(capsys, "decompose", "--census", "circle3", str(path))
        assert code == 2

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


    @pytest.mark.parametrize("runs", ["0", "-1"])
    def test_no_runs_rejected(self, capsys, runs):
        # a verification over no seeds checks nothing and must not report ok
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--census", "torus7", "--runs", runs])
        captured = capsys.readouterr()
        assert exc.value.code == 2
        assert captured.out == ""
        assert "--runs: must be at least 1" in captured.err


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

    def test_eps_fraction_one_rejected(self, capsys, tmp_path):
        fld = tmp_path / "c.fld"
        fld.write_text(CONSTANT_FLD)
        code, _, err = run(capsys, "deform", "--census", "sphere_tet",
                           "--field", str(fld), "--eps-frac", "1.0")
        assert code == 2
        assert "admissible" in err

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
    def assert_rejected(code, out, err, culprit):
        assert code == 2
        assert out == ""
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1 and culprit in lines[0], err
        assert "Traceback" not in err

    @pytest.mark.parametrize("text,culprit", [
        ("dim 2\ncoords x\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "coords x"),
        ("dim 2\ncoords 3\n0.0 0.0 0.0\n1.0 0.0 0.0\n0.0 abc 0.0\n"
         "0.0 0.0 1.0\n0 1 2\n0 1 3\n0 2 3\n1 2 3\n", "0.0 abc 0.0"),
    ], ids=["coords-dimension", "coordinate"])
    def test_tri(self, capsys, tmp_path, text, culprit):
        path = tmp_path / "bad.tri"
        path.write_text(text)
        self.assert_rejected(*run(capsys, "decompose", str(path)), culprit)

    @pytest.mark.parametrize("text,culprit", [
        ("type a 0\nconstant\n1.0 0.0\n", "type a 0"),
        ("type 1 0\nconstant\n1.0 zz\n", "1.0 zz"),
    ], ids=["tensor-type", "component"])
    def test_fld(self, capsys, tmp_path, text, culprit):
        path = tmp_path / "bad.fld"
        path.write_text(text)
        self.assert_rejected(*run(capsys, "deform", "--census", "sphere_tet",
                                  "--field", str(path)), culprit)


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
