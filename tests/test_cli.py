"""Command-line interface: flag contract, formats, and exit codes."""

import json

import numpy as np
import pytest

from szegosew import numerics
from szegosew.cli import main
from szegosew.specialfn import TorusModulus, TwistPair, p1_theta

EPS_ARGS = ["--scheme", "eps", "--tau1", "0.3,1.0", "--tau2", "0.1,1.2",
            "--eps", "0.01,0.02", "--alpha1", "0.17", "--beta1", "0.38",
            "--alpha2", "0.07", "--beta2=-0.29"]
SPHERE_ARGS = ["--scheme", "rho-sphere", "--rho", "0.05,0.02",
               "--alpha2", "0.1", "--beta2=-0.22"]
TORUS_ARGS = ["--scheme", "rho-torus", "--tau", "0.2,1.1", "--w=-1.866,2.315",
              "--rho", "0.001,0.0006", "--alpha1", "0.17", "--beta1", "0.38",
              "--alpha2", "0.1", "--beta2=-0.22", "--order", "8"]
POINTS = ["--points", "1:0.4,1.1,1:1.5,2.2"]


def _run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


class TestEval:
    def test_csv_output(self, capsys):
        code, out, _ = _run(capsys, ["eval", *EPS_ARGS, *POINTS])
        lines = out.strip().splitlines()
        assert code == 0
        assert lines[0] == "# szegosew-csv v1"
        assert lines[1].startswith("x_which,x_re,x_im,y_which")
        assert len(lines) == 3
        cells = lines[2].split(",")
        assert len(cells) == 8

    def test_deterministic(self, capsys):
        _, out1, _ = _run(capsys, ["eval", *EPS_ARGS, *POINTS])
        _, out2, _ = _run(capsys, ["eval", *EPS_ARGS, *POINTS])
        assert out1 == out2

    def test_json_output_complex_pairs(self, capsys):
        code, out, _ = _run(capsys, ["eval", *EPS_ARGS, *POINTS,
                                     "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert doc["format"] == "szegosew-json v1"
        row = doc["rows"][0]
        assert isinstance(row["s"], list) and len(row["s"]) == 2

    def test_zero_epsilon_rows_are_genus_one(self, capsys):
        argv = ["eval", *EPS_ARGS, *POINTS, "--format", "json"]
        argv[argv.index("0.01,0.02")] = "0,0"
        code, out, _ = _run(capsys, argv)
        assert code == 0
        s = complex(*json.loads(out)["rows"][0]["s"])
        exact = p1_theta(TwistPair(0.17, 0.38),
                         complex(0.4, 1.1) - complex(1.5, 2.2),
                         TorusModulus(0.3 + 1.0j))
        assert abs(s - exact) < 1e-13 * abs(exact)

    def test_annulus_edge_pair_at_order_32(self, capsys):
        # the pinned two-tori moduli, two points near the annulus edges:
        # within 1e-8 of the N = 64 value
        argv = ["eval", *EPS_ARGS, "--order", "32", "--format", "json",
                "--points", "2:-7.339717554642392,0.6210056003627228,"
                "1:-6.008404365323131,6.438492853792937"]
        argv[argv.index("0.01,0.02")] = \
            "0.17322785430304996,0.09463480811605357"
        code, out, _ = _run(capsys, argv)
        assert code == 0
        s = complex(*json.loads(out)["rows"][0]["s"])
        ref = -0.7578845505357283 - 1.0860652053416686j
        assert abs(s - ref) <= 1e-8 * abs(ref)

    def test_sphere_oracle_column(self, capsys):
        code, out, _ = _run(capsys, ["eval", *SPHERE_ARGS, "--points",
                                     "1:0.2,0.05,1:-0.15,0.18", "--oracle",
                                     "--format", "json"])
        assert code == 0
        row = json.loads(out)["rows"][0]
        assert row["abs_diff"] < 1e-9

    def test_oracle_limited_to_sphere_scheme(self, capsys):
        code, _, err = _run(capsys, ["eval", *EPS_ARGS, *POINTS, "--oracle"])
        assert code == 2 and "oracle" in err

    def test_rho_torus_eval(self, capsys):
        code, out, _ = _run(capsys, ["eval", *TORUS_ARGS, "--points",
                                     "1:0.6,3.5,1:-2.9,1.4"])
        assert code == 0 and len(out.strip().splitlines()) == 3

    def test_malformed_characteristics_exit_2(self, capsys):
        argv = ["eval", "--scheme", "eps", "--tau1", "0.3,1.0",
                "--tau2", "0.1,1.2", "--eps", "0.01,0",
                "--theta1", "0.5,0", "--phi1", "1,0", *POINTS]
        code, _, err = _run(capsys, argv)
        assert code == 2 and "theta1" in err

    def test_missing_moduli_exit_2(self, capsys):
        code, _, err = _run(capsys, ["eval", "--scheme", "eps", *POINTS])
        assert code == 2 and "--tau1" in err

    def test_malformed_points_exit_2(self, capsys):
        code, _, err = _run(capsys, ["eval", *EPS_ARGS,
                                     "--points", "1:0.4,1.1"])
        assert code == 2 and "points" in err

    def test_trivial_characteristics_exit_2(self, capsys):
        # (theta, phi) = (1, 1) is outside the kernel's domain
        argv = ["eval", "--scheme", "eps", "--tau1", "0.3,1.0",
                "--tau2", "0.1,1.2", "--eps", "0.01,0",
                "--alpha1", "0.5", "--beta1", "0.5", *POINTS]
        code, _, err = _run(capsys, argv)
        assert code == 2

    def test_numerical_failure_exit_3(self, monkeypatch, capsys):
        # an unattainable solve tolerance turns the moment solve into a
        # reported numerical failure
        monkeypatch.setattr(numerics, "SOLVE_RESIDUAL_TOL", 1e-30)
        code, _, err = _run(capsys, ["eval", *EPS_ARGS, *POINTS])
        assert code == 3 and "numerical failure" in err

    @pytest.mark.parametrize("bad", ["nan", "inf"])
    @pytest.mark.parametrize("scheme", ["sphere", "torus"])
    def test_non_finite_point_exit_2(self, capsys, scheme, bad):
        # rejected before any arithmetic, so no warning either (warnings
        # are errors here)
        args, pts = {"sphere": (SPHERE_ARGS, f"1:{bad},0.05,1:-0.15,0.18"),
                     "torus": (TORUS_ARGS, f"1:{bad},3.5,1:-2.9,1.4")}[scheme]
        code, out, err = _run(capsys, ["eval", *args, "--points", pts])
        assert code == 2 and "finite" in err and not out

    @pytest.mark.parametrize("args,pts,what", [
        (SPHERE_ARGS, "1:0,0,1:0.2,0.1", "punctures"),
        (["--scheme", "rho-torus", "--tau", "0.2,1.1", "--w=-1.866,2.315",
          "--rho", "1.6113,0"], "1:0.6,3.5,1:-2.9,1.4", "|rho|")],
        ids=["sphere-puncture", "torus-rho-bound"])
    def test_domain_refusal_exit_2(self, capsys, args, pts, what):
        # the sphere's puncture is refused before its log is taken (no
        # warning: warnings are errors here), and rho = 0.9 r^2 by the
        # moduli's one bound (r^2 = 1.790 at these tau and w)
        code, out, err = _run(capsys, ["eval", *args, "--points", pts])
        assert code == 2 and not out and what in err
        assert err.startswith("error: ") and len(err.splitlines()) == 1

    def test_out_file(self, tmp_path, capsys):
        path = tmp_path / "rows.csv"
        code, out, _ = _run(capsys, ["eval", *EPS_ARGS, *POINTS,
                                     "--out", str(path)])
        assert code == 0 and out == ""
        assert path.read_text().startswith("# szegosew-csv v1")

    def test_schema_flag(self, capsys):
        code, out, _ = _run(capsys, ["eval", "--scheme", "eps", "--schema"])
        assert code == 0 and "x_which" in out

    def test_removed_tolerance_and_order_flags_exit_2(self, tmp_path):
        # tolerances are fixed and every verify suite pins its own N and M
        cfgfile = tmp_path / "cfg.json"
        cfgfile.write_text(json.dumps({"pole_guard": 1e-9}))
        for argv in (["eval", *EPS_ARGS, *POINTS, "--config", str(cfgfile)],
                     ["verify", "skew", "--order", "16"]):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 2

    def test_unknown_scheme_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--scheme", "weird", *POINTS])
        assert exc.value.code == 2


@pytest.mark.parametrize("argv", [["eval", *EPS_ARGS, *POINTS],
                                  ["det", *EPS_ARGS], ["verify", "dehn"]],
                         ids=["eval", "det", "verify-dehn"])
def test_unwritable_out_exit_2(tmp_path, capsys, argv):
    # an --out that cannot be opened is an input error (exit 2, one line
    # on stderr), not a traceback with the exit code of a failed check
    path = tmp_path / "missing" / "x.csv"
    code, out, err = _run(capsys, [*argv, "--out", str(path)])
    assert code == 2 and out == ""
    assert err.startswith(f"error: cannot write {path}: ")
    assert len(err.splitlines()) == 1


class TestDet:
    def test_eps_dual_routes_agree(self, capsys):
        code, out, _ = _run(capsys, ["det", *EPS_ARGS, "--order", "16",
                                     "--format", "json"])
        assert code == 0
        vals = json.loads(out)["values"]
        a = complex(*vals["det_I_minus_Q"])
        b = complex(*vals["det_I_minus_F1F2"])
        assert abs(a - b) < 1e-12

    def test_sphere_dual_routes_agree(self, capsys):
        code, out, _ = _run(capsys, ["det", *SPHERE_ARGS, "--order", "16",
                                     "--format", "json"])
        assert code == 0
        vals = json.loads(out)["values"]
        a = complex(*vals["det_I_minus_T_product"])
        b = complex(*vals["det_I_minus_T_matrix"])
        assert abs(a - b) < 1e-12

    def test_torus_det_csv(self, capsys):
        code, out, _ = _run(capsys, ["det", *TORUS_ARGS])
        assert code == 0
        assert out.splitlines()[1] == "quantity,re,im"


class TestScan:
    def test_truncation_axis_reports_rate(self, capsys):
        code, out, _ = _run(capsys, ["scan", *EPS_ARGS, *POINTS, "--axis",
                                     "N", "--values", "4,8,12,16",
                                     "--format", "json"])
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 4
        assert doc["tail_rate"] is not None and doc["tail_rate"] < 0.7

    def test_epsilon_axis_monotone(self, capsys):
        code, out, _ = _run(capsys, ["scan", *EPS_ARGS, *POINTS, "--axis",
                                     "epsilon", "--values", "0.01,0.1,1"])
        assert code == 0
        assert "axis_value" in out

    def test_non_monotone_values_exit_2(self, capsys):
        code, _, err = _run(capsys, ["scan", *EPS_ARGS, *POINTS, "--axis",
                                     "N", "--values", "8,4"])
        assert code == 2 and "increasing" in err

    def test_axis_scheme_mismatch_exit_2(self, capsys):
        code, _, err = _run(capsys, ["scan", *EPS_ARGS, *POINTS, "--axis",
                                     "rho", "--values", "0.5,1"])
        assert code == 2


class TestVerify:
    def test_suite_passes_json(self, capsys):
        code, out, _ = _run(capsys, ["verify", "det-identity"])
        assert code == 0
        doc = json.loads(out)
        assert doc["passed"] is True
        assert all("residual" in c or "slope" in c or "rate" in c
                   for c in doc["checks"])

    def test_unknown_suite_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "nosuch"])
        assert exc.value.code == 2

