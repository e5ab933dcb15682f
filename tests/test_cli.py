import json
import math
import re

import pytest

from quasispec.cli import COMMANDS, main
from quasispec.subordinacy import JL_LOWER, JL_UPPER


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


class TestHolderCommand:
    def test_spec_example_invocation(self, tmp_path):
        out = tmp_path / "h.csv"
        rc = main(["holder", "--potential", "amo", "--lambda", "0.5",
                   "--alpha", "golden", "--theta", "0", "--e", "0.0",
                   "--eps-min", "1e-4", "--eps-max", "1e-1", "--points", "16",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["E", "eps", "w", "im_M"]
        assert len(rows) == 16
        manifest = json.loads((tmp_path / "h.csv.manifest.json").read_text())
        assert manifest["status"] == "ok"
        assert manifest["params"]["points"] == 16
        assert "fitted_slope" in manifest["params"]
        assert manifest["precision_mode"] in ("extended", "double")


class TestSubordinacyCommand:
    def test_bracket_rows(self, tmp_path):
        out = tmp_path / "s.csv"
        rc = main(["subordinacy", "--potential", "amo", "--lambda", "0.5",
                   "--alpha", "golden", "--e", "0.0", "--k-max", "300",
                   "--out", str(out)])
        assert rc == 0
        header, rows = read_csv(out)
        assert header == ["k", "norm_P", "det_P", "eps_k", "psi_mplus",
                          "ratio_jl", "ratio_blabl"]
        for row in rows:
            rj = float(row[5])
            assert JL_LOWER * 0.95 < rj < JL_UPPER * 1.05


class TestTxOracleCommand:
    def test_oracle_agreement(self, tmp_path):
        out = tmp_path / "tx.csv"
        rc = main(["tx-oracle", "--k", "200", "--r", "3", "--t-hat", "0.7",
                   "--theta", "0.11", "--alpha", "golden", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert float(rows[0][-1]) < 1e-9


class TestOtherCommands:
    def test_lyapunov_free(self, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["lyapunov", "--potential", "zero", "--e", "2.5",
                   "--n", "2000", "--x-grid", "4", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert abs(float(rows[0][1]) - math.log(2)) < 0.01

    def test_ids_json_format(self, tmp_path):
        out = tmp_path / "ids.json"
        rc = main(["ids", "--potential", "zero", "--e-min", "-3", "--e-max", "3",
                   "--e-points", "5", "--size", "1000", "--format", "json",
                   "--out", str(out)])
        assert rc == 0
        data = json.loads(out.read_text())
        assert len(data) == 5
        assert data[0]["N"] == 0.0 and data[-1]["N"] == 1.0

    def test_resonances(self, tmp_path):
        out = tmp_path / "r.csv"
        rc = main(["resonances", "--alpha", "golden", "--theta", "0",
                   "--eps0", "1.0", "--k-max", "100", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert rows[0][1] == "0"

    def test_reduce(self, tmp_path):
        out = tmp_path / "red.csv"
        rc = main(["reduce", "--potential", "trigpoly",
                   "--coeffs", "0:3:0,1:-0.5:0,-1:-0.5:0", "--band", "0.05",
                   "--w-norm", "1e-3", "--seed", "5", "--out", str(out)])
        assert rc == 0
        manifest = json.loads((tmp_path / "red.csv.manifest.json").read_text())
        assert manifest["params"]["residual"] < 1e-9

    def test_gaps(self, tmp_path):
        out = tmp_path / "g.csv"
        rc = main(["gaps", "--potential", "amo", "--lambda", "0.5",
                   "--e-min", "-3.2", "--e-max", "3.2", "--e-points", "3201",
                   "--size", "2000", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert len(rows) >= 2

    def test_mfunction_ladder(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["mfunction", "--potential", "amo", "--lambda", "0.5",
                   "--e", "0.0", "--eps-min", "1e-3", "--eps-max", "1e-1",
                   "--points", "5", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert all(float(r[2]) > 0 and float(r[4]) > 0 for r in rows)

    @pytest.mark.parametrize("cmd, extra", [
        ("lyapunov", []),
        ("thouless", ["--size", "200", "--table-points", "101"]),
    ])
    def test_theta_starts_the_orbit_grid(self, tmp_path, cmd, extra):
        # AMO at lambda = 2: the finite-n average over a few orbit phases
        # depends on where the orbit starts
        values = []
        for theta in ("0", "0.37"):
            out = tmp_path / f"{theta}.csv"
            assert main([cmd, "--potential", "amo", "--lambda", "2", "--theta", theta,
                         "--e", "0.3", "--n", "500", "--x-grid", "2", *extra,
                         "--out", str(out)]) == 0
            header, rows = read_csv(out)
            values.append(rows[0][header.index("lyapunov")])
        assert values[0] != values[1]

    def test_gnuplot_stub(self, tmp_path):
        out = tmp_path / "l.csv"
        rc = main(["lyapunov", "--potential", "zero", "--e", "2.0", "--n", "200",
                   "--x-grid", "2", "--out", str(out), "--gnuplot-stub"])
        assert rc == 0
        stub = (tmp_path / "l.csv.gp").read_text()
        assert "plot" in stub and "l.csv" in stub


# one tiny run of every subcommand
TINY = {
    "resonances": ["--k-max", "10"],
    "lyapunov": ["--e", "0.3", "--n", "50", "--x-grid", "2"],
    "mfunction": ["--e", "0.3", "--eps-min", "1e-2", "--points", "2"],
    "subordinacy": ["--e", "0.3", "--k-max", "5"],
    "holder": ["--e", "0.3", "--eps-min", "1e-2", "--points", "4"],
    "ids": ["--e", "0.3", "--size", "100"],
    "thouless": ["--e", "0.3", "--n", "50", "--x-grid", "2", "--size", "100",
                 "--table-points", "11"],
    "gaps": ["--e-min", "-3", "--e-max", "3", "--e-points", "11", "--size", "100"],
    "tx-oracle": ["--k", "5"],
    "reduce": ["--potential", "trigpoly", "--coeffs", "0:3:0,1:-0.5:0,-1:-0.5:0",
               "--seed", "5"],
}


class TestColumns:
    @pytest.mark.parametrize("cmd", sorted(COMMANDS))
    def test_help_lists_the_written_columns(self, tmp_path, capsys, monkeypatch, cmd):
        monkeypatch.setenv("COLUMNS", "200")  # no line break inside the column list
        with pytest.raises(SystemExit):
            main([cmd, "--help"])
        listed = re.search(r"columns: ([\w,]+)", capsys.readouterr().out).group(1)
        out = tmp_path / "t.csv"
        assert main([cmd, *TINY[cmd], "--out", str(out)]) == 0
        assert read_csv(out)[0] == listed.split(",")


class TestExitCodes:
    def test_validation_error_is_2(self, tmp_path):
        rc = main(["holder", "--alpha", "0.5", "--e", "0.0",
                   "--out", str(tmp_path / "x.csv")])
        assert rc == 2

    def test_deep_eps_needs_override(self, tmp_path):
        rc = main(["mfunction", "--potential", "amo", "--lambda", "0.5",
                   "--e", "0.0", "--eps-min", "1e-8", "--eps-max", "1e-7",
                   "--points", "3", "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    def test_numerical_failure_is_3(self, tmp_path):
        out = tmp_path / "m.csv"
        rc = main(["mfunction", "--potential", "amo", "--lambda", "0.5",
                   "--e", "0.0", "--eps-min", "1e-8", "--eps-max", "1e-7",
                   "--points", "3", "--depth-cap", "1000", "--allow-deep",
                   "--out", str(out)])
        assert rc == 3
        manifest = json.loads((tmp_path / "m.csv.manifest.json").read_text())
        assert manifest["status"] == "error"
        assert manifest["error"]["code"] == "NoConvergence"

    @pytest.mark.parametrize("argv, header", [
        (["mfunction", "--e", "0.1", "--eps-min", "1e-4", "--depth-cap", "200"],
         "eps,re_m_plus,im_m_plus,re_M,im_M,est_error,depth"),
        (["subordinacy", "--lambda", "2", "--e", "0.1", "--k-max", "1000"],
         "k,norm_P,det_P,eps_k,psi_mplus,ratio_jl,ratio_blabl"),
        # a cap below 64 was ignored: both rows settled at depth 64, exit 0
        *[(["mfunction", "--e", "0.1", "--eps-min", "0.3", "--eps-max", "0.9", "--points", "2",
            "--depth-cap", cap], "eps,re_m_plus,im_m_plus,re_M,im_M,est_error,depth")
          for cap in ("10", "40")],
    ], ids=["mfunction", "subordinacy", "mfunction-depth-cap-10", "mfunction-depth-cap-40"])
    def test_numerical_failure_leaves_the_completed_rows(self, tmp_path, argv, header):
        # the rows of both come from one walk, so none is complete: the
        # data file is the header alone
        out = tmp_path / "x.csv"
        assert main(argv + ["--out", str(out)]) == 3
        assert out.read_text() == header + "\n"
        manifest = json.loads((tmp_path / "x.csv.manifest.json").read_text())
        assert manifest["status"] == "error" and "code" in manifest["error"]

    def test_gnuplot_stub_with_json_is_2(self, tmp_path, capsys):
        rc = main(["lyapunov", "--potential", "zero", "--e", "2.0", "--n", "200",
                   "--x-grid", "2", "--format", "json", "--gnuplot-stub",
                   "--out", str(tmp_path / "l.json")])
        assert rc == 2
        assert "--gnuplot-stub" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv", [
        ["ids", "--e", "0.0", "--tol", "1e-8"],
        ["gaps", "--depth-cap", "100"],
        ["mfunction", "--e", "0.0", "--e-min", "-1"],
        ["subordinacy", "--e", "0.0", "--slack", "0.1"],
        ["reduce", "--theta", "0.1"],
        ["thouless", "--e", "0.0", "--gnuplot-stub"],
    ], ids=["ids-tol", "gaps-depth-cap", "mfunction-e-min", "subordinacy-slack",
            "reduce-theta", "thouless-gnuplot-stub"])
    def test_flag_the_command_does_not_read_is_2(self, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2

    def test_rounded_away_m_function_is_3(self, tmp_path, capsys):
        # eps_k of k = 30 at E = 2.9 is about 1.7e-18: the computed m+ loses
        # its imaginary part to rounding, a numerical failure, not bad input
        rc = main(["subordinacy", "--potential", "amo", "--lambda", "0.5", "--e", "2.9",
                   "--k-max", "30", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        assert "lost its imaginary part" in capsys.readouterr().err

    def test_hyperbolic_ladder_with_floor_is_0(self, tmp_path):
        # the ladder stops at its first row below the floor, at k = 14,
        # long before its P entries pass the float range at k = 322
        out = tmp_path / "s.csv"
        rc = main(["subordinacy", "--potential", "amo", "--lambda", "2", "--e", "0.1",
                   "--k-max", "1000", "--eps-floor", "1e-8", "--out", str(out)])
        assert rc == 0
        _, rows = read_csv(out)
        assert [int(row[0]) for row in rows] == [1, 2, 3, 4, 5, 7, 9, 11]
        assert all(float(row[3]) >= 1e-8 for row in rows)

    def test_hyperbolic_ladder_is_3_naming_k(self, tmp_path, capsys):
        rc = main(["subordinacy", "--potential", "amo", "--lambda", "2", "--e", "0.1",
                   "--k-max", "1000", "--out", str(tmp_path / "s.csv")])
        assert rc == 3
        err = capsys.readouterr().err
        assert "at k = 322;" in err and "Traceback" not in err

    def test_non_finite_energy_is_2(self, tmp_path):
        rc = main(["mfunction", "--potential", "amo", "--lambda", "0.5",
                   "--e", "nan", "--depth-cap", "5000", "--out", str(tmp_path / "m.csv")])
        assert rc == 2

    @pytest.mark.parametrize("argv", [
        ["ids", "--e-min", "nan", "--e-max", "1", "--size", "200"],
        ["gaps", "--e-min", "-3", "--e-max", "inf", "--size", "200"],
        ["lyapunov", "--e", "nan", "--n", "100"],
        ["thouless", "--e=-inf", "--n", "100", "--size", "200"],
    ], ids=["ids", "gaps", "lyapunov", "thouless"])
    def test_non_finite_grid_energy_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "g.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["resonances", "--eps0", "nan"],
        ["lyapunov", "--e", "0.5", "--lambda", "nan", "--n", "100"],
        ["mfunction", "--e", "0.0", "--eps-min", "nan"],
        ["subordinacy", "--e", "0.0", "--k-max", "10", "--tol", "nan"],
        ["holder", "--e", "0.0", "--eps-max", "nan"],
        ["ids", "--e", "0.0", "--size", "200", "--theta", "nan"],
        ["thouless", "--e", "0.0", "--n", "100", "--size", "200", "--table-span", "nan"],
        ["gaps", "--e-min", "-3", "--e-max", "3", "--size", "200", "--plateau-tol", "nan"],
        ["tx-oracle", "--k", "5", "--t-hat", "nan"],
        ["tx-oracle", "--k", "5", "--t-hat", "0.7:nan"],
        ["reduce", "--potential", "trigpoly", "--coeffs", "0:3:0,1:-0.5:0,-1:-0.5:0",
         "--band", "nan"],
        ["reduce", "--potential", "trigpoly", "--coeffs", "0:3:0,1:nan:0,-1:nan:0"],
        ["subordinacy", "--e", "0.0", "--k-max", "10", "--depth-cap", "0"],
    ], ids=["resonances", "lyapunov", "mfunction", "subordinacy", "holder", "ids", "thouless",
            "gaps", "tx-oracle", "tx-oracle-imag", "reduce", "reduce-coeffs", "depth-cap-0"])
    def test_bad_number_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "b.csv"
        assert main(argv + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "invalid configuration" in err and "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["ids", "--e-min", "-1", "--e-max", "1", "--e-points", "5", "--size", "200"],
        ["lyapunov", "--e-min", "-1", "--n", "100"],
        ["thouless", "--e-max", "1", "--n", "100", "--size", "200"],
        ["gaps", "--e-min", "-1", "--e-max", "1", "--size", "200"],
    ], ids=["ids", "lyapunov", "thouless", "gaps"])
    def test_energy_with_a_grid_flag_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "e.csv"
        assert main(argv + ["--e", "0.3", "--out", str(out)]) == 2
        assert "--e excludes --e-min/--e-max" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flags", [["--method", "phase-average"], ["--phases", "8"]],
                             ids=["method", "phases"])
    def test_removed_ids_flag_is_2(self, tmp_path, capsys, flags):
        # the finite box is the one IDS method, so --method and --phases are
        # unknown flags, refused before anything is written
        with pytest.raises(SystemExit) as exc:
            main(["ids", "--e", "0.0", "--size", "200", *flags,
                  "--out", str(tmp_path / "i.csv")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert flags[0] in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("points", ["0", "-3"])
    def test_mfunction_points_below_one_is_2(self, tmp_path, capsys, points):
        out = tmp_path / "m.csv"
        rc = main(["mfunction", "--potential", "amo", "--lambda", "0.5", "--e", "0.0",
                   "--points", points, "--out", str(out)])
        assert rc == 2
        assert "--points must be >= 1" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "m.csv.manifest.json").exists()

    def test_empty_grid_is_2(self, tmp_path, capsys):
        rc = main(["ids", "--e-min", "-1", "--e-max", "1", "--e-points", "0",
                   "--size", "200", "--out", str(tmp_path / "i.csv")])
        assert rc == 2
        assert "--e-points must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["gaps", "--e-min", "3.2", "--e-max", "-3.2", "--e-points", "641", "--size", "400"],
        ["ids", "--e-min", "1", "--e-max", "1", "--e-points", "5", "--size", "200"],
        ["lyapunov", "--e-min", "2", "--e-max", "-2", "--e-points", "5", "--n", "100"],
        ["thouless", "--e-min", "1", "--e-max", "-1", "--e-points", "3", "--n", "100",
         "--size", "200"],
    ], ids=["gaps-reversed", "ids-equal", "lyapunov-reversed", "thouless-reversed"])
    def test_grid_not_increasing_is_2(self, tmp_path, capsys, argv):
        out = tmp_path / "g.csv"
        assert main(argv + ["--out", str(out)]) == 2
        assert "needs --e-min < --e-max" in capsys.readouterr().err
        assert not out.exists()

    def test_single_point_grid_ignores_order(self, tmp_path):
        # one point is --e-min, whatever --e-max is
        out = tmp_path / "i.csv"
        assert main(["ids", "--e-min", "1", "--e-max", "-1", "--e-points", "1",
                     "--size", "200", "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1].startswith("1.0,")

    def test_gaps_single_point_is_2(self, tmp_path, capsys):
        rc = main(["gaps", "--e-min", "-3", "--e-max", "3", "--e-points", "1",
                   "--size", "200", "--out", str(tmp_path / "g.csv")])
        assert rc == 2
        assert "--e-points >= 2" in capsys.readouterr().err

    def test_thouless_single_table_point_is_2(self, tmp_path, capsys):
        rc = main(["thouless", "--e", "0.0", "--n", "100", "--size", "200",
                   "--table-points", "1", "--out", str(tmp_path / "t.csv")])
        assert rc == 2
        assert "--table-points must be >= 2" in capsys.readouterr().err

    def test_holder_honours_depth_cap(self, tmp_path):
        rc = main(["holder", "--potential", "amo", "--lambda", "0.5", "--e", "0.0",
                   "--eps-min", "1e-4", "--depth-cap", "5000",
                   "--out", str(tmp_path / "h.csv")])
        assert rc == 3

    def test_zero_k_max_is_2(self, tmp_path):
        rc = main(["subordinacy", "--e", "0.0", "--k-max", "0",
                   "--out", str(tmp_path / "s.csv")])
        assert rc == 2

    def test_zero_tx_k_is_2(self, tmp_path):
        rc = main(["tx-oracle", "--k", "0", "--out", str(tmp_path / "tx.csv")])
        assert rc == 2


class TestDeterminism:
    def test_byte_identical_repeat(self, tmp_path):
        args = ["subordinacy", "--potential", "amo", "--lambda", "0.5",
                "--e", "0.0", "--k-max", "100"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
