"""End-to-end tests of the command-line interface."""
import json

import numpy as np
import pytest

from twogrid.cli import (
    UsageError,
    load_config,
    main,
    parse_coarse,
    parse_problem,
    parse_smoother,
)
from twogrid.model import NeumannLaplacian1D, NeumannLaplacian2D, RandomSpsd, WeightedJacobi


NUMERIC_FIELDS = ("sigma_tg", "factor_identity", "factor_ftg", "factor_oracle",
                  "lower", "upper", "rank_a", "rank_ac")


def run(argv):
    return main(argv)


class TestSpecParsers:
    def test_problem_specs(self):
        assert parse_problem("neumann1d:8") == NeumannLaplacian1D(8)
        assert parse_problem("neumann2d:4x6") == NeumannLaplacian2D(4, 6)
        assert parse_problem("random:10:6:7") == RandomSpsd(10, 6, 7)

    def test_problem_spec_errors(self):
        with pytest.raises(UsageError):
            parse_problem("neumann1d:x")
        with pytest.raises(UsageError):
            parse_problem("torus:9")

    def test_smoother_specs(self):
        assert parse_smoother("jacobi:0.5") == WeightedJacobi(0.5)
        assert parse_smoother("jacobi") == WeightedJacobi()
        parse_smoother("gs")
        with pytest.raises(UsageError):
            parse_smoother("sor:1.5")

    def test_coarse_specs(self):
        assert parse_coarse("exact") == ("exact", None)
        assert parse_coarse("scale:2.0") == ("scale", 2.0)
        assert parse_coarse("eps:0.5") == ("eps", 0.5)
        with pytest.raises(UsageError):
            parse_coarse("approx")


class TestAnalyze:
    def test_report_written_and_identities_agree(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = run(["analyze", "--problem", "neumann1d:8",
                    "--smoother", "jacobi:0.6667",
                    "--prolongation", "aggregate:2",
                    "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert abs(report["factor_identity"] - report["factor_oracle"]) <= 1e-10
        assert abs(report["factor_identity"] - report["factor_ftg"]) <= 1e-10
        assert report["flags"]["equiv_cond_ok"]
        assert report["seed"] == 0

    def test_full_coarse_rank_reports_zero_factor(self, tmp_path):
        # random SPD (full-rank) system with aggregation keeping the rank
        out = tmp_path / "report.json"
        code = run(["analyze", "--problem", "neumann1d:8",
                    "--smoother", "gs", "--prolongation", "aggregate:2",
                    "--coarse", "scale:1.0", "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["alpha1"] == pytest.approx(1.0, abs=1e-10)
        assert abs(report["lower_itg"] - report["factor_identity"]) <= 1e-10

    def test_equiv_failure_exits_two_but_reports(self, tmp_path):
        zero = tmp_path / "zero.mtx"
        from twogrid.mmio import write_matrix
        write_matrix(zero, np.zeros((8, 8)))
        out = tmp_path / "report.json"
        code = run(["analyze", "--problem", "neumann1d:8",
                    "--smoother", f"custom:{zero}",
                    "--prolongation", "aggregate:2", "--output", str(out)])
        assert code == 2
        report = json.loads(out.read_text())
        assert not report["flags"]["equiv_cond_ok"]
        assert report["factor_identity"] >= 1.0 - 1e-10

    def test_full_coarse_rank_from_files(self, tmp_path):
        from twogrid.mmio import write_matrix
        write_matrix(tmp_path / "A.mtx", np.diag([2.0, 1.0, 0.0]))
        write_matrix(tmp_path / "P.mtx",
                     np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]))
        write_matrix(tmp_path / "M.mtx", 0.3 * np.eye(3))
        out = tmp_path / "report.json"
        code = run(["analyze", "--problem", f"file:{tmp_path / 'A.mtx'}",
                    "--smoother", f"custom:{tmp_path / 'M.mtx'}",
                    "--prolongation", str(tmp_path / "P.mtx"),
                    "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["factor_identity"] == 0.0
        assert report["flags"]["degenerate_full_rank_coarse"]

    def test_range_mismatch_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bc.mtx"
        from twogrid.mmio import write_matrix
        write_matrix(bad, np.eye(4))
        code = run(["analyze", "--problem", "neumann1d:8",
                    "--smoother", "gs", "--prolongation", "aggregate:2",
                    "--coarse", f"bc:{bad}",
                    "--output", str(tmp_path / "r.json")])
        assert code == 1
        err = capsys.readouterr().err
        assert "rank" in err

    def test_byte_identical_reports(self, tmp_path):
        argv = ["analyze", "--problem", "random:12:8:3",
                "--smoother", "gs", "--prolongation", "aggregate:2",
                "--coarse", "scale:2.0", "--seed", "5"]
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert run(argv + ["--output", str(out1)]) == 0
        assert run(argv + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_csv_format(self, tmp_path):
        out = tmp_path / "report.csv"
        code = run(["analyze", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--format", "csv",
                    "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("problem,smoother")
        assert len(lines) == 2

    def test_epsilon_bound_field(self, tmp_path):
        out = tmp_path / "report.json"
        code = run(["analyze", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--coarse", "eps:0.5",
                    "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["epsilon"] == 0.5
        assert report["epsilon_bound"] > report["factor_identity"]


class TestSolve:
    def test_trace_files(self, tmp_path):
        base = tmp_path / "run"
        code = run(["solve", "--problem", "neumann1d:16", "--smoother",
                    "jacobi:0.6666666666666666", "--prolongation", "aggregate:2",
                    "--sweeps", "12", "--output", str(base)])
        assert code == 0
        lines = (tmp_path / "run.csv").read_text().splitlines()
        assert lines[0] == "sweep,error_A,residual_2,ratio"
        assert len(lines) == 14
        summary = json.loads((tmp_path / "run.json").read_text())
        assert summary["sweeps"] == 12
        assert summary["observed_factor"] is not None
        assert summary["variant"] == "tg"

    def test_solve_stdout(self, capsys):
        code = run(["solve", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--sweeps", "3"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["sweeps"] == 3

    def test_eps_coarse_records_accuracy(self, tmp_path):
        base = tmp_path / "eps_run"
        code = run(["solve", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--coarse", "eps:0.5",
                    "--sweeps", "5", "--output", str(base)])
        assert code == 0
        summary = json.loads((tmp_path / "eps_run.json").read_text())
        assert summary["variant"] == "itg"
        assert summary["achieved_eps_max"] == pytest.approx(0.5, abs=1e-9)
        assert summary["violations"] == []

    def test_itg_with_exact_coarse(self, capsys):
        code = run(["solve", "--problem", "neumann1d:8", "--variant", "itg",
                    "--sweeps", "4"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["variant"] == "itg"
        assert summary["sweeps"] == 4


class TestVerify:
    def test_all_pass(self, tmp_path):
        out = tmp_path / "verify.txt"
        code = run(["verify", "--output", str(out)])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[-1].startswith("PASS total")
        assert all(line.startswith(("PASS", "FAIL")) for line in lines)

    def test_injected_bias_caught(self, tmp_path):
        out = tmp_path / "verify.txt"
        code = run(["verify", "--perturb-identity", "1e-6",
                    "--output", str(out)])
        assert code == 1
        text = out.read_text()
        assert "FAIL identity_vs_oracle" in text
        # measured slack is about the injected bias
        for line in text.splitlines():
            if line.startswith("FAIL identity_vs_oracle"):
                measured = float(line.split("measured=")[1].split()[0])
                assert measured == pytest.approx(1e-6, rel=1e-3)
                break


class TestGenerateRoundTrip:
    def test_generate_then_analyze_matches_in_memory(self, tmp_path, capsys):
        gen = tmp_path / "gen"
        code = run(["generate", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--seed", "4",
                    "--output-dir", str(gen)])
        assert code == 0
        capsys.readouterr()

        direct = tmp_path / "direct.json"
        assert run(["analyze", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--seed", "4",
                    "--output", str(direct)]) == 0
        from_file = tmp_path / "from_file.json"
        assert run(["analyze", "--problem", f"file:{gen / 'A.mtx'}",
                    "--smoother", "gs", "--prolongation", str(gen / "P.mtx"),
                    "--seed", "4", "--output", str(from_file)]) == 0

        a = json.loads(direct.read_text())
        b = json.loads(from_file.read_text())
        for field in NUMERIC_FIELDS:
            assert abs(a[field] - b[field]) <= 1e-14

    def test_config_file_round_trip(self, tmp_path):
        gen = tmp_path / "gen"
        assert run(["generate", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--output-dir",
                    str(gen)]) == 0
        cfg = load_config(gen / "problem.cfg")
        assert cfg["smoother"] == "gs"
        out = tmp_path / "cfg_report.json"
        assert run(["analyze", "--config", str(gen / "problem.cfg"),
                    "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["n"] == 8

    def test_missing_problem_errors(self, capsys):
        assert run(["analyze"]) == 1
        assert "problem" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["solve", "--problem", "neumann1d:8", "--sweeps", "0"],
    ["analyze", "--problem", "neumann1d:8", "--epsilon", "1.5"],
    ["solve", "--problem", "neumann1d:8", "--coarse", "eps:1.5"],
    ["analyze", "--problem", "random:8:9"],
    ["analyze", "--problem", "neumann1d:1"],
    ["analyze", "--problem", "neumann1d:8", "--format", "xml"],
    ["solve", "--problem", "neumann1d:8", "--sweeps", "abc"],
], ids=["sweeps0", "epsilon1.5", "coarse-eps1.5", "rank-above-n", "n1",
        "format-xml", "sweeps-abc"])
def test_invalid_value_is_an_error_line(argv, capsys):
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1


def test_help_exits_zero():
    with pytest.raises(SystemExit, match="^0$"):
        run(["analyze", "--help"])


def test_coarse_eps_error_names_eps(capsys):
    assert run(["solve", "--problem", "neumann1d:8", "--coarse", "eps:1.5"]) == 1
    err = capsys.readouterr().err
    assert "eps must lie in [0, 1), got 1.5" in err
    assert "declared_eps" not in err


class TestEnvOverrides:
    def test_match_tol_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MATCH_TOL", "1e-6")
        out = tmp_path / "report.json"
        assert run(["analyze", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["tolerances"]["match_tol"] == 1e-6

    def test_rank_rel_tol_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RANK_REL_TOL", "1e-4")
        out = tmp_path / "report.json"
        assert run(["analyze", "--problem", "neumann1d:8", "--smoother", "gs",
                    "--prolongation", "aggregate:2", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        assert report["tolerances"]["rank_rel_tol"] == 1e-4
