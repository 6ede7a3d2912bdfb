"""End-to-end tests of the command-line interface."""
import json
import tracemalloc
import warnings

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
from twogrid.mmio import read_matrix, write_matrix
from twogrid.model import (
    FromFile,
    GaussSeidel,
    NeumannLaplacian1D,
    NeumannLaplacian2D,
    RandomSpsd,
    WeightedJacobi,
    aggregation_prolongation,
    build_hierarchy,
    generate_problem,
    neumann_laplacian_1d,
    neumann_laplacian_2d,
)


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

    def test_coarse_specs(self, tmp_path):
        h = build_hierarchy(neumann_laplacian_1d(8), aggregation_prolongation(8, 2),
                            GaussSeidel())
        assert parse_coarse("exact", h) == (None, None)
        bc, eps = parse_coarse("scale:2", h)
        assert eps is None
        assert bc.matrix.tobytes() == (2.0 * h.Ac.matrix).tobytes()
        assert bc.rank == h.s and bc.policy is h.policy
        path = tmp_path / "bc.mtx"
        write_matrix(path, 3.0 * h.Ac.matrix)
        bc, eps = parse_coarse(f"bc:{path}", h)
        assert eps is None
        assert bc.matrix.tobytes() == (3.0 * h.Ac.matrix).tobytes()
        assert parse_coarse("eps:0.5", h) == (None, 0.5)
        with pytest.raises(UsageError, match="unknown coarse spec 'approx'"):
            parse_coarse("approx", h)


@pytest.mark.parametrize("option,spec,message", [
    ("--smoother", "gs:0.5", "unknown smoother 'gs:0.5'"),
    ("--smoother", "gauss-seidel:x", "unknown smoother 'gauss-seidel:x'"),
    ("--coarse", "exact:2", "unknown coarse spec 'exact:2'"),
])
@pytest.mark.parametrize("command", ["analyze", "solve"])
def test_a_spec_with_a_stray_argument_is_unknown(command, option, spec, message,
                                                 capsys):
    # a kind that takes no argument is matched on the whole text
    assert run([command, "--problem", "neumann1d:8", option, spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1
    assert message in captured.err


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

    def test_custom_smoother_read_into_csr_is_held_dense(self, tmp_path):
        # a 128 x 128 coordinate file is read into CSR; as a custom smoother
        # it is densified, and Jacobi 2/3 written out this way gives the
        # numbers of the built-in Jacobi smoother, held as its diagonal
        n = 128
        m = np.diag((2.0 / 3.0) / neumann_laplacian_1d(n).diagonal())
        write_matrix(tmp_path / "M.mtx", m, layout="coordinate")
        smoother = parse_smoother(f"custom:{tmp_path / 'M.mtx'}")
        assert not isinstance(smoother.matrix, np.ndarray)
        reports = []
        for spec in (f"custom:{tmp_path / 'M.mtx'}", "jacobi:0.6666666666666666"):
            out = tmp_path / "r.json"
            assert run(["analyze", "--problem", f"neumann1d:{n}", "--smoother", spec,
                        "--coarse", "scale:2", "--output", str(out)]) == 0
            reports.append(json.loads(out.read_text()))
        h = build_hierarchy(neumann_laplacian_1d(n), aggregation_prolongation(n, 2),
                            smoother)
        assert type(h.M) is np.ndarray and np.array_equal(h.M, m)
        for field in (*NUMERIC_FIELDS, "factor_itg", "factor_itg_oracle", "delta_tg"):
            assert reports[0][field] == reports[1][field], field

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

    def test_sparse_a_is_written_entry_by_entry(self, tmp_path, capsys):
        # neumann2d:32x32 is held in CSR: A.mtx lists its lower-triangle
        # entries by columns (1024 diagonal, 1984 edges), not n(n+1)/2 values,
        # and reads back as the same CSR matrix, with no n x n array: the
        # traced peak of the read stays under 2 MB (an 8 MB array before)
        gen = tmp_path / "gen"
        assert run(["generate", "--problem", "neumann2d:32x32", "--smoother", "gs",
                    "--prolongation", "aggregate:4", "--output-dir", str(gen)]) == 0
        capsys.readouterr()
        lines = (gen / "A.mtx").read_text().splitlines()
        assert lines[:3] == ["%%MatrixMarket matrix coordinate real symmetric",
                             "1024 1024 3008", "1 1 2"]
        assert len(lines) == 3010
        a = neumann_laplacian_2d(32, 32)
        tracemalloc.start()
        try:
            back = read_matrix(gen / "A.mtx")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2 ** 20, peak
        for name in ("data", "indices", "indptr"):
            mine, theirs = getattr(back, name), getattr(a, name)
            assert mine.dtype == theirs.dtype and mine.tobytes() == theirs.tobytes()
        op, _, _, _ = generate_problem(FromFile(str(gen / "A.mtx")), group=4)
        for name in ("data", "indices", "indptr"):
            assert getattr(op.matrix, name).tobytes() == getattr(a, name).tobytes()

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


def write_config(tmp_path, *lines):
    path = tmp_path / "run.cfg"
    path.write_text("problem = neumann1d:8\n" + "".join(f"{line}\n" for line in lines),
                    encoding="ascii")
    return str(path)


class TestConfigValues:
    def test_format_csv_writes_csv(self, tmp_path):
        out = tmp_path / "report.csv"
        assert run(["analyze", "--config", write_config(tmp_path, "format = csv"),
                    "--output", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0].startswith("problem,smoother,")
        assert lines[1].split(",")[0] == "neumann1d:8"

    def test_format_flag_wins_over_file(self, tmp_path):
        out = tmp_path / "report.json"
        assert run(["analyze", "--config", write_config(tmp_path, "format = csv"),
                    "--format", "json", "--output", str(out)]) == 0
        assert json.loads(out.read_text())["n"] == 8

    def test_variant_stg_runs_stg(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "variant = stg", "sweeps = 3")
        assert run(["solve", "--config", cfg]) == 0
        assert json.loads(capsys.readouterr().out)["variant"] == "stg"

    @pytest.mark.parametrize("flags, lines", [
        ([], ["coarse = eps:0.3", "epsilon = 0.5"]),
        (["--epsilon", "0.5"], ["coarse = eps:0.3"]),
        (["--coarse", "eps:0.3"], ["epsilon = 0.5"]),
    ], ids=["both-keys", "key-and-flag", "flag-and-key"])
    def test_two_epsilons_are_an_error_line(self, tmp_path, capsys, flags, lines):
        cfg = write_config(tmp_path, *lines)
        assert run(["analyze", "--config", cfg, *flags]) == 1
        assert ("coarse spec 'eps:0.3' and epsilon 0.5 both give the coarse "
                "accuracy" in _one_error_line(capsys))

    @pytest.mark.parametrize("command, line", [
        ("analyze", "format = xml"),
        ("solve", "variant = bogus"),
        ("analyze", "func = x"),
        ("analyze", "command = verify"),
        ("solve", "format = csv"),
        ("analyze", "seed = 1.5"),
        ("solve", "sweeps = x"),
        ("analyze", "epsilon = abc"),
    ], ids=["format-xml", "variant-bogus", "func", "command", "format-in-solve",
            "seed-float", "sweeps-x", "epsilon-abc"])
    def test_invalid_key_or_value_is_an_error_line(self, tmp_path, capsys,
                                                   command, line):
        assert run([command, "--config", write_config(tmp_path, line)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        assert len(captured.err.splitlines()) == 1
        assert f"'{line.partition('=')[0].strip()}'" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["solve", "--problem", "neumann1d:8", "--sweeps", "0"],
     "sweeps must be >= 1, got 0"),
    (["analyze", "--problem", "neumann1d:8", "--epsilon", "1.5"],
     "eps must lie in [0, 1), got 1.5"),
    (["solve", "--problem", "neumann1d:8", "--coarse", "eps:1.5"],
     "eps must lie in [0, 1), got 1.5"),
    (["analyze", "--problem", "random:8:9"], "rank must lie in [1, 8], got 9"),
    (["analyze", "--problem", "neumann1d:1"], "need n >= 2, got 1"),
    (["analyze", "--problem", "neumann1d:8", "--format", "xml"],
     "argument --format: invalid choice: 'xml'"),
    (["solve", "--problem", "neumann1d:8", "--sweeps", "abc"],
     "argument --sweeps: invalid int value: 'abc'"),
    (["analyze", "--problem", "neumann1d:8", "--smoother", "jacobi:1.5"],
     "Jacobi weight 1.5 exceeds the stability limit 1"),
    (["analyze", "--problem", "neumann1d:8", "--smoother", "jacobi:nan"],
     "Jacobi weight must be positive and finite, got nan"),
    (["analyze", "--problem", "neumann1d:8", "--smoother", "jacobi:inf"],
     "Jacobi weight must be positive and finite, got inf"),
    (["solve", "--problem", "neumann1d:8", "--smoother", "jacobi:1e400"],
     "Jacobi weight must be positive and finite, got inf"),
    (["analyze", "--problem", "neumann1d:8", "--coarse", "scale:nan"],
     "bad coarse scale 'nan'"),
    (["solve", "--problem", "neumann1d:8", "--coarse", "scale:inf"],
     "bad coarse scale 'inf'"),
    (["analyze", "--problem", "neumann1d:8", "--coarse", "scale:1e400"],
     "bad coarse scale '1e400'"),
    # finite, but the scaled Ac overflows
    (["analyze", "--problem", "neumann1d:8", "--coarse", "scale:1e308"],
     "coarse matrix 'scale:1e308' is invalid: matrix contains NaN or Inf entries"),
    (["solve", "--problem", "neumann2d:16x16", "--coarse", "scale:1e308"],
     "coarse matrix 'scale:1e308' is invalid: matrix contains NaN or Inf entries"),
    # a subnormal Bc: certified, its pseudoinverse would overflow
    *([[command, "--problem", problem, "--coarse", "scale:1e-320"],
       "coarse matrix 'scale:1e-320' is invalid: matrix is too small to invert"]
      for problem in ("neumann1d:8", "neumann2d:24x24")
      for command in ("analyze", "solve")),
    # a subnormal Bc that passes the structural certificate's relative
    # checks: the reciprocal of its lambda_2 lower bound is inf
    (["solve", "--problem", "neumann2d:32x32", "--smoother", "gs",
      "--coarse", "scale:1e-310"],
     "coarse matrix 'scale:1e-310' is invalid: matrix is too small to invert"),
    (["analyze", "--problem", "neumann2d:24x24", "--coarse", "scale:1e-310"],
     "coarse matrix 'scale:1e-310' is invalid: matrix is too small to invert"),
    (["analyze", "--problem", "neumann1d:8", "--coarse", "eps:0.3", "--epsilon", "0.5"],
     "coarse spec 'eps:0.3' and epsilon 0.5 both give the coarse accuracy"),
], ids=["sweeps0", "epsilon1.5", "coarse-eps1.5", "rank-above-n", "n1",
        "format-xml", "sweeps-abc", "jacobi1.5", "jacobi-nan", "jacobi-inf",
        "jacobi-1e400", "scale-nan", "scale-inf", "scale-1e400", "scale-1e308",
        "scale-1e308-csr", "scale-1e-320-analyze", "scale-1e-320-solve",
        "scale-1e-320-analyze-2d", "scale-1e-320-solve-2d",
        "scale-1e-310-solve-2d-structural", "scale-1e-310-analyze-2d-structural",
        "two-epsilons"])
def test_invalid_value_is_an_error_line(argv, message, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run(argv) == 1
    assert caught == []
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "Traceback" not in err
    assert len(err.splitlines()) == 1
    assert message in err


@pytest.mark.parametrize("argv, config, message", [
    (["analyze", "--problem", "neumann1d:8", "--seed", "-1"], None,
     "argument --seed: invalid seed value: '-1'"),
    (["solve"], "seed = -1", "config key 'seed': invalid seed value '-1'"),
    (["analyze", "--problem", "random:5:2:-1"], None,
     "bad problem spec 'random:5:2:-1': seed must be non-negative, got -1"),
], ids=["flag", "config", "problem-spec"])
def test_negative_seed_is_named(argv, config, message, tmp_path, capsys):
    if config:
        argv = [*argv, "--config", write_config(tmp_path, config)]
    assert run(argv) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("command", ["analyze", "solve", "generate"])
@pytest.mark.parametrize("spec, message", [
    ("random:8:9", "rank must lie in [1, 8], got 9"),
    ("neumann1d:1", "need n >= 2, got 1"),
    ("neumann2d:1x8", "need nx, ny >= 2, got 1 x 8"),
])
def test_generator_range_error_names_the_spec(command, spec, message, tmp_path,
                                              capsys):
    argv = [command, "--problem", spec]
    if command == "generate":
        argv += ["--output-dir", str(tmp_path / "out")]
    assert run(argv) == 1
    assert _one_error_line(capsys) == f"error: bad problem spec '{spec}': {message}\n"


def test_exact_variant_with_a_coarse_solve_is_rejected(capsys):
    assert run(["solve", "--problem", "neumann1d:8", "--variant", "tg",
                "--coarse", "scale:2"]) == 1
    err = _one_error_line(capsys)
    assert "variant 'tg' uses the exact coarse solve; pass no coarse solve, " \
           "or use variant 'itg'" in err


def test_help_exits_zero():
    with pytest.raises(SystemExit, match="^0$"):
        run(["analyze", "--help"])


def test_jacobi_weight_error_names_the_limit(capsys):
    # neumann1d is a bipartite path graph: lambda_max(D^{-1} A) = 2, limit 1
    assert run(["analyze", "--problem", "neumann1d:8", "--smoother", "jacobi:1.5"]) == 1
    err = capsys.readouterr().err
    assert "Jacobi weight 1.5 exceeds the stability limit 1" in err


def test_coarse_eps_error_names_eps(capsys):
    assert run(["solve", "--problem", "neumann1d:8", "--coarse", "eps:1.5"]) == 1
    err = capsys.readouterr().err
    assert "eps must lie in [0, 1), got 1.5" in err
    assert "declared_eps" not in err


@pytest.mark.parametrize("command", ["analyze", "solve"])
@pytest.mark.parametrize("coarse", ["scale:0", "scale:-2", "bc:ns.mtx"])
def test_invalid_coarse_matrix_is_named(command, coarse, capsys, tmp_path,
                                        monkeypatch):
    # bc:ns.mtx is a nonsymmetric 4 x 4 file, which certification rejects
    monkeypatch.chdir(tmp_path)
    from twogrid.mmio import write_matrix
    write_matrix("ns.mtx", np.eye(4) + np.triu(np.ones((4, 4)), 1))
    assert run([command, "--problem", "neumann1d:8", "--coarse", coarse]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert len(err.splitlines()) == 1
    assert f"coarse matrix '{coarse}' is invalid" in err


def _one_error_line(capsys) -> str:
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")
    assert len(captured.err.splitlines()) == 1
    return captured.err


@pytest.mark.parametrize("bad, message", [
    ("0 1 nan", "5: edge (0, 1) has non-finite weight nan"),
    ("1 1", "5: self loop at node 1 is not allowed"),
    ("-1 2", "5: edge (-1, 2) has a negative node index"),
    ("1 2.5", "5: invalid literal for int() with base 10: '2.5'"),
    ("1 2 3 4", "5: expected 'u v [weight]'"),
], ids=["nan-weight", "self-loop", "negative-index", "float-node", "four-columns"])
def test_edge_file_error_names_file_and_line(bad, message, tmp_path, capsys):
    # the third edge is on line 5: comments and blank lines count in the line
    # number, not in the edge index
    edges = tmp_path / "edges.txt"
    edges.write_text(f"# u v [weight]\n0 1\n\n1 2 2.0  # second edge\n{bad}\n",
                     encoding="ascii")
    assert run(["analyze", "--problem", f"graph:{edges}"]) == 1
    assert f"{edges}:{message}" in _one_error_line(capsys)


@pytest.mark.parametrize("text, where, message", [
    ("# no edges\n\n", "", "graph needs at least two nodes"),
    ("0 1\n# the second edge\n1 99999999999999999999\n", ":3",
     "edge (1, 99999999999999999999) has a node index outside the int64 range"),
], ids=["no-edges", "beyond-int64"])
def test_edge_file_fault_names_the_file(text, where, message, tmp_path, capsys):
    # a fault of the whole list names the file, an edge's names its line
    edges = tmp_path / "edges.txt"
    edges.write_text(text, encoding="ascii")
    assert run(["analyze", "--problem", f"graph:{edges}"]) == 1
    assert _one_error_line(capsys) == f"error: {edges}{where}: {message}\n"


def test_overflowing_degree_names_its_edge_line(tmp_path, capsys):
    # the degree of node 1 sums to inf: its first edge, on line 2, is named
    edges = tmp_path / "edges.txt"
    edges.write_text("# u v [weight]\n0 1 1e308\n1 2 1e308\n", encoding="ascii")
    assert run(["analyze", "--problem", f"graph:{edges}"]) == 1
    assert _one_error_line(capsys) == (
        f"error: {edges}:2: edge (0, 1): the weighted degree of node 1 overflows\n")


@pytest.mark.parametrize("smoother", ["gs", "jacobi"])
def test_tiny_diagonal_entry_is_not_called_zero(smoother, tmp_path, capsys):
    # diag(A)[0] is 1e-320: named by its value and the floor, not as zero
    edges = tmp_path / "edges.txt"
    edges.write_text("0 1 1e-320\n1 2\n2 3\n", encoding="ascii")
    assert run(["analyze", "--problem", f"graph:{edges}", "--smoother", smoother]) == 1
    assert _one_error_line(capsys) == (
        "error: diagonal entry 0 of A is 9.999889e-321, not above the floor "
        "psd_slack * lambda_max = 3.000000e-10\n")


@pytest.mark.parametrize("matrix, message", [
    (np.eye(4) + np.triu(np.ones((4, 4)), 1), "matrix is not symmetric"),
    (np.ones((3, 4)), "matrix must be square, got shape (3, 4)"),
], ids=["nonsymmetric", "non-square"])
def test_invalid_problem_file_is_an_error_line(matrix, message, tmp_path, capsys):
    from twogrid.mmio import write_matrix
    path = tmp_path / "a.mtx"
    write_matrix(path, matrix)
    assert run(["analyze", "--problem", f"file:{path}"]) == 1
    assert message in _one_error_line(capsys)


@pytest.mark.parametrize("flags, message", [
    (["--smoother", "bogus:1"], "unknown smoother 'bogus:1' "
     "(expected jacobi[:omega], gs, or custom:PATH.mtx)"),
    (["--prolongation", "p4.mtx"], "P has 4 rows, expected 8"),
    (["--smoother", "custom:m4.mtx"], "custom smoother has shape (4, 4), expected (8, 8)"),
], ids=["unknown-smoother", "short-p", "short-custom-m"])
def test_generate_refuses_what_analyze_would(flags, message, tmp_path, monkeypatch,
                                            capsys):
    # analyze --config would refuse each of these configs: generate ends with
    # the same error line and writes no file
    monkeypatch.chdir(tmp_path)
    write_matrix("p4.mtx", aggregation_prolongation(4, 2), "coordinate")
    write_matrix("m4.mtx", 0.5 * np.eye(4))
    inputs = sorted(tmp_path.iterdir())
    assert run(["generate", "--problem", "neumann1d:8", *flags,
                "--output-dir", "gen"]) == 1
    assert _one_error_line(capsys) == f"error: {message}\n"
    assert sorted(tmp_path.iterdir()) == inputs


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

    @pytest.mark.parametrize("var", ["RANK_REL_TOL", "MATCH_TOL"])
    @pytest.mark.parametrize("value, message", [
        ("abc", "could not convert string to float: 'abc'"),
        ("2", "must lie in (0, 1), got 2.0"),
    ], ids=["abc", "2"])
    def test_bad_value_names_the_variable(self, var, value, message, monkeypatch,
                                          capsys):
        monkeypatch.setenv(var, value)
        assert run(["analyze", "--problem", "neumann1d:8"]) == 1
        err = _one_error_line(capsys)
        assert f"environment variable {var}: " in err
        assert message in err
