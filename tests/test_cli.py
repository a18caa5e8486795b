"""End-to-end command-line tests."""

import csv
import dataclasses
import json
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

import curvcheck
from curvcheck.cli import _options_from_args, build_parser, main
from curvcheck.bench import CSV_HEADER
from curvcheck.problems import (
    GeneratorSpec,
    Problem,
    generate,
    near_rank_deficient_kkt,
    save_problem,
)
from curvcheck.sosc import METHODS, VerifyOptions


@pytest.fixture
def identity_problem(tmp_path):
    path = tmp_path / "identity.json"
    save_problem(
        Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3)), path
    )
    return path


@pytest.fixture
def indefinite_problem(tmp_path):
    path = tmp_path / "indefinite.json"
    save_problem(
        Problem(jacobian=np.array([[1.0, 0.0]]), hessian=np.diag([1.0, -1.0])), path
    )
    return path


class TestCheck:
    def test_holds_exit_zero(self, identity_problem, capsys):
        assert main(["check", str(identity_problem)]) == 0
        out = capsys.readouterr().out
        assert "holds" in out

    def test_fails_exit_one_with_direction_file(self, indefinite_problem, capsys):
        code = main(["check", str(indefinite_problem), "--method", "diag"])
        assert code == 1
        sidecar = str(indefinite_problem) + ".direction.json"
        with open(sidecar) as fh:
            payload = json.load(fh)
        d = np.asarray(payload["direction"])
        d /= np.linalg.norm(d)
        np.testing.assert_allclose(np.abs(d), [0.0, 1.0], atol=1e-12)
        assert payload["curvature"] < 0

    def test_method_aliases(self, indefinite_problem):
        assert main(["check", str(indefinite_problem), "--method", "chol"]) == 1
        assert main(["check", str(indefinite_problem), "--method", "pcg"]) == 1
        assert main(["check", str(indefinite_problem), "--method", "bht"]) == 1
        assert main(["check", str(indefinite_problem), "--method", "inertia"]) == 1

    def test_malformed_json_exit_three(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["check", str(path)]) == 3
        # valid JSON that is not an object
        path.write_text("[1, 2]", encoding="utf-8")
        for command in ("check", "compare"):
            assert main([command, str(path)]) == 3
            assert "must be a JSON object" in capsys.readouterr().err

    def test_missing_file_exit_three(self, tmp_path):
        assert main(["check", str(tmp_path / "nope.json")]) == 3

    def test_boundary_exit_two(self, tmp_path):
        path = tmp_path / "boundary.json"
        save_problem(
            Problem(jacobian=np.array([[1.0, 0.0]]), hessian=np.diag([0.0, 0.0])),
            path,
        )
        assert main(["check", str(path)]) == 2

    def test_direction_out_override(self, indefinite_problem, tmp_path):
        target = tmp_path / "d.json"
        main(["check", str(indefinite_problem), "--method", "cholesky",
              "--direction-out", str(target)])
        assert target.exists()

    def test_unwritable_direction_out_exit_three(self, indefinite_problem, tmp_path,
                                                 capsys):
        # exit 1 would read as "the condition fails"
        dest = tmp_path / "no" / "such" / "dir.json"
        assert main(["check", str(indefinite_problem), "--method", "pcg",
                     "--direction-out", str(dest)]) == 3
        assert capsys.readouterr().err.startswith("error: ")

    def test_unknown_method_is_a_usage_error(self, identity_problem, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["check", str(identity_problem), "--method", "foo"])
        assert exc.value.code == 2
        assert "unknown method 'foo'" in capsys.readouterr().err

    def test_document_without_hessian_exit_three(self, tmp_path, capsys):
        path = tmp_path / "no_hessian.json"
        path.write_text(json.dumps(
            {"schema": "dense-v1", "N": 3, "M": 1, "A": [0.0, 0.0, 1.0]}
        ), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        assert "no Hessian" in capsys.readouterr().err
        assert main(["compare", str(path)]) == 3

    @pytest.mark.parametrize("fields, message", [
        pytest.param({"x": [0.0] * 5}, "inconsistent", id="x-5"),
        pytest.param({"lambda": [0.0] * 7}, "inconsistent", id="lambda-7"),
        # the next three exited 1 with a traceback, or were read as N = 2
        # and truth = True
        pytest.param({"N": 0, "M": 0, "A": [], "H": []}, "at least one variable",
                     id="N-0"),
        pytest.param({"N": 2.5}, "N and M must be nonnegative integers",
                     id="N-2.5"),
        pytest.param({"truth": "no"}, "truth must be true or false", id="truth-no"),
        # a JSON object where an array belongs exited 1 with a traceback
        pytest.param({"H": {"a": 1}}, "malformed problem document", id="H-object"),
        pytest.param({"x": {"a": 1}}, "malformed problem document", id="x-object"),
        pytest.param({"lambda": {"a": 1}}, "malformed problem document",
                     id="lambda-object"),
    ])
    def test_wrong_length_point_exit_three(self, tmp_path, capsys, fields, message):
        path = tmp_path / "bad_point.json"
        path.write_text(json.dumps({
            "schema": "dense-v1", "N": 3, "M": 1, "A": [0.0, 0.0, 1.0],
            "H": np.eye(3).reshape(-1).tolist(), **fields,
        }), encoding="utf-8")
        assert main(["check", str(path)]) == 3
        assert message in capsys.readouterr().err
        assert main(["compare", str(path)]) == 3

    @pytest.mark.parametrize("method", METHODS)
    def test_non_finite_hessian_exit_two(self, tmp_path, method, capsys):
        # with inf off the diagonal pcg exited 1 (fails, curvature -inf),
        # and cholesky and diagonalization said semidefinite_boundary
        path = tmp_path / "non_finite.json"
        for value in (np.nan, np.inf):
            H = np.eye(4)
            H[0, 1] = H[1, 0] = value
            save_problem(Problem(jacobian=np.array([[0.0, 0.0, 0.0, 1.0]]),
                                 hessian=H), path)
            assert main(["check", str(path), "--method", method]) == 2
            assert "reason:    non_finite" in capsys.readouterr().out

    def test_inconclusive_verdict_prints_its_detail(self, tmp_path, capsys):
        # check printed only "reason: rank_deficient" here, not which pivot
        # tripped the guard
        path = tmp_path / "rank_deficient.json"
        save_problem(Problem(jacobian=np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
                             hessian=np.eye(3)), path)
        assert main(["check", str(path), "--method", "pcg"]) == 2
        out = capsys.readouterr().out
        assert "reason:    rank_deficient" in out
        assert "detail:    smallest pivot 0.000e+00 <= tolerance" in out
        save_problem(Problem(jacobian=np.array([[0.0, 0.0, 1.0]]),
                             hessian=np.diag([1.0, np.nan, 1.0])), path)
        assert main(["check", str(path), "--method", "bht"]) == 2
        assert "detail:    input holds NaN or inf" in capsys.readouterr().out
        # a conclusive verdict carries no detail
        save_problem(Problem(jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3)),
                     path)
        assert main(["check", str(path)]) == 0
        assert "detail:" not in capsys.readouterr().out


class TestBench:
    def test_csv_schema_and_determinism(self, tmp_path, capsys):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        args = ["bench", "--n-list", "10", "--trials-per-n", "4",
                "--seed", "7", "--trials-per-n", "4"]
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        rows_a = list(csv.reader(open(out_a)))
        rows_b = list(csv.reader(open(out_b)))
        assert rows_a[0] == list(CSV_HEADER)
        assert len(rows_a) == 1 + 4 * 5  # one row per trial x method
        # identical except the timing column
        t_idx = list(CSV_HEADER).index("wall_time_s")
        for ra, rb in zip(rows_a[1:], rows_b[1:]):
            ra[t_idx] = rb[t_idx] = ""
            assert ra == rb
        summary = capsys.readouterr().out
        assert "pcg" in summary and "inertia" in summary

    def test_unwritable_out_exit_three(self, tmp_path, capsys, monkeypatch):
        # the path is opened before any trial runs
        from curvcheck import cli

        calls = []
        monkeypatch.setattr(cli._bench, "run_campaign",
                            lambda *args, **kwargs: calls.append(args) or [])
        assert main(["bench", "--n-list", "8", "--trials-per-n", "1",
                     "--methods", "inertia",
                     "--out", str(tmp_path / "no" / "such.csv")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exit_three(self, capsys):
        # the CSV fits in the write buffer, so the disk is found full when
        # the file is closed
        assert main(["bench", "--n-list", "8", "--trials-per-n", "1",
                     "--methods", "inertia", "--out", "/dev/full"]) == 3
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")

    @pytest.mark.parametrize("command", ["bench", "thomson"])
    def test_unknown_method_in_list_is_a_usage_error(self, tmp_path, command, capsys):
        # an empty list exited 0 after doing nothing
        sizes = ["--n-list", "8"] if command == "bench" else ["--k-list", "2"]
        for methods, message in [("inertia,foo", "unknown method 'foo'"),
                                 (",", "no method given"), ("", "no method given")]:
            with pytest.raises(SystemExit) as exc:
                main([command, *sizes, "--methods", methods,
                      "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    def test_methods_subset(self, tmp_path):
        out = tmp_path / "subset.csv"
        assert main(["bench", "--n-list", "8", "--trials-per-n", "2",
                     "--methods", "cholesky,inertia", "--out", str(out)]) == 0
        rows = list(csv.reader(open(out)))
        assert len(rows) == 1 + 2 * 2
        methods = {row[5] for row in rows[1:]}
        assert methods == {"cholesky", "inertia"}

    def test_no_truth_leaves_truth_and_agree_empty(self, tmp_path, monkeypatch):
        from curvcheck import bench

        monkeypatch.setattr(bench, "generate", lambda spec: Problem(
            jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3)))
        records = bench.run_trial(3, 1, 3, "well", seed=0, methods=("cholesky",))
        assert records[0].truth is None and records[0].agree is None
        out = tmp_path / "no_truth.csv"
        with open(out, "w", newline="", encoding="utf-8") as fh:
            bench.write_csv(records, fh)
        header, row = list(csv.reader(open(out)))
        assert row[header.index("truth")] == ""
        assert row[header.index("agree")] == ""

    def test_each_verify_runs_once_at_every_size(self, monkeypatch):
        # a size of 500 or more is timed once too; a small problem stands
        # in for the drawn one
        from curvcheck import bench

        calls = []
        verify = bench.verify
        monkeypatch.setattr(bench, "generate", lambda spec: Problem(
            jacobian=np.array([[0.0, 0.0, 1.0]]), hessian=np.eye(3)))
        monkeypatch.setattr(bench, "verify", lambda problem, method, options: (
            calls.append((method, options)) or verify(problem, method, options)))
        records = bench.run_campaign([8, 500], 1, methods=("cholesky", "pcg"))
        assert len(records) == len(calls) == 4
        assert all(options == VerifyOptions(tol_rank=0.0) for _, options in calls)

    def test_rejects_tiny_sizes(self, tmp_path, capsys):
        # an empty list exited 0 after writing a header-only CSV
        for sizes, message in [("3", "at least 4"), ("", "no benchmark sizes"),
                               (",", "no benchmark sizes")]:
            with pytest.raises(SystemExit) as exc:
                main(["bench", "--n-list", sizes, "--trials-per-n", "1",
                      "--out", str(tmp_path / "x.csv")])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("trials", ["0", "-1"])
    def test_rejects_a_non_positive_trial_count(self, tmp_path, trials, capsys):
        # no trial ran, a header-only CSV was written and bench exited 0
        out = tmp_path / "x.csv"
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--n-list", "8", "--trials-per-n", trials,
                  "--out", str(out)])
        assert exc.value.code == 2
        assert "--trials-per-n" in capsys.readouterr().err
        assert not out.exists()


class TestOptions:
    COMMANDS = {
        "check": ["check", "p.json"],
        "bench": ["bench", "--n-list", "8", "--out", "x.csv"],
        "thomson": ["thomson", "--k-list", "4"],
        "compare": ["compare", "p.json"],
    }
    # a value for each field that differs from every command's default
    VALUES = {"tol_rank": "0.75", "seed": "3"}
    # the verifiers read these as constants of curvcheck.sosc
    REMOVED_FLAGS = ("--tol-alpha", "--tol-feas", "--pcg-tol", "--fd-sigma")

    @pytest.mark.parametrize("command", COMMANDS)
    def test_each_option_is_set_by_its_one_flag(self, command):
        fields = [field.name for field in dataclasses.fields(VerifyOptions)]
        assert sorted(fields) == sorted(self.VALUES)
        parser = build_parser()
        base = dataclasses.asdict(
            _options_from_args(parser.parse_args(self.COMMANDS[command])))
        for name in fields:
            flag = "--" + name.replace("_", "-")
            args = parser.parse_args(self.COMMANDS[command] + [flag, self.VALUES[name]])
            got = dataclasses.asdict(_options_from_args(args))
            expected = dict(base, **{name: type(base[name] or 0.0)(self.VALUES[name])})
            assert got == expected, flag

    @pytest.mark.parametrize("command", COMMANDS)
    @pytest.mark.parametrize("flag, value", [
        ("--tol-alpha", "-1"), ("--tol-feas", "-1e-8"), ("--pcg-tol", "0"),
        ("--tol-rank", "-1"), ("--tol-alpha", "nan"), ("--fd-sigma", "1e-6"),
    ])
    def test_out_of_range_option_is_a_usage_error(self, command, flag, value,
                                                  monkeypatch, capsys):
        # before the options were checked, --pcg-tol 0 escaped from pcg as a
        # ValueError traceback and exit 1, which reads as "fails".  A
        # removed flag is refused whatever its value
        from curvcheck import cli

        calls = []
        for name in ("cmd_check", "cmd_bench", "cmd_thomson", "cmd_compare"):
            monkeypatch.setattr(cli, name, lambda args: calls.append(args) or 0)
        with pytest.raises(SystemExit) as exc:
            main(self.COMMANDS[command] + [f"{flag}={value}"])
        assert exc.value.code == 2
        if flag in self.REMOVED_FLAGS:
            message = f"unrecognized arguments: {flag}={value}"
        else:
            message = f"argument {flag}: must be finite"
        assert message in capsys.readouterr().err
        assert calls == []

    @pytest.mark.parametrize("command", [
        ["check", "--method", "pcg"], ["compare"], ["bench", "--n-list", "8"],
    ])
    def test_negative_seed_is_a_usage_error(self, command, tmp_path, capsys):
        # these exited 1, "the condition fails", with a traceback from
        # default_rng
        path = tmp_path / "p.json"
        save_problem(generate(GeneratorSpec(n=12, m=3, p=12, seed=4)), path)
        if command[0] == "bench":
            command = command + ["--trials-per-n", "1", "--out", str(tmp_path / "b.csv")]
        else:
            command = command + [str(path)]
        with pytest.raises(SystemExit) as exc:
            main(command + ["--seed", "-1"])
        assert exc.value.code == 2
        assert "argument --seed: must be a nonnegative integer" in capsys.readouterr().err

    def test_negative_tol_alpha_on_a_failing_problem_exit_two(self, tmp_path):
        # with tol_alpha = -1 diagonalization read this failing problem as
        # holding, and check exited 0; the flag is gone, and refused
        path = tmp_path / "f.json"
        save_problem(generate(GeneratorSpec(n=12, m=3, p=8, seed=4)), path)
        assert main(["check", str(path), "--method", "diag"]) == 1
        with pytest.raises(SystemExit) as exc:
            main(["check", str(path), "--method", "diag", "--tol-alpha", "-1"])
        assert exc.value.code == 2


class TestCompare:
    def test_agreement_with_oracle(self, tmp_path, capsys):
        path = tmp_path / "gen.json"
        save_problem(generate(GeneratorSpec(n=12, m=5, p=7, seed=3)), path)
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eigen-oracle" in out
        assert "agreement: yes" in out

    def test_near_singular_kkt_flagged(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        H = rng.standard_normal((6, 6))
        H = H @ H.T + np.eye(6)
        A_prime = rng.standard_normal((2, 6))
        K, _ = near_rank_deficient_kkt(
            H, A_prime, np.array([1.0, -0.5]), 1e-12 * rng.standard_normal(6)
        )
        A = K[6:, :6]
        path = tmp_path / "near_singular.json"
        save_problem(Problem(jacobian=A, hessian=H), path)
        assert main(["compare", str(path), "--tol-rank", "0"]) == 0
        out = capsys.readouterr().out
        assert "near-singular KKT" in out

    def test_bad_file(self, tmp_path):
        assert main(["compare", str(tmp_path / "absent.json")]) == 3

    def test_huge_entries_give_a_finite_oracle_eigenvalue(self, tmp_path, capsys):
        # the halved sum of the reduced matrix overflows on these finite
        # entries; the oracle symmetrizes through linalg._symmetric_part,
        # which sums the halves instead
        a = 1e308
        path = tmp_path / "huge.json"
        save_problem(Problem(np.array([[a, a]]), np.diag([a, -a])), path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        line, = [row for row in out.splitlines() if "min reduced eigenvalue" in row]
        assert np.isfinite(float(line.rsplit(" ", 1)[1].rstrip(")")))

    def test_rank_deficient_jacobian_skips_the_oracle(self, tmp_path, capsys):
        # a basis of the zero Jacobian misses a null direction, and the
        # one it keeps would read holds
        path = tmp_path / "zero_a.json"
        save_problem(Problem(jacobian=np.zeros((1, 3)),
                             hessian=np.diag([-1.0, 2.0, 3.0])), path)
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert out.count("error (rank_deficient)") == 5
        assert "eigen-oracle: skipped (A rank deficient)" in out
        assert "min reduced eigenvalue" not in out

    def test_large_problem_skips_the_oracle(self, tmp_path, capsys):
        # bht reads singular_minor here: the seed's block of A is zero
        n = 501
        path = tmp_path / "large.json"
        save_problem(Problem(jacobian=np.eye(n)[-1:], hessian=np.eye(n)), path)
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eigen-oracle: skipped (N > 500)" in out
        assert "min reduced eigenvalue" not in out
        for method in ("cholesky", "diagonalization", "pcg", "inertia"):
            assert f"{method:>16}: holds" in out

    @pytest.mark.parametrize("field", ["A", "H"])
    def test_non_finite_problem_skips_the_oracle(self, tmp_path, field, capsys):
        # the eigensolvers of the oracle would raise on NaN
        problem = generate(GeneratorSpec(n=12, m=5, p=7, seed=3))
        doc = {"schema": "dense-v1", "N": 12, "M": 5,
               "A": problem.jacobian.reshape(-1).tolist(),
               "H": problem.hessian.reshape(-1).tolist()}
        doc[field][0] = float("nan")
        path = tmp_path / "nan.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert main(["compare", str(path)]) == 0
        out = capsys.readouterr().out
        assert "eigen-oracle: skipped (H or A holds NaN or inf)" in out
        assert "near-singular" not in out


class TestThomsonCommand:
    def test_small_pipeline(self, tmp_path, capsys):
        out = tmp_path / "thomson.csv"
        code = main(["thomson", "--k-list", "2,3", "--out", str(out)])
        assert code == 0
        text = capsys.readouterr().out
        assert "K=2" in text and "K=3" in text
        rows = list(csv.reader(open(out)))
        assert rows[0][0] == "K"
        assert len(rows) == 1 + 2 * 3  # two sizes, three default methods
        verdicts = {row[4] for row in rows[1:]}
        assert verdicts == {"holds"}

    def test_rejects_fewer_than_two_points(self, capsys):
        # K = 1 exited 1 with a "need at least two points" traceback, and an
        # empty list exited 0 after doing nothing
        for ks, message in [("3,1", "at least 2"), ("", "no point counts K")]:
            with pytest.raises(SystemExit) as exc:
                main(["thomson", "--k-list", ks])
            assert exc.value.code == 2
            assert message in capsys.readouterr().err

    def test_saved_problem_replays_through_check(self, tmp_path):
        prefix = str(tmp_path) + "/"
        assert main(["thomson", "--k-list", "3", "--save-problems", prefix]) == 0
        saved = tmp_path / "thomson_k3.json"
        from curvcheck.problems import load_problem

        problem = load_problem(saved)
        assert problem.x is not None and problem.lam is not None
        assert problem.n == 9 and problem.m == 6
        # the snapshot verifies through the file-based front end too
        assert main(["check", str(saved), "--method", "inertia"]) == 0


    def test_unwritable_out_exit_three_before_solving(self, tmp_path, capsys,
                                                      monkeypatch):
        from curvcheck import cli

        calls = []
        monkeypatch.setattr(cli, "solve_thomson",
                            lambda *args, **kwargs: calls.append(args))
        assert main(["thomson", "--k-list", "2,3", "--methods", "inertia",
                     "--out", str(tmp_path / "no" / "such.csv")]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    def test_unwritable_save_problems_exit_three_before_solving(
            self, tmp_path, capsys, monkeypatch):
        from curvcheck import cli

        calls = []
        monkeypatch.setattr(cli, "solve_thomson",
                            lambda *args, **kwargs: calls.append(args))
        prefix = str(tmp_path / "no" / "such") + "/"
        assert main(["thomson", "--k-list", "2,3", "--methods", "inertia",
                     "--save-problems", prefix]) == 3
        assert capsys.readouterr().err.startswith("error: ")
        assert calls == []

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    def test_full_disk_exit_three(self, capsys):
        assert main(["thomson", "--k-list", "2", "--methods", "inertia",
                     "--out", "/dev/full"]) == 3
        assert capsys.readouterr().err == (
            "error: [Errno 28] No space left on device\n")

    def test_solver_failure_is_a_row(self, tmp_path, capsys, monkeypatch):
        from curvcheck import cli
        from curvcheck.stationary import MaxIterationsError

        def fail(k, seed):
            raise MaxIterationsError(f"no stationary point for K={k}")

        monkeypatch.setattr(cli, "solve_thomson", fail)
        out = tmp_path / "thomson.csv"
        assert main(["thomson", "--k-list", "4", "--out", str(out)]) == 0
        assert "K=4: solver failed: " in capsys.readouterr().err
        rows = list(csv.reader(open(out)))
        assert rows[1:] == [["4", "12", "7", "", "solver_failed", "", "", "", "", ""]]

    @pytest.mark.parametrize("flag", ["--out", "--save-problems"])
    def test_unwritable_output_exit_three(self, tmp_path, flag, capsys):
        dest = str(tmp_path / "no" / "such") + "/"
        assert main(["thomson", "--k-list", "2", "--methods", "inertia",
                     flag, dest]) == 3
        assert "error: " in capsys.readouterr().err

    @pytest.mark.parametrize("sigma", ["0", "-1e-6", "nan", "inf", "abc", "-1"])
    def test_fd_sigma_must_be_positive_and_finite(self, sigma, capsys):
        # --tol-fonc -1, 0 or nan exited 0 after "solver failed" lines.  The
        # step scale is the constant FD_SIGMA and the solver tolerance the
        # constant TOL_FONC, and either flag is refused whatever its value
        for flag in ("--fd-sigma", "--tol-fonc"):
            with pytest.raises(SystemExit) as exc:
                main(["thomson", "--k-list", "4", f"{flag}={sigma}"])
            assert exc.value.code == 2
            assert f"unrecognized arguments: {flag}={sigma}" in capsys.readouterr().err


class TestUnwritableStdout:
    """The CLI in a child process whose stdout cannot be written: exit 3
    with one error line, both when a print inside the command fails
    (unbuffered stdout) and when only the last flush does (buffered)."""

    COMMANDS = {
        "check": ["check", "{problem}"],
        "compare": ["compare", "{problem}"],
        "bench": ["bench", "--n-list", "8", "--trials-per-n", "1",
                  "--methods", "inertia", "--out", "{tmp}/bench.csv"],
        "thomson": ["thomson", "--k-list", "2", "--methods", "inertia"],
    }

    def run(self, command, tmp_path, problem, stdout):
        argv = [arg.format(problem=problem, tmp=tmp_path)
                for arg in self.COMMANDS[command]]
        src = os.path.dirname(os.path.dirname(curvcheck.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        results = []
        for unbuffered in (True, False):
            env.pop("PYTHONUNBUFFERED", None)
            if unbuffered:
                env["PYTHONUNBUFFERED"] = "1"
            proc = subprocess.run(
                [sys.executable, "-m", "curvcheck.cli", *argv], stdout=stdout,
                stderr=subprocess.PIPE, env=env, text=True, timeout=300,
            )
            results.append((proc.returncode, proc.stderr))
        return results

    @pytest.mark.parametrize("command", COMMANDS)
    def test_closed_pipe_exit_three(self, command, tmp_path, identity_problem):
        # each exited 1 with a BrokenPipeError traceback, as `| head -1` does
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            results = self.run(command, tmp_path, identity_problem, write_end)
        finally:
            os.close(write_end)
        for code, err in results:
            assert (code, err) == (3, "error: [Errno 32] Broken pipe\n")

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
    @pytest.mark.parametrize("command", COMMANDS)
    def test_full_stdout_exit_three(self, command, tmp_path, identity_problem):
        # check on a problem that holds exited 1 with an OSError traceback
        with open("/dev/full", "w") as full:
            results = self.run(command, tmp_path, identity_problem, full)
        for code, err in results:
            assert (code, err) == (3, "error: [Errno 28] No space left on device\n")
