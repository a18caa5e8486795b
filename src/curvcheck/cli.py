"""Command-line front end: check, bench, thomson, compare.

Exit codes for ``check``: 0 the condition holds, 1 it fails, 2 the test
was inconclusive.  Every command exits 3 on an input that cannot be read
or an output that cannot be written, stdout included, and 2 on a usage
error, which includes a ``--tol-rank`` out of range, an empty list of
sizes or methods, a benchmark size below 4, a trial count below 1 and a
Thomson point count K below 2.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
import time

import numpy as np

from . import bench as _bench
from . import problems as _problems
from .sosc import METHODS, Status, VerifyOptions, verify
from .stationary import MaxIterationsError, solve_thomson

_METHOD_ALIASES = {**{m: m for m in METHODS}, "chol": "cholesky",
                   "diag": "diagonalization"}


def _canonical_method(name: str) -> str:
    try:
        return _METHOD_ALIASES[name.strip().lower()]
    except KeyError:
        raise argparse.ArgumentTypeError(
            f"unknown method {name!r}; choose from {sorted(set(_METHOD_ALIASES))}"
        )


def _method_list(raw: str):
    methods = [_canonical_method(tok) for tok in raw.split(",") if tok.strip()]
    if not methods:
        raise argparse.ArgumentTypeError(f"no method given in {raw!r}")
    return methods


def _int_list(raw: str):
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _int_list_from(least: int, what: str):
    """Parser of a nonempty comma-separated list of integers, each at least
    ``least``; an empty list or a smaller value is a usage error."""

    def int_list(raw: str):
        values = _int_list(raw)
        if not values:
            raise argparse.ArgumentTypeError(f"no {what} given in {raw!r}")
        if min(values) < least:
            raise argparse.ArgumentTypeError(
                f"{what} must be at least {least}, got {raw!r}"
            )
        return values

    return int_list


def _positive_int(raw: str) -> int:
    value = int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {raw!r}")
    return value


def _options_from_args(args) -> VerifyOptions:
    """The verify options of the parsed arguments: each field is read from
    the flag of its name, ``--tol-rank`` for ``tol_rank`` and ``--seed``
    for ``seed``."""
    return VerifyOptions(**{
        field.name: getattr(args, field.name)
        for field in dataclasses.fields(VerifyOptions)
    })


def _add_tolerance_args(parser):
    parser.add_argument("--tol-rank", type=float, default=None,
                        help="constraint rank guard; 0 disables, default scales "
                             "with the Jacobian norm")
    parser.add_argument("--seed", type=int, default=0)


def _print_verdict(verdict, method: str) -> None:
    print(f"method:    {method}")
    print(f"verdict:   {verdict.status.value}")
    if verdict.step is not None:
        print(f"step:      {verdict.step}")
    if verdict.curvature is not None:
        print(f"curvature: {verdict.curvature:.17g}")
    diag = verdict.diagnostics
    if verdict.reason is not None:
        print(f"reason:    {verdict.reason}")
    if "detail" in diag:
        print(f"detail:    {diag['detail']}")
    print(f"operator products: {diag.get('operator_products', 0)}")
    print(f"continuations:     {diag.get('continuations', 0)}")
    if "minors" in diag:
        print(f"minors computed:   {diag['minors']}")
    if "inertia" in diag:
        print(f"inertia:           {diag['inertia']}")
    print(f"wall time [s]:     {diag.get('wall_time_s', 0.0):.6g}")


def cmd_check(args) -> int:
    problem = _problems.load_problem(args.problem)
    method = args.method
    verdict = verify(problem, method, args.options)
    _print_verdict(verdict, method)
    if verdict.direction is not None:
        sidecar = args.direction_out or (str(args.problem) + ".direction.json")
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "direction": [float(v) for v in verdict.direction],
                    "curvature": verdict.curvature,
                    "step": verdict.step,
                },
                fh,
            )
            fh.write("\n")
        print(f"direction written to {sidecar}")
    return {Status.HOLDS: 0, Status.FAILS: 1}.get(verdict.status, 2)


def _open_out(path):
    """Open ``path`` for a CSV before the work that fills it, so that an
    unwritable path is reported at once."""
    return open(path, "w", newline="", encoding="utf-8")


def cmd_bench(args) -> int:
    with _open_out(args.out) as out:
        records = _bench.run_campaign(
            args.n_list,
            args.trials_per_n,
            conditioning=args.conditioning,
            methods=args.methods,
            base_seed=args.seed,
            options=args.options,
        )
        print(_bench.summarize(records))
        _bench.write_csv(records, out)
    print(f"{len(records)} records written to {args.out}")
    return 0


def _thomson_rows(args):
    """Solve and verify each K of ``--k-list``; the CSV rows."""
    rows = []
    for k in args.k_list:
        try:
            point = solve_thomson(k, seed=args.seed)
        except MaxIterationsError as exc:
            print(f"K={k}: solver failed: {exc}", file=sys.stderr)
            rows.append([k, 3 * k, k + 3, "", "solver_failed", "", "", "", "", ""])
            continue
        tprob = _problems.ThomsonProblem(_problems.ThomsonInstance(k))
        energy = tprob.objective(point.x)
        problem = tprob.as_problem(point.x, point.lam)
        if args.save_problems:
            # dense snapshot with the analytic Hessian so any method can be
            # replayed through `check`
            snapshot = _problems.Problem(
                jacobian=problem.jacobian,
                hessian=tprob.lagrangian_hessian(point.x, point.lam),
                x=point.x,
                lam=point.lam,
                provenance=problem.provenance,
            )
            dest = f"{args.save_problems}thomson_k{k}.json"
            _problems.save_problem(snapshot, dest)
            print(f"K={k}: problem written to {dest}")
        print(f"K={k}: energy {energy:.12g}, stationarity residual "
              f"{point.fonc_residual:.3g}")
        times = {}
        for method in args.methods:
            verdict = verify(problem, method, args.options)
            diag = verdict.diagnostics
            times[method] = diag["wall_time_s"]
            print(f"  {method:>16}: {verdict.status.value:6} "
                  f"products={diag.get('operator_products', 0):4d} "
                  f"time={diag['wall_time_s']:.4g}s")
            rows.append([
                k, 3 * k, k + 3, method, verdict.status.value,
                format(energy, ".17g"),
                format(point.fonc_residual, ".17g"),
                format(diag["wall_time_s"], ".17g"),
                diag.get("operator_products", 0),
                diag.get("continuations", 0),
            ])
        if "inertia" in times and times["inertia"] > 0:
            for method in args.methods:
                if method != "inertia":
                    rel = times[method] / times["inertia"]
                    print(f"  time({method}) / time(inertia) = {rel:.2f}")
    return rows


def cmd_thomson(args) -> int:
    if args.save_problems:
        # a per-K snapshot path cannot be opened before its K is solved;
        # its directory can be checked
        folder = os.path.dirname(args.save_problems) or "."
        if not (os.path.isdir(folder) and os.access(folder, os.W_OK)):
            raise OSError(f"cannot write problems to {folder!r}")
    if not args.out:
        _thomson_rows(args)
        return 0
    with _open_out(args.out) as out:
        rows = _thomson_rows(args)
        writer = csv.writer(out)
        writer.writerow([
            "K", "N", "M", "method", "verdict", "energy",
            "fonc_residual", "wall_time_s", "operator_products",
            "continuations",
        ])
        writer.writerows(rows)
    print(f"rows written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    problem = _problems.load_problem(args.problem)
    options = args.options
    print(f"N={problem.n} M={problem.m} L={problem.l}")
    results = {}
    for method in METHODS:
        verdict = verify(problem, method, options)
        results[method] = verdict
        step = "" if verdict.step is None else f" at step {verdict.step}"
        reason = "" if verdict.reason is None else f" ({verdict.reason})"
        print(f"  {method:>16}: {verdict.status.value}{step}{reason}")

    H = problem.operator().matrix
    if H is not None and not (np.isfinite(H).all() and np.isfinite(problem.jacobian).all()):
        # the eigensolvers would raise on NaN or inf
        print(f"  {'eigen-oracle':>16}: skipped (H or A holds NaN or inf)")
    elif H is not None and problem.n > 500:
        print(f"  {'eigen-oracle':>16}: skipped (N > 500)")
    elif H is not None:
        from .linalg import RankDeficientError, _symmetric_part, null_space_basis

        # the reduced eigenvalues are the same for every orthonormal basis,
        # but a basis of a rank-deficient A misses part of null(A), so the
        # oracle reads the methods' rank guard
        try:
            basis = null_space_basis(problem.jacobian, options.tol_rank)
        except RankDeficientError:
            print(f"  {'eigen-oracle':>16}: skipped (A rank deficient)")
        else:
            reduced = basis.matrix.T @ H @ basis.matrix
            lam_min = float(np.linalg.eigvalsh(_symmetric_part(reduced))[0])
            print(f"  {'eigen-oracle':>16}: "
                  f"{'holds' if lam_min > 0 else 'fails'} "
                  f"(min reduced eigenvalue {lam_min:.6g})")
        K = _problems.build_kkt(H, problem.jacobian)
        eigs = np.abs(np.linalg.eigvalsh(K))
        if eigs.min() <= 1e-8 * max(eigs.max(), 1e-300):
            print("  warning: near-singular KKT matrix "
                  f"(min |eigenvalue| {eigs.min():.3g}); "
                  "disagreement between methods is expected here")

    statuses = {v.status for v in results.values()}
    print("agreement: " + ("yes" if len(statuses) == 1 else "no"))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="curvcheck",
        description="Verify or reject constrained second-order sufficiency "
                    "at first-order points.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="verify one problem file")
    p_check.add_argument("problem")
    p_check.add_argument("--method", type=_canonical_method, default="cholesky")
    p_check.add_argument("--direction-out", default=None)
    _add_tolerance_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_bench = sub.add_parser("bench", help="randomized accuracy/timing campaign")
    p_bench.add_argument("--n-list", type=_int_list_from(4, "benchmark sizes"),
                         required=True)
    p_bench.add_argument("--trials-per-n", type=_positive_int, default=50)
    p_bench.add_argument("--conditioning", choices=["well", "ill"], default="well")
    p_bench.add_argument("--methods", type=_method_list, default=",".join(METHODS))
    p_bench.add_argument("--out", required=True)
    _add_tolerance_args(p_bench)
    p_bench.set_defaults(func=cmd_bench, tol_rank=0.0)

    p_th = sub.add_parser("thomson", help="solve and verify sphere problems")
    p_th.add_argument("--k-list", type=_int_list_from(2, "point counts K"),
                      required=True)
    p_th.add_argument("--methods", type=_method_list,
                      default="cholesky,diagonalization,inertia")
    p_th.add_argument("--out", default=None)
    p_th.add_argument("--save-problems", default=None, metavar="PREFIX",
                      help="write each solved instance as problem JSON "
                           "(point and multipliers filled)")
    _add_tolerance_args(p_th)
    p_th.set_defaults(func=cmd_thomson)

    p_cmp = sub.add_parser("compare", help="run all methods on one problem")
    p_cmp.add_argument("problem")
    _add_tolerance_args(p_cmp)
    p_cmp.set_defaults(func=cmd_compare)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.options = _options_from_args(args)
    except ValueError as exc:
        # the message starts with the field's name, which names its flag
        name, _, detail = str(exc).partition(" ")
        parser.error(f"argument --{name.replace('_', '-')}: {detail}")
    t0 = time.perf_counter()
    try:
        code = args.func(args)
    except (OSError, ValueError) as exc:
        # exit 1 would read as "the condition fails"
        print(f"error: {exc}", file=sys.stderr)
        code = 3
    try:
        if args.command != "check":
            print(f"total time: {time.perf_counter() - t0:.3g}s")
        sys.stdout.flush()
    except OSError as exc:
        # stdout is closed or full: reported unless a command's error was,
        # and pointed at the null device, as the interpreter flushes it
        # again at exit
        if code != 3:
            print(f"error: {exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 3
    return code


if __name__ == "__main__":
    sys.exit(main())
