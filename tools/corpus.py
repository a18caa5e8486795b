#!/usr/bin/env python3
"""Verdict corpus: one fixed-format line per (case, options, method) tuple.

    python tools/corpus.py [--draws N] [--tree DIR] [--diff OTHER]

Each line reads

    <case> <options> <method> <status> step=<step> reason=<reason>
    products=<n> continuations=<n> curvature=<repr> keys=<k,...>
    direction=<hash> <key>=<hash> ...

on one line, where ``keys`` are the verdict's sorted diagnostics keys other
than ``wall_time_s`` and each hash is the first 16 hex digits of a sha256:
of an array's dtype, shape and bytes (the direction, and every diagnostics
value that is an array), or of the ``repr`` of any other diagnostics value.
Two trees whose lines agree give the same verdicts, steps, reasons, counts,
curvatures and arrays, bit for bit.

The population is fixed; every case runs under ``VerifyOptions()`` (``def``)
and ``VerifyOptions(tol_rank=0)`` (``rank0``), for all five methods:

- ``gen<d>``, d = 0..299: ``rng = default_rng(d)``, n = ``rng.integers(4,
  201)``, m = ``rng.integers(1, n)``, p = ``rng.integers(0, n + 1)``,
  ``generate(GeneratorSpec(n, m, p, well if d is even else ill, seed=d))``;
- ``m0-<i>``, i = 0..9: no constraints, N = 1 + 4i, H with eigenvalues
  uniform in [0.1, 10] from ``default_rng(1000 + i)``, the first negated
  for odd i, and H = 0 for i = 9;
- ``bnd<j>``, j = 0..149: draws on the semidefinite boundary from one
  ``default_rng(11)``, N in 6..59, M in 1..N-2: Q Haar, W = Q[:, :L],
  Y = Q[:, L:], reduced eigenvalues uniform in [0.1, 10] with the first
  set to 0, H the symmetrized W diag(ev) W^T + Y G Y^T with G Gaussian,
  and A = (Y (triu(Gaussian) + 3 I))^T;
- ``th<K>s<seed>``, K = 30, 40, 50, seeds 1-3: the finite-difference
  problem at ``solve_thomson(K, seed)``.

``--draws N`` keeps the first N cases of each family; the Thomson family
comes last and is solved only when its lines are reached.  BLAS runs on
one thread.  ``--tree DIR`` imports ``curvcheck`` from ``DIR/src`` (by
default this checkout's).  ``--diff OTHER`` also runs this command on
``OTHER`` in a second process, prints each line that differs (``-`` this
tree, ``+`` the other) and exits 1 when any does.  Without ``--diff`` the
lines go to standard output, and their count and sha256 to standard error.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)
GENERATOR_DRAWS = 300
M0_PROBLEMS = 10
BOUNDARY_DRAWS = 150
THOMSON = [(k, seed) for k in (30, 40, 50) for seed in (1, 2, 3)]


def import_program(tree: Path):
    """Import curvcheck from ``tree/src``, never from elsewhere."""
    package = (tree / "src" / "curvcheck" / "__init__.py").resolve()
    if not package.is_file():
        raise SystemExit(f"error: curvcheck sources not found at {package}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(package.parent.parent))
    import curvcheck

    if Path(curvcheck.__file__).resolve() != package:
        raise SystemExit(f"error: imported curvcheck from {curvcheck.__file__}, not {package}")


def population(draws: int):
    """The cases as ``(label, problem)`` pairs, built lazily in a fixed
    order, each family cut to its first ``draws`` members."""
    import numpy as np
    from curvcheck.problems import (
        GeneratorSpec, Problem, ThomsonInstance, ThomsonProblem, generate,
        random_orthogonal, random_symmetric_with_eigs,
    )
    from curvcheck.stationary import solve_thomson

    for d in range(min(draws, GENERATOR_DRAWS)):
        rng = np.random.default_rng(d)
        n = int(rng.integers(4, 201))
        m = int(rng.integers(1, n))
        p = int(rng.integers(0, n + 1))
        spec = GeneratorSpec(n=n, m=m, p=p, conditioning="ill" if d % 2 else "well", seed=d)
        yield f"gen{d}", generate(spec)

    for i in range(min(draws, M0_PROBLEMS)):
        rng = np.random.default_rng(1000 + i)
        n = 1 + 4 * i
        eigs = rng.uniform(0.1, 10.0, n)
        eigs[0] *= -1.0 if i % 2 else 1.0
        H = np.zeros((n, n)) if i == 9 else random_symmetric_with_eigs(eigs, rng)
        yield f"m0-{i}", Problem(np.zeros((0, n)), H)

    rng = np.random.default_rng(11)
    for j in range(min(draws, BOUNDARY_DRAWS)):
        n = int(rng.integers(6, 60))
        m = int(rng.integers(1, n - 1))
        Q = random_orthogonal(n, rng)
        W, Y = Q[:, : n - m], Q[:, n - m :]
        ev = rng.uniform(0.1, 10.0, n - m)
        ev[0] = 0.0
        H = (W * ev) @ W.T + Y @ rng.standard_normal((m, m)) @ Y.T
        A = (Y @ (np.triu(rng.standard_normal((m, m))) + 3.0 * np.eye(m))).T
        yield f"bnd{j}", Problem(A, (H + H.T) / 2)

    for k, seed in THOMSON[:draws]:
        point = solve_thomson(k, seed)
        yield f"th{k}s{seed}", ThomsonProblem(ThomsonInstance(k)).as_problem(point.x, point.lam)


def _digest(value) -> str:
    import numpy as np

    h = hashlib.sha256()
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype.str}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    else:
        h.update(repr(value).encode())
    return h.hexdigest()[:16]


def verdict_line(label: str, options: str, method: str, verdict) -> str:
    """The corpus line of one verdict."""
    diagnostics = {k: v for k, v in verdict.diagnostics.items() if k != "wall_time_s"}
    keys = sorted(diagnostics)
    direction = "none" if verdict.direction is None else _digest(verdict.direction)
    return " ".join(
        [label, options, method, verdict.status.value, f"step={verdict.step}",
         f"reason={verdict.reason}",
         f"products={diagnostics.get('operator_products')}",
         f"continuations={diagnostics.get('continuations')}",
         f"curvature={verdict.curvature!r}", f"keys={','.join(keys)}",
         f"direction={direction}"]
        + [f"{k}={_digest(diagnostics[k])}" for k in keys]
    )


def lines(draws: int):
    """The corpus lines, in population order."""
    from curvcheck.sosc import METHODS, VerifyOptions, verify

    settings = (("def", VerifyOptions()), ("rank0", VerifyOptions(tol_rank=0.0)))
    for label, problem in population(draws):
        for (name, options), method in itertools.product(settings, METHODS):
            yield verdict_line(label, name, method, verify(problem, method, options))


def diff(own: list, other: list) -> list:
    """The lines that differ between two corpora, as ``-``/``+`` pairs."""
    out = []
    for a, b in itertools.zip_longest(own, other, fillvalue="<missing>"):
        if a != b:
            out += [f"- {a}", f"+ {b}"]
    return out


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--draws", type=int, default=max(GENERATOR_DRAWS, BOUNDARY_DRAWS),
                        help="keep the first N cases of each family (default: all)")
    parser.add_argument("--tree", type=Path, default=ROOT,
                        help="checkout whose src/curvcheck is run (default: this one)")
    parser.add_argument("--diff", type=Path, metavar="OTHER",
                        help="also run on OTHER in a second process and print differing lines")
    args = parser.parse_args(argv)
    if args.draws < 0:
        parser.error("--draws must be nonnegative")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = "1"
    other = None
    if args.diff is not None:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--draws", str(args.draws), "--tree", str(args.diff)]
        other = subprocess.Popen(command, stdout=subprocess.PIPE, text=True)
    import_program(args.tree)
    if other is None:
        digest, count = hashlib.sha256(), 0
        for line in lines(args.draws):
            print(line)
            digest.update(f"{line}\n".encode())
            count += 1
        print(f"{count} lines, sha256 {digest.hexdigest()}", file=sys.stderr)
        return 0
    own = list(lines(args.draws))
    theirs = other.communicate()[0].splitlines()
    if other.returncode != 0:
        raise SystemExit(f"error: the corpus run on {args.diff} exited {other.returncode}")
    differing = diff(own, theirs)
    print("\n".join(differing), end="\n" if differing else "")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
