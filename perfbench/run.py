#!/usr/bin/env python3
"""curvcheck benchmark: per-method time-to-verdict with an outside-in layer trace.

Run from the repository root; the program is imported from ``src/``:

    python3 perfbench/run.py --workload dense-large --seed 1 --seconds 25 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off; ``--trace 1``
alternates traced and untraced passes and reports the per-layer metrics and
the tracing overhead.  End-to-end times are scaled to a nominal host speed
with a reference computation timed around every pass and set-up (see
``hostspeed.py``).  Every verdict goes through an independent correctness
gate.  Human-readable lines come first; the last line of standard output is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  A fuller record (environment, samples, one pass of spans) is
written under ``.bench_out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# BLAS and OpenMP pools are pinned to one thread: with two OpenBLAS threads
# on a 2-core machine single calls swung by up to 9x between runs.
BLAS_THREADS = 1
THREAD_VARS = (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)

METHODS = ("cholesky", "diagonalization", "pcg", "bht", "inertia")
MIN_PASSES = 3          # untraced passes per method, whatever --seconds says
MIN_TRACED_PASSES = 2   # so the exact-count check has two passes to compare
SETUP_REPEATS = (3, 25)  # fewest and most set-ups per run
SETUP_BUDGET_S = 4.0     # stop repeating set-up once this much time is spent

END_TO_END = (
    [(f"verify_s.{m}", "s", "lower") for m in METHODS]
    + [
        ("verifies_per_s", "1/s", "higher"),
        ("setup_s", "s", "lower"),
        ("sound_share", "ratio", "higher"),
        ("conclusive_share", "ratio", "higher"),
        ("peak_rss_mib", "MiB", "lower"),
    ]
)

PER_LAYER = (
    [(f"linalg.operator_s.{m}", "s", "lower") for m in METHODS]
    + [(f"linalg.products.{m}", "count", "lower") for m in METHODS]
    + [(f"linalg.check_full_rank_s.{m}", "s", "lower") for m in ("pcg", "bht", "inertia")]
    + [(f"linalg.null_space_basis_s.{m}", "s", "lower") for m in ("cholesky", "diagonalization")]
    + [
        ("linalg.projector_init_s", "s", "lower"),
        ("linalg.project_s", "s", "lower"),
        ("linalg.project_calls", "count", "lower"),
        ("linalg.append_column_s", "s", "lower"),
        ("linalg.append_calls", "count", "lower"),
        ("linalg.append_rejected", "count", "lower"),
        ("linalg.bordered_update_s", "s", "lower"),
        ("linalg.bordered_updates", "count", "lower"),
        ("linalg.ldl_factor_s", "s", "lower"),
        ("problems.operator_s", "s", "lower"),
        ("problems.build_kkt_s", "s", "lower"),
        ("problems.build_bordered_s", "s", "lower"),
        ("setup.generator_s", "s", "lower"),
    ]
    + [(f"sosc.kernel_self_s.{m}", "s", "lower") for m in METHODS]
    + [(f"sosc.verify_self_s.{m}", "s", "lower") for m in METHODS]
    + [(f"sosc.steps.{m}", "count", "lower") for m in METHODS]
    + [
        ("sosc.pcg_continuations", "count", "lower"),
        ("trace.overhead_share", "ratio", "lower"),
    ]
)

# span name -> per-layer metric; "{m}" marks metrics kept per method
SPAN_METRICS = {
    "linalg.operator": "linalg.operator_s.{m}",
    "linalg.check_full_rank": "linalg.check_full_rank_s.{m}",
    "linalg.null_space_basis": "linalg.null_space_basis_s.{m}",
    "linalg.projector_init": "linalg.projector_init_s",
    "linalg.project": "linalg.project_s",
    "linalg.append_column": "linalg.append_column_s",
    "linalg.bordered_update": "linalg.bordered_update_s",
    "linalg.ldl_factor": "linalg.ldl_factor_s",
    "problems.operator": "problems.operator_s",
    "problems.build_kkt": "problems.build_kkt_s",
    "problems.build_bordered": "problems.build_bordered_s",
    "sosc.kernel": "sosc.kernel_self_s.{m}",
    "sosc.verify": "sosc.verify_self_s.{m}",
}
COUNT_METRICS = {
    "products": "linalg.products.{m}",
    "steps": "sosc.steps.{m}",
    "project_calls": "linalg.project_calls",
    "append_calls": "linalg.append_calls",
    "append_rejected": "linalg.append_rejected",
    "bordered_updates": "linalg.bordered_updates",
    "pcg_continuations": "sosc.pcg_continuations",
}


def pin_blas_threads() -> None:
    """Fix the thread pools before numpy is imported (it reads them once)."""
    if "numpy" in sys.modules:
        raise RuntimeError("numpy was imported before the BLAS threads were pinned")
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)


def import_program():
    """Import curvcheck from this checkout's sources, never from elsewhere."""
    package = SRC / "curvcheck" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: curvcheck sources not found at {package}")
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(SRC))
    import curvcheck

    if Path(curvcheck.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported curvcheck from {curvcheck.__file__}, not {package}")
    return curvcheck


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        try:
            deps = module.show_config(mode="dicts")["Build Dependencies"]
            return f"{deps['blas']['name']} {deps['blas']['version']}"
        except Exception:  # noqa: BLE001 - a missing build record is only reported
            return "unknown"

    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "machine": platform.machine(),
        "platform": platform.platform(),
    }


def source_digest() -> str:
    """Hash of the program and of the benchmark code that makes its inputs."""
    digest = hashlib.sha256()
    here = Path(__file__).resolve().parent
    for path in sorted((SRC / "curvcheck").rglob("*.py")) + sorted(here.glob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


# ---------------------------------------------------------------------------
# Passes
# ---------------------------------------------------------------------------


def heap_settler():
    """A function that frees garbage and returns freed heap memory to the
    system; run before each pass, outside the timed calls.

    Without it a pass inherits the heap layout the previous method's large
    arrays left behind, and the speed of a short pass depends on it: on
    dense-large the median inertia pass moved by about 15% between runs
    with identical inputs, and by about 6% with it.  The trim needs glibc;
    elsewhere only the garbage is collected.
    """
    try:
        trim = ctypes.CDLL(None).malloc_trim
    except (OSError, AttributeError):
        trim = None

    def settle():
        gc.collect()
        if trim is not None:
            trim(0)

    return settle


class Ledger:
    """Gate outcomes and verdict signatures over every measured call.

    Shares are taken over (method, case) pairs, each counted once with its
    worst outcome, so they do not depend on how many passes a method got.
    """

    _RANK = {"ok": 0, "inconclusive": 1, "failed": 2}

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures = []
        self.flags = []
        self.signatures = {}
        self.outcomes = {}

    def record(self, method, index, case, outcome, detail, signature):
        self.attempted += 1
        if outcome == "failed":
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append(f"{method} {case.label}: {detail}")
        pair = (method, index)
        current = self.outcomes.get(pair)
        if current is None or self._RANK[outcome] > self._RANK[current]:
            self.outcomes[pair] = outcome
        first = self.signatures.setdefault(pair, signature)
        if first != signature:
            self.flag(f"{method} {case.label}: verdict {signature} differs from "
                      f"an earlier pass's {first}")

    def share(self, outcome) -> tuple:
        hits = sum(1 for o in self.outcomes.values() if o == outcome)
        return hits, len(self.outcomes)

    def flag(self, message):
        if message not in self.flags:
            self.flags.append(message)


class Passes:
    """Timed ``verify`` passes over one workload's cases, gated as they run."""

    def __init__(self, cases, verify, options, judge):
        self.cases, self.verify, self.options, self.judge = cases, verify, options, judge
        self.ledger = Ledger()
        self.settle = heap_settler()

    def method_pass(self, method, tracer=None, between=None):
        """One ``verify`` call per case; returns (start, wall time) per call.

        ``between()``, if given, runs before every call but the first,
        outside the timed calls."""
        calls = []
        for index, case in enumerate(self.cases):
            if between is not None and index:
                between()
            if tracer is not None:
                tracer.method = method
                span = tracer.open("sosc.verify")
            t0 = time.perf_counter()
            try:
                verdict = self.verify(case.problem, method, self.options)
            except Exception as exc:  # noqa: BLE001 - an escaped exception is a counted failure
                calls.append((t0, time.perf_counter() - t0))
                if tracer is not None:
                    tracer.close(span)
                detail = f"raised {type(exc).__name__}: {exc}"
                self.ledger.record(method, index, case, "failed", detail,
                                   ("raised", type(exc).__name__))
                continue
            calls.append((t0, time.perf_counter() - t0))
            status = verdict.status.value
            if tracer is not None:
                tracer.close(span)
                tracer.count("steps", verdict.step if verdict.step is not None
                             else (case.l if status == "holds" else 0))
                if method == "pcg":
                    tracer.count("pcg_continuations", verdict.diagnostics["continuations"])
            outcome, detail = self.judge(method, case, verdict)
            self.ledger.record(method, index, case, outcome, detail, (status, verdict.step))
        return calls

    def untraced(self, seconds, timeline):
        """Each method gets an equal share of ``seconds`` of verify time and
        at least MIN_PASSES passes, so cheap methods collect more samples.

        The method with the least time so far runs next.  That spreads a
        cheap method's passes between the passes of the expensive ones: its
        speed depends on the heap the previous calls left behind, and
        passes run back to back would all see one heap state.

        The host-speed timeline is sampled before every pass and, within a
        pass, between calls (``Timeline.tick``); each call is scaled by the
        host slowness around it.

        Returns the scaled pass and call times and the wall pass times.
        """
        share = seconds / len(METHODS)
        wall = {m: [] for m in METHODS}
        pass_calls = {m: [] for m in METHODS}
        while True:
            pending = [m for m in METHODS if len(wall[m]) < MIN_PASSES or sum(wall[m]) < share]
            if not pending:
                break
            method = min(pending, key=lambda m: sum(wall[m]))
            self.settle()
            timeline.sample()
            calls = self.method_pass(method, between=timeline.tick)
            pass_calls[method].append(calls)
            wall[method].append(sum(d for _, d in calls))
        timeline.sample()
        passes = {m: [] for m in METHODS}
        scaled_calls = {m: [] for m in METHODS}
        for m in METHODS:
            for calls in pass_calls[m]:
                scaled = [d / timeline.slowness(t, t + d) for t, d in calls]
                passes[m].append(sum(scaled))
                scaled_calls[m].extend(scaled)
        return passes, scaled_calls, wall, pass_calls

    def traced(self, seconds, layertrace):
        """Alternate traced and untraced passes over all five methods."""
        traced, untraced, tracers, missing = [], [], [], []
        start = time.perf_counter()
        while (len(traced) < MIN_TRACED_PASSES or not untraced
               or time.perf_counter() - start < seconds):
            if len(traced) <= len(untraced):
                tracer = layertrace.Tracer()
                with layertrace.Instrumentation(tracer) as patched:
                    traced.append(sum(self._settled_pass(m, tracer) for m in METHODS))
                missing = patched.missing
                tracers.append(tracer)
            else:
                untraced.append(sum(self._settled_pass(m) for m in METHODS))
        return traced, untraced, tracers, missing

    def _settled_pass(self, method, tracer=None):
        self.settle()
        return sum(d for _, d in self.method_pass(method, tracer))


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def tail(samples):
    """The highest percentile with at least ten samples beyond it, if any
    percentile above the median has that many."""
    n = len(samples)
    if n < 20:
        return None
    return math.floor(100 * (n - 10) / n), sorted(samples)[n - 11]


def describe(samples, what):
    text = f"median {statistics.median(samples):.6g} of {len(samples)} {what}"
    t = tail(samples)
    return text + (f", p{t[0]} {t[1]:.6g}" if t else ", no tail percentile (< 20 samples)")


def layer_metrics(tracer) -> dict:
    out = {name: 0.0 if unit == "s" else 0 for name, unit, _ in PER_LAYER}
    for (span, method), value in tracer.self_times().items():
        key = SPAN_METRICS.get(span)
        if key is not None:
            key = key.format(m=method)
            if key in out:
                out[key] += value
    for (count, method), value in tracer.counts.items():
        key = COUNT_METRICS[count].format(m=method)
        if key in out:
            out[key] += value
    return out


def check_trace(tracer, values, missing, full_size, ledger) -> None:
    """Flag a trace that cannot be trusted: a boundary the program no longer
    has, a span outside the traced ``verify`` calls, or, at full size, a
    layer time that reads 0.  Every layer time is nonzero on every workload
    at the seed commit, so a 0 means the program now reaches that layer
    under a name the trace does not patch.  The tiny smoke-test sizes skip
    some layers (no pcg appends), so the last check needs full size."""
    for boundary in missing:
        ledger.flag(f"layer boundary {boundary} not found")
    for defect in tracer.structure_defects("sosc.verify"):
        ledger.flag(f"trace: {defect}")
    for name, unit, _ in PER_LAYER if full_size else ():
        # setup.generator_s is timed in set-up, outside the traced passes
        if unit == "s" and name != "setup.generator_s" and values[name] == 0.0:
            ledger.flag(f"{name} reads 0: its layer was never entered")


def fingerprint_check(out_dir, key, record, ledger) -> None:
    """Counts and verdicts must repeat exactly across runs with one seed."""
    path = out_dir / "fingerprints" / f"{key}.json"
    previous = {}
    if path.is_file():
        previous = json.loads(path.read_text())
        for field, value in record.items():
            if field in previous and previous[field] != value:
                ledger.flag(f"{field} differ from an earlier run with the same seed "
                            f"({path.name})")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({**previous, **record}, sort_keys=True))


def timed_setup(workloads, layertrace, timeline, name, seed, size):
    """Build the cases from their sources several times (same seed, same
    cases), with the host-speed timeline sampled between set-ups.

    Returns the scaled and the wall set-up times, the time spent in the
    generator layer (``generate`` per set-up, or the one ``solve_thomson``
    run that makes the sources) and the cases.
    """
    tracer = layertrace.Tracer()
    sources = workloads.sources(name, seed, size, tracer.span)
    found = sum(tracer.durations("setup.generator").values())
    low, high = SETUP_REPEATS
    starts, wall, generator, cases = [], [], [], None
    timeline.sample()
    while len(wall) < low or (len(wall) < high and sum(wall) < SETUP_BUDGET_S):
        tracer = layertrace.Tracer()
        starts.append(time.perf_counter())
        cases = workloads.build(name, sources, tracer.span)
        wall.append(time.perf_counter() - starts[-1])
        timeline.sample()
        generator.append(sum(tracer.durations("setup.generator").values()))
    scaled = [d / timeline.slowness(t, t + d) for t, d in zip(starts, wall)]
    return scaled, wall, [found] if found else generator, cases


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("dense-large", "dense-campaign", "thomson-fd"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: shapes kept, sizes cut for the smoke test")
    parser.add_argument("--out", type=Path, default=ROOT / ".bench_out",
                        help="directory for the full result record")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def end_to_end(run, seconds, timeline, setup_times, setup_wall):
    """Untraced passes -> (values, details, samples) of the end-to-end metrics.

    Times are scaled seconds (see ``hostspeed.py``); the details also give
    the wall-time medians."""
    passes, calls, wall, pass_calls = run.untraced(seconds, timeline)
    values, details = {}, {}
    for m in METHODS:
        values[f"verify_s.{m}"] = statistics.median(passes[m])
        details[f"verify_s.{m}"] = (
            f"{describe(passes[m], 'passes')}; per call {describe(calls[m], 'calls')}; "
            f"wall median {statistics.median(wall[m]):.6g}"
        )
    n_calls = len(run.cases) * len(METHODS)
    values["verifies_per_s"] = n_calls / sum(values[f"verify_s.{m}"] for m in METHODS)
    details["verifies_per_s"] = f"{n_calls} calls over the sum of the median pass times"
    values["setup_s"] = statistics.median(setup_times)
    details["setup_s"] = (f"{describe(setup_times, 'set-ups')}; "
                          f"wall median {statistics.median(setup_wall):.6g}")
    for name, outcome in (("sound_share", "failed"), ("conclusive_share", "inconclusive")):
        hits, pairs = run.ledger.share(outcome)
        values[name] = 1.0 - hits / pairs
        details[name] = f"{outcome}_share = {hits}/{pairs} (method, case) pairs"
    values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    details["peak_rss_mib"] = "ru_maxrss of this process"
    refs = timeline.values
    details["reference"] = (f"host slowness median {statistics.median(refs):.4g}, "
                            f"range {min(refs):.4g}-{max(refs):.4g} over {len(refs)} samples "
                            f"of {'+'.join(timeline.reference.parts)}")
    samples = {"pass_s": passes, "call_s": calls, "setup_s": setup_times,
               "wall_pass_s": wall, "wall_setup_s": setup_wall,
               "slowness": list(zip(timeline.times, refs)), "wall_calls": pass_calls}
    return values, details, samples


def per_layer(run, seconds, generator_times, layertrace, full_size):
    """Traced and untraced passes -> (values, details, samples, counts) of
    the per-layer metrics; counts must repeat exactly across traced passes."""
    traced, untraced, tracers, missing = run.traced(seconds, layertrace)
    per_pass = [layer_metrics(t) for t in tracers]
    for tracer, values in zip(tracers, per_pass):
        check_trace(tracer, values, missing, full_size, run.ledger)
    values = {name: statistics.median(p[name] for p in per_pass) for name, _, _ in PER_LAYER}
    counts = {}
    for name, unit, _ in PER_LAYER:
        if unit == "count":
            seen = [p[name] for p in per_pass]
            if len(set(seen)) != 1:
                run.ledger.flag(f"{name} differs across traced passes: {seen}")
            counts[name] = values[name] = seen[0]
    values["setup.generator_s"] = statistics.median(generator_times)
    values["trace.overhead_share"] = statistics.median(traced) / statistics.median(untraced) - 1.0
    details = {name: f"median of {len(tracers)} traced passes" for name, _, _ in PER_LAYER}
    details["setup.generator_s"] = describe(generator_times, "generator runs")
    details["trace.overhead_share"] = (
        f"median traced pass {statistics.median(traced):.6g} s vs untraced "
        f"{statistics.median(untraced):.6g} s"
    )
    samples = {
        "traced_pass_s": traced, "untraced_pass_s": untraced, "per_pass": per_pass,
        "missing_boundaries": missing, "spans_of_last_traced_pass": tracers[-1].spans,
    }
    return values, details, samples, counts


def main(argv=None) -> int:
    args = parse_args(argv)
    pin_blas_threads()
    curvcheck = import_program()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import hostspeed
    import layertrace
    import workloads

    env = environment()
    digest = source_digest()
    timeline = hostspeed.Timeline(hostspeed.Reference(workloads.REFERENCE[args.workload]))
    setup_times, setup_wall, generator_times, cases = timed_setup(
        workloads, layertrace, timeline, args.workload, args.seed, args.size
    )
    options = workloads.options(args.workload)
    run = Passes(cases, curvcheck.verify, options, workloads.judge)
    warm = workloads.warmup_problem()
    for method in METHODS:  # lazy imports and first-call costs, not measured
        curvcheck.verify(warm, method, options)

    if args.trace:
        specs = PER_LAYER
        values, details, samples, counts = per_layer(
            run, args.seconds, generator_times, layertrace, args.size == "full")
        fingerprint = {"counts": counts}
    else:
        specs = END_TO_END
        values, details, samples = end_to_end(run, args.seconds, timeline, setup_times, setup_wall)
        fingerprint = {}
    ledger = run.ledger
    fingerprint["verdicts"] = sorted(f"{m}/{i}:{s}" for (m, i), s in ledger.signatures.items())
    fingerprint_check(args.out, f"{args.workload}-{args.size}-seed{args.seed}-{digest}",
                      fingerprint, ledger)
    correct = ledger.failed == 0 and not ledger.flags

    print(f"# curvcheck benchmark: workload={args.workload} seed={args.seed} "
          f"size={args.size} trace={args.trace} cases={len(cases)}")
    print("# env " + json.dumps(env, sort_keys=True))
    print(f"{'metric':34} {'value':>14} {'unit':>6}  {'better':6}  detail")
    for name, unit, better in specs:
        print(f"{name:34} {values[name]:14.6g} {unit:>6}  {better:6}  {details[name]}")
    if "reference" in details:
        print(f"# host-speed reference: {details['reference']}")
    for message in ledger.failures:
        print(f"# FAILED {message}")
    for message in ledger.flags:
        print(f"# FLAG {message}")

    record = {
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "trace": args.trace, "seconds": args.seconds, "env": env, "source_digest": digest,
        "verify_options": vars(options),
        "metrics": {
            name: {"value": values[name], "unit": unit, "better": better, "detail": details[name]}
            for name, unit, better in specs
        },
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "outcomes": {f"{m}/{cases[i].label}": o for (m, i), o in ledger.outcomes.items()},
        "failures": ledger.failures, "flags": ledger.flags, "samples": samples,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    result_path = args.out / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}.json"
    result_path.write_text(json.dumps(record, indent=1))
    print(f"# full record: {result_path}")
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted, "failed": ledger.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit, _ in specs},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
