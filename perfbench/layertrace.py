"""Outside-in layer trace: perf_counter spans around curvcheck's public calls.

:class:`Instrumentation` swaps wrappers into curvcheck's modules and classes for
the duration of a ``with`` block and restores the originals on exit, so
untraced passes run the program exactly as shipped.  Each wrapper records
one span (name, start, end, parent, method) and the counts that belong to
that boundary.  Spans stay in memory until the run ends.

A layer's self time is its span's duration minus the durations of its
direct children; children of one span never overlap because the program
is single-threaded.  Self times therefore add up to the root spans'
durations by construction; :meth:`Tracer.structure_defects` checks the
part that can go wrong, that every span hangs off a ``sosc.verify`` root.
"""

from __future__ import annotations

import collections
import contextlib
import functools
import sys
import time
from typing import Callable

import numpy as np

_now = time.perf_counter


class Tracer:
    """Span and count store for one traced pass."""

    def __init__(self):
        # [name, start, end, parent, method]
        self.spans = []
        self.counts = collections.Counter()
        self.method = None
        self._stack = []
        self._product_depth = 0
        self._misclosed = 0

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, _now(), 0.0, parent, self.method])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = _now()
        if self._stack.pop() != index:
            self._misclosed += 1

    @contextlib.contextmanager
    def span(self, name: str):
        index = self.open(name)
        try:
            yield
        finally:
            self.close(index)

    def count(self, name: str, amount: int = 1) -> None:
        self.counts[(name, self.method)] += amount

    def self_times(self) -> dict:
        """Self time summed per (span name, method)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out = collections.defaultdict(float)
        for i, (name, start, end, _, method) in enumerate(self.spans):
            out[(name, method)] += (end - start) - child[i]
        return out

    def durations(self, name: str) -> dict:
        """Total duration of the spans called ``name``, per method."""
        out = collections.defaultdict(float)
        for span_name, start, end, _, method in self.spans:
            if span_name == name:
                out[method] += end - start
        return out

    def structure_defects(self, root: str) -> list:
        """Spans that do not nest inside a span called ``root`` of their own
        method: a root of another name (a boundary entered outside the
        traced calls), a child outside its parent's interval, or a span
        still open."""
        defects = []
        if self._stack:
            defects.append(f"{len(self._stack)} spans still open")
        if self._misclosed:
            defects.append(f"{self._misclosed} spans closed out of order")
        for name, start, end, parent, method in self.spans:
            if parent < 0:
                if name != root:
                    defects.append(f"{name} span outside any {root} span")
                continue
            p_name, p_start, p_end, _, p_method = self.spans[parent]
            if not p_start <= start <= end <= p_end:
                defects.append(f"{name} span not inside its parent {p_name}")
            if method != p_method:
                defects.append(f"{name} span of {method} under a {p_method} span")
        return sorted(set(defects))


def _spanned(tracer: Tracer, name: str, fn: Callable, before=None, on_error=None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(args)
        index = tracer.open(name)
        try:
            return fn(*args, **kwargs)
        except Exception as exc:
            if on_error is not None:
                on_error(exc)
            raise
        finally:
            tracer.close(index)

    return wrapper


def _product_spanned(tracer: Tracer, fn: Callable, width: Callable) -> Callable:
    """Operator span that counts products once, at the outermost apply.

    A block apply on a callback or finite-difference operator loops over
    single applies; only the outer call counts, by its column count.
    """

    @functools.wraps(fn)
    def wrapper(self, s, *args, **kwargs):
        if tracer._product_depth == 0:
            tracer.count("products", width(s))
        tracer._product_depth += 1
        index = tracer.open("linalg.operator")
        try:
            return fn(self, s, *args, **kwargs)
        finally:
            tracer.close(index)
            tracer._product_depth -= 1

    return wrapper


class Instrumentation:
    """Context manager that patches the layer boundaries to record spans.

    A function is patched under every name a curvcheck module binds it to,
    so a call reaches the wrapper whichever module it goes through.
    Boundaries that a future version of the program no longer has are
    listed in ``missing``; the benchmark then reports the run as incorrect.
    """

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.missing = []
        self._saved = []
        self._modules = [module for name, module in sys.modules.items()
                         if name == "curvcheck" or name.startswith("curvcheck.")]

    def _patch_function(self, home, attr: str, make: Callable) -> None:
        original = getattr(home, attr, None)
        if original is None:
            self.missing.append(f"{home.__name__}.{attr}")
            return
        wrapper = make(original)
        for module in self._modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    self._saved.append((module, name, original))
                    setattr(module, name, wrapper)

    def _patch_method(self, cls: type, attr: str, make: Callable) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._saved.append((cls, attr, original))
        if isinstance(original, classmethod):
            setattr(cls, attr, classmethod(make(original.__func__)))
        else:
            setattr(cls, attr, make(original))

    def __enter__(self) -> "Instrumentation":
        from curvcheck import linalg, problems, sosc

        t = self.tracer
        span = functools.partial(_spanned, t)

        def count_rejected(exc):
            if isinstance(exc, linalg.DependentColumnError):
                t.count("append_rejected")

        for kernel in ("implicit_cholesky", "diagonalization", "continued_pcg",
                       "bordered_hessian_test", "inertia_test"):
            self._patch_function(sosc, kernel, lambda f: span("sosc.kernel", f))
        for fn in ("null_space_basis", "check_full_rank", "ldl_factor"):
            self._patch_function(linalg, fn, lambda f, n=fn: span(f"linalg.{n}", f))
        for fn in ("build_kkt", "build_bordered"):
            self._patch_function(problems, fn, lambda f, n=fn: span(f"problems.{n}", f))

        op = linalg.HessianOperator
        self._patch_method(op, "apply", lambda f: _product_spanned(t, f, lambda s: 1))
        self._patch_method(op, "apply_block", lambda f: _product_spanned(t, f, lambda S: np.shape(S)[1]))
        for attr in ("materialize", "from_matrix", "from_callback", "from_gradient"):
            self._patch_method(op, attr, lambda f: span("linalg.operator", f))

        proj = linalg.NullSpaceProjector
        self._patch_method(proj, "__init__", lambda f: span("linalg.projector_init", f))
        self._patch_method(proj, "project", lambda f: span(
            "linalg.project", f, before=lambda a: t.count("project_calls")))
        self._patch_method(proj, "append_column", lambda f: span(
            "linalg.append_column", f, before=lambda a: t.count("append_calls"),
            on_error=count_rejected))
        self._patch_method(linalg.BorderedLu, "update", lambda f: span(
            "linalg.bordered_update", f, before=lambda a: t.count("bordered_updates")))
        self._patch_method(problems.Problem, "operator", lambda f: span("problems.operator", f))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()
