"""In-memory span recorder that instruments splitsolve from the outside.

A span is ``[name, start, end, parent, attrs]``: ``parent`` is the index
of the enclosing span (-1 at top level) and ``attrs`` holds what an
annotator read off the call's result (iterations, byte counts).  Spans
are recorded only while ``Recorder.active`` is set, so correctness
gates evaluated between passes leave no trace.

Nothing in ``src/`` is edited.  Public functions are replaced in every
splitsolve module that binds them, because the package imports names
across modules (``from .solver import run``).  Operator callables (each
``L`` and ``L^T``, resolvents, cocoercive maps) are fields of frozen
dataclasses, so the operator classes are swapped for subclasses that
wrap those fields of every instance they create.
"""

from __future__ import annotations

import functools
import importlib
import sys
import types
from time import perf_counter

#: the package modules that form the benchmark's layers
LAYERS = ("config", "convex", "solver", "operators", "reporting",
          "benchmarks", "cli")

#: span names of the operator callables, by class and field
OPERATOR_FIELDS = {
    "LinearOp": {"apply": "operators.L_apply",
                 "adjoint_apply": "operators.L_adjoint"},
    "ResolventOp": {"resolvent": "operators.prox"},
    "CocoerciveOp": {"apply": "operators.grad"},
}

#: what each annotated span keeps from its call
ANNOTATORS = {
    "solver.run": lambda args, out: out.iterations,
    "operators.estimate_norm": lambda args, out: (out.iterations, out.converged),
    "reporting.format_run_csv": lambda args, out: len(out.encode("utf-8")),
    "benchmarks.run_suite": lambda args, out: args[0],
}


class Recorder:
    """Collects spans of the wrapped callables while ``active``."""

    def __init__(self):
        self.spans: list[list] = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name, fn):
        annotate = ANNOTATORS.get(name)
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[4] = annotate(args, out)
            return out

        traced.span_name = name
        return traced

    def take(self) -> list[list]:
        """Hand over the spans recorded so far and start a fresh list."""
        taken = self.spans[:]
        self.spans.clear()
        return taken


def _package_modules():
    return [mod for name, mod in list(sys.modules.items())
            if name == "splitsolve" or name.startswith("splitsolve.")]


def _rebind(original, replacement):
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def _instrument_function(rec, layer, fname):
    mod = importlib.import_module(f"splitsolve.{layer}")
    fn = getattr(mod, fname)
    if hasattr(fn, "span_name"):
        return
    _rebind(fn, rec.wrap(f"{layer}.{fname}", fn))


def instrument_run(rec: Recorder) -> None:
    """Mark only the boundary of ``solver.run``: the untraced setting."""
    _instrument_function(rec, "solver", "run")


def _traced_class(rec, cls, fields):
    class Traced(cls):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            for field, name in fields.items():
                fn = getattr(self, field)
                if not hasattr(fn, "span_name"):
                    object.__setattr__(self, field, rec.wrap(name, fn))

    Traced.__name__ = Traced.__qualname__ = cls.__name__
    return Traced


def instrument_all(rec: Recorder) -> None:
    """Wrap every public function of every layer, and the operator
    callables of every operator constructed from now on."""
    for layer in LAYERS:
        mod = importlib.import_module(f"splitsolve.{layer}")
        for fname in mod.__all__:
            obj = getattr(mod, fname)
            if isinstance(obj, types.FunctionType) and obj.__module__ == mod.__name__:
                _instrument_function(rec, layer, fname)
    ops = importlib.import_module("splitsolve.operators")
    for cname, fields in OPERATOR_FIELDS.items():
        cls = getattr(ops, cname)
        _rebind(cls, _traced_class(rec, cls, fields))


# ---------------------------------------------------------------------------
# reduction of one pass's spans to per-layer metrics


def layer_metrics(spans: list[list]) -> tuple[dict, dict]:
    """Per-layer metrics of one pass, plus per-suite operator counts.

    Self time is a span's duration minus the durations of its direct
    children.  Per-iteration operator counts and times cover only calls
    made inside ``solver.run`` (kernel, residual and metrics hook), so
    power iteration and reference recursions do not dilute them.
    """
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    in_run = [False] * n
    suite = [None] * n
    for i, (name, _, _, parent, attrs) in enumerate(spans):
        if parent >= 0:
            child[parent] += dur[i]
            in_run[i] = in_run[parent] or spans[parent][0] == "solver.run"
            suite[i] = suite[parent]
        if name == "benchmarks.run_suite":
            suite[i] = attrs

    def select(names, inside_run=False):
        return [i for i in range(n) if spans[i][0] in names
                and (not inside_run or in_run[i])]

    def outer(*names):
        # total time of the outermost spans among ``names``
        return sum(dur[i] for i in select(names)
                   if spans[i][3] < 0 or spans[spans[i][3]][0] not in names)

    def self_time(*names):
        return sum(dur[i] - child[i] for i in select(names))

    runs = select({"solver.run"})
    iters = sum(spans[i][4] for i in runs)

    def per_iter(name):
        return len(select({name}, inside_run=True)) / iters if iters else 0.0

    def in_run_time(name):
        return sum(dur[i] for i in select({name}, inside_run=True))

    norms = [spans[i][4] for i in select({"operators.estimate_norm"})]
    m = {
        "config.parse_s": outer("config.parse_config_file", "config.parse_config"),
        "config.build_s": outer("config.build_problem"),
        "convex.lower_s": outer("convex.lower_to_inclusion"),
        "convex.lower_calls": len(select({"convex.lower_to_inclusion"})),
        "convex.gradcheck_s": outer("convex.check_gradient"),
        "convex.gap_s": outer("convex.evaluate_gap"),
        "convex.gap_calls": len(select({"convex.evaluate_gap"})),
        "solver.norms_s": outer("solver.certified_norms", "operators.estimate_norm"),
        "solver.power_iters": sum(it for it, _ in norms),
        "solver.power_converged_ratio": (sum(ok for _, ok in norms) / len(norms)
                                         if norms else 0.0),
        "solver.steps_s": self_time("solver.suggest_steps", "solver.validate_steps"),
        "solver.run_s": outer("solver.run"),
        "solver.run_self_s": self_time("solver.run"),
        "solver.iterations": iters,
        "operators.L_apply_s": in_run_time("operators.L_apply"),
        "operators.L_apply_per_iter": per_iter("operators.L_apply"),
        "operators.L_adjoint_s": in_run_time("operators.L_adjoint"),
        "operators.L_adjoint_per_iter": per_iter("operators.L_adjoint"),
        "operators.prox_s": in_run_time("operators.prox"),
        "operators.prox_per_iter": per_iter("operators.prox"),
        "operators.grad_s": in_run_time("operators.grad"),
        "reporting.csv_s": outer("reporting.write_run_csv", "reporting.format_run_csv"),
        "reporting.csv_bytes": sum(spans[i][4] for i in
                                   select({"reporting.format_run_csv"})),
        "benchmarks.reference_s": outer("benchmarks.forward_backward_reference",
                                        "benchmarks.condat_reference",
                                        "benchmarks.chambolle_pock_reference"),
        "cli.self_s": self_time("cli.main"),
    }
    for i in select({"benchmarks.run_suite"}):
        m[f"benchmarks.{spans[i][4]}_s"] = m.get(f"benchmarks.{spans[i][4]}_s", 0.0) + dur[i]

    per_suite: dict = {}
    for i in range(n):
        if suite[i] is None:
            continue
        row = per_suite.setdefault(suite[i], {"iterations": 0, "L_apply": 0,
                                              "L_adjoint": 0})
        name = spans[i][0]
        if name == "solver.run":
            row["iterations"] += spans[i][4]
        elif in_run[i] and name in ("operators.L_apply", "operators.L_adjoint"):
            row[name.split(".")[1]] += 1
    return m, per_suite
