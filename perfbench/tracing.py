"""Span tracing of powercg's layers from outside the package.

A Tracer replaces each traced public function with a timing wrapper under
every name a powercg module binds it by (``runs.theta_iterate_spectral``,
``orthopoly.weight_by_power``, ...), and patches three methods on their
classes: ``DiscreteSpectralMeasure.__init__``, ``InverseProblem.__init__``
and ``SelfAdjointOperator.apply``. Spans (name, start, end, parent) stay in
memory until the run writes them out. A span's self time is its duration
minus the time its direct children cover; the code is single-threaded, so
children never overlap and that coverage is the sum of their durations.
"""

import functools
import json
import os
import sys
import time

# (defining module, attribute, span name). The span name is the layer and the
# function, whatever name the calling module imported it under.
FUNCTIONS = (
    ("cli", "main", "cli.main"),
    ("runs", "run", "runs.run"),
    ("runs", "build_test_case", "runs.build_test_case"),
    ("runs", "build_custom_case", "runs.build_custom_case"),
    ("runs", "write_csv", "runs.write_csv"),
    ("runs", "emit_json", "runs.emit_json"),
    ("krylov", "run_cg", "krylov.run_cg"),
    ("krylov", "theta_iterate", "krylov.theta_iterate"),
    ("krylov", "theta_iterate_spectral", "krylov.theta_iterate_spectral"),
    ("krylov", "lanczos", "krylov.lanczos"),
    ("measures", "weight_by_power", "measures.weight_by_power"),
    ("orthopoly", "residual_polynomials", "orthopoly.residual_polynomials"),
    ("orthopoly", "bound_chain", "orthopoly.bound_chain"),
    ("orthopoly", "lemma_bound", "orthopoly.lemma_bound"),
    ("diagnostics", "rho", "diagnostics.rho"),
)

# (defining module, class, method, span name)
METHODS = (
    ("measures", "DiscreteSpectralMeasure", "__init__",
     "measures.DiscreteSpectralMeasure"),
    ("krylov", "InverseProblem", "__init__", "krylov.InverseProblem"),
    ("linop", "SelfAdjointOperator", "apply", "linop.apply"),
)


def _count_lanczos(counters, args, kwargs, result):
    counters["krylov.lanczos.steps"] += result[0].order


def _count_chain(counters, args, kwargs, result):
    counters["orthopoly.verdicts"] += 1
    counters["orthopoly.verdicts_false"] += not result.ok


def _count_lemma(counters, args, kwargs, result):
    counters["orthopoly.verdicts"] += 1
    counters["orthopoly.verdicts_false"] += not result[2]


def _count_written(counters, args, kwargs, result):
    path = args[1] if len(args) > 1 else kwargs["path"]
    counters["runs.bytes_written"] += os.path.getsize(path)


def _count_apply_bytes(counters, args, kwargs, result):
    # dense matvecs read the whole matrix once: n^2 doubles, computed from
    # the shape, not measured; other operators count no bytes
    op = args[0]
    if getattr(op, "matrix", None) is not None:
        counters["linop.apply.bytes_computed"] += op.dimension ** 2 * 8


COUNT_HOOKS = {
    "krylov.lanczos": _count_lanczos,
    "orthopoly.bound_chain": _count_chain,
    "orthopoly.lemma_bound": _count_lemma,
    "runs.write_csv": _count_written,
    "runs.emit_json": _count_written,
    "linop.apply": _count_apply_bytes,
}

COUNTERS = ("krylov.lanczos.steps", "orthopoly.verdicts",
            "orthopoly.verdicts_false", "runs.bytes_written",
            "linop.apply.bytes_computed")
# the run JSON carries its own wall time, whose printed length varies by a
# few bytes; every other count must repeat exactly on the same inputs
UNSTEADY = ("runs.bytes_written",)


def steady_counts(calls, counters):
    """The counts that must repeat exactly between passes and runs."""
    out = {f"{name}.calls": n for name, n in calls.items()}
    out.update((k, v) for k, v in counters.items() if k not in UNSTEADY)
    return out


class Tracer:
    """Records spans while active; wrappers stay installed until uninstall."""

    def __init__(self):
        self.active = False
        self.spans = []          # [name, start, end, parent index or -1]
        self.counters = dict.fromkeys(COUNTERS, 0)
        self._stack = []
        self._undo = []

    # installation -----------------------------------------------------------

    def install(self, package):
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == package.__name__
                                         or name.startswith(package.__name__ + "."))]
        for mod_name, attr, span in FUNCTIONS:
            owner = sys.modules.get(f"{package.__name__}.{mod_name}")
            fn = getattr(owner, attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, span)
            # every binding of the same function object, in every module
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._undo.append((mod, key, value))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, meth, span in METHODS:
            cls = getattr(sys.modules.get(f"{package.__name__}.{mod_name}"),
                          cls_name, None)
            if cls is None or meth not in vars(cls):
                continue
            fn = vars(cls)[meth]
            self._undo.append((cls, meth, fn))
            setattr(cls, meth, self._wrap(fn, span))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo = []

    def _wrap(self, fn, name):
        hook = COUNT_HOOKS.get(name)
        clock = time.perf_counter
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append([name, clock(), None, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook is not None:
                hook(self.counters, args, kwargs, result)
            return result

        return traced

    # recording --------------------------------------------------------------

    def start(self):
        self.active = True

    def stop(self):
        self.active = False

    def reset(self):
        del self.spans[:]
        self.counters = dict.fromkeys(COUNTERS, 0)

    def summary(self):
        """Per span name: calls and self seconds; plus the counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        calls = {}
        self_s = {}
        for i, (name, start, end, parent) in enumerate(self.spans):
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + (end - start) - child[i]
        return calls, self_s, dict(self.counters)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent"],
                       "spans": self.spans}, fh)
