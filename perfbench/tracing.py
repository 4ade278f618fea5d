"""Span tracing of entrocone's layers from outside the library.

`Tracer.install()` replaces every module binding of each traced function
(modules import by name, so `entropy_vector` is bound in both `quantum` and
`search`, `enumerate_instances` in four modules) with a wrapper that records a
span: name, start, end and parent.  Generators are timed per `next()`, not
per call.  Spans stay in memory until `write()`; `metrics()` turns them into
the per-layer metrics.  `uninstall()` restores every binding.

Each per-layer metric names the end-to-end metric it should move, on which
workload (see LAYER_METRICS).  `.s` is the inclusive time of a span name,
`.self_s` that time minus the time covered by its child spans.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter
from pathlib import Path

# (module, attribute) -> span name.  Every binding of the same function
# object in any entrocone module is wrapped.
FUNCTIONS = {
    ("entrocone.setfn", "is_submodular"): "setfn.predicates",
    ("entrocone.setfn", "is_monotone"): "setfn.predicates",
    ("entrocone.setfn", "is_weakly_monotone"): "setfn.predicates",
    ("entrocone.setfn", "setfn_from_obj"): "setfn.io",
    ("entrocone.inequalities", "satisfies"): "inequalities.satisfies",
    ("entrocone.witness", "verify_witness"): "witness.verify",
    ("entrocone.certify", "independence_problem"): "certify.problem_build",
    ("entrocone.certify", "purified_basic_problem"): "certify.problem_build",
    ("entrocone.certify", "cone_membership"): "certify.cone_membership",
    ("entrocone.certify", "verify_certificate"): "certify.verify_certificate",
    ("entrocone.quantum", "entropy_vector"): "quantum.entropy_vector",
    ("entrocone.quantum", "measure_and_register"): "quantum.measure_and_register",
    ("entrocone.quantum", "partial_trace"): "quantum.partial_trace",
    ("entrocone.quantum", "check_theorem"): "quantum.check_theorem",
    ("entrocone.quantum", "constrained_family_sample"): "quantum.family_sample",
    ("entrocone.quantum", "lw05_family_sample"): "quantum.family_sample",
    ("entrocone.search", "random_scan"): "search.random_scan",
    ("entrocone.search", "local_refine"): "search.local_refine",
    ("entrocone.cli", "main"): "cli.main",
    ("numpy.linalg", "eigvalsh"): "quantum.eigvalsh",
}
GENERATORS = {("entrocone.inequalities", "enumerate_instances"): "inequalities.enumerate"}

# name -> (unit, better, the end-to-end metric and workload it should move)
LAYER_METRICS = {
    "setfn.predicates.calls": ("count", "lower", "wall_s on witness, slightly"),
    "setfn.predicates.s": ("s", "lower", "wall_s on witness, slightly"),
    "setfn.io.s": ("s", "lower", "wall_s on witness"),
    "inequalities.enumerate.instances": ("count", "lower", "work_per_s on witness"),
    "inequalities.enumerate.s": ("s", "lower",
                                 "work_per_s on witness strongly, on certify slightly"),
    "inequalities.eval_exact.calls": ("count", "lower", "work_per_s on witness"),
    "inequalities.eval_exact.s": ("s", "lower", "work_per_s on witness"),
    "inequalities.eval_float.calls": ("count", "lower",
                                      "work_per_s on search; near zero on sample"),
    "inequalities.eval_float.s": ("s", "lower", "work_per_s on search; near zero on sample"),
    "inequalities.satisfies.s": ("s", "lower", "work_per_s on witness"),
    "witness.verify.s": ("s", "lower", "work_per_s on witness"),
    "witness.verify.self_s": ("s", "lower", "work_per_s on witness"),
    "certify.problem_build.s": ("s", "lower", "work_per_s on certify, slightly"),
    "certify.cone_membership.s": ("s", "lower", "work_per_s on certify"),
    "certify.cone_membership.self_s": ("s", "lower", "work_per_s on certify"),
    "certify.pivots": ("count", "lower", "work_per_s on certify"),
    "certify.pivots_per_s": ("1/s", "higher", "work_per_s on certify"),
    "certify.verify_certificate.calls": ("count", "lower", "wall_s on certify"),
    "certify.verify_certificate.s": ("s", "lower", "wall_s on certify"),
    "quantum.entropy_vector.calls": ("count", "lower", "work_per_s on search and sample"),
    "quantum.entropy_vector.s": ("s", "lower", "work_per_s on search and sample"),
    "quantum.eigvalsh.calls": ("count", "lower", "work_per_s on search and sample"),
    "quantum.eigvalsh.s": ("s", "lower", "work_per_s on search and sample"),
    "quantum.eigvalsh.d3_sum": ("count", "lower", "work_per_s on search and sample"),
    "quantum.measure_and_register.s": ("s", "lower", "work_per_s on sample"),
    "quantum.partial_trace.s": ("s", "lower", "work_per_s on sample"),
    "quantum.check_theorem.self_s": ("s", "lower", "work_per_s on sample"),
    "quantum.family_sample.s": ("s", "lower", "work_per_s on sample"),
    "search.family_build.calls": ("count", "lower", "work_per_s on search"),
    "search.family_build.s": ("s", "lower", "work_per_s on search"),
    "search.random_scan.self_s": ("s", "lower", "work_per_s on search"),
    "search.local_refine.self_s": ("s", "lower", "work_per_s on search"),
    "search.admissible_ratio": ("ratio", "higher", "work_per_s on search"),
    "search.evaluations": ("count", "lower", "base of search.admissible_ratio"),
    "search.refine.accepted_ratio": ("ratio", "higher", "work_per_s on search"),
    "search.refine.steps": ("count", "lower", "base of search.refine.accepted_ratio"),
    "cli.main.self_s": ("s", "lower", "wall_s on every workload, most on sample"),
    "cli.report_bytes": ("count", "lower", "wall_s on every workload, most on sample"),
    "trace.spans": ("count", "lower", "base of trace.overhead_s"),
    "trace.overhead_s": ("s", "lower", "none: traced minus untraced wall_s"),
}


class _TimedIterator:
    """Forwards an iterator, recording one span per `next()`."""

    __slots__ = ("_tracer", "_name", "_it")

    def __init__(self, tracer, name, it):
        self._tracer, self._name, self._it = tracer, name, iter(it)

    def __iter__(self):
        return self

    def __next__(self):
        idx = self._tracer.open(self._name)
        try:
            item = next(self._it)
        finally:
            self._tracer.close(idx)
        self._tracer.counts[self._name + ".instances"] += 1
        return item


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self.nested: list[bool] = []  # inside a span of the same name
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._patches: list[tuple] = []

    # -- spans

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.nested.append(self._active[name] > 0)
        self._active[name] += 1
        self._stack.append(idx)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self._stack.pop()
        self._active[self.names[idx]] -= 1

    def _call_wrapper(self, name, fn, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _iter_wrapper(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return _TimedIterator(self, name, fn(*args, **kwargs))

        return wrapper

    # -- hooks that record the program's own counts at the layer boundary

    def _after_eigvalsh(self, args, result):
        shape = args[0].shape  # (..., d, d): a stack of d x d matrices
        self.counts["quantum.eigvalsh.d3_sum"] += math.prod(shape[:-2]) * shape[-1] ** 3

    def _after_cone(self, args, result):
        self.counts["certify.pivots"] += result.pivots

    def _after_scan(self, args, result):
        self.counts["search.evaluations"] += result.n_evaluations
        self.counts["search.admissible"] += result.n_admissible

    def _after_refine(self, args, result):
        self.counts["search.refine.steps"] += result.steps
        self.counts["search.refine.accepted"] += result.accepted

    # -- installation

    def _rebind(self, original, wrapper) -> None:
        """Point every entrocone binding of `original` at `wrapper`."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "entrocone" or modname.startswith("entrocone.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        import numpy.linalg

        import entrocone.cli  # noqa: F401  (loads every module)
        from entrocone import inequalities, search
        from entrocone.setfn import FLOAT64

        after = {
            "quantum.eigvalsh": self._after_eigvalsh,
            "certify.cone_membership": self._after_cone,
            "search.random_scan": self._after_scan,
            "search.local_refine": self._after_refine,
        }
        for (modname, attr), name in FUNCTIONS.items():
            original = getattr(sys.modules[modname], attr)
            wrapper = self._call_wrapper(name, original, after.get(name))
            if modname == "numpy.linalg":
                self._patches.append((numpy.linalg, attr, original))
                setattr(numpy.linalg, attr, wrapper)
            self._rebind(original, wrapper)
        for (modname, attr), name in GENERATORS.items():
            original = getattr(sys.modules[modname], attr)
            self._rebind(original, self._iter_wrapper(name, original))

        # methods: exact and float evaluation, and every family's build
        evaluate = inequalities.LinearFunctional.evaluate

        @functools.wraps(evaluate)
        def traced_evaluate(functional, f):
            name = "inequalities.eval_float" if f.domain == FLOAT64 else "inequalities.eval_exact"
            idx = self.open(name)
            try:
                return evaluate(functional, f)
            finally:
                self.close(idx)

        self._patches.append((inequalities.LinearFunctional, "evaluate", evaluate))
        inequalities.LinearFunctional.evaluate = traced_evaluate
        families = [c for c in vars(search).values()
                    if isinstance(c, type) and issubclass(c, search.StateFamily)
                    and "build" in vars(c) and c is not search.StateFamily]
        if not families:
            raise RuntimeError("no state family with a build method to trace")
        for cls in families:
            original = vars(cls)["build"]
            self._patches.append((cls, "build", original))
            setattr(cls, "build", self._call_wrapper("search.family_build", original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patches):
            setattr(owner, key, original)
        self._patches.clear()

    # -- results

    def totals(self) -> dict:
        """Per span name: calls, inclusive seconds, self seconds."""
        child = [0.0] * len(self.names)
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += self.ends[i] - self.starts[i]
        out: dict = {}
        for i, name in enumerate(self.names):
            calls, incl, self_s = out.get(name, (0, 0.0, 0.0))
            dur = self.ends[i] - self.starts[i]
            out[name] = (calls + 1,
                         incl + (0.0 if self.nested[i] else dur),
                         self_s + dur - child[i])
        return out

    def metrics(self, overhead_s: float, report_bytes: int) -> dict:
        tot = self.totals()

        def calls(name):
            return tot.get(name, (0, 0.0, 0.0))[0]

        def incl(name):
            return tot.get(name, (0, 0.0, 0.0))[1]

        def self_s(name):
            return tot.get(name, (0, 0.0, 0.0))[2]

        def ratio(num, den):
            return num / den if den else 0.0

        c = self.counts
        values = {
            "setfn.predicates.calls": calls("setfn.predicates"),
            "setfn.predicates.s": incl("setfn.predicates"),
            "setfn.io.s": incl("setfn.io"),
            "inequalities.enumerate.instances": c["inequalities.enumerate.instances"],
            "inequalities.enumerate.s": incl("inequalities.enumerate"),
            "inequalities.eval_exact.calls": calls("inequalities.eval_exact"),
            "inequalities.eval_exact.s": incl("inequalities.eval_exact"),
            "inequalities.eval_float.calls": calls("inequalities.eval_float"),
            "inequalities.eval_float.s": incl("inequalities.eval_float"),
            "inequalities.satisfies.s": incl("inequalities.satisfies"),
            "witness.verify.s": incl("witness.verify"),
            "witness.verify.self_s": self_s("witness.verify"),
            "certify.problem_build.s": incl("certify.problem_build"),
            "certify.cone_membership.s": incl("certify.cone_membership"),
            "certify.cone_membership.self_s": self_s("certify.cone_membership"),
            "certify.pivots": c["certify.pivots"],
            "certify.pivots_per_s": ratio(c["certify.pivots"], incl("certify.cone_membership")),
            "certify.verify_certificate.calls": calls("certify.verify_certificate"),
            "certify.verify_certificate.s": incl("certify.verify_certificate"),
            "quantum.entropy_vector.calls": calls("quantum.entropy_vector"),
            "quantum.entropy_vector.s": incl("quantum.entropy_vector"),
            "quantum.eigvalsh.calls": calls("quantum.eigvalsh"),
            "quantum.eigvalsh.s": incl("quantum.eigvalsh"),
            "quantum.eigvalsh.d3_sum": c["quantum.eigvalsh.d3_sum"],
            "quantum.measure_and_register.s": incl("quantum.measure_and_register"),
            "quantum.partial_trace.s": incl("quantum.partial_trace"),
            "quantum.check_theorem.self_s": self_s("quantum.check_theorem"),
            "quantum.family_sample.s": incl("quantum.family_sample"),
            "search.family_build.calls": calls("search.family_build"),
            "search.family_build.s": incl("search.family_build"),
            "search.random_scan.self_s": self_s("search.random_scan"),
            "search.local_refine.self_s": self_s("search.local_refine"),
            "search.admissible_ratio": ratio(c["search.admissible"], c["search.evaluations"]),
            "search.evaluations": c["search.evaluations"],
            "search.refine.accepted_ratio": ratio(c["search.refine.accepted"],
                                                  c["search.refine.steps"]),
            "search.refine.steps": c["search.refine.steps"],
            "cli.main.self_s": self_s("cli.main"),
            "cli.report_bytes": report_bytes,
            "trace.spans": len(self.names),
            "trace.overhead_s": overhead_s,
        }
        if set(values) != set(LAYER_METRICS):
            raise RuntimeError("per-layer metrics and LAYER_METRICS disagree")
        return values

    def write(self, path: Path) -> None:
        """Write every span as [name, start, end, parent], times in seconds."""
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[n, round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        path.write_text(json.dumps({"fields": ["name", "start", "end", "parent"],
                                    "spans": rows}, separators=(",", ":")))
