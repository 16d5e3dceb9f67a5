"""Per-layer tracing for one benchmark worker.

The tracer wraps functions of the installed ``greenrefl`` modules from the
outside: the library itself carries no tracing code.  Two kinds of wrapper
exist:

* spans, around the pipeline stages (wall time, calls, self time).  A span
  nested in another span of the same name adds to its calls but not to its
  inclusive time, so recursion is never counted twice;
* counters, around the scalar operations of ``exact_arith`` (calls only:
  they run millions of times and a clock read per call would swamp them).

Install once per process, before the timed call, with ``Tracer().install()``.
"""

from __future__ import annotations

import time
from collections import Counter

# span name -> (module, attribute path) of every function recorded under it
SPANS = {
    "wreath.hl_data": [("wreath", "hl_data")],
    "gepn.coset_table": [("gepn", "CosetAlgebra.coset_table")],
    "gepn.x_matrices": [("gepn", "CosetAlgebra._x_matrix")],
    "gepn.lambda_matrix": [("gepn", "CosetAlgebra.lambda_matrix")],
    "gepn.kostka_assembled": [("gepn", "CosetAlgebra.kostka_assembled")],
    "gepn.omega_prime": [("gepn", "CosetAlgebra.omega_prime")],
    "gepn.green": [("gepn", "CosetAlgebra.green")],
    "symfunc.char_table": [("symfunc", "Level.char_table")],
    "linalg.solve": [("linalg", "solve")],
    "linalg.mat_mul": [("linalg", "mat_mul")],
    "cli.output": [
        ("cli", "emit"),
        ("cli", "jdump"),
        ("gepn", "GreenSuite.to_json"),
        ("wreath", "LabeledMatrix.to_json"),
    ],
}

# counter name -> (module, class, method names counted together)
COUNTERS = {
    "exact_arith.TRat.add": ("exact_arith", "TRat", ("__add__",)),
    "exact_arith.TRat.mul": ("exact_arith", "TRat", ("__mul__",)),
    "exact_arith.TPoly.gcd": ("exact_arith", "TPoly", ("gcd",)),
    "exact_arith.TPoly.divmod": ("exact_arith", "TPoly", ("divmod",)),
    "exact_arith.CycNum.mul": ("exact_arith", "CycNum", ("__mul__", "__rmul__")),
}


class Tracer:
    def __init__(self):
        self.totals = {name: [0, 0.0, 0.0] for name in SPANS}   # calls, incl, self
        self.counts = Counter({name: 0 for name in COUNTERS})
        self.output_bytes = 0
        self._stack = []          # [name, start, time covered by child spans]
        self._active = Counter()  # name -> open spans of that name

    # -- wrappers ------------------------------------------------------------

    def _span(self, name, fn):
        tracer = self

        def wrapped(*args, **kwargs):
            frame = [name, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._active[name] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[1]
                tracer._stack.pop()
                tracer._active[name] -= 1
                total = tracer.totals[name]
                total[0] += 1
                total[2] += dur - frame[2]
                if not tracer._active[name]:
                    total[1] += dur
                if tracer._stack:
                    tracer._stack[-1][2] += dur

        wrapped.__wrapped__ = fn
        return wrapped

    def _counter(self, name, fn):
        counts = self.counts

        def wrapped(a, b):
            counts[name] += 1
            return fn(a, b)

        wrapped.__wrapped__ = fn
        return wrapped

    # -- installation --------------------------------------------------------

    def install(self):
        import importlib

        import greenrefl

        modules = {
            name: importlib.import_module(f"greenrefl.{name}")
            for name in ("wreath", "gepn", "symfunc", "linalg", "cli", "exact_arith")
        }
        for name, targets in SPANS.items():
            for mod_name, path in targets:
                owner = modules[mod_name]
                *owners, attr = path.split(".")
                for part in owners:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
                wrapped = self._span(name, original)
                setattr(owner, attr, wrapped)
                if owners:
                    continue
                # a module-level function is also bound by name wherever
                # it was imported with ``from .module import name``
                for other in (greenrefl, *modules.values()):
                    if getattr(other, attr, None) is original:
                        setattr(other, attr, wrapped)
        for name, (mod_name, cls_name, methods) in COUNTERS.items():
            cls = getattr(modules[mod_name], cls_name)
            for method in methods:
                setattr(cls, method, self._counter(name, getattr(cls, method)))

        cli = modules["cli"]
        emit = cli.emit                    # already span-wrapped above

        def counting_emit(text, args):
            self.output_bytes += len(text.encode())
            return emit(text, args)

        cli.emit = counting_emit
        return self

    # -- report --------------------------------------------------------------

    def report(self):
        """Flat per-layer numbers for this worker."""
        out = {}
        for name, (calls, incl, self_s) in self.totals.items():
            out[f"{name}.calls"] = calls
            out[f"{name}.s"] = incl
            out[f"{name}.self_s"] = self_s
        for name, calls in self.counts.items():
            out[f"{name}.calls"] = calls
        out["cli.output.bytes"] = self.output_bytes
        return out
