"""Out-of-band tracing of the package, installed from outside it.

``install`` wraps every public function of each package module at every
binding site: the defining module, every module that imported the name with
``from ... import``, and the package namespace.  A few methods are wrapped
on their class.  Nothing inside the package changes, and the wrappers only
observe: arguments and results pass through untouched, so reports written
under tracing are byte-identical to untraced ones.

Two kinds of wrapper keep the cost in proportion:

* a span records (name, start, end, parent span) for functions called a
  bounded number of times per op;
* a tally, for functions called once per tuple, per pgf evaluation or per
  replicate, only adds its call count, time and work to a counter keyed by
  the enclosing span.  Storing a span per call would cost memory in
  proportion to the enumeration.

``activation_requirement`` and ``run_lengths`` stay unwrapped: they run once
per tuple element inside tallied functions, and a wrapper would cost about
as much as their bodies.  Spans stay in memory and are written out when the
batch ends.  A function's self time is its span time minus the time of the
spans and outermost tallies directly inside it.
"""

from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

MODULES = (
    "dist_core",
    "clique_dynamics",
    "cascade_matrix",
    "analytic_graph",
    "mc_sim",
    "verification",
    "cli",
)
METHODS = {
    "dist_core": {"Pmf": ("pgf",)},
    "mc_sim": {"ActivationProcess": ("__init__", "root_step", "step")},
}
UNWRAPPED = {"clique_dynamics.activation_requirement", "clique_dynamics.run_lengths"}

# Tallied functions, with the work each call adds (None: none beyond the call).
TALLIED = {
    "dist_core.Pmf.pgf": None,
    "clique_dynamics.clique_outcome_prob": lambda prob: prob > 0.0,
    "clique_dynamics.clique_cascade_size": None,
    "clique_dynamics.order_stat_pmf": None,
    "cascade_matrix.active_count_prob": None,
    "mc_sim.sample_local_graph": lambda graph: graph.n_vertices,
    "mc_sim.run_contagion": None,
    "mc_sim.ActivationProcess.root_step": None,
    "mc_sim.ActivationProcess.step": None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.tallies: dict = {}  # (parent span, name, nested) -> [calls, seconds, work]
        self.active = True
        self._open: list[int] = []
        self._tally_depth = 0

    def span(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            record = [name, 0.0, 0.0, self._open[-1] if self._open else -1]
            self._open.append(len(self.spans))
            self.spans.append(record)
            record[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                record[2] = perf_counter()
                self._open.pop()

        return wrapper

    def tally(self, name: str, fn, work):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            key = (self._open[-1] if self._open else -1, name, self._tally_depth > 0)
            self._tally_depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                self._tally_depth -= 1
            entry = self.tallies.get(key)
            if entry is None:
                entry = self.tallies[key] = [0, 0.0, 0]
            entry[0] += 1
            entry[1] += elapsed
            if work is not None:
                entry[2] += work(result)
            return result

        return wrapper

    def wrap(self, name: str, fn):
        if name in TALLIED:
            return self.tally(name, fn, TALLIED[name])
        return self.span(name, fn)

    def summary(self) -> dict:
        """Per-name span totals and self times, and per-name tally sums."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        for (parent, _, nested), (_, seconds, _) in self.tallies.items():
            if parent >= 0 and not nested:
                inner[parent] += seconds
        span_s = defaultdict(float)
        self_s = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            span_s[name] += end - start
            self_s[name] += end - start - inner[i]
        calls = defaultdict(int)
        tally_s = defaultdict(float)
        work = defaultdict(int)
        for (_, name, _), (n, seconds, w) in self.tallies.items():
            calls[name] += n
            tally_s[name] += seconds
            work[name] += w
        return {
            "span_s": dict(span_s),
            "self_s": dict(self_s),
            "calls": dict(calls),
            "tally_s": dict(tally_s),
            "work": dict(work),
        }

    def calls_within(self, tally_name: str, span_name: str) -> int:
        """Calls of a tallied function made anywhere inside spans of one name."""
        inside = []
        for name, _, _, parent in self.spans:
            inside.append(name == span_name or (parent >= 0 and inside[parent]))
        return sum(
            entry[0]
            for (parent, name, _), entry in self.tallies.items()
            if name == tally_name and parent >= 0 and inside[parent]
        )

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "tallies": [
                [parent, name, nested, *entry]
                for (parent, name, nested), entry in self.tallies.items()
            ],
        }


def install(package: str = "cliquecascade") -> Tracer:
    """Wrap the package's public functions everywhere they are bound."""
    tracer = Tracer()
    wrappers = {}
    for short in MODULES:
        module = sys.modules[f"{package}.{short}"]
        for attr, value in vars(module).items():
            label = f"{short}.{attr}"
            if (
                attr.startswith("_")
                or not inspect.isfunction(value)
                or value.__module__ != module.__name__
                or inspect.isgeneratorfunction(value)
                or label in UNWRAPPED
            ):
                continue
            wrappers[value] = tracer.wrap(label, value)
        for cls_name, methods in METHODS.get(short, {}).items():
            cls = getattr(module, cls_name)
            for method in methods:
                wrapped = tracer.wrap(f"{short}.{cls_name}.{method}", vars(cls)[method])
                setattr(cls, method, wrapped)
    for name, module in list(sys.modules.items()):
        if name != package and not name.startswith(package + "."):
            continue
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    return tracer
