"""Out-of-program spans and work counters for the traced run.

The tracer wraps every public function of the seven sddkit modules, and
``SymMatrix`` construction, from outside the program.  Modules bind names
with ``from .matcore import inverse_dense``, so each wrapper is installed on
every module attribute that holds the original function (for example
``sddkit.bounds.inverse_dense`` and ``sddkit.cli.inverse_dense``), and on
the defining module itself, which catches same-module calls through module
globals such as ``retina.solve_retina`` calling ``retina.jacobian``.

Each span records a name, start, end, parent span id and workload id; spans
stay in memory until the run writes them out.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import statistics
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("matcore", "sform", "graphlimit", "bounds", "retina", "randmat", "cli")

# Per-layer metrics, in BENCHMARK.json order.  Counts are per pass; times
# are the median over traced passes.
METRICS = (
    "matcore.eigen_sym.calls", "matcore.eigen_sym.self_s",
    "matcore.inverse_dense.calls", "matcore.inverse_dense.self_s",
    "matcore.inverse_dense.gflop_computed",
    "matcore.det_dense.calls", "matcore.det_dense.self_s",
    "matcore.SymMatrix.calls", "matcore.SymMatrix.self_s",
    "matcore.classify.calls", "matcore.classify.self_s",
    "matcore.load_matrix.self_s",
    "bounds.block_det_ratio.calls", "bounds.block_det_ratio.self_s",
    "bounds.det_lower_bound.self_s", "bounds.det_upper_bound_balanced.self_s",
    "bounds.adjugate_bound.self_s", "bounds.hadamard_sanity.self_s",
    "bounds.det_ratio_lu.self_s", "bounds.eig_interval_check.self_s",
    "bounds.verify_suite.self_s", "bounds.conjecture_search.self_s",
    "bounds.reports", "bounds.reports_inapplicable", "bounds.reports_vacuous",
    "retina.jacobian.calls", "retina.jacobian.self_s",
    "retina.jacobian.mbytes_computed",
    "retina.residual.calls", "retina.residual.self_s",
    "retina.f_map.self_s",
    "retina.solve_retina.calls", "retina.solve_retina.self_s",
    "retina.solve_retina.p50_ms", "retina.solve_retina.p90_ms",
    "retina.sample_degrees.self_s",
    "retina.newton_steps", "retina.step_accept_ratio",
    "graphlimit.load_graph.self_s", "graphlimit.analyze_bipartition.self_s",
    "graphlimit.signless_laplacian.self_s", "graphlimit.limit_closed_form.self_s",
    "graphlimit.limit_u_route.self_s", "graphlimit.limit_numeric.self_s",
    "graphlimit.limit_inf_norm.self_s",
    "sform.sform_inverse.calls", "sform.sform_inverse.self_s",
    "sform.sform_dense.calls", "sform.sform_dense.self_s",
    "randmat.self_s",
    "cli.self_s", "cli.stdout_bytes",
    "trace.overhead_frac",
)

_UNITS = {"calls": "count", "self_s": "s", "gflop_computed": "GFLOP",
          "mbytes_computed": "MB", "p50_ms": "ms", "p90_ms": "ms",
          "newton_steps": "count", "step_accept_ratio": "ratio",
          "stdout_bytes": "bytes", "overhead_frac": "ratio"}


def unit(metric: str) -> str:
    return "count" if metric.startswith("bounds.reports") \
        else _UNITS[metric.rpartition(".")[2]]


def better(metric: str) -> str:
    return "higher" if metric in ("bounds.reports", "retina.step_accept_ratio") \
        else "lower"


def is_exact(metric: str) -> bool:
    """Work counters that must repeat exactly between passes at one seed."""
    return metric.startswith("bounds.reports") or metric.rpartition(".")[2] in (
        "calls", "gflop_computed", "mbytes_computed", "newton_steps", "stdout_bytes")


class Tracer:
    """Installs span-recording wrappers into an imported sddkit package."""

    def __init__(self, package):
        self.package = package
        self.spans = []          # [name, start, end, parent id, workload id]
        self.counters = Counter()
        self.workload = ""
        self._stack = []
        self._restore = []

    def _wrap(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(spans)
            spans.append([name, 0.0, 0.0, stack[-1] if stack else -1, self.workload])
            stack.append(sid)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[sid][1], spans[sid][2] = t0, t1
            if after is not None:
                after(args, result)
            return result

        return traced

    def _hooks(self):
        bounds = importlib.import_module(self.package.__name__ + ".bounds")
        c = self.counters

        def inverse(args, result):
            c["matcore.inverse_dense.gflop_computed"] += 8.0 * args[0].n ** 3 / 3e9

        def jacobian(args, result):
            c["retina.jacobian.mbytes_computed"] += 8.0 * len(args[0]) ** 2 / 1e6

        def solve(args, result):
            c["retina.newton_steps"] += result.iterations

        def report(args, result):
            if isinstance(result, bounds.BoundReport):
                c["bounds.reports"] += 1
                if not result.applicable:
                    c["bounds.reports_inapplicable"] += 1
                elif result.vacuous:
                    c["bounds.reports_vacuous"] += 1

        return {"matcore.inverse_dense": inverse, "retina.jacobian": jacobian,
                "retina.solve_retina": solve, "bounds.*": report}

    def install(self) -> None:
        """Wrap every public function of each layer on every binding."""
        if self._restore:
            return
        pkg = self.package.__name__
        mods = {layer: importlib.import_module(f"{pkg}.{layer}") for layer in LAYERS}
        hooks = self._hooks()
        wrapped = {}
        for layer, mod in mods.items():
            for attr, fn in vars(mod).items():
                if attr.startswith("_") or not inspect.isfunction(fn) \
                        or fn.__module__ != mod.__name__:
                    continue
                name = f"{layer}.{attr}"
                after = hooks.get(name, hooks["bounds.*"] if layer == "bounds" else None)
                wrapped[id(fn)] = (fn, self._wrap(name, fn, after))
        for mod in [self.package, *mods.values()]:
            for attr, value in list(vars(mod).items()):
                if id(value) in wrapped and wrapped[id(value)][0] is value:
                    self._restore.append((mod, attr, value))
                    setattr(mod, attr, wrapped[id(value)][1])
        sym = mods["matcore"].SymMatrix
        self._restore.append((sym, "__init__", sym.__init__))
        sym.__init__ = self._wrap("matcore.SymMatrix", sym.__init__)

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._restore):
            setattr(obj, attr, value)
        self._restore.clear()

    def write(self, path: str) -> None:
        """Write the spans as JSON lines, one per span, in span-id order."""
        with open(path, "w", encoding="utf-8") as fh:
            for sid, (name, t0, t1, parent, wid) in enumerate(self.spans):
                fh.write(f'{{"id": {sid}, "parent": {parent}, "name": "{name}", '
                         f'"start": {t0!r}, "end": {t1!r}, "workload": "{wid}"}}\n')


def self_times(spans, offset: int = 0) -> list:
    """Self time per span: its duration minus the union of its children's
    intervals, clipped to its own.  ``spans`` rows are [name, start, end,
    parent, ...]; ``parent - offset`` indexes ``spans``, and a parent outside
    the list (-1, or a span before ``offset``) is ignored."""
    children = defaultdict(list)
    for name, t0, t1, parent, *_ in spans:
        if 0 <= parent - offset < len(spans):
            children[parent - offset].append((t0, t1))
    out = []
    for sid, (name, t0, t1, *_rest) in enumerate(spans):
        covered, end = 0.0, t0
        for c0, c1 in sorted(children.get(sid, ())):
            c0, c1 = max(c0, end), min(c1, t1)
            if c1 > c0:
                covered += c1 - c0
                end = c1
        out.append((t1 - t0) - covered)
    return out


def pass_metrics(spans, counters: Counter, stdout_bytes: int, offset: int = 0) -> dict:
    """Per-layer numbers for one traced pass; ``spans`` is the pass's slice
    of the tracer's spans, starting at span id ``offset``."""
    selfs = self_times(spans, offset)
    calls, self_s = Counter(), Counter()
    for (name, *_), s in zip(spans, selfs):
        calls[name] += 1
        self_s[name] += s
        layer = name.split(".")[0]
        if layer in ("randmat", "cli"):
            self_s[layer] += s
    solve = {i + offset for i, sp in enumerate(spans) if sp[0] == "retina.solve_retina"}
    candidates = sum(1 for sp in spans if sp[0] == "retina.residual" and sp[3] in solve)
    # The first residual of each solve is the start point, not a candidate.
    candidates -= len(solve)
    out = {}
    for metric in METRICS:
        head, _, stat = metric.rpartition(".")
        if stat == "calls":
            out[metric] = calls[head]
        elif stat == "self_s":
            out[metric] = self_s[head]
        else:
            out[metric] = counters.get(metric, 0)
    out["cli.stdout_bytes"] = stdout_bytes
    steps = counters.get("retina.newton_steps", 0)
    out["retina.step_accept_ratio"] = steps / candidates if candidates > 0 else 0.0
    return out


def summarize(passes: list, solve_ms: list, overhead: float) -> dict:
    """Combine per-pass metrics: exact counts, medians for everything else.

    ``solve_ms`` holds every ``solve_retina`` span duration in ms.  Raises
    ``RuntimeError`` when an exact work counter differs between passes,
    since each pass repeats identical calls on identical inputs.
    """
    out = {}
    for metric in METRICS:
        values = [p[metric] for p in passes]
        if is_exact(metric):
            if len(set(values)) > 1:
                raise RuntimeError(f"work counter {metric} differs between "
                                   f"traced passes at one seed: {values}")
            out[metric] = values[0]
        else:
            out[metric] = statistics.median(values)
    if len(solve_ms) >= 2:
        out["retina.solve_retina.p50_ms"] = statistics.median(solve_ms)
        out["retina.solve_retina.p90_ms"] = statistics.quantiles(
            solve_ms, n=10, method="inclusive")[8]
    out["trace.overhead_frac"] = overhead
    return out
