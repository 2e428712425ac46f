"""Outside-in layer tracer for kdvlab.

The tracer times calls into each module's public functions without
touching the package: for every name a module lists in ``__all__``, it
rebinds the name in each loaded ``kdvlab`` module that holds the same
object, which is where callers look it up at call time (for example
``kdvlab.crank_nicolson.solve_banded`` and ``kdvlab.cli.gram_power_iteration``).
``uninstall`` puts every original object back.

A span is ``[name, start, end, parent, execution]``.  Spans stay in
memory until ``write_spans``; a span's self time is its duration minus
the durations of its direct children (one thread, so children never
overlap).  A target that a refactor has removed is reported as missing.
"""

from __future__ import annotations

import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

EVOLVE = "evolution.evolve"
STEP_SPANS = ("crank_nicolson.step", "explicit.step")


def _picard(tracer, args, result):
    tracer.observed["picard_iters"].append(result[1])


def _solve_size(tracer, args, result):
    tracer.observed["solve_n"].append(args[0].n)


def _iterations(key):
    def observe(tracer, args, result):
        tracer.observed[key].append(result.iterations)
    return observe


def _blow_up(tracer, args, result):
    tracer.observed["blow_up_step"].append(result.blow_up_step or 0)


def _written(tracer, args, result):
    paths, meta = result
    tracer.observed["snapshots_written"].append(len(paths))
    tracer.observed["bytes_written"].append(sum(p.stat().st_size for p in list(paths) + [meta]))


# (defining module, public name, kind, layer name, observer)
# kind: "span" times the call; "count" only counts it; "classmethod:<m>"
# times one classmethod of a class; "observe" only inspects the result.
TARGETS: Tuple[Tuple[str, str, str, str, Optional[Callable]], ...] = (
    ("kdvlab.config", "parse_config", "span", "config.parse", None),
    ("kdvlab.config", "parse_eigen_config", "span", "config.parse", None),
    ("kdvlab.config", "parse_scan_config", "span", "config.parse", None),
    ("kdvlab.model", "appendix_profile", "span", "model.initial_field", None),
    ("kdvlab.model", "initial_condition", "span", "model.initial_field", None),
    ("kdvlab.model", "traveling_wave", "span", "model.initial_field", None),
    ("kdvlab.model", "WaveField", "count", "model.wavefield", None),
    ("kdvlab.crank_nicolson", "assemble_lagged", "span", "crank_nicolson.assemble", None),
    ("kdvlab.crank_nicolson", "assemble_implicit", "span", "crank_nicolson.assemble", None),
    ("kdvlab.crank_nicolson", "cn_step", "span", "crank_nicolson.step", None),
    ("kdvlab.crank_nicolson", "cn_step_implicit", "observe", "crank_nicolson.picard", _picard),
    ("kdvlab.banded", "solve_banded", "span", "banded.solve", _solve_size),
    ("kdvlab.banded", "matvec", "span", "banded.matvec", None),
    ("kdvlab.banded", "matvec_transpose", "span", "banded.matvec", None),
    ("kdvlab.banded", "power_iteration", "span", "banded.power", _iterations("power_iters")),
    ("kdvlab.banded", "gram_power_iteration", "span", "banded.gram", _iterations("gram_iters")),
    ("kdvlab.banded", "invertibility_certificate", "span", "banded.certificate", None),
    ("kdvlab.explicit", "explicit_step", "span", "explicit.step", None),
    ("kdvlab.explicit", "run_explicit", "observe", "explicit.run", _blow_up),
    ("kdvlab.evolution", "evolve", "span", EVOLVE, None),
    ("kdvlab.evolution", "SnapshotDiagnostics", "classmethod:of", "evolution.diagnostics", None),
    ("kdvlab.runio", "write_run_outputs", "span", "runio.write", _written),
    ("kdvlab.analysis", "stability_scan", "span", "analysis.scan", None),
    ("kdvlab.analysis", "cn_amplification", "count", "analysis.amplification", None),
    ("kdvlab.analysis", "explicit_amplification", "count", "analysis.amplification", None),
)


class _ClassView:
    """Stands in for a class at a module binding, with one classmethod wrapped."""

    def __init__(self, cls, method: str, wrapped):
        self.__wrapped__ = cls
        setattr(self, method, wrapped)

    def __getattr__(self, name):
        return getattr(self.__wrapped__, name)


class Tracer:
    """Collects spans, counts and observed values while installed."""

    def __init__(self):
        self.spans: List[list] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.observed: Dict[str, list] = defaultdict(list)
        self.missing: List[str] = []
        self.execution = 0
        self._stack: List[int] = []
        self._patches: List[Tuple[object, str, object]] = []

    # -------------------------------------------------------------- wrappers

    def _span(self, name: str, fn, observe=None):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, self.execution]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observe(self, args, result)
            return result

        return traced

    def _count(self, name: str, fn):
        counts, spans, stack = self.counts, self.spans, self._stack

        def counted(*args, **kwargs):
            counts[name] += 1
            if any(spans[i][0] == EVOLVE for i in stack):
                counts[name + ".in_evolve"] += 1
            return fn(*args, **kwargs)

        return counted

    def _observe(self, fn, observe):
        def observed(*args, **kwargs):
            result = fn(*args, **kwargs)
            observe(self, args, result)
            return result

        return observed

    def _wrap(self, original, kind: str, name: str, observe):
        if kind == "span":
            return self._span(name, original, observe)
        if kind == "count":
            return self._count(name, original)
        if kind == "observe":
            return self._observe(original, observe)
        method = kind.split(":", 1)[1]
        return _ClassView(original, method, self._span(name, getattr(original, method)))

    # -------------------------------------------------------------- install

    def install(self) -> None:
        """Rebind every target in each loaded kdvlab module that holds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "kdvlab" or n.startswith("kdvlab."))]
        self.missing = []
        for module_name, attr, kind, name, observe in TARGETS:
            home = sys.modules.get(module_name)
            original = getattr(home, attr, None)
            if original is None or attr not in getattr(home, "__all__", ()):
                self.missing.append(f"{module_name}.{attr}")
                continue
            wrapped = self._wrap(original, kind, name, observe)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    setattr(module, attr, wrapped)
                    self._patches.append((module, attr, original))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patches):
            setattr(module, attr, original)

    def unrestored(self) -> List[str]:
        """Bindings that do not hold their original object (empty after uninstall)."""
        return [f"{m.__name__}.{a}" for m, a, o in self._patches if getattr(m, a) is not o]

    # -------------------------------------------------------------- output

    def self_times(self) -> List[float]:
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c for (_, start, end, _, _), c in zip(self.spans, child)]

    def write_spans(self, path: Path) -> None:
        names = sorted({s[0] for s in self.spans})
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as f:
            f.write("# name ids: " + " ".join(f"{i}={n}" for i, n in enumerate(names)) + "\n")
            f.write("id,name,start_us,end_us,parent,execution\n")
            index = {n: i for i, n in enumerate(names)}
            for i, (name, start, end, parent, execution) in enumerate(self.spans):
                f.write(f"{i},{index[name]},{(start - t0) * 1e6:.1f},"
                        f"{(end - t0) * 1e6:.1f},{parent},{execution}\n")


def lu_counts(n: int) -> Tuple[int, int]:
    """Computed (bytes, flops) of one banded LU solve at dimension ``n``.

    Bytes are the working band of seven diagonals of doubles, 7 n 8 B;
    flops count the elimination (kl = 2, fill up to ku = 4) and the back
    substitution, assuming nonzero multipliers.  Neither is measured.
    """
    flops = 0
    for k in range(n):
        cmax = min(k + 4, n - 1)
        rows = min(k + 2, n - 1) - k
        flops += rows * (1 + 2 * (cmax - k) + 2)  # multiplier, row update, rhs update
        flops += 2 * (cmax - k) + 1               # back substitution
    return 7 * n * 8, flops


def layer_metrics(tracer: Tracer, traced_walls: List[float],
                  untraced_walls: List[float]) -> Dict[str, Tuple[float, str]]:
    """Per-layer metrics from the spans of ``len(traced_walls)`` traced executions."""
    executions = max(len(traced_walls), 1)
    selfs = tracer.self_times()
    total: Dict[str, float] = defaultdict(float)
    self_total: Dict[str, float] = defaultdict(float)
    calls: Dict[str, int] = defaultdict(int)
    for span, own in zip(tracer.spans, selfs):
        total[span[0]] += span[2] - span[1]
        self_total[span[0]] += own
        calls[span[0]] += 1

    def mean(name, scale, own=False):
        return (self_total if own else total)[name] / calls[name] * scale if calls[name] else 0.0

    def per_execution(value):
        return value / executions

    def stats(key):
        values = tracer.observed[key]
        return (sum(values) / len(values), max(values)) if values else (0.0, 0)

    steps = sum(calls[s] for s in STEP_SPANS)
    sizes = [lu_counts(n) for n in tracer.observed["solve_n"]]
    snapshots = sum(tracer.observed["snapshots_written"])
    picard_mean, picard_max = stats("picard_iters")
    traced_wall = sum(traced_walls)
    overhead = (statistics.median(traced_walls) / statistics.median(untraced_walls)
                if traced_walls and untraced_walls else 0.0)
    return {
        "config.parse_ms": (mean("config.parse", 1e3), "ms"),
        "model.initial_field_ms": (mean("model.initial_field", 1e3), "ms"),
        "model.wavefield_per_step": (
            tracer.counts["model.wavefield.in_evolve"] / steps if steps else 0.0, "count"),
        "crank_nicolson.assemble_ms": (mean("crank_nicolson.assemble", 1e3), "ms"),
        "crank_nicolson.assemble_calls": (per_execution(calls["crank_nicolson.assemble"]), "count"),
        "crank_nicolson.step_self_ms": (mean("crank_nicolson.step", 1e3, own=True), "ms"),
        "crank_nicolson.picard_iters_mean": (picard_mean, "count"),
        "crank_nicolson.picard_iters_max": (picard_max, "count"),
        "banded.solve_ms": (mean("banded.solve", 1e3, own=True), "ms"),
        "banded.solve_calls": (per_execution(calls["banded.solve"]), "count"),
        "banded.solve_share": (
            self_total["banded.solve"] / traced_wall if traced_wall else 0.0, "ratio"),
        "banded.solve_bytes_computed": (
            sum(b for b, _ in sizes) / len(sizes) if sizes else 0.0, "B"),
        "banded.solve_flops_computed": (
            sum(f for _, f in sizes) / len(sizes) if sizes else 0.0, "flop"),
        "banded.matvec_us": (mean("banded.matvec", 1e6), "us"),
        "banded.matvec_calls": (per_execution(calls["banded.matvec"]), "count"),
        "banded.power_iters": (stats("power_iters")[0], "count"),
        "banded.gram_iters": (stats("gram_iters")[0], "count"),
        "banded.gram_s": (mean("banded.gram", 1.0), "s"),
        "banded.certificate_ms": (mean("banded.certificate", 1e3), "ms"),
        "explicit.step_us": (mean("explicit.step", 1e6), "us"),
        "explicit.blow_up_step": (stats("blow_up_step")[1], "step"),
        "evolution.evolve_self_ms_per_step": (
            self_total[EVOLVE] / steps * 1e3 if steps else 0.0, "ms"),
        "evolution.diagnostics_ms": (mean("evolution.diagnostics", 1e3), "ms"),
        "runio.write_ms_per_snapshot": (
            total["runio.write"] / snapshots * 1e3 if snapshots else 0.0, "ms"),
        "runio.bytes_written": (per_execution(sum(tracer.observed["bytes_written"])), "B"),
        "analysis.scan_s": (per_execution(total["analysis.scan"]), "s"),
        "analysis.amplification_evals": (
            per_execution(tracer.counts["analysis.amplification"]), "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
