"""Spans around calls into irsoob's public functions, installed from outside.

`Tracer.install` wraps every public function of the package modules and puts
the wrapper into every namespace that holds the function: module globals
(which covers names imported by value, such as `engine.complex_normal` or
`experiments.sub6_trial`) and module-level dicts (such as the closed-form
table in `experiments`). Spans are (name, start, end, parent index), kept in
memory until the run ends. `layer_metrics` turns them into self times.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

MODULES = ("kernels", "channels", "irs", "analytics", "engine", "experiments",
           "config", "cli")

# Called once per slot inside schedule_rates' PF/MR loop; a span each would
# cost more than the work it times, so their time stays in schedule_rates.
UNTRACED = frozenset({"engine.pf_update", "engine.mr_select"})

IRS_FUNCTIONS = ("optimize_sub6", "optimize_mmwave_los", "optimize_mmwave_nlos",
                 "effective_channel_sub6", "effective_channel_mmwave",
                 "effective_channel")


def _bound(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


def _count_trial(counts, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    gains = a["slots"] * a["budget_y"].n_ues
    counts["engine.oob_gains"] += gains
    if fn.__name__ == "sub6_trial":
        counts["engine.sub6_trial.cells"] += gains * a["n_elements"]


def _count_draws(counts, fn, args, kwargs, result) -> None:
    counts["channels.draws"] += 2 * result.size


def _count_schedule(counts, fn, args, kwargs, result) -> None:
    counts["engine.schedule_rates.slots"] += len(result)


def _schedule_label(fn, args, kwargs) -> str:
    return f"engine.schedule_rates.{_bound(fn, args, kwargs)['scheduler']}"


COUNTERS = {
    "channels.complex_normal": _count_draws,
    "engine.sub6_trial": _count_trial,
    "engine.mmwave_los_trial": _count_trial,
    "engine.mmwave_nlos_trial": _count_trial,
    "engine.schedule_rates": _count_schedule,
}
LABELS = {"engine.schedule_rates": _schedule_label}


class _CountingIntegrate:
    """Stands in for `scipy.integrate` inside analytics and counts quad calls."""

    def __init__(self, module, counts: Counter):
        self._module = module
        self._counts = counts

    def quad(self, *args, **kwargs):
        self._counts["analytics.quad_calls"] += 1
        return self._module.quad(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._module, name)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []   # [name, start, end, parent index or -1]
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def _open(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append([name, 0.0, 0.0, self._stack[-1] if self._stack else -1])
        self._stack.append(index)
        self.spans[index][1] = time.perf_counter()
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) inside a span of the given name."""
        index = self._open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(index)

    def wrap(self, name: str, fn):
        label = LABELS.get(name)
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self._open(label(fn, args, kwargs) if label else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            if counter:
                counter(self.counts, fn, args, kwargs, result)
            return result
        return traced

    def install(self) -> None:
        """Wrap the public functions of the already imported irsoob modules."""
        modules = [sys.modules[f"irsoob.{m}"] for m in MODULES]
        wrappers = {}
        for module in modules:
            short = module.__name__.split(".", 1)[1]
            for attr, value in vars(module).items():
                name = f"{short}.{attr}"
                if (inspect.isfunction(value) and value.__module__ == module.__name__
                        and not attr.startswith("_") and name not in UNTRACED):
                    wrappers[value] = self.wrap(name, value)
        for module in modules + [sys.modules["irsoob"]]:
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if inspect.isfunction(value) and value in wrappers:
                    namespace[attr] = wrappers[value]
                elif isinstance(value, dict):
                    for key, item in value.items():
                        if inspect.isfunction(item) and item in wrappers:
                            value[key] = wrappers[item]
        analytics = sys.modules["irsoob.analytics"]
        analytics.integrate = _CountingIntegrate(analytics.integrate, self.counts)


# ---------------------------------------------------------------------------
# turning spans into per-layer metrics (runs in the benchmark's parent process)

def _own_times(spans) -> list[float]:
    """Each span's duration minus its direct children's."""
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


def self_times(spans) -> dict[str, float]:
    """Self time per span name."""
    out: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, _own_times(spans)):
        out[span[0]] += own
    return out


def leg_breakdown(spans) -> dict[str, list]:
    """For each root span (one CLI call), its span names by self time, largest first."""
    roots: list[int] = []
    per_root: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for i, (span, own) in enumerate(zip(spans, _own_times(spans))):
        roots.append(i if span[3] < 0 else roots[span[3]])
        per_root[roots[i]][span[0]] += own
    out = {}
    for root, selfs in per_root.items():
        total = spans[root][2] - spans[root][1]
        ranked = sorted(selfs.items(), key=lambda kv: -kv[1])
        out[spans[root][0]] = [[name, round(s, 6), round(s / total, 4)]
                               for name, s in ranked[:5]]
    return out


def layer_metrics(spans, counts) -> dict[str, float]:
    """The benchmark's per-layer metrics from one traced operation."""
    selfs = self_times(spans)
    names = Counter(span[0] for span in spans)

    def total(*names_):
        return sum(selfs.get(n, 0.0) for n in names_)

    m = {}
    for module in MODULES:
        if module != "irs":   # irs is reached by no workload yet; its calls are counted below
            m[f"{module}.s"] = sum(s for n, s in selfs.items() if n.startswith(module + "."))
    for name in ("channels.complex_normal", "channels.sample_sub6", "channels.sample_mmwave",
                 "engine.sub6_trial", "engine.mmwave_los_trial", "engine.mmwave_nlos_trial",
                 "engine.inband_gain_samples_sub6", "engine.schedule_rates.rr",
                 "engine.schedule_rates.pf", "engine.schedule_rates.mr",
                 "engine.dominance_test", "experiments.emit_csv",
                 "experiments.write_manifest"):
        m[f"{name}.s"] = total(name)
    m["engine.empirical.s"] = total("engine.empirical_ccdf", "engine.empirical_outage")
    m["experiments.runner.s"] = total("experiments.run_spec", "experiments.run_scheduler_grid",
                                      "experiments.run_inband_offset")
    m["channels.draws"] = counts.get("channels.draws", 0)
    m["engine.sub6_trial.cells"] = counts.get("engine.sub6_trial.cells", 0)
    m["engine.schedule_rates.slots"] = counts.get("engine.schedule_rates.slots", 0)
    gains = counts.get("engine.oob_gains", 0)
    m["engine.draws_per_oob_gain"] = m["channels.draws"] / gains if gains else 0.0
    m["analytics.calls"] = sum(c for n, c in names.items() if n.startswith("analytics."))
    m["analytics.quad_calls"] = counts.get("analytics.quad_calls", 0)
    for fn in IRS_FUNCTIONS:
        m[f"irs.{fn}.calls"] = names.get(f"irs.{fn}", 0)
    return m
