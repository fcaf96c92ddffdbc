"""In-memory span tracer installed around tiltmav's public callables.

The tracer wraps callables from the outside: each wrapper replaces the
original under every ``tiltmav.*`` module global (and class attribute) that
refers to it, so calls made through ``from .x import f`` bindings are seen
too. The library's source files are never touched, and ``restore`` puts the
originals back.
"""

from __future__ import annotations

import functools
import os
import statistics
import sys
from time import perf_counter
from typing import NamedTuple

# (layer name, owner module, attribute path, result hook). The layer name is
# ``<module>.<callable>`` as seen from the package; ``linprog`` is scipy's,
# traced only where tiltmav.envelope looks it up.
TARGETS = (
    ("sim.run", "tiltmav.sim", "run", None),
    ("design.optimize", "tiltmav.design", "optimize", None),
    ("sim.Plant.step", "tiltmav.sim", "Plant.step", None),
    ("sim.Plant.refresh_accelerations", "tiltmav.sim", "Plant.refresh_accelerations", None),
    ("trajectory.Trajectory.sample", "tiltmav.trajectory", "Trajectory.sample", None),
    ("lqri.LqriController.step", "tiltmav.lqri", "LqriController.step", None),
    ("riccati.solve_care", "tiltmav.riccati", "solve_care", None),
    ("pid.PidController.step", "tiltmav.pid", "PidController.step", None),
    ("sgfilter.SavitzkyGolay.push", "tiltmav.sgfilter", "SavitzkyGolay.push", None),
    ("sgfilter.SavitzkyGolay.value", "tiltmav.sgfilter", "SavitzkyGolay.value", None),
    ("sgfilter.SavitzkyGolay.derivative", "tiltmav.sgfilter", "SavitzkyGolay.derivative", None),
    ("diff_allocation.exact_wrench_rate", "tiltmav.diff_allocation", "exact_wrench_rate", None),
    ("diff_allocation.DifferentialAllocator.step", "tiltmav.diff_allocation",
     "DifferentialAllocator.step", None),
    ("diff_allocation.optimal_targets", "tiltmav.diff_allocation", "optimal_targets", None),
    ("diff_allocation.alpha_bias", "tiltmav.diff_allocation", "alpha_bias", None),
    ("diff_allocation.condition_scan", "tiltmav.diff_allocation", "condition_scan", None),
    ("allocation.invert_static", "tiltmav.allocation", "invert_static", None),
    ("allocation.condition_number", "tiltmav.allocation", "condition_number", None),
    ("allocation.static_allocation", "tiltmav.allocation", "static_allocation", None),
    ("simlog.SimLog.append", "tiltmav.simlog", "SimLog.append", None),
    ("simlog.SimLog.to_csv", "tiltmav.simlog", "SimLog.to_csv", "bytes"),
    ("design.build_candidate", "tiltmav.design", "build_candidate", None),
    ("mass_model.compute_mass_inertia", "tiltmav.mass_model", "compute_mass_inertia", None),
    ("envelope.pinv_radii", "tiltmav.envelope", "pinv_radii", None),
    ("envelope.linprog", "tiltmav.envelope", "linprog", "nit"),
    ("envelope.min_total_thrust", "tiltmav.envelope", "min_total_thrust", None),
    ("envelope.hover_sphere", "tiltmav.envelope", "hover_sphere", None),
    ("envelope.envelope", "tiltmav.envelope", "envelope", None),
)


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: int          # index of the enclosing span, -1 at the top
    pass_id: int

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Collects spans in memory; one instance per traced invocation."""

    def __init__(self):
        self.spans: list[Span | None] = []
        self.counts: dict[tuple[int, str], float] = {}
        self.pass_id = 0
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn, hook: str | None = None):
        """A callable that records a span around each call of ``fn``."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            tracer.spans.append(None)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.spans[idx] = Span(name, start, end, parent, tracer.pass_id)
            if hook is not None:
                tracer._count(name, hook, args, kwargs, result)
            return result

        return traced

    def _count(self, name, hook, args, kwargs, result) -> None:
        if hook == "nit":
            value = getattr(result, "nit", 0)
        elif hook == "bytes":
            path = args[1] if len(args) > 1 else kwargs["path"]
            value = os.path.getsize(path)
        else:
            raise ValueError(f"unknown hook {hook!r}")
        key = (self.pass_id, f"{name}.{hook}")
        self.counts[key] = self.counts.get(key, 0) + value

    # -- patching ----------------------------------------------------------

    def install(self, targets=TARGETS) -> None:
        """Wrap every target under each tiltmav namespace that binds it."""
        for name, module_name, attr_path, hook in targets:
            module = sys.modules[module_name]
            if "." in attr_path:
                cls_name, meth = attr_path.split(".")
                cls = getattr(module, cls_name)
                self._patch(cls, meth, self.wrap(name, cls.__dict__[meth], hook))
                continue
            original = getattr(module, attr_path)
            wrapper = self.wrap(name, original, hook)
            for mod_name, mod in list(sys.modules.items()):
                if not (mod_name == "tiltmav" or mod_name.startswith("tiltmav.")):
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def restore(self) -> None:
        """Put every original back, newest patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    # -- analysis ----------------------------------------------------------

    def finished(self) -> list[Span]:
        if any(s is None for s in self.spans):
            raise RuntimeError("a span is still open")
        return list(self.spans)


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    child = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child[s.parent] += s.duration
    return [s.duration - c for s, c in zip(spans, child)]


def has_ancestor(spans: list[Span], idx: int, name: str) -> bool:
    parent = spans[idx].parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def layer_metrics(spans: list[Span], counts: dict, pass_ids, targets=TARGETS) -> dict:
    """Per-pass medians of calls/total/self time, pooled per-call percentiles.

    Counts (calls, nit, bytes) repeat exactly from pass to pass, so their
    median is the per-pass count.
    """
    selfs = self_times(spans)
    per_pass = {p: {} for p in pass_ids}
    durations: dict[str, list[float]] = {t[0]: [] for t in targets}
    for s, st in zip(spans, selfs):
        if s.pass_id not in per_pass or s.name not in durations:
            continue
        acc = per_pass[s.pass_id].setdefault(s.name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += s.duration
        acc[2] += st
        durations[s.name].append(s.duration)

    def median_over_passes(name, field):
        return statistics.median(per_pass[p].get(name, [0, 0.0, 0.0])[field] for p in pass_ids)

    out: dict[str, float] = {}
    for name, _, _, hook in targets:
        out[f"{name}.calls"] = median_over_passes(name, 0)
        out[f"{name}.total_s"] = median_over_passes(name, 1)
        out[f"{name}.self_s"] = median_over_passes(name, 2)
        out[f"{name}.us_p50"] = 1e6 * percentile(durations[name], 50.0)
        out[f"{name}.us_p95"] = 1e6 * percentile(durations[name], 95.0)
        if hook is not None:
            key = f"{name}.{hook}"
            out[key] = statistics.median(counts.get((p, key), 0) for p in pass_ids)
    return out


def tick_times_ms(spans: list[Span], pass_ids) -> list[float]:
    """Host time per control tick: gaps between successive trajectory samples.

    The first gap of each pass spans the run's set-up (controller gains,
    allocator, log) and is dropped.
    """
    out: list[float] = []
    for p in pass_ids:
        starts = sorted(s.start for s in spans
                        if s.pass_id == p and s.name == "trajectory.Trajectory.sample")
        out.extend(1e3 * (b - a) for a, b in zip(starts[1:], starts[2:]))
    return out


def lp_share(spans: list[Span], pass_ids) -> float:
    """Share of envelope() time spent in linprog calls made beneath it."""
    lp = env = 0.0
    for i, s in enumerate(spans):
        if s.pass_id not in pass_ids:
            continue
        if s.name == "envelope.envelope":
            env += s.duration
        elif s.name == "envelope.linprog" and has_ancestor(spans, i, "envelope.envelope"):
            lp += s.duration
    return lp / env if env > 0.0 else 0.0
