"""Spans around the calls between bafsim's modules, recorded from outside the package.

``install`` replaces module attributes that callers look up at call time, so
nothing under ``src/`` changes:

- in ``bafsim.montecarlo`` and ``bafsim.cli``, every public function imported
  from ``channel``, ``protocol`` or ``capacity`` (``montecarlo`` binds
  ``gains_batch``, ``block_stats_batch`` and ``threshold_for`` by name);
- on the ``bafsim.montecarlo`` and ``bafsim.capacity`` module objects, every
  public function they define (``cli`` calls them as ``mc.X`` and ``cap.X``).

The kernel's own call of ``threshold_for`` inside ``protocol`` is not wrapped,
so it counts as kernel time.  A span is ``[name, start, end, parent, work]``:
``name`` is ``<module>.<function>``, ``parent`` the index of the enclosing span
(-1 at the top), and ``work`` a unit count taken from the return value (see
``WORK``).  Spans stay in memory until the run ends.  Calls made in pool
workers are not seen, so traced runs use one worker.
"""

from __future__ import annotations

import inspect
import time

# Work units read from a return value: exponentials drawn, kernel rows,
# capacity-search evaluations, placement grid points.
WORK = {
    "channel.gains_batch": lambda out: out.shape[0] * out.shape[1],
    "protocol.block_stats_batch": lambda out: out[0].shape[0],
    "montecarlo.empirical_eps_outage_capacity": lambda out: out.iterations,
    "montecarlo.empirical_capacity_vs_position": lambda out: len(out[0]),
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def call(self, name: str, fn, *args, **kwargs):
        """Run ``fn`` inside a span called ``name``."""
        index = len(self.spans)
        span = [name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1, 0]
        self.spans.append(span)
        self._stack.append(index)
        try:
            out = fn(*args, **kwargs)
        finally:
            span[2] = time.perf_counter()
            self._stack.pop()
        if name in WORK:
            span[4] = WORK[name](out)
        return out

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced


def _layer_functions(namespace, defined_in):
    for attr, value in list(vars(namespace).items()):
        if attr.startswith("_") or not inspect.isfunction(value):
            continue
        layer = value.__module__.rpartition(".")[2]
        if layer in defined_in:
            yield attr, f"{layer}.{value.__name__}", value


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of an imported bafsim package."""
    import bafsim.capacity
    import bafsim.cli
    import bafsim.montecarlo

    targets = [
        (bafsim.montecarlo, ("channel", "protocol", "capacity", "montecarlo")),
        (bafsim.cli, ("channel", "protocol", "capacity")),
        (bafsim.capacity, ("capacity",)),
    ]
    for namespace, defined_in in targets:
        for attr, name, fn in _layer_functions(namespace, defined_in):
            setattr(namespace, attr, tracer.wrap(name, fn))


def summarize(spans: list[list]) -> dict:
    """Per-name calls, total and self seconds and work; the root spans' wall time;
    and the time in ``montecarlo`` spans called directly from a root.

    Self time is a span's duration minus the durations of its direct children;
    spans nest strictly, so children never overlap.
    """
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    by_name: dict[str, dict] = {}
    for i, (name, start, end, parent, work) in enumerate(spans):
        entry = by_name.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "work": 0})
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += end - start - child_time[i]
        entry["work"] += work
    roots = [i for i, s in enumerate(spans) if s[3] < 0]
    wall = sum(spans[i][2] - spans[i][1] for i in roots)
    montecarlo_top = sum(
        s[2] - s[1]
        for s in spans
        if s[0].startswith("montecarlo.") and s[3] >= 0 and spans[s[3]][3] < 0
    )
    return {"by_name": by_name, "wall_s": wall, "montecarlo_top_s": montecarlo_top}
