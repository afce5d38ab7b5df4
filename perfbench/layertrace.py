"""Per-layer spans recorded from outside the sdnsched library.

The tracer replaces public callables of the library, named by module and
attribute path, with wrappers that time every call, for as long as
`Tracer.installed()` is open. Only per-call entry points are wrapped
(one call per command, per run or per slot); per-switch helpers such as
`model.step_switch_queue` are not, since a wrapper there would cost more
than the work it times.

Each span name keeps three sums: calls, total time, and the time its
child spans covered. A layer's self time is total minus child time.
A target missing from the library leaves its span unmeasured instead of
failing, so the benchmark keeps running when a later version renames or
removes a callable.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import time

# (span, module, attribute path). Several targets may share one span.
TARGETS = (
    ("cli.main", "sdnsched.cli", "main"),
    ("topology.generate", "sdnsched.topology", "generate"),
    ("topology.place_controllers", "sdnsched.topology", "place_controllers"),
    ("topology.build_cost_model", "sdnsched.topology", "build_cost_model"),
    ("engine.sweep", "sdnsched.engine", "sweep"),
    ("engine.run", "sdnsched.engine", "run"),
    ("traffic.sample", "sdnsched.traffic", "sample_slot_arrivals"),
    ("scheduler.decide", "sdnsched.scheduler", "GreedyKernel.decide"),
    ("scheduler.decide", "sdnsched.scheduler", "AssociationOnlyKernel.decide"),
    # engine imports the baselines by name, so wrap the names it calls
    ("scheduler.decide", "sdnsched.engine", "jsq_decide"),
    ("scheduler.decide", "sdnsched.engine", "random_decide"),
    ("model.price_update", "sdnsched.engine", "apply_slot"),
    ("metrics.account", "sdnsched.metrics", "Accumulator.update"),
    ("metrics.csv", "sdnsched.cli", "record_to_csv_row"),
)

# span -> (count name, function of the return value added to that count)
COUNTERS = {
    "traffic.sample": ("traffic.requests", sum),
    "engine.sweep": ("engine.sweep_rows", len),
}


def _resolve(module: str, path: str):
    """Return (owner, attribute) for `module:path`, or None if missing."""
    try:
        owner = importlib.import_module(module)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, attr, None)):
        return None
    return owner, attr


class Tracer:
    """Span sums for the calls made while `installed()` is open."""

    def __init__(self, targets):
        self.targets = targets
        self.spans: dict[str, list[int]] = {}
        self.counts: dict[str, int] = {}
        self.unmeasured: set[str] = set()
        self._open: list[int] = []  # child time of each open span, ns

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target, reset the sums, and unwrap on exit."""
        self.spans = {name: [0, 0, 0] for name, _, _ in self.targets}
        self.counts = {name: 0 for name, _ in COUNTERS.values()}
        self._open = []
        undo = []
        found = set()
        try:
            for name, module, path in self.targets:
                target = _resolve(module, path)
                if target is None:
                    continue
                owner, attr = target
                original = getattr(owner, attr)
                setattr(owner, attr, self._wrap(name, original))
                undo.append((owner, attr, original))
                found.add(name)
            self.unmeasured = {name for name, _, _ in self.targets} - found
            yield self
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def _wrap(self, name, fn):
        stats = self.spans[name]
        open_spans = self._open
        counts = self.counts
        counter = COUNTERS.get(name)
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += open_spans.pop()
                if open_spans:
                    open_spans[-1] += elapsed
            if counter is not None:
                counts[counter[0]] += counter[1](result)
            return result

        return traced
