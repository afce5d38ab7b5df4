"""Per-slot stochastic inputs: arrival processes (trace-CDF, Poisson,
Pareto, constant), hot-spot overrides, and constant service vectors.

Every switch owns an independent PRNG stream derived from
(seed, switch index), so changing one switch's mode never perturbs
the others and A/B comparisons between schemes share random numbers.

ArrivalState samples all switches at once, with no per-switch Python
work per slot: Poisson and Pareto switches draw a block of slots per
numpy call, and trace switches draw a block of inter-arrival gaps
through a vectorised inverse CDF and count each slot's events for all
switches together. numpy's Generator gives the same values whatever the
block size, and the trace arithmetic is the same float operations in
the same order as drawing one event at a time, so the arrivals are
bit-identical to that scalar specification (tests/test_traffic.py).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_BLOCK = 512  # slots of draws (or trace gaps) buffered per switch

#: Largest rate numpy's Generator.poisson accepts: it rejects a lam
#: above int64's max less ten times its square root.
POISSON_MAX_RATE = float(np.iinfo(np.int64).max
                         - np.sqrt(np.iinfo(np.int64).max) * 10)


@dataclass(frozen=True)
class TraceCdf:
    path: str


@dataclass(frozen=True)
class Poisson:
    rate: float

    def __post_init__(self):
        if not (math.isfinite(self.rate) and self.rate >= 0):
            raise ValueError(f"Poisson rate must be finite and >= 0, "
                             f"got {self.rate}")
        if self.rate > POISSON_MAX_RATE:
            raise ValueError(f"Poisson rate must be at most "
                             f"{POISSON_MAX_RATE!r}, got {self.rate}")


@dataclass(frozen=True)
class Pareto:
    shape: float
    scale: float

    def __post_init__(self):
        for name in ("shape", "scale"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(f"Pareto {name} must be finite and > 0, "
                                 f"got {value}")


@dataclass(frozen=True)
class Constant:
    rate: int

    def __post_init__(self):
        if self.rate < 0:
            raise ValueError(f"constant rate must be >= 0, got {self.rate}")


Process = TraceCdf | Poisson | Pareto | Constant


@dataclass(frozen=True)
class TrafficConfig:
    base_process: Process
    n_switches: int
    n_controllers: int
    slot_length_us: int = 10_000
    hot_spot_switches: frozenset[int] = frozenset()
    hot_spot_rate: int = 200
    controller_capacity: int = 600
    switch_capacity: int = 10
    a_max: int = 10 ** 6
    b_max: int = 10 ** 6
    u_max: int = 10 ** 6
    seed: int = 0

    def __post_init__(self):
        if self.hot_spot_rate < 0 or self.controller_capacity < 0 \
                or self.switch_capacity < 0:
            raise ValueError("rates and capacities must be nonnegative")
        if self.slot_length_us <= 0:
            raise ValueError("slot length must be positive")
        if self.a_max < 1:
            raise ValueError(f"a_max must be >= 1, got {self.a_max}")
        if self.controller_capacity > self.b_max:
            raise ValueError("controller capacity exceeds b_max")
        if self.switch_capacity > self.u_max:
            raise ValueError("switch capacity exceeds u_max")


class EmpiricalCdf:
    """Piecewise-linear inverse CDF over inter-arrival microseconds."""

    def __init__(self, points: list[tuple[float, float]]):
        if not points:
            raise ValueError("empty CDF")
        xs = [p[0] for p in points]
        ps = [p[1] for p in points]
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("inter-arrival column must be strictly increasing")
        if any(b <= a for a, b in zip(ps, ps[1:])):
            raise ValueError("probability column must be strictly increasing")
        if ps[-1] != 1.0:
            raise ValueError("final cumulative probability must be exactly 1.0")
        if ps[0] < 0:
            raise ValueError("probabilities must lie in [0, 1]")
        if xs[0] < 0:
            raise ValueError("inter-arrival times must be nonnegative")
        if not all(math.isfinite(v) for v in xs + ps):
            raise ValueError("inter-arrival times and probabilities must be "
                             "finite")
        if xs[-1] == 0:
            # every gap would be 0: a slot would never run out of events
            raise ValueError("largest inter-arrival time must be positive")
        self.xs = xs
        self.ps = ps
        self._xs = np.array(xs, dtype=float)
        self._ps = np.array(ps, dtype=float)

    @property
    def mean(self) -> float:
        """Analytic mean: point mass at the first entry plus uniform
        segments between consecutive entries."""
        m = self.ps[0] * self.xs[0]
        for (x0, p0), (x1, p1) in zip(zip(self.xs, self.ps),
                                      zip(self.xs[1:], self.ps[1:])):
            m += (p1 - p0) * (x0 + x1) / 2.0
        return m

    def sample(self, u: float) -> float:
        """Inverse CDF at u in [0, 1)."""
        if u <= self.ps[0]:
            return self.xs[0]
        for (x0, p0), (x1, p1) in zip(zip(self.xs, self.ps),
                                      zip(self.xs[1:], self.ps[1:])):
            if u <= p1:
                return x0 + (x1 - x0) * (u - p0) / (p1 - p0)
        return self.xs[-1]

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        """`sample` at every element of u, with the same float
        expression, so each result has the same bits."""
        k = np.searchsorted(self._ps, u, side="left")
        out = np.full(u.shape, self.xs[0], dtype=float)
        seg = k > 0
        k, u = k[seg], u[seg]
        x0, x1 = self._xs[k - 1], self._xs[k]
        p0, p1 = self._ps[k - 1], self._ps[k]
        out[seg] = x0 + (x1 - x0) * (u - p0) / (p1 - p0)
        return out


def load_interarrival_cdf(path: str) -> EmpiricalCdf:
    """Parse a CDF file: `<interarrival_us> <cumulative_probability>`
    per line, `#` comments ignored. Rejects malformed lines with the
    offending line number."""
    points = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{lineno}: expected two columns")
            try:
                x, p = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: non-numeric value") from None
            if points and (x <= points[-1][0] or p <= points[-1][1]):
                raise ValueError(
                    f"{path}:{lineno}: columns must be strictly increasing"
                )
            points.append((x, p))
    if not points:
        raise ValueError(f"{path}: no data lines")
    try:
        return EmpiricalCdf(points)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


class ArrivalState:
    """Arrival generator state for one simulation run.

    Constant and hot-spot switches are fixed columns of a row template.
    Poisson and Pareto switches fill one column each of a
    (block x n_switches) int64 matrix every block slots, and a slot reads
    one row. Trace switches each buffer a row of `block` inter-arrival
    gaps; the gap at a switch's read position `at` is the time left to
    its next event, which carries the residual across slot boundaries.
    Nothing is drawn until the first slot.
    """

    def __init__(self, cfg: TrafficConfig):
        self.cfg = cfg
        base = cfg.base_process
        hot = cfg.hot_spot_switches
        fixed = [cfg.hot_spot_rate if i in hot
                 else base.rate if isinstance(base, Constant) else 0
                 for i in range(cfg.n_switches)]
        fixed = [min(r, cfg.a_max) for r in fixed]
        self.row = np.array(fixed, np.int64 if max(fixed, default=0) < 2 ** 63
                            else object)
        cols = [] if isinstance(base, Constant) \
            else [i for i in range(cfg.n_switches) if i not in hot]
        self.cols = np.array(cols, np.intp)
        # seeded from Python ints: a numpy int seed is slower to hash
        self.rngs = [np.random.default_rng([cfg.seed, i]) for i in cols]
        self.cap = min(cfg.a_max, 2 ** 63 - 1)  # int64 draws never exceed it
        self.block_len = _BLOCK
        self.block = None  # (block_len x n_switches) counts, Poisson/Pareto
        self.pos = self.block_len
        if isinstance(base, TraceCdf):
            self.cdf = load_interarrival_cdf(base.path)
            # events inspected per switch and pass: about twice a slot's
            # mean, so one pass usually covers the slot
            per_slot = cfg.slot_length_us / self.cdf.mean
            self.window = int(min(16 + 2 * per_slot, self.block_len // 2))
            self.gaps = None  # (n_trace x block_len) gaps, next event first
            self.at = np.zeros(len(self.cols), np.intp)

    def _draw_block(self) -> None:
        p, n = self.cfg.base_process, self.block_len
        if self.block is None:
            self.block = np.tile(self.row, (n, 1))
        # a Pareto tail draw may overflow to inf; it is capped below
        with np.errstate(divide="ignore", over="ignore"):
            for col, rng in zip(self.cols.tolist(), self.rngs):
                if isinstance(p, Poisson):
                    self.block[:, col] = rng.poisson(p.rate, n)
                elif isinstance(p, Pareto):
                    # inverse-transform Pareto draw per slot, rounded to
                    # nearest; a draw can exceed int64, so draws at or
                    # above the cap are set to it after the cast
                    draws = np.rint(p.scale
                                    / rng.random(n) ** (1.0 / p.shape))
                    tail = draws >= self.cap
                    counts = np.where(tail, 0, draws).astype(np.int64)
                    counts[tail] = self.cap
                    self.block[:, col] = counts
                else:
                    raise AssertionError(p)
        np.clip(self.block, 0, self.cap, out=self.block)
        self.pos = 0

    def _top_up_gaps(self, live: np.ndarray) -> None:
        """Leave a window of unread gaps for every switch in `live`: a
        switch that runs short moves its unread gaps to the front and
        draws as many as it has read."""
        n = self.block_len
        if self.gaps is None:
            self.gaps = np.array([self.cdf.sample_array(rng.random(n))
                                  for rng in self.rngs])
        for r in live[self.at[live] > n - self.window].tolist():
            k = self.at[r]
            self.gaps[r] = np.concatenate((
                self.gaps[r, k:], self.cdf.sample_array(self.rngs[r].random(k))))
            self.at[r] = 0

    def _trace_counts(self) -> np.ndarray:
        """Events per trace switch in one slot.

        For each switch still inside the slot, one pass subtracts its
        next `window` gaps from the time left, in order
        (np.subtract.accumulate): the same float operations as
        subtracting them one event at a time. An event fits while the
        time left after it is >= 0, which for finite floats is exactly
        `gap <= time left`; the time left never grows, so the events that
        fit are a prefix. The first gap that does not fit becomes the
        residual `gap - time left`.
        """
        w = self.window
        count = np.zeros(len(self.cols), np.int64)
        left = np.full(len(self.cols), float(self.cfg.slot_length_us))
        live = np.arange(len(self.cols))
        offsets = np.arange(w)
        while live.size:
            self._top_up_gaps(live)
            at = self.at[live]
            gaps = self.gaps[live[:, None], at[:, None] + offsets]
            # after[:, j]: time left in the slot after j more events
            after = np.subtract.accumulate(
                np.concatenate((left[live, None], gaps), axis=1), axis=1)
            fits = (after[:, 1:] >= 0).sum(1)
            count[live] += fits
            self.at[live] = at + fits
            done = fits < w
            ended = live[done]
            self.gaps[ended, self.at[ended]] -= after[done, fits[done]]
            left[live] = after[:, -1]
            live = live[~done]
        return count

    def next_row(self) -> np.ndarray:
        """The arrival counts of the next slot, one per switch."""
        if not self.rngs:
            return self.row
        if isinstance(self.cfg.base_process, TraceCdf):
            row = self.row.copy()
            row[self.cols] = np.minimum(self._trace_counts(), self.cap)
            return row
        if self.pos == self.block_len:
            self._draw_block()
        self.pos += 1
        return self.block[self.pos - 1]


def sample_slot_arrivals(state: ArrivalState) -> tuple[int, ...]:
    return tuple(state.next_row().tolist())


def sample_slot_services(cfg: TrafficConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Constant service: capacity per controller and per switch."""
    return ((cfg.controller_capacity,) * cfg.n_controllers,
            (cfg.switch_capacity,) * cfg.n_switches)


def cap_warnings(cfg: TrafficConfig) -> list[str]:
    """Warnings for the fixed rates (hot-spot, constant) that a_max caps:
    those switches get a_max arrivals per slot, not their rate."""
    hot = cfg.hot_spot_switches
    fixed = []
    if hot:
        fixed.append(("hot-spot", cfg.hot_spot_rate))
    if isinstance(cfg.base_process, Constant) and len(hot) < cfg.n_switches:
        fixed.append(("constant", cfg.base_process.rate))
    return [f"{kind} rate {rate} exceeds a_max {cfg.a_max}; those switches "
            f"get {cfg.a_max} arrivals per slot"
            for kind, rate in fixed if rate > cfg.a_max]


def mean_arrival_rates(cfg: TrafficConfig) -> list[Fraction | float]:
    """Expected arrivals per slot for each switch, used by capacity
    checks."""
    p = cfg.base_process
    if isinstance(p, (Constant, Poisson)):
        base = p.rate
    elif isinstance(p, Pareto):
        base = float("inf") if p.shape <= 1 \
            else p.shape * p.scale / (p.shape - 1)
    else:
        base = cfg.slot_length_us / load_interarrival_cdf(p.path).mean
    return [cfg.hot_spot_rate if i in cfg.hot_spot_switches else base
            for i in range(cfg.n_switches)]
