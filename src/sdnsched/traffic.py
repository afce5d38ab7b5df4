"""Per-slot stochastic inputs: arrival processes (trace-CDF, Poisson,
Pareto, constant), hot-spot overrides, and constant service vectors.

Every switch owns an independent PRNG stream derived from
(seed, switch index), so changing one switch's mode never perturbs
the others and A/B comparisons between schemes share random numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

_BLOCK = 4096  # draws buffered per switch between numpy calls


@dataclass(frozen=True)
class TraceCdf:
    path: str


@dataclass(frozen=True)
class Poisson:
    rate: float


@dataclass(frozen=True)
class Pareto:
    shape: float
    scale: float


@dataclass(frozen=True)
class Constant:
    rate: int


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
        if xs[-1] == 0:
            # every gap would be 0: a slot would never run out of events
            raise ValueError("largest inter-arrival time must be positive")
        self.xs = xs
        self.ps = ps

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


class _SwitchStream:
    """One switch's arrival stream. Trace mode keeps the residual time
    to the next event across slot boundaries."""

    def __init__(self, process: Process, cfg: TrafficConfig, index: int,
                 cdf: EmpiricalCdf | None):
        self.process = process
        self.cfg = cfg
        self.rng = np.random.default_rng([cfg.seed, index])
        self.buf: np.ndarray = np.empty(0)
        self.pos = 0
        if isinstance(process, TraceCdf):
            self.cdf = cdf
            self.next_event = self.cdf.sample(self.rng.random())

    def _refill(self):
        p = self.process
        if isinstance(p, Poisson):
            self.buf = self.rng.poisson(p.rate, _BLOCK)
        elif isinstance(p, Pareto):
            # inverse-transform Pareto draw per slot, rounded to nearest;
            # clipped in float, since a tail draw can exceed int64
            u = self.rng.random(_BLOCK)
            draws = np.rint(p.scale / u ** (1.0 / p.shape))
            self.buf = np.minimum(draws, self.cfg.a_max).astype(np.int64)
        else:
            raise AssertionError(p)
        self.pos = 0

    def next_slot(self) -> int:
        p = self.process
        if isinstance(p, Constant):
            count = p.rate
        elif isinstance(p, TraceCdf):
            count = 0
            budget = float(self.cfg.slot_length_us)
            while self.next_event <= budget:
                count += 1
                budget -= self.next_event
                self.next_event = self.cdf.sample(self.rng.random())
            self.next_event -= budget
        else:
            if self.pos >= len(self.buf):
                self._refill()
            count = int(self.buf[self.pos])
            self.pos += 1
        return min(max(count, 0), self.cfg.a_max)


class ArrivalState:
    """Per-switch generator state for one simulation run."""

    def __init__(self, cfg: TrafficConfig):
        self.cfg = cfg
        base = cfg.base_process
        cdf = load_interarrival_cdf(base.path) \
            if isinstance(base, TraceCdf) else None
        self.streams = [
            _SwitchStream(
                Constant(cfg.hot_spot_rate) if i in cfg.hot_spot_switches
                else base,
                cfg, i, cdf,
            )
            for i in range(cfg.n_switches)
        ]


def sample_slot_arrivals(state: ArrivalState) -> tuple[int, ...]:
    return tuple(s.next_slot() for s in state.streams)


def sample_slot_services(cfg: TrafficConfig) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Constant service: capacity per controller and per switch."""
    return ((cfg.controller_capacity,) * cfg.n_controllers,
            (cfg.switch_capacity,) * cfg.n_switches)


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
