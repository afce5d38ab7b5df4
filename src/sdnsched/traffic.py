"""Per-slot stochastic inputs: arrival processes (trace-CDF, Poisson,
Pareto, constant), hot-spot overrides, and constant service capacities.

Every switch owns an independent PRNG stream derived from
(seed, switch index), so changing one switch's mode never perturbs
the others and A/B comparisons between schemes share random numbers.
Switch i's stream is numpy's default_rng([seed, i]), state for state.
switch_streams builds every stream of a run at once: it runs numpy's
SeedSequence hash for all the switches in one vectorised numpy pass and
seeds each PCG64 from its switch's hashed state.

ArrivalState samples all switches at once, with no per-switch Python
work per slot: Poisson and Pareto switches draw a block of slots per
numpy call. Trace switches buffer a block of inter-arrival gaps each;
when one runs short, all of them are refilled in one batch through
EmpiricalCdf.sample_array, an inverse CDF whose segment search is a
bucket table plus a fixed number of exact correction steps (a binary
search when one bucket holds too many probabilities). Each slot
counts the events of every trace switch in one column-major window
(one row per event, one column per switch), with further passes only
for the switches still inside the slot. numpy's Generator gives the same
values whatever the block size, and the trace arithmetic is the same
float operations in the same order as drawing one event at a time, so
the arrivals are bit-identical to that scalar specification
(tests/test_traffic.py, over reference.inverse_cdf).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from numpy.random import PCG64, Generator
from numpy.random.bit_generator import ISeedSequence

_BLOCK = 512  # slots of draws (or trace gaps) buffered per switch
_REFILL = 8192  # trace gaps mapped per inverse-CDF call when refilling

#: Largest rate numpy's Generator.poisson accepts: it rejects a lam
#: above int64's max less ten times its square root.
POISSON_MAX_RATE = float(np.iinfo(np.int64).max
                         - np.sqrt(np.iinfo(np.int64).max) * 10)

#: Largest controller or switch service capacity, requests per slot.
MAX_CAPACITY = 10 ** 6

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): a pool of
# four 32-bit words, filled and mixed with the constants A, then read
# out with the constants B. The words are uint32 arrays, whose products
# and differences wrap mod 2^32 as the hash's do.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_MASK = 0xFFFFFFFF


@functools.cache
def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The first n+1 values of SeedSequence's hash constant, init·mult^k
    mod 2^32, as a read-only column; they do not depend on the data, so
    each length is computed once per process."""
    consts = [init]
    for _ in range(n):
        consts.append(consts[-1] * mult & _MASK)
    column = np.array(consts, np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(value, consts: np.ndarray):
    """SeedSequence's hashmix of each row of value, row r with constant
    r and r+1 of `consts`."""
    value = (value ^ consts[:-1]) * consts[1:]
    return value ^ (value >> 16)


def _mix(x, y):
    """SeedSequence's mix of x with y, elementwise."""
    result = _MIX_L * x - _MIX_R * y
    return result ^ (result >> 16)


class _SeedState(ISeedSequence):
    """A seed source for PCG64 that hands over one state computed in
    bulk by switch_streams: the (4,) uint64 array that PCG64 asks for
    with generate_state(4, np.uint64)."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        return self.state


def switch_streams(seed: int, switches) -> list[Generator]:
    """One generator per switch index i in `switches` (each in
    [0, 2^32)), each in the state of default_rng([seed, i]),
    so it draws the same values. That state is SeedSequence's hash of
    seed's little-endian 32-bit words followed by i; it runs here for
    every switch at once, one switch per column, and each PCG64 is
    seeded from its column."""
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    words = [seed & _MASK]
    while seed >> 32:
        seed >>= 32
        words.append(seed & _MASK)
    entropy = np.zeros((max(len(words) + 1, _POOL), len(switches)), np.uint32)
    entropy[:len(words)] = np.array(words, np.uint32)[:, None]
    entropy[len(words)] = switches
    # mix_entropy: hash the first words into the pool, mix every pool
    # word into every other, then mix in each word past the pool
    extra = len(entropy) - _POOL
    a = _hash_consts(_INIT_A, _MULT_A, _POOL * (_POOL + extra))
    pool = _hashmix(entropy[:_POOL], a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL + 1]))
        k += _POOL
    # generate_state(4, np.uint64): eight hashed words, cycling through
    # the pool, paired low word first
    state = _hashmix(np.tile(pool, (2, 1)),
                     _hash_consts(_INIT_B, _MULT_B, 2 * _POOL)
                     ).astype(np.uint64)
    states = np.ascontiguousarray((state[0::2] | state[1::2] << 32).T)
    return [Generator(PCG64(_SeedState(row))) for row in states]


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
    seed: int = 0

    def __post_init__(self):
        negative = [f"{name} must be >= 0, got {value}" for name, value in
                    (("hot_spot_rate", self.hot_spot_rate),
                     ("controller_capacity", self.controller_capacity),
                     ("switch_capacity", self.switch_capacity),
                     ("seed", self.seed)) if value < 0]
        if negative:
            raise ValueError("; ".join(negative))
        if self.slot_length_us <= 0:
            raise ValueError("slot length must be positive")
        if self.a_max < 1:
            raise ValueError(f"a_max must be >= 1, got {self.a_max}")
        for name, capacity in (("controller", self.controller_capacity),
                               ("switch", self.switch_capacity)):
            if capacity > MAX_CAPACITY:
                raise ValueError(f"{name} capacity {capacity} exceeds the "
                                 f"limit {MAX_CAPACITY}")


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
        self._search = None  # sample_array's tables, built on first use

    @property
    def mean(self) -> float:
        """Analytic mean: point mass at the first entry plus uniform
        segments between consecutive entries."""
        m = self.ps[0] * self.xs[0]
        for (x0, p0), (x1, p1) in zip(zip(self.xs, self.ps),
                                      zip(self.xs[1:], self.ps[1:])):
            m += (p1 - p0) * (x0 + x1) / 2.0
        return m

    def _build_search(self):
        """Tables for sample_array. Segment k >= 1 runs from point k - 1
        to point k; segment 0 is the point mass at xs[0] (dx = 0, dp = 1,
        so the expression gives xs[0] exactly). Bucket b of M (a power of
        two, so u * M is exact) starts at segment #{ps < b/M}; a u in the
        bucket lies at most `steps` segments further, the most ps values
        any one bucket holds. When that is more steps than a binary search
        over ps takes, as for many probabilities crowded near 1, `steps`
        is None and sample_array uses np.searchsorted instead."""
        n = len(self.ps)
        m = 1 << min(max(4, (4 * n - 1).bit_length()), 16)
        ps = np.array(self.ps)
        start = np.searchsorted(ps, np.arange(m + 1) / m, side="left")
        xs = np.array(self.xs)
        x0 = np.concatenate(([xs[0]], xs[:-1]))
        # segment 0's u - p0 < 0 makes its term -0.0, so xs[0] + term is
        # xs[0] even when xs[0] is -0.0
        p0 = np.concatenate(([2.0], ps[:-1]))
        dx = np.concatenate(([0.0], np.diff(xs)))
        dp = np.concatenate(([1.0], np.diff(ps)))
        steps = int(np.diff(start).max())
        if steps > n.bit_length():
            steps = None
        return m, start, steps, ps, x0, dx, p0, dp

    def sample_array(self, u: np.ndarray) -> np.ndarray:
        """reference.inverse_cdf at every element of u, with the same
        float expression, so each result has the same bits. The segment of u
        is k = #{ps < u}: a bucket table gives a lower bound and a fixed
        number of steps `k += ps[k] < u` makes it exact."""
        if self._search is None:
            self._search = self._build_search()
        m, start, steps, ps, x0, dx, p0, dp = self._search
        if steps is None:
            k = np.searchsorted(ps, u, side="left")
        else:
            k = start.take((u * m).astype(np.intp))
            for _ in range(steps):
                k += ps.take(k) < u
        return x0.take(k) + dx.take(k) * (u - p0.take(k)) / dp.take(k)


def load_interarrival_cdf(path: str) -> EmpiricalCdf:
    """Parse a CDF file: `<interarrival_us> <cumulative_probability>`
    per line, `#` comments ignored. Rejects malformed lines with the
    offending line number, and a file that is not UTF-8 text."""
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from None
    points = []
    for lineno, raw in enumerate(text.split("\n"), start=1):
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


def trace_events_per_slot(cfg: TrafficConfig, cdf: EmpiricalCdf) -> float:
    """A trace switch's mean events per slot, slot_length_us / cdf.mean.
    Rejects a CDF whose mean gap is so short (or underflows to 0) that
    a slot would hold more than MAX_CAPACITY events on average."""
    mean = cdf.mean
    per_slot = cfg.slot_length_us / mean if mean else math.inf
    if per_slot > MAX_CAPACITY:
        raise ValueError(
            f"{cfg.base_process.path}: mean inter-arrival time {mean!r} us "
            f"gives {per_slot:.3g} events per slot, above the limit "
            f"{MAX_CAPACITY}")
    return per_slot


class ArrivalState:
    """Arrival generator state for one simulation run.

    Constant and hot-spot switches are fixed columns of a row template.
    Poisson and Pareto switches fill one column each of a
    (block x n_switches) int64 matrix every block slots, and a slot reads
    one row; each drawn column is capped at min(a_max, 2**63 - 1), and
    the fixed columns hold min(rate, a_max), on an object matrix when
    one of those reaches 2**63. Trace switches each own `block`
    consecutive inter-arrival gaps of one flat buffer; the gap at a
    switch's read position `at` is the time left to its next event,
    which carries the residual across slot boundaries. When a switch has
    less than a window of unread gaps, every trace switch is refilled in
    one batch. Nothing is drawn until the first slot.
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
        self.rngs = switch_streams(cfg.seed, cols)
        self.cap = min(cfg.a_max, 2 ** 63 - 1)  # int64 draws never exceed it
        self.block_len = _BLOCK
        self.block = None  # (block_len x n_switches) counts, Poisson/Pareto
        self.pos = self.block_len
        if isinstance(base, TraceCdf):
            self.cdf = load_interarrival_cdf(base.path)
            # events inspected per switch and pass: a slot's mean count
            # plus three of its Poisson standard deviations, so one pass
            # almost always covers the slot; more passes stay exact
            per_slot = trace_events_per_slot(cfg, self.cdf)
            self.window = int(min(per_slot + 3 * math.sqrt(per_slot) + 8,
                                  self.block_len // 2))
            self.gaps = None  # flat gap buffer, allocated on the first slot

    def _draw_block(self) -> None:
        p, n = self.cfg.base_process, self.block_len
        if self.block is None:
            self.block = np.tile(self.row, (n, 1))
        # a Pareto tail draw may overflow to inf; it is capped below
        with np.errstate(divide="ignore", over="ignore"):
            for col, rng in zip(self.cols.tolist(), self.rngs):
                if isinstance(p, Poisson):
                    draws = rng.poisson(p.rate, n)
                    self.block[:, col] = np.minimum(draws, self.cap,
                                                    out=draws)
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
        self.pos = 0

    def _start_trace(self) -> None:
        """Allocate the trace buffers: switch r's gaps sit at
        [r*block, (r+1)*block) of `gaps`, and every one of them counts as
        read, so the first slot fills them all."""
        m, n, w = len(self.cols), self.block_len, self.window
        self.base = np.arange(m) * n
        self.at = self.base + n  # flat index of each switch's next gap
        self.last = self.base + (n - w)  # the last `at` that leaves a window
        self.gaps = np.empty(m * n)
        self.offsets = np.arange(w)[:, None]
        # the first pass's window; accumulating leaves row 0, the negated
        # time left, as it is
        self.buf = np.empty((w + 1, m))
        self.buf[0] = -float(self.cfg.slot_length_us)

    def _top_up_gaps(self) -> None:
        """Leave a window of unread gaps for every trace switch. When one
        has less, every trace switch is refilled in one batch: one
        compaction moves each switch's unread gaps to the front of its
        row, and each switch draws as many gaps as it has read with one
        call on its own stream, so each stream is read in order. One
        inverse-CDF call maps the draws of up to _REFILL gaps' worth of
        rows, which bounds the batch's temporaries."""
        if (self.last - self.at).min() >= 0:
            return
        n = self.block_len
        read = self.at - self.base
        j = np.arange(n)
        front = (j < n - read[:, None]).ravel()
        self.gaps[front] = self.gaps[(j >= read[:, None]).ravel()]
        self.at[:] = self.base
        fresh, counts = ~front, read.tolist()
        rows = max(1, _REFILL // n)
        for r in range(0, len(counts), rows):
            u = np.concatenate([rng.random(k) for rng, k in
                                zip(self.rngs[r:r + rows], counts[r:r + rows])])
            seg = slice(r * n, (r + rows) * n)
            self.gaps[seg][fresh[seg]] = self.cdf.sample_array(u)

    def _pass(self, at: np.ndarray, buf: np.ndarray) -> np.ndarray:
        """One pass over the next `window` gaps of the switches whose read
        positions are `at` and whose negated time left is buf[0]. Returns
        the events that fit, per switch and at most, and advances `at`
        past them.

        buf is (window + 1) x switches, so each row is one event of every
        switch: one flat take fills rows 1..window, and np.add.accumulate
        down the rows leaves the negated time left after each event. Since
        rounding is symmetric, -left + gap is -(left - gap) bit for bit:
        the same float operations as subtracting the gaps one event at a
        time. An event fits while the time left after it is >= 0, which
        for finite floats is exactly `gap <= time left`; the time left
        never grows, so the events that fit are a prefix. For a switch
        whose slot ended, buf[fits + 1] is the first gap that does not
        fit less the time left: that gap's residual.
        """
        w = self.window
        win = buf[1:]
        np.take(self.gaps, self.offsets + at, out=win)
        np.add.accumulate(buf, axis=0, out=buf)
        fits = (win <= 0).sum(0)
        at += fits
        ended = np.flatnonzero(fits < w)
        self.gaps[at[ended]] = buf[fits[ended] + 1, ended]
        return fits

    def _trace_counts(self) -> np.ndarray:
        """Events per trace switch in one slot.

        The first pass covers every switch with one flat take into the
        preallocated window. Only the switches still inside the
        slot after `window` events take further passes, each from the
        time it has left.
        """
        if self.gaps is None:
            self._start_trace()
        w = self.window
        self._top_up_gaps()
        count = self._pass(self.at, self.buf)
        live = np.flatnonzero(count == w)
        left = self.buf[w, live]
        while live.size:
            self._top_up_gaps()
            at = self.at[live]
            buf = np.empty((w + 1, live.size))
            buf[0] = left
            fits = self._pass(at, buf)
            self.at[live] = at
            count[live] += fits
            more = fits == w
            live, left = live[more], buf[w, more]
        return count

    def next_row(self) -> np.ndarray:
        """The arrival counts of the next slot, one per switch."""
        if not self.rngs:
            return self.row
        if isinstance(self.cfg.base_process, TraceCdf):
            count = np.minimum(self._trace_counts(), self.cap)
            if len(count) == len(self.row):  # every switch is a trace switch
                return count
            row = self.row.copy()
            row[self.cols] = count
            return row
        if self.pos == self.block_len:
            self._draw_block()
        self.pos += 1
        return self.block[self.pos - 1]


def sample_slot_arrivals(state: ArrivalState) -> tuple[int, ...]:
    return tuple(state.next_row().tolist())


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
    checks, each at most a_max: ArrivalState caps every draw at a_max,
    and E[min(X, a_max)] <= min(E[X], a_max)."""
    p = cfg.base_process
    if isinstance(p, (Constant, Poisson)):
        base = p.rate
    elif isinstance(p, Pareto):
        base = float("inf") if p.shape <= 1 \
            else p.shape * p.scale / (p.shape - 1)
    else:
        base = trace_events_per_slot(cfg, load_interarrival_cdf(p.path))
    return [min(cfg.hot_spot_rate if i in cfg.hot_spot_switches else base,
                cfg.a_max) for i in range(cfg.n_switches)]
