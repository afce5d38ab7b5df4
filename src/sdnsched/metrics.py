"""Per-slot statistics, exact running averages, and CSV export.

Running averages are computed from exact running sums, so the identity
f_bar(T) * T == sum of f_slot holds with no drift. An Accumulator holds
the sums of every lane of a lane group; the engine updates it once per
slot and asks it for a record only for the slots a lane keeps.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import Rational

CSV_HEADER = "t,f_slot,g_slot,f_bar,g_bar,total_backlog,ctrl_var,uploads,locals"
CSV_HEADER_LYAP = CSV_HEADER + ",lyapunov,drift_penalty"


@dataclass(frozen=True)
class MetricsRecord:
    t: int
    f_slot: Rational
    g_slot: Rational
    f_bar: Fraction
    g_bar: Fraction
    total_backlog: int
    controller_backlog_variance: Fraction
    uploads: int
    locals_: int
    lyapunov: Optional[Fraction] = None
    drift_penalty_sample: Optional[Rational] = None


class Accumulator:
    """Exact running sums of f, d*g and the total backlog, one of each
    per lane. g is summed as the integer d*g, with d = `scale`, so every
    sum of an engine run is an int."""

    def __init__(self, lanes: int, scale: int):
        self.t = 0
        self.scale = scale
        self.f_sum = [0] * lanes
        self.dg_sum = [0] * lanes
        self.backlog_sum = [0] * lanes

    def update(self, f, dg, backlog) -> None:
        """Add one slot: f, dg and backlog list each lane's value."""
        self.f_sum = list(map(operator.add, self.f_sum, f))
        self.dg_sum = list(map(operator.add, self.dg_sum, dg))
        self.backlog_sum = list(map(operator.add, self.backlog_sum, backlog))
        self.t += 1

    def record(self, lane, f_slot, g_slot, queues, uploads, locals_,
               lyapunov=None, drift_penalty=None) -> MetricsRecord:
        """Lane `lane`'s record of the slot last passed to update, whose
        slot-end queues are `queues`."""
        return MetricsRecord(
            t=self.t - 1,
            f_slot=f_slot,
            g_slot=g_slot,
            f_bar=Fraction(self.f_sum[lane], self.t),
            g_bar=Fraction(self.dg_sum[lane], self.scale * self.t),
            total_backlog=queues.total(),
            controller_backlog_variance=controller_variance(queues.q_c),
            uploads=uploads,
            locals_=locals_,
            lyapunov=lyapunov,
            drift_penalty_sample=drift_penalty,
        )

    def mean_backlog(self, lane: int) -> Fraction:
        return Fraction(self.backlog_sum[lane], self.t) if self.t \
            else Fraction(0)


def controller_variance(q_c: Sequence[int]) -> Fraction:
    """Population variance of the per-controller backlogs."""
    n = len(q_c)
    if n < 1:
        raise ValueError("need at least one controller")
    total = sum(q_c)
    sq = sum(x * x for x in q_c)
    # n*E[X^2] - (E[X]*n)^2/n, all over n: keeps everything integral
    return Fraction(n * sq - total * total, n * n)


def format_rational(x, digits: int = 6) -> str:
    """Fixed-point decimal rendering of an exact rational, rounded half
    to even at `digits` places: round(Fraction(x) * 10**digits), from
    one integer divmod with no Fraction arithmetic."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    unit = 10 ** digits
    d = x.denominator
    q, r = divmod(x.numerator * unit, d)  # floor, and r in [0, d)
    if 2 * r > d or (2 * r == d and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    whole, part = divmod(abs(q), unit)
    return f"{sign}{whole}.{part:0{digits}d}"


def record_to_csv_row(rec: MetricsRecord) -> str:
    cols = [
        str(rec.t),
        format_rational(rec.f_slot),
        format_rational(rec.g_slot),
        format_rational(rec.f_bar),
        format_rational(rec.g_bar),
        str(rec.total_backlog),
        format_rational(rec.controller_backlog_variance),
        str(rec.uploads),
        str(rec.locals_),
    ]
    if rec.lyapunov is not None:
        cols.append(format_rational(rec.lyapunov))
        cols.append(format_rational(rec.drift_penalty_sample))
    return ",".join(cols)
