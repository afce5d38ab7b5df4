"""Per-slot statistics, exact running averages, and CSV export.

Running averages are computed from exact running sums, so the identity
f_bar(T) * T == sum of f_slot holds with no drift. An Accumulator holds
the sums of every lane of a lane group; the engine updates it once per
slot and, for the slots a lane keeps, has it keep a row of exact ints.
A row becomes a CSV line (record_to_csv_row) from integer divmods
alone; tests hold it to the row's exact reference.row_record.
"""

from __future__ import annotations

import operator
from fractions import Fraction
from typing import Sequence

import numpy as np

from .model import Rational

CSV_HEADER = "t,f_slot,g_slot,f_bar,g_bar,total_backlog,ctrl_var,uploads,locals"
CSV_HEADER_LYAP = CSV_HEADER + ",lyapunov,drift_penalty"


#: Slots an Accumulator holds before it folds them into its exact sums.
SETTLE_BLOCK = 64
LOW_MASK = 2 ** 31 - 1  # exact_sum's low part of an int64


class Accumulator:
    """Exact running sums of f, d*g and the total backlog, one of each
    per lane, and each lane's kept rows. g is summed as the integer d*g,
    with d = `scale`, so every sum of an engine run is an int.

    `update` takes a slot's arrays as they are and holds up to
    SETTLE_BLOCK slots; `settle` folds them into the Python-int sums with
    one block sum (exact_sum), and runs before every read: a kept row,
    `mean_backlog`, and the engine's move to object arrays.

    `kept[lane]` lists the lane's rows, one per slot it keeps, each the
    tuple (t, f, d*g, f_sum, dg_sum, total backlog, n_c*Sum q_c^2 -
    (Sum q_c)^2, uploads, locals), where f_sum and dg_sum are the running
    sums through slot t, followed, when the lane logs its Lyapunov
    drift, by Sum q^2 over every queue at the slot's start and end."""

    def __init__(self, lanes: int, scale: int):
        self.t = 0
        self.scale = scale
        self.f_sum = [0] * lanes
        self.dg_sum = [0] * lanes
        self.backlog_sum = [0] * lanes
        self.kept = [[] for _ in range(lanes)]
        # the (2 x L) fdg and the backlogs of the slots not yet summed
        self.fdgs, self.backlogs = [], []
        self.last = None  # the final settled slot's f, d*g and backlog lists

    def update(self, fdg, backlog) -> None:
        """Add one slot: `fdg` is the (2 x L) array of each lane's f and
        d*g, `backlog` the array of each lane's total backlog, int64 or
        object arrays of Python ints, neither written to afterwards."""
        fdgs = self.fdgs
        fdgs.append(fdg)
        self.backlogs.append(backlog)
        self.t += 1
        if len(fdgs) == SETTLE_BLOCK:
            self.settle()

    def settle(self) -> None:
        """Fold the pending slots into the sums; `last` becomes the final
        slot's f, d*g and backlog, as lists of each lane's value."""
        fdgs, backlogs = self.fdgs, self.backlogs
        if not fdgs:
            return
        (f, dg), backlog = fdgs[-1].tolist(), backlogs[-1].tolist()
        self.last = f, dg, backlog
        if len(fdgs) > 1:
            lanes = len(backlog)
            sums = exact_sum(np.concatenate(fdgs).reshape(-1, 2 * lanes))
            f, dg = sums[:lanes], sums[lanes:]
            backlog = exact_sum(np.concatenate(backlogs).reshape(-1, lanes))
        fdgs.clear()
        backlogs.clear()
        self.f_sum = list(map(operator.add, self.f_sum, f))
        self.dg_sum = list(map(operator.add, self.dg_sum, dg))
        self.backlog_sum = list(map(operator.add, self.backlog_sum, backlog))

    def keep(self, lane, q_c, uploads, locals_, before=None,
             after=None) -> None:
        """Keep lane `lane`'s row of the slot last passed to update, whose
        slot-end controller backlogs are `q_c`; `before` and `after`, the
        lane's backlogs at the slot's start and end, are given when it
        logs its Lyapunov drift."""
        self.settle()
        f, dg, backlog = self.last
        row = (self.t - 1, f[lane], dg[lane], self.f_sum[lane],
               self.dg_sum[lane], backlog[lane], scaled_variance(q_c),
               uploads, locals_)
        if before is not None:
            row += (sum_squares(before), sum_squares(after))
        self.kept[lane].append(row)

    def mean_backlog(self, lane: int) -> Fraction:
        self.settle()
        return Fraction(self.backlog_sum[lane], self.t) if self.t \
            else Fraction(0)


def exact_sum(stacked: np.ndarray) -> list:
    """The column sums of the 2-D array `stacked`, as exact ints.

    An object array is summed with Python's own addition. An int64 array
    of at most 2**31 rows is summed in two parts: x >> 31, which lies in
    [-2**32, 2**32), and x & (2**31 - 1), in [0, 2**31), so neither
    part's sum wraps, and x = (x >> 31)*2**31 + (x & (2**31 - 1)) holds
    for every int64 x."""
    if stacked.dtype == object:
        return stacked.sum(0).tolist()
    high = np.add.reduce(stacked >> 31, axis=0).tolist()
    low = np.add.reduce(stacked & LOW_MASK, axis=0).tolist()
    return [(h << 31) + lo for h, lo in zip(high, low)]


def sum_squares(xs: Sequence[int]) -> int:
    """Sum of x^2 over xs, in Python ints: no square wraps."""
    return sum(map(operator.mul, xs, xs))


def scaled_variance(q_c: Sequence[int]) -> int:
    """n^2 times the population variance of the n backlogs q_c: the
    integer n*Sum x^2 - (Sum x)^2."""
    total = sum(q_c)
    return len(q_c) * sum_squares(q_c) - total * total


def format_ratio(num: int, den: int, digits: int = 6) -> str:
    """Fixed-point decimal rendering of the rational num/den, for ints
    num and den >= 1, rounded half to even at `digits` places:
    round(Fraction(num, den) * 10**digits), from one integer divmod. The
    tie test 2*r == den holds for num/den exactly when it holds for the
    reduced fraction, so num/den need not be in lowest terms."""
    unit = 10 ** digits
    q, r = divmod(num * unit, den)  # floor, and r in [0, den)
    if 2 * r > den or (2 * r == den and q % 2):
        q += 1
    sign = "-" if q < 0 else ""
    q = abs(q)
    return "%s%d.%0*d" % (sign, q // unit, digits, q % unit)


def format_rational(x, digits: int = 6) -> str:
    """Fixed-point decimal rendering of an exact rational, rounded half
    to even at `digits` places: round(Fraction(x) * 10**digits)."""
    if not isinstance(x, (int, Fraction)):
        x = Fraction(x)
    return format_ratio(x.numerator, x.denominator, digits)


def record_to_csv_row(row, scale: int, n_controllers: int,
                      v: Rational) -> str:
    """The CSV line of a kept row (Accumulator.kept), with the columns
    of reference.row_record(row, scale, n_controllers, v) formatted by
    format_ratio from the row's integers: no Fraction is built."""
    t, f, dg, f_sum, dg_sum, backlog, var, uploads, locals_, *squares = row
    n = t + 1
    cols = [
        str(t),
        format_ratio(f, 1),
        format_ratio(dg, scale),
        format_ratio(f_sum, n),
        format_ratio(dg_sum, scale * n),
        str(backlog),
        format_ratio(var, n_controllers ** 2),
        str(uploads),
        str(locals_),
    ]
    if squares:
        # drift = (after - before)/2 + (p/q)*(f + dg/d), over 2*q*d
        before, after = squares
        p, q = v.numerator, v.denominator
        cols.append(format_ratio(before, 2))
        cols.append(format_ratio(q * scale * (after - before)
                                 + 2 * p * (scale * f + dg), 2 * q * scale))
    return ",".join(cols)
