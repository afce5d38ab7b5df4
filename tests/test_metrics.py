import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnsched.metrics import (
    Accumulator,
    format_ratio,
    format_rational,
    record_to_csv_row,
    scaled_variance,
)
from sdnsched.reference import QueueState, controller_variance, row_record


def update(acc, f, dg, backlog):
    """Add one slot of a one-lane Accumulator, as the engine's arrays."""
    acc.update(np.array([[f], [dg]]), np.array([backlog]))


def keep_record(acc, q, uploads, locals_):
    """Keep lane 0's row of the last slot, whose slot-end queues are
    `q`, and return its record."""
    acc.keep(0, q.q_c, uploads, locals_)
    return row_record(acc.kept[0][-1], acc.scale, len(q.q_c), 0)


class TestAccumulator:
    def test_two_point_average(self):
        acc = Accumulator(1, 1)
        q = QueueState.zeros(1, 1)
        update(acc, 2, 0, q.total())
        update(acc, 4, 0, q.total())
        rec = keep_record(acc, q, 1, 0)
        assert rec.f_bar == 3 and rec.t == 1

    def test_all_zero(self):
        acc = Accumulator(1, 1)
        q = QueueState.zeros(1, 1)
        for _ in range(5):
            update(acc, 0, 0, q.total())
        rec = keep_record(acc, q, 0, 1)
        assert rec.f_bar == 0 and rec.g_bar == 0 and rec.total_backlog == 0

    def test_recompute_from_scratch(self):
        rng = random.Random(6)
        acc = Accumulator(1, 1)
        fs, gs = [], []
        q = QueueState(q_s=(1, 2), q_c=(3,))
        for _ in range(1000):
            f = rng.randint(0, 50)
            g = Fraction(rng.randint(0, 50), rng.randint(1, 7))
            fs.append(f)
            gs.append(g)
            update(acc, f, g, q.total())
        rec = keep_record(acc, q, 2, 0)
        assert rec.f_bar == Fraction(sum(fs), len(fs))
        assert rec.g_bar == sum(gs) / len(gs)

    def test_running_sum_identity(self):
        rng = random.Random(7)
        acc = Accumulator(1, 1)
        total = 0
        q = QueueState.zeros(1, 1)
        for t in range(1, 200):
            f = rng.randint(0, 9)
            total += f
            update(acc, f, 0, q.total())
            assert keep_record(acc, q, 0, 1).f_bar * t == total


class TestControllerVariance:
    def test_all_equal(self):
        assert controller_variance((7, 7, 7)) == 0

    def test_two_values(self):
        assert controller_variance((0, 4)) == 4

    def test_three_values(self):
        assert controller_variance((1, 2, 3)) == Fraction(2, 3)

    def test_permutation_invariant(self):
        assert controller_variance((5, 1, 9)) == controller_variance((9, 5, 1))

    def test_requires_controller(self):
        with pytest.raises(ValueError):
            controller_variance(())

    @given(st.lists(st.integers(0, 2 ** 66), min_size=1, max_size=12))
    @settings(max_examples=300, deadline=None)
    def test_scaled_variance_is_n_squared_variance(self, q_c):
        # the integer a kept row holds is n^2 times the variance from its
        # definition, at backlogs up to and past 2^62
        n = len(q_c)
        assert n * n * controller_variance(q_c) == scaled_variance(q_c)


def reference_format(x, digits=6):
    """The Fraction body format_rational had: round(x * 10**digits)."""
    frac = Fraction(x)
    scaled = round(frac * 10 ** digits)
    sign = "-" if scaled < 0 else ""
    scaled = abs(scaled)
    whole, part = divmod(scaled, 10 ** digits)
    return f"{sign}{whole}.{part:0{digits}d}"


@st.composite
def rationals(draw):
    """ints, Fractions with denominators past 2^64, and exact ties
    (k + 1/2) / 10**digits with odd and even k."""
    digits = draw(st.sampled_from([0, 1, 2, 6, 9, 20]))
    kind = draw(st.sampled_from(["int", "fraction", "tie"]))
    big = st.integers(-2 ** 80, 2 ** 80)
    if kind == "int":
        x = draw(big)
    elif kind == "fraction":
        x = Fraction(draw(big), draw(st.integers(1, 2 ** 80)))
    else:
        x = Fraction(2 * draw(big) + 1, 2 * 10 ** digits)
    return x, digits


class TestFormatting:
    @given(rationals())
    @settings(max_examples=500, deadline=None)
    def test_equals_fraction_rounding(self, case):
        x, digits = case
        assert format_rational(x, digits) == reference_format(x, digits)

    @pytest.mark.parametrize("x, digits, text", [
        (Fraction(1, 2), 0, "0.0"),            # tie, even q: down
        (Fraction(3, 2), 0, "2.0"),            # tie, odd q: up
        (Fraction(-1, 2), 0, "0.0"),           # -0.5 rounds to 0
        (Fraction(-3, 2), 0, "-2.0"),
        (Fraction(5, 10 ** 7), 6, "0.000000"),
        (Fraction(15, 10 ** 7), 6, "0.000002"),
        (Fraction(-25, 10 ** 7), 6, "-0.000002"),
        (Fraction(1, 2 ** 70 + 1), 6, "0.000000"),
        (2 ** 64 + 1, 2, "18446744073709551617.00"),
        (0.1, 3, "0.100"),
    ])
    def test_ties_and_types(self, x, digits, text):
        assert format_rational(x, digits) == text == reference_format(x, digits)

    @given(st.data())
    @settings(max_examples=500, deadline=None)
    def test_ratio_equals_fraction(self, data):
        # any int num over any den >= 1, in lowest terms or not, and
        # exact ties (2k + 1) / (2 * 10**6) times m, whose half-even
        # quotient is k, even or odd
        big = st.integers(-2 ** 80, 2 ** 80)
        if data.draw(st.booleans()):
            num, den = data.draw(big), data.draw(st.integers(1, 2 ** 80))
        else:
            k = 2 * data.draw(big) + data.draw(st.sampled_from([0, 1]))
            m = data.draw(st.integers(1, 10 ** 6))
            num, den = (2 * k + 1) * m, 2 * 10 ** 6 * m
        assert format_ratio(num, den) == format_rational(Fraction(num, den)) \
            == reference_format(Fraction(num, den))

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_csv_row_formats_its_record(self, data):
        # the integer CSV line of a kept row equals its record's values
        # run through format_rational, Lyapunov columns included
        ints = st.integers(0, 2 ** 70)
        scale = data.draw(st.integers(1, 10 ** 6))
        n_c = data.draw(st.integers(1, 12))
        v = data.draw(st.sampled_from([0, 7, Fraction(7, 2), 10 ** 30,
                                       Fraction(1, 3)]))
        row = (data.draw(st.integers(0, 10 ** 5)),
               *data.draw(st.tuples(*[ints] * 5)),
               data.draw(st.integers(-2 ** 70, 2 ** 70)),
               *data.draw(st.tuples(ints, ints)))
        if data.draw(st.booleans()):
            row += data.draw(st.tuples(ints, ints))
        rec = row_record(row, scale, n_c, v)
        expected = [str(rec.t), *map(format_rational, (
            rec.f_slot, rec.g_slot, rec.f_bar, rec.g_bar)),
            str(rec.total_backlog),
            format_rational(rec.controller_backlog_variance),
            str(rec.uploads), str(rec.locals_)]
        if rec.lyapunov is not None:
            expected += [format_rational(rec.lyapunov),
                         format_rational(rec.drift_penalty_sample)]
        assert record_to_csv_row(row, scale, n_c, v) == ",".join(expected)

    def test_six_digits(self):
        assert format_rational(Fraction(1, 3)) == "0.333333"
        assert format_rational(3) == "3.000000"
        assert format_rational(Fraction(-1, 2)) == "-0.500000"

    def test_csv_row(self):
        # g = d*g / d = 1/2
        acc = Accumulator(1, 2)
        q = QueueState(q_s=(1,), q_c=(0, 2))
        update(acc, 2, 1, q.total())
        acc.keep(0, q.q_c, 1, 0)
        row = record_to_csv_row(acc.kept[0][-1], 2, 2, 0)
        assert row == "0,2.000000,0.500000,2.000000,0.500000,3,1.000000,1,0"

    def test_uploads_plus_locals(self):
        acc = Accumulator(1, 1)
        q = QueueState.zeros(4, 2)
        update(acc, 0, 0, q.total())
        rec = keep_record(acc, q, 3, 1)
        assert rec.uploads + rec.locals_ == 4
