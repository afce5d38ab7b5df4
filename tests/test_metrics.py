import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sdnsched.metrics import (
    Accumulator,
    controller_variance,
    format_rational,
    record_to_csv_row,
)
from sdnsched.model import QueueState


class TestAccumulator:
    def test_two_point_average(self):
        acc = Accumulator()
        q = QueueState.zeros(1, 1)
        acc.update(2, 0, q.total())
        acc.update(4, 0, q.total())
        rec = acc.record(4, 0, q, 1, 0)
        assert rec.f_bar == 3 and rec.t == 1

    def test_all_zero(self):
        acc = Accumulator()
        q = QueueState.zeros(1, 1)
        for _ in range(5):
            acc.update(0, 0, q.total())
        rec = acc.record(0, 0, q, 0, 1)
        assert rec.f_bar == 0 and rec.g_bar == 0 and rec.total_backlog == 0

    def test_recompute_from_scratch(self):
        rng = random.Random(6)
        acc = Accumulator()
        fs, gs = [], []
        q = QueueState(q_s=(1, 2), q_c=(3,))
        for _ in range(1000):
            f = rng.randint(0, 50)
            g = Fraction(rng.randint(0, 50), rng.randint(1, 7))
            fs.append(f)
            gs.append(g)
            acc.update(f, g, q.total())
        rec = acc.record(f, g, q, 2, 0)
        assert rec.f_bar == Fraction(sum(fs), len(fs))
        assert rec.g_bar == sum(gs) / len(gs)

    def test_running_sum_identity(self):
        rng = random.Random(7)
        acc = Accumulator()
        total = 0
        q = QueueState.zeros(1, 1)
        for t in range(1, 200):
            f = rng.randint(0, 9)
            total += f
            acc.update(f, 0, q.total())
            assert acc.record(f, 0, q, 0, 1).f_bar * t == total


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

    def test_six_digits(self):
        assert format_rational(Fraction(1, 3)) == "0.333333"
        assert format_rational(3) == "3.000000"
        assert format_rational(Fraction(-1, 2)) == "-0.500000"

    def test_csv_row(self):
        acc = Accumulator()
        q = QueueState(q_s=(1,), q_c=(0, 2))
        acc.update(2, Fraction(1, 2), q.total())
        rec = acc.record(2, Fraction(1, 2), q, 1, 0)
        row = record_to_csv_row(rec)
        assert row == "0,2.000000,0.500000,2.000000,0.500000,3,1.000000,1,0"

    def test_uploads_plus_locals(self):
        acc = Accumulator()
        q = QueueState.zeros(4, 2)
        acc.update(0, 0, q.total())
        rec = acc.record(0, 0, q, 3, 1)
        assert rec.uploads + rec.locals_ == 4
