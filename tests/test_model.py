from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from sdnsched.model import LOCAL, Association, CostModel
from sdnsched.reference import (
    QueueState,
    lyapunov,
    slot_comm_cost,
    slot_comp_cost,
    step_controller_queue,
    step_switch_queue,
)

counts = st.integers(min_value=0, max_value=10 ** 6)


class TestQueueSteps:
    def test_local_batch_leaves_one(self):
        # one request not processed: 2 local arrivals, service 1
        assert step_switch_queue(0, 2, 1) == 1

    def test_empty_stays_empty(self):
        assert step_switch_queue(0, 0, 5) == 0

    def test_switch_direct(self):
        assert step_switch_queue(3, 2, 4) == 1

    def test_controller_receives_five(self):
        assert step_controller_queue(0, 5, 2) == 3

    def test_controller_serves_both_same_slot(self):
        assert step_controller_queue(0, 2, 2) == 0

    def test_controller_direct(self):
        assert step_controller_queue(7, 0, 3) == 4

    @given(q=counts, routed=counts, service=counts)
    def test_never_negative(self, q, routed, service):
        assert step_switch_queue(q, routed, service) >= 0
        assert step_controller_queue(q, routed, service) >= 0

    @given(q=counts, routed=counts, service=counts, bump=st.integers(1, 100))
    def test_monotone(self, q, routed, service, bump):
        base = step_switch_queue(q, routed, service)
        assert step_switch_queue(q + bump, routed, service) >= base
        assert step_switch_queue(q, routed + bump, service) >= base
        assert step_switch_queue(q, routed, service + bump) <= base


class TestCosts:
    def test_single_upload(self):
        cost = CostModel.uniform_alpha(((1, 3),), 2)
        assert slot_comm_cost(Association(target=(0,)), (3,), cost) == 3

    def test_all_local_no_comm(self):
        cost = CostModel.uniform_alpha(((1, 3),), 2)
        assert slot_comm_cost(Association(target=(LOCAL,)), (3,), cost) == 0

    def test_two_uploads(self):
        cost = CostModel.uniform_alpha(((1, 3), (2, 2), (4, 3)), 2)
        assoc = Association(target=(0, LOCAL, 1))
        assert slot_comm_cost(assoc, (3, 2, 2), cost) == 9

    def test_single_local_comp(self):
        cost = CostModel.uniform_alpha(((1, 3),), 2)
        assert slot_comp_cost(Association(target=(LOCAL,)), (2,), cost) == 4

    def test_no_local_no_comp(self):
        cost = CostModel.uniform_alpha(((1, 3), (1, 2)), 2)
        assert slot_comp_cost(Association(target=(0, 1)), (5, 5), cost) == 0

    def test_two_locals(self):
        cost = CostModel.uniform_alpha(((1, 3), (1, 2)), 2)
        assoc = Association(target=(LOCAL, LOCAL))
        assert slot_comp_cost(assoc, (3, 2), cost) == 10

    @given(st.data())
    def test_cost_decomposition(self, data):
        n_s = data.draw(st.integers(1, 5))
        n_c = data.draw(st.integers(1, 4))
        w = tuple(tuple(data.draw(st.integers(1, 9)) for _ in range(n_c))
                  for _ in range(n_s))
        alpha = tuple(data.draw(st.integers(0, 9)) for _ in range(n_s))
        cost = CostModel(w=w, alpha=alpha)
        arrivals = [data.draw(st.integers(0, 20)) for _ in range(n_s)]
        target = tuple(data.draw(st.integers(-1, n_c - 1)) for _ in range(n_s))
        assoc = Association(target=target)
        # independent per-switch summation
        expected = sum(
            a * (w[i][t] if t != LOCAL else alpha[i])
            for i, (t, a) in enumerate(zip(target, arrivals))
        )
        assert slot_comm_cost(assoc, arrivals, cost) \
            + slot_comp_cost(assoc, arrivals, cost) == expected


class TestLyapunov:
    def test_zeros(self):
        assert lyapunov(QueueState.zeros(3, 2)) == 0

    def test_simple(self):
        assert lyapunov(QueueState(q_s=(3,), q_c=(4,))) == Fraction(25, 2)

    def test_three_ones(self):
        assert lyapunov(QueueState(q_s=(1, 1), q_c=(1,))) == Fraction(3, 2)

    @given(qs=st.lists(st.integers(0, 1000), min_size=1, max_size=5),
           qc=st.lists(st.integers(0, 1000), min_size=1, max_size=5))
    def test_zero_iff_all_zero(self, qs, qc):
        q = QueueState(q_s=tuple(qs), q_c=tuple(qc))
        assert (lyapunov(q) == 0) == (q.total() == 0)

    @given(qs=st.lists(st.integers(0, 1000), min_size=1, max_size=5),
           idx=st.integers(0, 4))
    def test_strictly_increasing_per_entry(self, qs, idx):
        idx %= len(qs)
        q = QueueState(q_s=tuple(qs), q_c=(0,))
        bumped = list(qs)
        bumped[idx] += 1
        q2 = QueueState(q_s=tuple(bumped), q_c=(0,))
        assert lyapunov(q2) > lyapunov(q)


class TestValidation:
    def test_rejects_colocated_controller(self):
        with pytest.raises(ValueError):
            CostModel.uniform_alpha(((0, 2),), 1)

    def test_first_cell_under_one_hop_named(self):
        with pytest.raises(ValueError, match=r"^w\[1\]\[2\]=0: "):
            CostModel.uniform_alpha(((3, 2, 1), (1, 1, 0), (0, 1, 1)), 1)

    def test_rejects_negative_alpha(self):
        with pytest.raises(ValueError):
            CostModel(w=((1,),), alpha=(-1,))

    def test_rejects_negative_alpha_among_repeated_objects(self):
        half = Fraction(1, 2)
        with pytest.raises(ValueError, match="alpha entries"):
            CostModel(w=((1,),) * 4,
                      alpha=(half, half, Fraction(-1, 3), half))

    def test_rejects_negative_queue(self):
        with pytest.raises(ValueError):
            QueueState(q_s=(-1,), q_c=(0,))
