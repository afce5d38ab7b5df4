import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sdnsched.model import (
    INT64_BOUND,
    LOCAL,
    Association,
    CostModel,
    Devolution,
    QueueState,
    SchedulerParams,
)
from sdnsched.scheduler import (
    DecisionContext,
    GreedyKernel,
    association_only_decide,
    brute_force_decide,
    greedy_decide,
    jsq_decide,
    omega,
    random_decide,
    slot_objective,
    static_decide,
)

from conftest import kernel_target


def ctx_of(w, alpha, qs, qc, arrivals, v, devolution=Devolution.ON):
    return DecisionContext(
        q=QueueState(q_s=tuple(qs), q_c=tuple(qc)),
        arrivals=tuple(arrivals),
        cost=CostModel.uniform_alpha(w, alpha) if not isinstance(alpha, tuple)
        else CostModel(w=tuple(tuple(r) for r in w), alpha=alpha),
        params=SchedulerParams(v=v, devolution=devolution),
    )


def random_ctx(rng, max_s=6, max_c=4, v_choices=(0, 1, 10, 100)):
    n_s = rng.randint(1, max_s)
    n_c = rng.randint(1, max_c)
    w = [[rng.randint(1, 10) for _ in range(n_c)] for _ in range(n_s)]
    alpha = tuple(rng.randint(1, 10) for _ in range(n_s))
    return DecisionContext(
        q=QueueState(
            q_s=tuple(rng.randint(0, 100) for _ in range(n_s)),
            q_c=tuple(rng.randint(0, 100) for _ in range(n_c)),
        ),
        arrivals=tuple(rng.randint(0, 10) for _ in range(n_s)),
        cost=CostModel(w=tuple(tuple(r) for r in w), alpha=alpha),
        params=SchedulerParams(v=rng.choice(list(v_choices))),
    )


class TestOmega:
    def test_vanishes(self):
        ctx = ctx_of([[1]], 2, [5], [5], [0], v=0)
        assert omega(0, 0, ctx) == 0

    def test_negative_alpha_gap(self):
        ctx = ctx_of([[1]], 2, [0], [0], [0], v=1)
        assert omega(0, 0, ctx) == -1

    def test_mixed(self):
        ctx = ctx_of([[3]], 2, [4], [5], [0], v=2)
        assert omega(0, 0, ctx) == 3

    def test_exact_rational(self):
        ctx = ctx_of([[3]], Fraction(7, 2), [1], [2], [0], v=Fraction(1, 3))
        assert omega(0, 0, ctx) == Fraction(1, 3) * Fraction(-1, 2) + 1


class TestGreedy:
    def test_picks_most_negative(self):
        ctx = ctx_of([[1, 3]], 2, [0], [0, 0], [1], v=1)
        assert greedy_decide(ctx).target == (0,)

    def test_goes_local_when_all_positive(self):
        ctx = ctx_of([[1, 3]], 2, [0], [5, 0], [1], v=1)
        # omega = (4, 1): no eligible controller
        assert greedy_decide(ctx).target == (LOCAL,)

    def test_zero_boundary_tie_breaks_low_index(self):
        ctx = ctx_of([[2, 2], [2, 2]], 2, [3, 3], [3, 3], [1, 1], v=0)
        assert greedy_decide(ctx).target == (0, 0)

    def test_zero_arrival_switch_still_decided(self):
        ctx = ctx_of([[1]], 2, [0], [0], [0], v=1)
        assert greedy_decide(ctx).target == (0,)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_devolves_iff_all_omega_positive(self, seed):
        ctx = random_ctx(random.Random(seed))
        assoc = greedy_decide(ctx)
        for i, t in enumerate(assoc.target):
            omegas = [omega(i, j, ctx) for j in range(ctx.cost.n_controllers)]
            if t == LOCAL:
                assert all(w > 0 for w in omegas)
            else:
                assert omegas[t] <= 0
                assert omegas[t] == min(omegas)

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_upload_threshold(self, seed):
        # when W > alpha, an upload implies Qs >= V(W - alpha) + Qc
        ctx = random_ctx(random.Random(seed))
        v = ctx.params.v
        for i, t in enumerate(greedy_decide(ctx).target):
            if t != LOCAL and ctx.cost.w[i][t] > ctx.cost.alpha[i]:
                assert ctx.q.q_s[i] >= \
                    v * (ctx.cost.w[i][t] - ctx.cost.alpha[i]) + ctx.q.q_c[t]

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_local_threshold(self, seed):
        # a LOCAL decision with some W < alpha implies the queue gap
        # condition for the best-scoring such controller
        ctx = random_ctx(random.Random(seed))
        v = ctx.params.v
        for i, t in enumerate(greedy_decide(ctx).target):
            if t != LOCAL:
                continue
            cheap = [j for j in range(ctx.cost.n_controllers)
                     if ctx.cost.w[i][j] < ctx.cost.alpha[i]]
            for j in cheap:
                assert ctx.q.q_s[i] < \
                    v * (ctx.cost.w[i][j] - ctx.cost.alpha[i]) + ctx.q.q_c[j]

    @given(st.integers(0, 2 ** 31), st.integers(2, 7))
    @settings(max_examples=100, deadline=None)
    def test_scale_invariance(self, seed, c):
        # scaling (W, alpha) by c and V by 1/c preserves decisions
        rng = random.Random(seed)
        ctx = random_ctx(rng, v_choices=(1, 10, 100))
        scaled = DecisionContext(
            q=ctx.q,
            arrivals=ctx.arrivals,
            cost=CostModel(
                w=tuple(tuple(h * c for h in row) for row in ctx.cost.w),
                alpha=tuple(a * c for a in ctx.cost.alpha),
            ),
            params=SchedulerParams(v=Fraction(ctx.params.v, c)),
        )
        assert greedy_decide(ctx).target == greedy_decide(scaled).target


class TestAssociationOnly:
    def test_v0_is_jsq(self):
        ctx = ctx_of([[5, 2]], 2, [0], [4, 1], [1], v=0,
                     devolution=Devolution.OFF)
        assert association_only_decide(ctx).target == (1,)

    def test_equal_queues_is_static(self):
        ctx = ctx_of([[5, 2], [1, 9]], 2, [0, 0], [7, 7], [1, 1], v=3,
                     devolution=Devolution.OFF)
        assert association_only_decide(ctx).target == \
            static_decide(ctx.cost).target

    def test_weighs_queue_against_cost(self):
        ctx = ctx_of([[2, 3]], 2, [0], [15, 0], [1], v=10,
                     devolution=Devolution.OFF)
        assert association_only_decide(ctx).target == (1,)

    def test_never_local(self):
        rng = random.Random(5)
        for _ in range(50):
            ctx = random_ctx(rng)
            assert LOCAL not in association_only_decide(ctx).target


class TestBaselines:
    def test_static_first_minimum(self):
        cost = CostModel.uniform_alpha(((5, 2, 2),), 1)
        assert static_decide(cost).target == (1,)

    def test_static_trivial(self):
        cost = CostModel.uniform_alpha(((1, 9),), 1)
        assert static_decide(cost).target == (0,)

    def test_static_picks_nearest_controller(self):
        from sdnsched.topology import (
            build_cost_model, gen_fat_tree, place_controllers)
        topo = gen_fat_tree(4)
        cost = build_cost_model(topo, place_controllers(topo))
        assoc = static_decide(cost)
        # Controllers live in pods 0 and 2; switches in those pods pick
        # the in-pod controller.  Pods 1 and 3 are equidistant from both
        # controllers, so the tie goes to controller 0.
        expected = {0: 0, 1: 0, 2: 1, 3: 0}
        for p, pod in enumerate(topo.pods):
            for s in pod:
                assert assoc.target[s] == expected[p], (p, s)

    def test_random_single_controller(self):
        target = random_decide(4, 1, random.Random(0))
        assert tuple(target.tolist()) == (0, 0, 0, 0)

    def test_random_uniform(self):
        rng = random.Random(1)
        hits = [0, 0]
        n = 10 ** 5
        for _ in range(n):
            hits[random_decide(1, 2, rng)[0]] += 1
        assert abs(hits[0] / n - 0.5) < 0.01

    @pytest.mark.parametrize("n_c", [1, 2, 3, 12, 13, 32, 33])
    def test_random_equals_randrange(self, n_c):
        # the vectorised draw gives randrange's values and consumes the
        # same words, so the rng ends in the same state
        rng, scalar = random.Random(n_c), random.Random(n_c)
        for n_s in (0, 1, 5, 720, 3):
            target = random_decide(n_s, n_c, rng)
            assert tuple(target.tolist()) == \
                tuple(scalar.randrange(n_c) for _ in range(n_s))
            assert rng.getstate() == scalar.getstate()

    def test_random_seeded_reproducible(self):
        a = [random_decide(3, 4, random.Random(9)) for _ in range(1)]
        r1, r2 = random.Random(9), random.Random(9)
        for _ in range(50):
            assert random_decide(3, 4, r1).tolist() == \
                random_decide(3, 4, r2).tolist()

    def test_jsq_unique_minimum(self):
        q = QueueState(q_s=(0, 0), q_c=(4, 1, 7))
        assert jsq_decide(q, 2).target == (1, 1)

    def test_jsq_tie_break(self):
        q = QueueState(q_s=(0,), q_c=(2, 2))
        assert jsq_decide(q, 1).target == (0,)

    def test_jsq_equals_association_only_at_v0(self):
        rng = random.Random(77)
        for _ in range(1000):
            ctx = random_ctx(rng, v_choices=(0,))
            assert jsq_decide(ctx.q, ctx.cost.n_switches).target == \
                association_only_decide(ctx).target


class TestSlotObjective:
    def test_all_local(self):
        ctx = ctx_of([[1], [1]], 2, [3, 4], [0], [2, 5], v=10)
        assoc = Association(target=(LOCAL, LOCAL))
        assert slot_objective(assoc, ctx) == (10 * 2 + 3) * 2 + (10 * 2 + 4) * 5

    def test_zero_arrivals(self):
        ctx = ctx_of([[1], [1]], 2, [3, 4], [9], [0, 0], v=10)
        assert slot_objective(Association(target=(0, LOCAL)), ctx) == 0

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_per_switch_recomputation(self, seed):
        rng = random.Random(seed)
        ctx = random_ctx(rng)
        target = tuple(rng.randint(-1, ctx.cost.n_controllers - 1)
                       for _ in range(ctx.cost.n_switches))
        assoc = Association(target=target)
        v = ctx.params.v
        expected = 0
        for i, t in enumerate(target):
            if t == LOCAL:
                price, queue = ctx.cost.alpha[i], ctx.q.q_s[i]
            else:
                price, queue = ctx.cost.w[i][t], ctx.q.q_c[t]
            expected += ctx.arrivals[i] * (v * price + queue)
        assert slot_objective(assoc, ctx) == expected


class TestBruteForce:
    def test_zero_arrivals_returns_lexicographic_first(self):
        ctx = ctx_of([[1]], 2, [0], [0], [0], v=1)
        assert brute_force_decide(ctx).target == (LOCAL,)

    def test_worked_example_all_zero_queues_v0(self):
        cost = CostModel.uniform_alpha(((1, 3), (1, 4), (4, 3)), 2)
        ctx = DecisionContext(q=QueueState.zeros(3, 2), arrivals=(3, 2, 2),
                              cost=cost, params=SchedulerParams(v=0))
        # every objective is zero; lexicographic first wins
        assert brute_force_decide(ctx).target == (LOCAL, LOCAL, LOCAL)

    def test_guard_rejects_huge_instance(self):
        cost = CostModel.uniform_alpha(tuple(((1, 1, 1, 1, 1, 1, 1, 1, 1),) * 9), 1)
        ctx = DecisionContext(
            q=QueueState.zeros(9, 9), arrivals=(1,) * 9,
            cost=cost, params=SchedulerParams(v=1))
        with pytest.raises(ValueError, match="too large"):
            brute_force_decide(ctx)

    def test_matches_greedy_on_random_instances(self):
        rng = random.Random(123)
        for _ in range(200):
            ctx = random_ctx(rng, max_s=4, max_c=3)
            assert slot_objective(greedy_decide(ctx), ctx) == \
                slot_objective(brute_force_decide(ctx), ctx)


def rationals(max_value):
    return st.one_of(st.integers(0, max_value),
                     st.fractions(0, max_value, max_denominator=12))


@st.composite
def kernel_cases(draw):
    n_s, n_c = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    cost = CostModel(
        w=tuple(tuple(draw(st.integers(1, 10)) for _ in range(n_c))
                for _ in range(n_s)),
        alpha=tuple(draw(rationals(10)) for _ in range(n_s)))
    v = draw(st.one_of(rationals(100), st.integers(2 ** 63, 2 ** 70)))
    return cost, v, draw(st.sampled_from(Devolution))


def backlogs(draw, n, low, high):
    return tuple(draw(st.integers(low, high)) for _ in range(n))


class TestKernels:
    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_greedy_kernel_matches_reference(self, seed):
        ctx = random_ctx(random.Random(seed))
        kernel = GreedyKernel(ctx.cost, ctx.params)
        assert kernel_target(kernel, ctx.q.q_s, ctx.q.q_c) == \
            greedy_decide(ctx).target

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_association_kernel_matches_reference(self, seed):
        # the devolution-off kernel is GreedyKernel with Devolution.OFF
        ctx = random_ctx(random.Random(seed))
        params = SchedulerParams(v=ctx.params.v, devolution=Devolution.OFF)
        kernel = GreedyKernel(ctx.cost, params)
        assert kernel_target(kernel, ctx.q.q_s, ctx.q.q_c) == \
            association_only_decide(ctx).target

    @given(kernel_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_reference_rules(self, case, data):
        # One kernel per instance, called with small backlogs and then
        # with switch or controller backlogs of at least 2^62, so every
        # instance crosses the int64 bound between calls; v >= 2^63 runs
        # the object path throughout.
        cost, v, devolution = case
        n_s, n_c = cost.n_switches, cost.n_controllers
        params = SchedulerParams(v=v, devolution=devolution)
        reference = greedy_decide if devolution is Devolution.ON \
            else association_only_decide
        kernel = GreedyKernel(cost, params)
        jsq = GreedyKernel(cost, SchedulerParams(v=0,
                                                 devolution=Devolution.OFF))
        small, big = (0, 100), (2 ** 62, 2 ** 66)
        for s_range, c_range in ((small, small), (big, small),
                                 (small, big)):
            q = QueueState(q_s=backlogs(data.draw, n_s, *s_range),
                           q_c=backlogs(data.draw, n_c, *c_range))
            ctx = DecisionContext(q=q, arrivals=(0,) * n_s, cost=cost,
                                  params=params)
            assert kernel_target(kernel, q.q_s, q.q_c) == \
                reference(ctx).target
            assert kernel_target(jsq, q.q_s, q.q_c) == \
                jsq_decide(q, n_s).target
        if v > 0:
            # equal controller backlogs leave only v*W: the static choice
            off = GreedyKernel(cost, SchedulerParams(
                v=v, devolution=Devolution.OFF))
            level = data.draw(st.one_of(st.integers(0, 100),
                                        st.integers(2 ** 62, 2 ** 66)))
            assert kernel_target(off, (0,) * n_s, (level,) * n_c) == \
                static_decide(cost).target

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_kernel_table_is_the_scaled_weight(self, case):
        # K / scale is v*(W - alpha) exactly, and int64_top keeps
        # max|K| + scale*backlog below 2^62
        cost, v, devolution = case
        kernel = GreedyKernel(cost, SchedulerParams(v=v,
                                                    devolution=devolution))
        assert [[Fraction(k, kernel.scale) for k in row]
                for row in kernel.k.tolist()] == \
            [[v * (w - a) for w in row] for row, a in zip(cost.w, cost.alpha)]
        top = max(abs(k) for k in kernel.k.ravel())
        if kernel.int64_top >= 0:
            assert top + kernel.scale * kernel.int64_top < INT64_BOUND
        else:
            assert top >= INT64_BOUND or kernel.scale >= INT64_BOUND

    def test_fractional_parameters(self):
        cost = CostModel.uniform_alpha(((2, 5), (3, 1)), Fraction(7, 3))
        params = SchedulerParams(v=Fraction(3, 2))
        kernel = GreedyKernel(cost, params)
        q = QueueState(q_s=(4, 0), q_c=(1, 3))
        ctx = DecisionContext(q=q, arrivals=(1, 1), cost=cost, params=params)
        assert kernel_target(kernel, q.q_s, q.q_c) == \
            greedy_decide(ctx).target


def test_huge_alpha_reduces_to_association_only():
    # devolution-off encoding via alpha = 2.0e28 with finite V
    rng = random.Random(31)
    for _ in range(200):
        ctx = random_ctx(rng, v_choices=(1, 10, 100))
        huge = DecisionContext(
            q=ctx.q, arrivals=ctx.arrivals,
            cost=CostModel(w=ctx.cost.w,
                           alpha=(2 * 10 ** 28,) * ctx.cost.n_switches),
            params=ctx.params,
        )
        assert greedy_decide(huge).target == \
            association_only_decide(ctx).target
