import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnsched.engine import LaneGroup, RunConfig, Scheme
from sdnsched.model import (
    LOCAL,
    Association,
    CostModel,
    Devolution,
    SchedulerParams,
)
from sdnsched.reference import (
    DecisionContext,
    QueueState,
    association_only_decide,
    brute_force_decide,
    greedy_decide,
    jsq_decide,
    omega,
    slot_objective,
)
from sdnsched.scheduler import (
    lane_argmin,
    mt19937_of,
    random_decide,
    static_decide,
)
from sdnsched.topology import build_cost_model, gen_fat_tree, place_controllers
from sdnsched.traffic import Poisson, TrafficConfig

from conftest import argmin_lane, lane_target


def ctx_of(w, alpha, qs, qc, arrivals, v, devolution=Devolution.ON):
    return DecisionContext(
        q=QueueState(q_s=tuple(qs), q_c=tuple(qc)),
        arrivals=tuple(arrivals),
        cost=CostModel.uniform_alpha(w, alpha) if not isinstance(alpha, tuple)
        else CostModel(w=tuple(tuple(r) for r in w), alpha=alpha),
        params=SchedulerParams(v=v, devolution=devolution),
    )


def mt_state(bits):
    """An MT19937's key and position, as random.Random.getstate()[1]."""
    state = bits.state["state"]
    return (*state["key"].tolist(), state["pos"])


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
        target = random_decide(4, 1, mt19937_of(random.Random(0)))
        assert tuple(target.tolist()) == (0, 0, 0, 0)

    def test_random_uniform(self):
        bits = mt19937_of(random.Random(1))
        hits = [0, 0]
        n = 10 ** 5
        for _ in range(n):
            hits[random_decide(1, 2, bits)[0]] += 1
        assert abs(hits[0] / n - 0.5) < 0.01

    @pytest.mark.parametrize("n_c", [1, 2, 3, 12, 13, 32, 33,
                                     2 ** 31 + 1])
    def test_random_equals_randrange(self, n_c):
        # the vectorised draw gives randrange's values and consumes the
        # same words, so the generator ends in the rng's state
        bits, scalar = mt19937_of(random.Random(n_c)), random.Random(n_c)
        for n_s in (0, 1, 5, 720, 3):
            target = random_decide(n_s, n_c, bits)
            assert tuple(target.tolist()) == \
                tuple(scalar.randrange(n_c) for _ in range(n_s))
            assert mt_state(bits) == scalar.getstate()[1]

    def test_random_seeded_reproducible(self):
        r1, r2 = mt19937_of(random.Random(9)), mt19937_of(random.Random(9))
        for _ in range(50):
            assert random_decide(3, 4, r1).tolist() == \
                random_decide(3, 4, r2).tolist()

    def test_mt19937_of_leaves_rng(self):
        rng = random.Random(5)
        state = rng.getstate()
        bits = mt19937_of(rng)
        assert rng.getstate() == state
        assert bits.random_raw(700).tolist() == \
            [rng.getrandbits(32) for _ in range(700)]

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

    def w_row():
        return tuple(draw(st.integers(1, 10)) for _ in range(n_c))

    if draw(st.booleans()):
        # rows from a pool of one or two under one alpha: row classes of
        # several switches, whose LOCAL tests differ by their backlogs
        pool = [w_row() for _ in range(draw(st.integers(1, 2)))]
        w = tuple(draw(st.sampled_from(pool)) for _ in range(n_s))
        alpha = (draw(rationals(10)),) * n_s
    else:
        w = tuple(w_row() for _ in range(n_s))
        alpha = tuple(draw(rationals(10)) for _ in range(n_s))
    v = draw(st.one_of(rationals(100), st.integers(2 ** 63, 2 ** 70)))
    return CostModel(w=w, alpha=alpha), v, draw(st.sampled_from(Devolution))


def backlogs(draw, n, low, high):
    return tuple(draw(st.integers(low, high)) for _ in range(n))


class TestKernels:
    """The argmin lanes of an engine.LaneGroup decide as the rules in
    reference do."""

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_greedy_kernel_matches_reference(self, seed):
        ctx = random_ctx(random.Random(seed))
        group = argmin_lane(ctx.cost, Scheme.GREEDY, ctx.params.v)
        assert lane_target(group, ctx.q.q_s, ctx.q.q_c) == \
            greedy_decide(ctx).target

    @given(st.integers(0, 2 ** 31))
    @settings(max_examples=200, deadline=None)
    def test_association_kernel_matches_reference(self, seed):
        # association-only is the greedy argmin with devolution off
        ctx = random_ctx(random.Random(seed))
        group = argmin_lane(ctx.cost, Scheme.GREEDY, ctx.params.v,
                         Devolution.OFF)
        assert lane_target(group, ctx.q.q_s, ctx.q.q_c) == \
            association_only_decide(ctx).target

    @given(kernel_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_kernel_matches_reference_rules(self, case, data):
        # One greedy and one JSQ group per instance, called with small
        # backlogs on int64 (for v < 2^63) and then, widened, with switch
        # or controller backlogs of at least 2^62, so every instance
        # crosses the int64 bound between calls; v >= 2^63 starts on
        # object arrays unless its gap table is all zero.
        cost, v, devolution = case
        n_s, n_c = cost.n_switches, cost.n_controllers
        params = SchedulerParams(v=v, devolution=devolution)
        reference = greedy_decide if devolution is Devolution.ON \
            else association_only_decide
        greedy = argmin_lane(cost, Scheme.GREEDY, v, devolution)
        jsq = argmin_lane(cost, Scheme.JSQ)
        assert jsq.limit and (greedy.limit or v >= 2 ** 63)
        small, big = (0, 100), (2 ** 62, 2 ** 66)
        for s_range, c_range in ((small, small), (big, small),
                                 (small, big)):
            q = QueueState(q_s=backlogs(data.draw, n_s, *s_range),
                           q_c=backlogs(data.draw, n_c, *c_range))
            ctx = DecisionContext(q=q, arrivals=(0,) * n_s, cost=cost,
                                  params=params)
            assert lane_target(greedy, q.q_s, q.q_c) == \
                reference(ctx).target
            assert lane_target(jsq, q.q_s, q.q_c) == \
                jsq_decide(q, n_s).target
            greedy.widen()
            jsq.widen()
        if v > 0:
            # equal controller backlogs leave only v*W: the static choice
            off = argmin_lane(cost, Scheme.GREEDY, v, Devolution.OFF)
            for level in (data.draw(st.integers(0, 100)),
                          data.draw(st.integers(2 ** 62, 2 ** 66))):
                assert lane_target(off, (0,) * n_s, (level,) * n_c) == \
                    static_decide(cost).target
                off.widen()

    @given(kernel_cases(), rationals(100), st.integers(0, 2 ** 32),
           st.data())
    @settings(max_examples=200, deadline=None)
    def test_mixed_group_decides_each_lane_alone(self, case, v2, seed, data):
        # one group of devolving greedy lanes at two V, a greedy lane with
        # devolution off, and a JSQ, a Static and a Random lane decides
        # each lane as that lane's one-lane group does, so the n_devolve
        # cut and the stacked minima hold lane by lane: first for backlogs
        # within the group's int64 limits, then, widened, for backlogs of
        # at least 2^62
        cost, v, _ = case
        n_s, n_c = cost.n_switches, cost.n_controllers
        traffic = TrafficConfig(base_process=Poisson(0), n_switches=n_s,
                                n_controllers=n_c)

        def cfg(scheme, v=0, devolution=Devolution.ON):
            return RunConfig(
                cost=cost, traffic=traffic, scheme=scheme,
                params=SchedulerParams(v=v, devolution=devolution),
                horizon_slots=1, run_seed=seed)

        group = LaneGroup([
            cfg(Scheme.RANDOM), cfg(Scheme.GREEDY, v), cfg(Scheme.STATIC),
            cfg(Scheme.JSQ), cfg(Scheme.GREEDY, v2, Devolution.OFF),
            cfg(Scheme.GREEDY, v2)], [0] * 6)
        alone = [LaneGroup([c], [0]) for c in group.cfgs]
        for low, high in ((0, 100), (2 ** 62, 2 ** 66)):
            q = [(backlogs(data.draw, n_s, low, high),
                  backlogs(data.draw, n_c, low, high)) for _ in alone]
            for lane, (q_s, q_c) in enumerate(q):
                if group.limit:
                    assert sum(q_s) + sum(q_c) <= group.limit[lane]
            dtype = group.q.dtype
            together = group.decide(np.array([q_s + q_c for q_s, q_c in q],
                                             dtype))
            assert [tuple(row) for row in together.tolist()] == \
                [lane_target(one, q_s, q_c)
                 for one, (q_s, q_c) in zip(alone, q)]
            for one in (group, *alone):
                one.widen()

    @given(kernel_cases(), rationals(100), st.data())
    @settings(max_examples=200, deadline=None)
    def test_whole_row_argmin_matches_reference_rules(self, case, v2, data):
        # lane_argmin on the whole queue rows of a group's argmin lanes
        # (greedy with devolution on at two V, greedy with devolution off,
        # and JSQ), with the group's tables and offsets, gives each lane
        # its reference rule's targets: for backlogs within every lane's
        # int64 limit, then, widened, for backlogs of at least 2^62
        cost, v, _ = case
        n_s, n_c = cost.n_switches, cost.n_controllers
        traffic = TrafficConfig(base_process=Poisson(0), n_switches=n_s,
                                n_controllers=n_c)
        group = LaneGroup([
            RunConfig(cost=cost, traffic=traffic, scheme=scheme,
                      params=SchedulerParams(v=lane_v, devolution=devolution),
                      horizon_slots=1)
            for scheme, lane_v, devolution in [
                (Scheme.JSQ, 0, Devolution.ON),
                (Scheme.GREEDY, v2, Devolution.OFF),
                (Scheme.GREEDY, v, Devolution.ON),
                (Scheme.GREEDY, v2, Devolution.ON)]], [0] * 4)
        assert group.n_argmin == 4 and group.n_devolve == 2
        for low, high in ((0, 100), (2 ** 62, 2 ** 66)):
            q = [QueueState(q_s=backlogs(data.draw, n_s, low, high),
                            q_c=backlogs(data.draw, n_c, low, high))
                 for _ in group.cfgs]
            for lane, queues in enumerate(q):
                if group.limit:
                    assert queues.total() <= group.limit[lane]
            rows = np.array([queues.q_s + queues.q_c for queues in q],
                            group.q.dtype)
            target = lane_argmin(group.k, group.scale, rows,
                                 group.n_devolve, group.row_class,
                                 group.controllers, group.offsets)
            want = []
            for cfg, queues in zip(group.cfgs, q):
                ctx = DecisionContext(q=queues, arrivals=(0,) * n_s,
                                      cost=cost, params=cfg.params)
                if cfg.scheme is Scheme.JSQ:
                    want.append(jsq_decide(queues, n_s).target)
                elif cfg.params.devolution is Devolution.ON:
                    want.append(greedy_decide(ctx).target)
                else:
                    want.append(association_only_decide(ctx).target)
            assert [tuple(row) for row in target.tolist()] == want
            group.widen()

    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_kernel_table_is_the_scaled_weight(self, case):
        # K / scale is v*(W - alpha) exactly
        cost, v, devolution = case
        group = argmin_lane(cost, Scheme.GREEDY, v, devolution)
        group.widen()
        scale = group.scale[0, 0]
        assert [[Fraction(k, scale) for k in row]
                for row in group.k[0][group.row_class].tolist()] == \
            [[v * (w - a) for w in row] for row, a in zip(cost.w, cost.alpha)]

    def test_fractional_parameters(self):
        cost = CostModel.uniform_alpha(((2, 5), (3, 1)), Fraction(7, 3))
        params = SchedulerParams(v=Fraction(3, 2))
        group = argmin_lane(cost, Scheme.GREEDY, params.v)
        q = QueueState(q_s=(4, 0), q_c=(1, 3))
        ctx = DecisionContext(q=q, arrivals=(1, 1), cost=cost, params=params)
        assert lane_target(group, q.q_s, q.q_c) == greedy_decide(ctx).target
        group.widen()
        assert lane_target(group, q.q_s, q.q_c) == greedy_decide(ctx).target


def assert_row_classes_are_gap_rows(cost):
    """Two switches share a row class exactly when their gap rows
    d*W[i] - d*alpha_i are equal; classes are numbered in order of first
    appearance and CostTables.gap holds each class's row."""
    tables = cost.tables
    gap = [tuple((w - a) * tables.scale for w in row)
           for row, a in zip(cost.w, cost.alpha)]
    row_class = tables.row_class.tolist()
    first = {row: c for c, row in enumerate(dict.fromkeys(gap))}
    assert row_class == [first[row] for row in gap]
    assert [tuple(tables.gap[c]) for c in row_class] == gap


class TestRowClasses:
    @given(kernel_cases())
    @settings(max_examples=200, deadline=None)
    def test_classes_are_equal_gap_rows(self, case):
        assert_row_classes_are_gap_rows(case[0])

    @pytest.mark.parametrize("k, classes, switches", [
        (4, 9, 20), (8, 15, 80), (24, 39, 720)])
    def test_fat_tree_class_counts(self, k, classes, switches):
        t = gen_fat_tree(k)
        cost = build_cost_model(t, place_controllers(t))
        assert (len(cost.tables.gap), len(cost.tables.row_class)) == \
            (classes, switches)
        assert_row_classes_are_gap_rows(cost)


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
