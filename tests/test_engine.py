import json
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnsched import engine
from sdnsched import traffic as tr
from sdnsched.cli import main
from sdnsched.engine import (
    RunConfig,
    Scheme,
    capacity_check,
    run,
    sweep,
)
from sdnsched.model import (
    LOCAL,
    Association,
    CostModel,
    Devolution,
    QueueState,
    SchedulerParams,
    slot_comm_cost,
    slot_comp_cost,
    step_controller_queue,
    step_switch_queue,
)
from sdnsched.traffic import Constant, Pareto, Poisson, TrafficConfig

from conftest import (
    FIG1_ARRIVALS,
    FIG1_COST,
    FIG1_CTRL_SERVICE,
    FIG1_SWITCH_SERVICE,
    FIG1_X1,
    FIG1_X2,
    apply_slot_tuples,
    kernel_target,
)


def small_cfg(scheme=Scheme.GREEDY, v=1, horizon=50, seed=0,
              devolution=Devolution.ON, **traffic_kw):
    cost = CostModel.uniform_alpha(((1, 3), (2, 2), (4, 1)), 2)
    tcfg = TrafficConfig(
        base_process=traffic_kw.pop("process", Poisson(3)),
        n_switches=3, n_controllers=2,
        controller_capacity=traffic_kw.pop("controller_capacity", 5),
        switch_capacity=traffic_kw.pop("switch_capacity", 2),
        seed=seed, **traffic_kw)
    return RunConfig(cost=cost, traffic=tcfg, scheme=scheme,
                     params=SchedulerParams(v=v, devolution=devolution),
                     horizon_slots=horizon, run_seed=seed)


def spec_apply_slot(queues, assoc, arrivals, ctrl_service, switch_service,
                    cost):
    """apply_slot's specification: the model's functions, switch by
    switch."""
    routed_in = [0] * len(queues.q_c)
    q_s = []
    for i, t in enumerate(assoc.target):
        local = arrivals[i] if t == LOCAL else 0
        if t != LOCAL:
            routed_in[t] += arrivals[i]
        q_s.append(step_switch_queue(queues.q_s[i], local, switch_service[i]))
    q_c = tuple(step_controller_queue(q, r, s)
                for q, r, s in zip(queues.q_c, routed_in, ctrl_service))
    return (QueueState(q_s=tuple(q_s), q_c=q_c),
            slot_comm_cost(assoc, arrivals, cost),
            slot_comp_cost(assoc, arrivals, cost))


def one_lane(cfg):
    """A one-lane LaneGroup, built as run_lanes builds it: zero backlogs,
    with the lane's int64 queue limit."""
    kernel = engine.lane_kernel(cfg)
    return engine.LaneGroup([cfg], [kernel], [engine.lane_limit(cfg, kernel)],
                            [0])


def decide_tuples(group, q):
    """A one-lane LaneGroup's decision on a QueueState of small backlogs,
    as arrays of the group's dtype; returns the Association."""
    dtype = group.q.dtype
    return Association(target=tuple(group.decide(
        np.array([q.q_s], dtype), np.array([q.q_c], dtype))[0].tolist()))


@st.composite
def slot_cases(draw):
    """A forced slot whose values may cross the int64 bound, priced with
    Fraction alpha whose denominators may be large."""
    n_s, n_c = draw(st.integers(1, 6)), draw(st.integers(1, 4))
    top = draw(st.sampled_from([10, 10 ** 6, 2 ** 62, 2 ** 80]))
    w_top = draw(st.sampled_from([10, 2 ** 40, 2 ** 70]))
    den_top = draw(st.sampled_from([1, 10, 10 ** 12, 2 ** 70]))
    ints = lambda hi, n: tuple(draw(st.lists(st.integers(0, hi),
                                             min_size=n, max_size=n)))
    cost = CostModel(
        w=tuple(tuple(draw(st.lists(st.integers(1, w_top), min_size=n_c,
                                    max_size=n_c))) for _ in range(n_s)),
        alpha=tuple(Fraction(draw(st.integers(0, 10 ** 6)),
                             draw(st.integers(1, den_top)))
                    for _ in range(n_s)))
    assoc = Association(target=tuple(draw(st.lists(
        st.integers(LOCAL, n_c - 1), min_size=n_s, max_size=n_s))))
    queues = QueueState(q_s=ints(top, n_s), q_c=ints(top, n_c))
    return (queues, assoc, ints(top, n_s), ints(top, n_c), ints(top, n_s),
            cost)


class TestApplySlot:
    @given(slot_cases())
    @settings(max_examples=300, deadline=None)
    def test_equals_model_functions(self, case):
        assert apply_slot_tuples(*case) == spec_apply_slot(*case)

    def test_forced_x2(self, fig1_queues):
        nq, f, g = apply_slot_tuples(fig1_queues, FIG1_X2, FIG1_ARRIVALS,
                                     FIG1_CTRL_SERVICE, FIG1_SWITCH_SERVICE,
                                     FIG1_COST)
        assert f + g == 13
        assert nq.q_c == (1, 0)
        assert nq.q_s == (0, 1, 0)
        assert nq.total() == 2

    def test_forced_x1(self, fig1_queues):
        nq, f, g = apply_slot_tuples(fig1_queues, FIG1_X1, FIG1_ARRIVALS,
                                     FIG1_CTRL_SERVICE, FIG1_SWITCH_SERVICE,
                                     FIG1_COST)
        assert f + g == 9
        assert nq.total() == 4

    def test_zero_slot(self):
        q = QueueState.zeros(2, 1)
        nq, f, g = apply_slot_tuples(
            q, Association(target=(0, 0)), (0, 0), (3,), (1, 1),
            CostModel.uniform_alpha(((1,), (2,)), 1))
        assert (f, g, nq.total()) == (0, 0, 0)

    def test_conservation(self):
        rng = random.Random(4)
        cost = CostModel.uniform_alpha(
            tuple(tuple(rng.randint(1, 5) for _ in range(3))
                  for _ in range(4)), 2)
        q = QueueState(
            q_s=tuple(rng.randint(0, 20) for _ in range(4)),
            q_c=tuple(rng.randint(0, 20) for _ in range(3)))
        for _ in range(200):
            arrivals = tuple(rng.randint(0, 8) for _ in range(4))
            ctrl = tuple(rng.randint(0, 6) for _ in range(3))
            sw = tuple(rng.randint(0, 4) for _ in range(4))
            assoc = Association(
                target=tuple(rng.randint(-1, 2) for _ in range(4)))
            nq, _, _ = apply_slot_tuples(q, assoc, arrivals, ctrl, sw, cost)
            served_cap = sum(ctrl) + sum(sw)
            added = sum(arrivals)
            assert q.total() + added - served_cap <= nq.total() \
                <= q.total() + added
            q = nq

    def test_snapshot_order_independent(self):
        # permuting switch processing order never changes slot-end queues
        rng = random.Random(8)
        cost = CostModel.uniform_alpha(
            tuple(tuple(rng.randint(1, 5) for _ in range(2))
                  for _ in range(4)), 2)
        q = QueueState(q_s=(3, 1, 4, 1), q_c=(5, 9))
        arrivals = (2, 6, 5, 3)
        assoc = Association(target=(0, -1, 1, 0))
        base, _, _ = apply_slot_tuples(q, assoc, arrivals, (4, 4),
                                       (2, 2, 2, 2), cost)
        for _ in range(10):
            perm = list(range(4))
            rng.shuffle(perm)
            pq = QueueState(q_s=tuple(q.q_s[p] for p in perm), q_c=q.q_c)
            passoc = Association(target=tuple(assoc.target[p] for p in perm))
            parr = tuple(arrivals[p] for p in perm)
            nq, _, _ = apply_slot_tuples(
                pq, passoc, parr, (4, 4), (2, 2, 2, 2),
                CostModel(w=tuple(cost.w[p] for p in perm),
                          alpha=tuple(cost.alpha[p] for p in perm)))
            assert nq.q_c == base.q_c
            assert nq.q_s == tuple(base.q_s[p] for p in perm)


class TestRun:
    def test_single_slot_average(self):
        cfg = small_cfg(horizon=1, process=Constant(2))
        res = run(cfg)
        assert res.final.f_bar == res.final.f_slot
        assert res.final.g_bar == res.final.g_slot

    def test_deterministic(self):
        cfg = small_cfg(horizon=200, seed=11)
        a, b = run(cfg), run(cfg)
        assert a.records == b.records

    def test_queue_dynamics_followed_exactly(self):
        # replay the run through apply_slot with the same streams
        from sdnsched import traffic as tr
        cfg = small_cfg(horizon=100, seed=3)
        res = run(cfg)
        group = one_lane(cfg)
        arrival_state = tr.ArrivalState(cfg.traffic)
        tcfg = cfg.traffic
        services = ((tcfg.controller_capacity,) * tcfg.n_controllers,
                    (tcfg.switch_capacity,) * tcfg.n_switches)
        q = group.lane_queues(0)
        for rec in res.records:
            arrivals = tr.sample_slot_arrivals(arrival_state)
            assoc = decide_tuples(group, q)
            q, f, g = apply_slot_tuples(q, assoc, arrivals, *services,
                                        cfg.cost)
            assert (f, g, q.total()) == (rec.f_slot, rec.g_slot,
                                         rec.total_backlog)

    def test_all_schemes_execute(self):
        for scheme in Scheme:
            res = run(small_cfg(scheme=scheme, horizon=30))
            assert len(res.records) == 30

    def test_lyapunov_logging(self):
        cfg = small_cfg(horizon=20)
        cfg = engine.replace(cfg, log_lyapunov=True)
        res = run(cfg)
        # drift sample at slot t: L(Q(t+1)) - L(Q(t)) + V * (f(t) + g(t)),
        # where L(Q(t+1)) is the next record's logged snapshot
        for cur, nxt in zip(res.records, res.records[1:]):
            assert cur.drift_penalty_sample == \
                nxt.lyapunov - cur.lyapunov \
                + cfg.params.v * (cur.f_slot + cur.g_slot)

    def test_stride(self):
        cfg = small_cfg(horizon=100)
        cfg = engine.replace(cfg, stride=10)
        res = run(cfg)
        assert [r.t for r in res.records] == list(range(0, 100, 10)) + [99]


@st.composite
def run_cases(draw):
    """Small random runs of every scheme."""
    n_s, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cost = CostModel(
        w=tuple(tuple(draw(st.lists(st.integers(1, 6), min_size=n_c,
                                    max_size=n_c))) for _ in range(n_s)),
        alpha=tuple(Fraction(draw(st.integers(0, 20)), draw(st.integers(1, 7)))
                    for _ in range(n_s)))
    process = draw(st.sampled_from(
        [Poisson(2.5), Poisson(7), Pareto(1.5, 2), Constant(4)]))
    tcfg = TrafficConfig(
        base_process=process, n_switches=n_s, n_controllers=n_c,
        hot_spot_switches=frozenset(draw(st.sets(st.integers(0, n_s - 1)))),
        hot_spot_rate=draw(st.integers(0, 12)),
        controller_capacity=draw(st.integers(0, 8)),
        switch_capacity=draw(st.integers(0, 4)),
        a_max=draw(st.sampled_from([3, 9, 10 ** 6])),
        seed=draw(st.integers(0, 2 ** 32)))
    return RunConfig(
        cost=cost, traffic=tcfg, scheme=draw(st.sampled_from(Scheme)),
        params=SchedulerParams(
            v=draw(st.sampled_from([0, 1, Fraction(7, 3), 50])),
            devolution=draw(st.sampled_from(Devolution))),
        horizon_slots=draw(st.integers(1, 40)),
        run_seed=draw(st.integers(0, 2 ** 32)))


class TestInvariants:
    @given(run_cases())
    @settings(max_examples=100, deadline=None)
    def test_slot_by_slot(self, cfg):
        # every slot: 0 <= A_i <= a_max, and each queue follows
        # q' = max(q + in - service, 0), where a switch's inflow is its
        # arrivals when it goes LOCAL and a controller's is the arrivals
        # uploaded to it
        group = one_lane(cfg)
        arrival_state = tr.ArrivalState(cfg.traffic)
        replay = tr.ArrivalState(cfg.traffic)
        replay_group = one_lane(cfg)
        tcfg = cfg.traffic
        ctrl_service = (tcfg.controller_capacity,) * tcfg.n_controllers
        switch_service = (tcfg.switch_capacity,) * tcfg.n_switches
        for _ in range(cfg.horizon_slots):
            q = group.lane_queues(0)
            group.advance([arrival_state.next_row()], [])
            arrivals = tr.sample_slot_arrivals(replay)
            assert all(0 <= a <= cfg.traffic.a_max for a in arrivals)
            target = decide_tuples(replay_group, q).target
            q_s = tuple(max(q.q_s[i] + (a if t == LOCAL else 0)
                            - switch_service[i], 0)
                        for i, (a, t) in enumerate(zip(arrivals, target)))
            q_c = tuple(max(q.q_c[j] + sum(a for a, t in zip(arrivals, target)
                                           if t == j) - ctrl_service[j], 0)
                        for j in range(cfg.cost.n_controllers))
            assert group.lane_queues(0) == QueueState(q_s=q_s, q_c=q_c)

    @given(run_cases())
    @settings(max_examples=100, deadline=None)
    def test_drift_plus_penalty_bound(self, cfg):
        # each slot's logged L(Q') - L(Q) + V*(f + g) is at most
        # 1/2 sum_j x_j^2 + sum_j Q_j x_j + V*(f + g) over every switch
        # and controller queue j, where x_j = in_j - service_j: Q'_j =
        # max(Q_j + x_j, 0) and max(y, 0)^2 <= y^2
        cfg = engine.replace(cfg, log_lyapunov=True)
        group = one_lane(cfg)
        arrival_state = tr.ArrivalState(cfg.traffic)
        replay = tr.ArrivalState(cfg.traffic)
        replay_group = one_lane(cfg)
        tcfg = cfg.traffic
        ctrl_service = (tcfg.controller_capacity,) * tcfg.n_controllers
        switch_service = (tcfg.switch_capacity,) * tcfg.n_switches
        for _ in range(cfg.horizon_slots):
            q = group.lane_queues(0)
            [(_, rec)] = group.advance([arrival_state.next_row()], [0])
            arrivals = tr.sample_slot_arrivals(replay)
            assoc = decide_tuples(replay_group, q)
            inflow = [a if t == LOCAL else 0
                      for a, t in zip(arrivals, assoc.target)]
            inflow += [sum(a for a, t in zip(arrivals, assoc.target) if t == j)
                       for j in range(cfg.cost.n_controllers)]
            x = [i - s for i, s in zip(inflow, switch_service + ctrl_service)]
            penalty = cfg.params.v * (slot_comm_cost(assoc, arrivals, cfg.cost)
                                      + slot_comp_cost(assoc, arrivals,
                                                       cfg.cost))
            bound = Fraction(sum(d * d for d in x), 2) \
                + sum(b * d for b, d in zip(q.q_s + q.q_c, x)) + penalty
            assert rec.drift_penalty_sample <= bound

    @given(run_cases())
    @settings(max_examples=100, deadline=None)
    def test_time_averages_exact(self, cfg):
        res = run(cfg)
        horizon = cfg.horizon_slots
        assert len(res.records) == horizon
        assert res.final.f_bar * horizon == sum(r.f_slot for r in res.records)
        assert res.final.g_bar * horizon == sum(r.g_slot for r in res.records)
        assert res.mean_backlog * horizon == \
            sum(r.total_backlog for r in res.records)


class TestInt64Limit:
    """A run moves from int64 to object arrays once a backlog could pass
    its int64 queue limit, with output identical to a run on object
    arrays throughout."""

    @pytest.mark.parametrize("scheme", [s.value for s in Scheme])
    def test_switch_mid_run_keeps_output(self, tmp_path, monkeypatch,
                                         scheme):
        # 10^15 requests per switch per slot on fat-tree k=4: a lane's
        # total backlog passes the limit (about 1.9e17 here) within 200
        # slots
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kind": "fat-tree", "k": 4, "scheme": scheme, "v": "10",
            "horizon": 200, "arrivals": f"constant:{10 ** 15}",
            "a_max": 10 ** 15, "log_lyapunov": True, "name": "run"}))
        widened = []
        widen = engine.LaneGroup.widen
        monkeypatch.setattr(engine.LaneGroup, "widen",
                            lambda group: widened.append(group.t) or
                            widen(group))

        def output(out_dir):
            assert main(["run", "--config", str(config),
                         "--out-dir", str(out_dir)]) == 0
            return [(out_dir / f"run{ext}").read_bytes()
                    for ext in (".csv", ".summary.json")]

        switched = output(tmp_path / "switched")
        assert len(widened) == 1 and 0 < widened[0] < 200
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: -1)
        assert output(tmp_path / "object") == switched
        assert len(widened) == 1  # the second run started on object arrays

    def test_widens_after_first_total_above_limit(self, tmp_path,
                                                  monkeypatch):
        # every backlog is at most its lane's total, so the group widens
        # on the slot after the first whose total backlog passes the limit
        widened = []
        widen = engine.LaneGroup.widen
        monkeypatch.setattr(engine.LaneGroup, "widen",
                            lambda group: widened.append(group.t) or
                            widen(group))

        def output(name):
            assert main(["run", "--kind", "fat-tree", "--k", "4",
                         "--scheme", "greedy", "--v", "10", "--horizon", "60",
                         "--arrivals", "poisson:3", "--controller-capacity",
                         "20", "--switch-capacity", "2", "--stride", "1",
                         "--name", "run", "--out-dir",
                         str(tmp_path / name)]) == 0
            return [(tmp_path / name / f"run{ext}").read_bytes()
                    for ext in (".csv", ".summary.json")]

        unpatched = output("int64")
        assert widened == []
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: 50)
        switched = output("switched")
        header, *rows = [line.split(",")
                         for line in switched[0].decode().splitlines()]
        col = header.index("total_backlog")
        first = next(int(row[0]) for row in rows if int(row[col]) > 50)
        assert widened == [first + 1]
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: -1)
        assert output("object") == switched == unpatched
        assert widened == [first + 1]  # the last run started on object arrays

    def test_limit_covers_a_max_and_services(self):
        cost = CostModel.uniform_alpha(((1, 3), (2, 2)), 2)
        assert engine.int64_queue_limit(cost, 2 ** 63 - 1, 10, 10 ** 18) < 0
        assert engine.int64_queue_limit(cost, 10, 2 ** 62, 10 ** 18) < 0
        assert engine.int64_queue_limit(cost, 10, 10, 7) == 7


@st.composite
def lane_cases(draw):
    """Lanes on one small cost model and horizon: every scheme,
    devolution on and off, Fraction V and V >= 2^63, two traffic seeds,
    and constant 10^16 or 2*10^16 arrivals, whose lanes pass their int64
    queue limit on different slots (or start on object arrays)."""
    n_s, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    cost = CostModel(
        w=tuple(tuple(draw(st.lists(st.integers(1, 6), min_size=n_c,
                                    max_size=n_c))) for _ in range(n_s)),
        alpha=tuple(Fraction(draw(st.integers(0, 20)), draw(st.integers(1, 3)))
                    for _ in range(n_s)))
    seeds = draw(st.lists(st.integers(0, 2 ** 32), min_size=2, max_size=2,
                          unique=True))

    def traffic(process, seed, a_max=10 ** 6):
        return TrafficConfig(
            base_process=process, n_switches=n_s, n_controllers=n_c,
            hot_spot_switches=frozenset({0}), hot_spot_rate=5,
            controller_capacity=draw(st.integers(0, 8)),
            switch_capacity=draw(st.integers(0, 4)), a_max=a_max, seed=seed)

    sources = [traffic(Poisson(3), seeds[0]), traffic(Pareto(1.5, 2), seeds[1]),
               traffic(Constant(10 ** 16), seeds[0], 10 ** 16),
               traffic(Constant(2 * 10 ** 16), seeds[1], 2 * 10 ** 16)]
    horizon = draw(st.integers(1, 40))
    return [RunConfig(
        cost=cost, traffic=draw(st.sampled_from(sources)),
        scheme=draw(st.sampled_from(Scheme)),
        params=SchedulerParams(
            v=draw(st.sampled_from([0, 1, Fraction(7, 3), 50, 2 ** 63,
                                    2 ** 70 + 1])),
            devolution=draw(st.sampled_from(Devolution))),
        horizon_slots=horizon, run_seed=draw(st.integers(0, 2 ** 32)),
        stride=draw(st.integers(1, 5)), log_lyapunov=draw(st.booleans()))
        for _ in range(draw(st.integers(1, 8)))]


class TestLanes:
    @given(lane_cases())
    @settings(max_examples=100, deadline=None)
    def test_batch_equals_separate_runs(self, cfgs):
        assert engine.run_lanes(cfgs) == [run(cfg) for cfg in cfgs]

    def test_lanes_cross_int64_limit_on_different_slots(self, monkeypatch):
        # alone, each lane widens on its own slot; together they share
        # one int64 group, which widens once, on the earlier slot
        widened = []
        widen = engine.LaneGroup.widen
        monkeypatch.setattr(engine.LaneGroup, "widen",
                            lambda group: widened.append(group.t) or
                            widen(group))
        cfgs = [small_cfg(scheme=Scheme.JSQ, horizon=60, seed=1,
                          process=Constant(rate), a_max=rate)
                for rate in (10 ** 16, 2 * 10 ** 16)]
        separate = [run(cfg) for cfg in cfgs]
        alone = list(widened)
        assert len(alone) == 2 and alone[0] > alone[1] > 0
        assert engine.run_lanes(cfgs) == separate
        assert widened[2:] == [alone[1]]

    def test_lanes_share_cost_and_horizon(self):
        with pytest.raises(ValueError):
            engine.run_lanes([small_cfg(horizon=5), small_cfg(horizon=6)])


class TestSweep:
    def test_single_v_matches_run(self):
        cfg = small_cfg(v=7, horizon=100)
        row = sweep(cfg, [7])[0]
        res = run(cfg)
        assert row.f_bar == res.final.f_bar
        assert row.mean_backlog == res.mean_backlog

    def test_common_random_numbers(self):
        cfg = small_cfg(horizon=50, process=Constant(3))
        rows = sweep(cfg, [0, 10])
        assert rows[0].v == 0 and rows[1].v == 10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep(small_cfg(), [])


class TestGreedyVsStatic:
    def test_large_v_matches_static_under_low_queues(self):
        # with V large and devolution off, greedy follows the static
        # choice while controller queues stay below V * min W gap
        cost = CostModel.uniform_alpha(((1, 3), (4, 2)), 2)
        params = SchedulerParams(v=1000, devolution=Devolution.OFF)
        from sdnsched.scheduler import GreedyKernel, static_decide
        kernel = GreedyKernel(cost, params)
        static = static_decide(cost)
        rng = random.Random(2)
        for _ in range(100):
            qc = tuple(rng.randint(0, 1999) for _ in range(2))  # < V * gap
            assert kernel_target(kernel, (0, 0), qc) == static.target


class TestCapacityCheck:
    def test_default_capacities_not_supercritical(self):
        cost = CostModel.uniform_alpha(
            tuple(((1, 2),) * 6), 2)
        tcfg = TrafficConfig(base_process=Poisson(5.88), n_switches=6,
                             n_controllers=2, controller_capacity=600,
                             hot_spot_switches=frozenset({0}),
                             hot_spot_rate=200)
        cfg = RunConfig(cost=cost, traffic=tcfg, scheme=Scheme.GREEDY,
                        params=SchedulerParams(v=1), horizon_slots=1)
        assert capacity_check(cfg) == []

    def test_supercritical_devolution_off(self):
        cost = CostModel.uniform_alpha(((1,),), 2)
        tcfg = TrafficConfig(base_process=Constant(10), n_switches=1,
                             n_controllers=1, controller_capacity=5)
        cfg = RunConfig(cost=cost, traffic=tcfg, scheme=Scheme.GREEDY,
                        params=SchedulerParams(v=1, devolution=Devolution.OFF),
                        horizon_slots=1)
        warnings = capacity_check(cfg)
        assert len(warnings) == 1 and "supercritical" in warnings[0]

    def test_zero_arrivals_quiet(self):
        cost = CostModel.uniform_alpha(((1,),), 2)
        tcfg = TrafficConfig(base_process=Constant(0), n_switches=1,
                             n_controllers=1, controller_capacity=5)
        cfg = RunConfig(cost=cost, traffic=tcfg, scheme=Scheme.JSQ,
                        params=SchedulerParams(v=0), horizon_slots=1)
        assert capacity_check(cfg) == []
