import json
import random
import tempfile
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnsched import cli, engine, metrics
from sdnsched import traffic as tr
from sdnsched.cli import main
from sdnsched.engine import (
    INT64_BOUND,
    RunConfig,
    Scheme,
    capacity_check,
    run,
    sweep,
)
from sdnsched.metrics import format_rational
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
    controller_variance,
    greedy_decide,
    jsq_decide,
    lyapunov,
    row_record,
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
    argmin_lane,
    lane_target,
    records,
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
    return engine.LaneGroup([cfg], [0])


def lane_queues(group, lane=0):
    """Lane `lane`'s backlogs in a LaneGroup, as a QueueState."""
    row = group.q[lane].tolist()
    return QueueState(q_s=tuple(row[:group.n_s]), q_c=tuple(row[group.n_s:]))


def decide_tuples(group, q):
    """A one-lane LaneGroup's decision on a QueueState of small backlogs,
    as arrays of the group's dtype; returns the Association."""
    dtype = group.q.dtype
    return Association(target=tuple(group.decide(
        np.array([q.q_s + q.q_c], dtype))[0].tolist()))


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


    def test_lanes_share_one_arrivals_row(self):
        # L lanes price and advance as L one-lane calls, each call on its
        # own LaneGroup's tables: with one arrivals row that every lane
        # reads (repeated, as LaneGroup.advance passes a shared row), with
        # a row per lane, and on object arrays with backlogs above 2^62
        rng = random.Random(12)
        cost = CostModel.uniform_alpha(
            tuple(tuple(rng.randint(1, 5) for _ in range(3))
                  for _ in range(4)), Fraction(5, 2))
        cfg = RunConfig(
            cost=cost, traffic=TrafficConfig(
                base_process=Poisson(0), n_switches=4, n_controllers=3),
            scheme=Scheme.STATIC, params=SchedulerParams(), horizon_slots=1)

        def tables(lanes, dtype):
            group = engine.LaneGroup([cfg] * lanes, [0] * lanes)
            if dtype is object:
                group.widen()
            return group.cells, group.joins, group.price

        for lanes in (2, 3, 5):
            for dtype, low, shared in [(np.int64, 0, True),
                                       (np.int64, 0, False),
                                       (object, 2 ** 62, True),
                                       (object, 2 ** 62, False)]:
                def ints(n, rows=lanes, low=0, high=20):
                    return np.array([[rng.randint(low, low + high)
                                      for _ in range(n)]
                                     for _ in range(rows)], dtype)

                q = ints(7, low=low)
                target = np.array([[rng.randint(LOCAL, 2) for _ in range(4)]
                                   for _ in range(lanes)], np.intp)
                service = ints(7, high=6)
                arrivals = ints(4, 1, high=9).repeat(lanes, 0) if shared \
                    else ints(4, high=9)
                together = engine.apply_slot(q, target, arrivals, service,
                                             *tables(lanes, dtype))
                alone = [engine.apply_slot(q[l:l + 1], target[l:l + 1],
                                           arrivals[l:l + 1],
                                           service[l:l + 1],
                                           *tables(1, dtype))
                         for l in range(lanes)]
                # lanes are the rows of next_q and the columns of fdg
                for got, parts, axis in zip(together, zip(*alone), (0, 1)):
                    assert got.dtype == dtype
                    assert got.tolist() == \
                        np.concatenate(parts, axis).tolist()


class TestRun:
    def test_single_slot_average(self):
        cfg = small_cfg(horizon=1, process=Constant(2))
        final = records(run(cfg))[-1]
        assert final.f_bar == final.f_slot
        assert final.g_bar == final.g_slot

    def test_deterministic(self):
        cfg = small_cfg(horizon=200, seed=11)
        a, b = run(cfg), run(cfg)
        assert records(a) == records(b)

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
        q = lane_queues(group)
        for rec in records(res):
            arrivals = tr.sample_slot_arrivals(arrival_state)
            assoc = decide_tuples(group, q)
            q, f, g = apply_slot_tuples(q, assoc, arrivals, *services,
                                        cfg.cost)
            assert (f, g, q.total()) == (rec.f_slot, rec.g_slot,
                                         rec.total_backlog)

    def test_all_schemes_execute(self):
        for scheme in Scheme:
            res = run(small_cfg(scheme=scheme, horizon=30))
            assert len(records(res)) == 30

    def test_lyapunov_logging(self):
        cfg = small_cfg(horizon=20)
        cfg = engine.replace(cfg, log_lyapunov=True)
        res = run(cfg)
        # drift sample at slot t: L(Q(t+1)) - L(Q(t)) + V * (f(t) + g(t)),
        # where L(Q(t+1)) is the next record's logged snapshot
        recs = records(res)
        for cur, nxt in zip(recs, recs[1:]):
            assert cur.drift_penalty_sample == \
                nxt.lyapunov - cur.lyapunov \
                + cfg.params.v * (cur.f_slot + cur.g_slot)

    def test_stride(self):
        cfg = small_cfg(horizon=100)
        cfg = engine.replace(cfg, stride=10)
        res = run(cfg)
        assert [r.t for r in records(res)] == list(range(0, 100, 10)) + [99]


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
            q = lane_queues(group)
            group.advance([arrival_state], 1)
            arrivals = tr.sample_slot_arrivals(replay)
            assert all(0 <= a <= cfg.traffic.a_max for a in arrivals)
            target = decide_tuples(replay_group, q).target
            q_s = tuple(max(q.q_s[i] + (a if t == LOCAL else 0)
                            - switch_service[i], 0)
                        for i, (a, t) in enumerate(zip(arrivals, target)))
            q_c = tuple(max(q.q_c[j] + sum(a for a, t in zip(arrivals, target)
                                           if t == j) - ctrl_service[j], 0)
                        for j in range(cfg.cost.n_controllers))
            assert lane_queues(group) == QueueState(q_s=q_s, q_c=q_c)

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
            q = lane_queues(group)
            group.advance([arrival_state], 1)
            rec = row_record(group.acc.kept[0][-1], group.acc.scale,
                             group.n_c, cfg.params.v)
            # the row's Lyapunov value and variance are the model's
            assert rec.lyapunov == lyapunov(q)
            assert rec.controller_backlog_variance == \
                controller_variance(lane_queues(group).q_c)
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
        recs = records(res)
        horizon = cfg.horizon_slots
        assert len(recs) == horizon
        assert recs[-1].f_bar * horizon == sum(r.f_slot for r in recs)
        assert recs[-1].g_bar * horizon == sum(r.g_slot for r in recs)
        assert res.mean_backlog * horizon == \
            sum(r.total_backlog for r in recs)

    @given(run_cases(), st.sampled_from([None, 10 ** 30]), st.booleans())
    @settings(max_examples=100, deadline=None)
    def test_summary_formats_the_final_record(self, cfg, v, log):
        # each value of <name>.summary.json, formatted from the final kept
        # row's integers, is its reference record's value (or the mean
        # backlog) run through format_rational; V = 10**30 runs on object
        # arrays
        if v is not None:
            cfg = engine.replace(cfg, params=engine.replace(cfg.params, v=v))
        cfg = engine.replace(cfg, log_lyapunov=log)
        res = run(cfg)
        final = records(res)[-1]
        with tempfile.TemporaryDirectory() as out:
            _, summary = cli._write_run_output(cfg, {}, res, Path(out), "s")
            written = json.loads(Path(out, "s.summary.json").read_text())
        assert written == summary == {
            "config": {},
            "f_bar": format_rational(final.f_bar),
            "g_bar": format_rational(final.g_bar),
            "total_cost": format_rational(final.f_bar + final.g_bar),
            "mean_backlog": format_rational(res.mean_backlog),
            "final_backlog": final.total_backlog,
        }


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
                            lambda group: widened.append(group.acc.t) or
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
                            lambda group: widened.append(group.acc.t) or
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

    @pytest.mark.parametrize("arrivals, capacity", [
        # no service: every total grows by exactly 100 a slot, the bound,
        # so the first check skips 29 and lands on the crossing slot
        ("constant:5", 0),
        ("poisson:8", 20)])
    def test_countdown_skips_checks_and_widens_on_time(
            self, tmp_path, monkeypatch, arrivals, capacity):
        # a_max = 5 on fat-tree k=4: a lane's total grows by at most
        # 20*5 = 100 a slot, so under a limit of 3050 a check h below it
        # skips the next h // 100 checks, and the group still widens on
        # the slot after the first whose total passes the limit, with the
        # bytes of a run on object arrays throughout
        config = tmp_path / "run.json"
        config.write_text(json.dumps({
            "kind": "fat-tree", "k": 4, "scheme": "greedy", "v": "10",
            "horizon": 400, "arrivals": arrivals, "a_max": 5,
            "controller_capacity": capacity,
            "switch_capacity": capacity // 10, "name": "run"}))
        widened = []
        widen = engine.LaneGroup.widen
        monkeypatch.setattr(engine.LaneGroup, "widen",
                            lambda group: widened.append(group.acc.t) or
                            widen(group))

        def output(name):
            assert main(["run", "--config", str(config), "--stride", "1",
                         "--out-dir", str(tmp_path / name)]) == 0
            return [(tmp_path / name / f"run{ext}").read_bytes()
                    for ext in (".csv", ".summary.json")]

        limit = 3050
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: limit)
        switched = output("switched")
        header, *rows = [line.split(",")
                         for line in switched[0].decode().splitlines()]
        col = header.index("total_backlog")
        first = next(int(row[0]) for row in rows if int(row[col]) > limit)
        # the first check, at slot 0, skips at least the next 29
        assert first >= limit // 100
        assert widened == [first + 1]
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: -1)
        assert output("object") == switched
        assert widened == [first + 1]  # the last run started on object arrays

    def test_countdown_checks_two_slots_of_204(self, monkeypatch):
        # 3 switches, a constant 5 and no service: the total after slot t
        # is 15*(t + 1), the growth bound exactly. The check at slot 0
        # finds 3035 of headroom and skips 202 slots; the next, at slot
        # 203, finds 3060 > 3050 and widens
        monkeypatch.setattr(engine, "int64_queue_limit", lambda *a: 3050)
        cfg = small_cfg(horizon=300, process=Constant(5), a_max=5,
                        controller_capacity=0, switch_capacity=0)
        group = engine.LaneGroup([cfg], [0])
        assert group.growth == [15]
        arrival_state = tr.ArrivalState(cfg.traffic)
        checked = []
        while group.q.dtype != object:
            if group.check_at == group.acc.t:
                checked.append(group.acc.t)
            group.advance([arrival_state], 1)
        assert checked == [0, 203] and group.acc.t == 204
        assert group.q.sum() == 15 * 204

    def test_limit_covers_a_max_and_services(self):
        cost = CostModel.uniform_alpha(((1, 3), (2, 2)), 2)

        def lane(a_max, v=0):
            tcfg = TrafficConfig(base_process=Poisson(1), n_switches=2,
                                 n_controllers=2, a_max=a_max)
            return RunConfig(cost=cost, traffic=tcfg, scheme=Scheme.GREEDY,
                             params=SchedulerParams(v=v), horizon_slots=1)

        for a_max in (2 ** 63 - 1, 2 ** 70):
            assert engine.int64_queue_limit(lane(a_max)) < 0
        # max|K| = V = INT64_BOUND - 8 at scale 1 leaves 7
        assert engine.int64_queue_limit(lane(10, v=INT64_BOUND - 8)) == 7

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_limit_keeps_sums_in_int64(self, data):
        # with every backlog at the limit and every arrival at a_max, each
        # sum a slot takes on int64 stays below INT64_BOUND, and one
        # reaches it at limit + 1; the limit is negative exactly when the
        # kernel's scale, or one of the sums at backlog 0, reaches it
        draw = data.draw
        n_s, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        w_top = draw(st.sampled_from([6, 2 ** 40]))
        # alpha's one denominator sets the scale, which may pass
        # INT64_BOUND while the weight stays small
        den = draw(st.one_of(st.integers(1, 12), st.sampled_from(
            [10 ** 12, 2 ** 62, 2 ** 70 + 1])))
        cost = CostModel(
            w=tuple(tuple(draw(st.lists(st.integers(1, w_top), min_size=n_c,
                                        max_size=n_c))) for _ in range(n_s)),
            alpha=tuple(Fraction(draw(st.integers(0, 10 ** 6)), den)
                        for _ in range(n_s)))
        a_max = draw(st.sampled_from([1, 10, 10 ** 6, 2 ** 62]))
        v = draw(st.sampled_from([0, Fraction(7, 3), 50, 2 ** 63]))
        cfg = RunConfig(
            cost=cost, traffic=TrafficConfig(
                base_process=Poisson(1), n_switches=n_s, n_controllers=n_c,
                a_max=a_max),
            scheme=draw(st.sampled_from(Scheme)),
            params=SchedulerParams(
                v=v, devolution=draw(st.sampled_from(Devolution))),
            horizon_slots=1)
        # greedy and JSQ lanes take the argmin, JSQ at v = 0
        argmin = cfg.scheme in (Scheme.GREEDY, Scheme.JSQ)
        kv = Fraction(v if cfg.scheme is Scheme.GREEDY else 0)
        # the argmin's scale: q*d for kv = p/q and alpha's denominator d
        scale = kv.denominator * cost.tables.scale
        weight = cost.tables.weight

        def sums(backlog):
            out = [n_s * weight * a_max + backlog,
                   (n_s + n_c) * (backlog + n_s * a_max)]
            if argmin:
                # max|K| is scale * max|kv*(W - alpha)|
                top = scale * max(abs(kv * (w - a))
                                  for row, a in zip(cost.w, cost.alpha)
                                  for w in row)
                out += [top + scale * backlog, scale * backlog]
            return out

        limit = engine.int64_queue_limit(cfg)
        if limit >= 0:
            assert max(sums(limit)) < INT64_BOUND
            assert max(sums(limit + 1)) >= INT64_BOUND
        assert (limit < 0) == \
            (argmin and scale >= INT64_BOUND or max(sums(0)) >= INT64_BOUND)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_group_limit_is_each_lanes_own(self, data):
        # groups that mix all four schemes, V up to 2^63 and alpha
        # denominators up to 2^62: an int64 group checks each lane
        # against that lane's int64_queue_limit, which keeps the lane's
        # argmin sums max|K| + scale*limit, on the group's own tables,
        # below INT64_BOUND
        draw = data.draw
        n_s, n_c = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        den = draw(st.sampled_from([1, 3, 10 ** 6, 10 ** 12, 2 ** 62]))
        cost = CostModel(
            w=tuple(tuple(draw(st.lists(st.integers(1, 2 ** 20),
                                        min_size=n_c, max_size=n_c)))
                    for _ in range(n_s)),
            alpha=tuple(Fraction(draw(st.integers(0, 10 ** 6)), den)
                        for _ in range(n_s)))
        traffic = TrafficConfig(
            base_process=Poisson(1), n_switches=n_s, n_controllers=n_c,
            a_max=draw(st.sampled_from([1, 10 ** 6])))
        cfgs = [RunConfig(
            cost=cost, traffic=traffic, scheme=draw(st.sampled_from(Scheme)),
            params=SchedulerParams(
                v=draw(st.sampled_from([0, Fraction(7, 3), 50, 2 ** 20,
                                        2 ** 40, 2 ** 63])),
                devolution=draw(st.sampled_from(Devolution))),
            horizon_slots=1) for _ in range(draw(st.integers(1, 6)))]
        group = engine.LaneGroup(cfgs, [0] * len(cfgs))
        limits = [engine.int64_queue_limit(cfg) for cfg in group.cfgs]
        assert (group.q.dtype == np.int64) == (min(limits) >= 0)
        if group.q.dtype == np.int64:
            assert group.limit == limits
            for lane in range(group.n_argmin):
                top = max(map(abs, group.k[lane].ravel().tolist()))
                assert top + int(group.scale[lane, 0]) * limits[lane] \
                    < INT64_BOUND


class TestSettleBlocks:
    """The Accumulator folds its slots into the exact sums in blocks of
    SETTLE_BLOCK; every kept row's running sums equal those of a
    slot-by-slot Python replay of the run."""

    @pytest.mark.parametrize("process, a_max", [
        (Poisson(3), 10 ** 6),
        # backlogs near 7e17 by the final slot: a block's backlog sum
        # passes 2^63 on int64 arrays
        (Constant(10 ** 15), 10 ** 15),
        # a_max >= 2^62 runs on object arrays from the start
        (Poisson(3), 2 ** 62)])
    @pytest.mark.parametrize("stride", [1, 7, 250])
    @pytest.mark.parametrize("log", [False, True])
    def test_kept_rows_equal_python_replay(self, process, a_max, stride,
                                           log):
        horizon = 250
        assert horizon > 3 * metrics.SETTLE_BLOCK
        cfgs = [replace(small_cfg(scheme, v=1, horizon=horizon, seed=5,
                                  process=process, a_max=a_max),
                        stride=stride, log_lyapunov=log)
                for scheme in (Scheme.GREEDY, Scheme.JSQ)]
        group = engine.LaneGroup(cfgs, [0, 0])
        assert (group.q.dtype == object) == (a_max >= 2 ** 62)
        results = engine.run_lanes(cfgs)
        for cfg, res in zip(cfgs, results):
            tcfg, cost = cfg.traffic, cfg.cost
            services = ((tcfg.controller_capacity,) * tcfg.n_controllers,
                        (tcfg.switch_capacity,) * tcfg.n_switches)
            arrival_state = tr.ArrivalState(tcfg)
            q = QueueState.zeros(cost.n_switches, cost.n_controllers)
            f_sum = g_sum = backlog_sum = 0
            want = []
            for t in range(horizon):
                arrivals = tr.sample_slot_arrivals(arrival_state)
                ctx = DecisionContext(q=q, arrivals=arrivals, cost=cost,
                                      params=cfg.params)
                assoc = greedy_decide(ctx) if cfg.scheme is Scheme.GREEDY \
                    else jsq_decide(q, cost.n_switches)
                before = q
                q, f, g = spec_apply_slot(q, assoc, arrivals, *services, cost)
                f_sum, g_sum = f_sum + f, g_sum + g
                backlog_sum += q.total()
                want.append((t, f, g, Fraction(f_sum, t + 1),
                             Fraction(g_sum) / (t + 1),
                             q.total(), lyapunov(before) if log else None))
            kept = list(range(0, horizon, stride))
            if kept[-1] != horizon - 1:
                kept.append(horizon - 1)
            assert [(r.t, r.f_slot, r.g_slot, r.f_bar, r.g_bar,
                     r.total_backlog, r.lyapunov) for r in records(res)] == \
                [want[t] for t in kept]
            assert res.mean_backlog == Fraction(backlog_sum, horizon)


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
                            lambda group: widened.append(group.acc.t) or
                            widen(group))
        cfgs = [small_cfg(scheme=Scheme.JSQ, horizon=60, seed=1,
                          process=Constant(rate), a_max=rate)
                for rate in (10 ** 16, 2 * 10 ** 16)]
        separate = [run(cfg) for cfg in cfgs]
        alone = list(widened)
        assert len(alone) == 2 and alone[0] > alone[1] > 0
        assert engine.run_lanes(cfgs) == separate
        assert widened[2:] == [alone[1]]

    def test_random_lanes_draw_blocks(self, monkeypatch):
        # a horizon that ends inside a block: every Random lane's targets
        # equal the per-slot randrange loop of its own
        # random.Random(run_seed), slot by slot, in an int64 group and in
        # a group that starts on object arrays (a_max >= 2**62), and each
        # lane draws once per RANDOM_BLOCK slots
        horizon = 37
        cost = CostModel.uniform_alpha(
            ((1, 3, 2), (2, 2, 5), (4, 1, 1), (3, 3, 3), (5, 2, 4)), 2)

        def cfg(scheme, seed, a_max=10 ** 6):
            tcfg = TrafficConfig(
                base_process=Poisson(3), n_switches=5, n_controllers=3,
                controller_capacity=6, switch_capacity=2, a_max=a_max,
                seed=seed)
            return RunConfig(cost=cost, traffic=tcfg, scheme=scheme,
                             params=SchedulerParams(v=10),
                             horizon_slots=horizon, run_seed=seed)

        targets, draws = [], []
        apply_slot, random_decide = engine.apply_slot, engine.random_decide
        monkeypatch.setattr(engine, "apply_slot",
                            lambda q, target, *a: targets.append(
                                (q.dtype, target.copy()))
                            or apply_slot(q, target, *a))
        monkeypatch.setattr(engine, "random_decide",
                            lambda *a: draws.append(a[:2])
                            or random_decide(*a))
        # each group comes in lane_order, so Random lanes are the last
        # rows: the int64 group is (greedy, static, random 1, random 2)
        # and the object group (greedy, random 3)
        for dtype, cfgs, seeds in [
                (np.int64, [cfg(Scheme.RANDOM, 1), cfg(Scheme.GREEDY, 4),
                            cfg(Scheme.STATIC, 5), cfg(Scheme.RANDOM, 2)],
                 (1, 2)),
                (object, [cfg(Scheme.RANDOM, 3, a_max=2 ** 62),
                          cfg(Scheme.GREEDY, 6, a_max=2 ** 62)], (3,))]:
            targets.clear()
            engine.run_lanes(cfgs)
            assert len(targets) == horizon
            assert all(d == dtype for d, _ in targets)
            for row, seed in enumerate(seeds, len(cfgs) - len(seeds)):
                spec = random.Random(seed)
                assert [t[row].tolist() for _, t in targets] == \
                    [[spec.randrange(3) for _ in range(5)]
                     for _ in range(horizon)]
        assert draws == [(16 * 5, 3)] * 3 * -(-horizon // 16)

    def test_lanes_share_cost_and_horizon(self):
        with pytest.raises(ValueError):
            engine.run_lanes([small_cfg(horizon=5), small_cfg(horizon=6)])


class TestSweep:
    def test_single_v_matches_run(self):
        cfg = small_cfg(v=7, horizon=100)
        f_bar, *_, mean_backlog = sweep([cfg], [7])[0].means()
        res = run(cfg)
        assert f_bar == records(res)[-1].f_bar
        assert mean_backlog == res.mean_backlog

    def test_every_scheme_matches_run(self):
        # one entry per (config, V) in grid order, each the final row and
        # mean backlog of a separate run at that V, whether or not its
        # lane serves every V of its config
        cfgs = [small_cfg(scheme, horizon=40, seed=seed)
                for scheme in Scheme for seed in (0, 1)]
        grid = [0, Fraction(7, 2)]
        results = sweep(cfgs, grid)
        pairs = [(cfg, v) for cfg in cfgs for v in grid]
        assert len(results) == len(pairs)
        for (cfg, v), res in zip(pairs, results):
            want = run(replace(cfg, params=replace(cfg.params, v=v)))
            assert res.rows[-1] == want.rows[-1]
            assert res.mean_backlog == want.mean_backlog
            assert res.means() == want.means()

    def test_common_random_numbers(self):
        cfg = small_cfg(horizon=50, process=Constant(3))
        rows = sweep([cfg], [0, 10])
        assert rows[0].v == 0 and rows[1].v == 10

    def test_empty_grid_rejected(self):
        with pytest.raises(ValueError):
            sweep([small_cfg()], [])


class TestGreedyVsStatic:
    def test_large_v_matches_static_under_low_queues(self):
        # with V large and devolution off, greedy follows the static
        # choice while controller queues stay below V * min W gap
        cost = CostModel.uniform_alpha(((1, 3), (4, 2)), 2)
        from sdnsched.scheduler import static_decide
        group = argmin_lane(cost, Scheme.GREEDY, 1000, Devolution.OFF)
        static = static_decide(cost)
        rng = random.Random(2)
        for _ in range(100):
            qc = tuple(rng.randint(0, 1999) for _ in range(2))  # < V * gap
            assert lane_target(group, (0, 0), qc) == static.target
        # past the int64 bound the widened group decides the same
        group.widen()
        for _ in range(100):
            base = rng.randint(2 ** 62, 2 ** 66)
            qc = (base + rng.randint(0, 1999), base + rng.randint(0, 1999))
            assert lane_target(group, (0, 0), qc) == static.target


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
