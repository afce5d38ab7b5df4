"""Acceptance gate: one test per criterion, each printing a pass/fail
line. Run with `pytest tests/test_acceptance.py -v -s`."""

import random
import time
from fractions import Fraction

import pytest

from sdnsched import engine, traffic
from sdnsched.engine import RunConfig, Scheme, run
from sdnsched.model import (
    CostModel,
    Devolution,
    QueueState,
    SchedulerParams,
)
from sdnsched.scheduler import (
    DecisionContext,
    association_only_decide,
    brute_force_decide,
    greedy_decide,
    jsq_decide,
    slot_objective,
)
from sdnsched.topology import (
    build_cost_model,
    derive_alpha,
    gen_f10,
    gen_fat_tree,
    gen_three_tier,
    hop_matrix,
    place_controllers,
)
from sdnsched.traffic import ArrivalState, Pareto, Poisson, TrafficConfig

from conftest import (
    FIG1_ARRIVALS,
    FIG1_COST,
    FIG1_CTRL_SERVICE,
    FIG1_SWITCH_SERVICE,
    FIG1_X1,
    FIG1_X2,
    apply_slot_tuples,
)

DESK_SEEDS = [0, 1, 2, 3, 4]
DESK_V_GRID = [0, 10, 100, 1000, 10000]
DESK_HORIZON = 20_000


def report(name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] {name}" + (f" ({detail})" if detail else ""))
    assert ok, f"{name}: {detail}"


def desk_cost() -> CostModel:
    topo = gen_fat_tree(4)
    return build_cost_model(topo, place_controllers(topo)), topo


def desk_config(scheme: Scheme, v, seed: int) -> RunConfig:
    cost, topo = desk_cost()
    tcfg = TrafficConfig(
        base_process=Poisson(2),
        n_switches=topo.n_switches,
        n_controllers=cost.n_controllers,
        hot_spot_switches=frozenset(topo.pods[0]),
        hot_spot_rate=20,
        controller_capacity=60,
        switch_capacity=4,
        seed=seed,
    )
    return RunConfig(cost=cost, traffic=tcfg, scheme=scheme,
                     params=SchedulerParams(v=v), horizon_slots=DESK_HORIZON,
                     run_seed=seed)


@pytest.fixture(scope="module")
def desk_sweep_results():
    """25 greedy runs: V grid x 5 seeds with common random numbers, as
    the lanes of one engine.sweep call."""
    rows = engine.sweep([desk_config(Scheme.GREEDY, 0, seed)
                         for seed in DESK_SEEDS], DESK_V_GRID)
    return {(row.v, row.run_seed): (row.total_cost, row.mean_backlog)
            for row in rows}


def test_criterion_1_per_slot_optimality():
    start = time.time()
    rng = random.Random(20260826)
    checked = 0
    for _ in range(1000):
        n_s = rng.randint(1, 6)
        n_c = rng.randint(1, 4)
        ctx = DecisionContext(
            q=QueueState(
                q_s=tuple(rng.randint(0, 100) for _ in range(n_s)),
                q_c=tuple(rng.randint(0, 100) for _ in range(n_c))),
            arrivals=tuple(rng.randint(0, 10) for _ in range(n_s)),
            cost=CostModel(
                w=tuple(tuple(rng.randint(1, 10) for _ in range(n_c))
                        for _ in range(n_s)),
                alpha=tuple(rng.randint(1, 10) for _ in range(n_s))),
            params=SchedulerParams(v=rng.choice([0, 1, 10, 100])),
        )
        greedy_obj = slot_objective(greedy_decide(ctx), ctx)
        oracle_obj = slot_objective(brute_force_decide(ctx), ctx)
        assert greedy_obj == oracle_obj, \
            f"greedy {greedy_obj} != oracle {oracle_obj} on {ctx}"
        checked += 1
    elapsed = time.time() - start
    report("criterion 1: greedy == brute-force oracle on "
           f"{checked} instances", elapsed < 60,
           f"{elapsed:.1f}s, all objectives equal")


def test_criterion_2_worked_example_fixture(fig1_queues):
    nq2, f2, g2 = apply_slot_tuples(fig1_queues, FIG1_X2, FIG1_ARRIVALS,
                                    FIG1_CTRL_SERVICE, FIG1_SWITCH_SERVICE,
                                    FIG1_COST)
    nq1, f1, g1 = apply_slot_tuples(fig1_queues, FIG1_X1, FIG1_ARRIVALS,
                                    FIG1_CTRL_SERVICE, FIG1_SWITCH_SERVICE,
                                    FIG1_COST)
    ok = (f2 + g2 == 13 and nq2.total() == 2 and nq1.total() == 4)
    report("criterion 2: worked-example fixture", ok,
           f"X2 cost {f2 + g2}, X2 unfinished {nq2.total()}, "
           f"X1 unfinished {nq1.total()}")


def test_criterion_3_alpha_reproduction():
    start = time.time()
    ft = gen_fat_tree(24)
    a_ft = derive_alpha(hop_matrix(ft, place_controllers(ft)))
    tt = gen_three_tier(26)
    a_tt = derive_alpha(hop_matrix(tt, place_controllers(tt)))
    f10 = gen_f10(24)
    a_f10 = derive_alpha(hop_matrix(f10, place_controllers(f10)))
    elapsed = time.time() - start
    ok = (abs(float(a_ft) - 4.13) <= 0.01
          and abs(float(a_tt) - 4.81) <= 0.01
          and abs(float(a_f10 - a_ft)) <= 0.01
          and elapsed < 30)
    report("criterion 3: alpha reproduction", ok,
           f"fat-tree {float(a_ft):.4f}, 3-tier {float(a_tt):.4f}, "
           f"f10 {float(a_f10):.4f}, {elapsed:.1f}s")


def test_criterion_4_jsq_degeneracy():
    rng = random.Random(4)
    mismatches = 0
    for _ in range(1000):
        n_s = rng.randint(1, 6)
        n_c = rng.randint(1, 4)
        w = tuple(tuple(rng.randint(1, 10) for _ in range(n_c))
                  for _ in range(n_s))
        q = QueueState(
            q_s=tuple(rng.randint(0, 100) for _ in range(n_s)),
            q_c=tuple(rng.randint(0, 100) for _ in range(n_c)))
        arrivals = tuple(rng.randint(0, 10) for _ in range(n_s))
        ctx_v0 = DecisionContext(
            q=q, arrivals=arrivals,
            cost=CostModel.uniform_alpha(w, 1),
            params=SchedulerParams(v=0, devolution=Devolution.OFF))
        if jsq_decide(q, n_s).target != association_only_decide(ctx_v0).target:
            mismatches += 1
        v = rng.choice([1, 10, 100])
        huge = DecisionContext(
            q=q, arrivals=arrivals,
            cost=CostModel.uniform_alpha(w, 2 * 10 ** 28),
            params=SchedulerParams(v=v))
        ref = DecisionContext(
            q=q, arrivals=arrivals,
            cost=CostModel.uniform_alpha(w, 1),
            params=SchedulerParams(v=v, devolution=Devolution.OFF))
        if greedy_decide(huge).target != association_only_decide(ref).target:
            mismatches += 1
    report("criterion 4: JSQ degeneracy and huge-alpha encoding",
           mismatches == 0, f"{mismatches} mismatches over 1000 snapshots")


def test_criterion_5_tradeoff_trends(desk_sweep_results):
    start = time.time()
    mean_cost = []
    mean_backlog = []
    for v in DESK_V_GRID:
        costs = [desk_sweep_results[(v, s)][0] for s in DESK_SEEDS]
        backlogs = [desk_sweep_results[(v, s)][1] for s in DESK_SEEDS]
        mean_cost.append(sum(costs) / len(costs))
        mean_backlog.append(sum(backlogs) / len(backlogs))
    cost_ok = all(b <= a * Fraction(102, 100)
                  for a, b in zip(mean_cost, mean_cost[1:]))
    backlog_ok = mean_backlog[-3] <= mean_backlog[-2] <= mean_backlog[-1]
    elapsed = time.time() - start
    report("criterion 5: cost non-increasing, backlog non-decreasing in V",
           cost_ok and backlog_ok,
           f"cost {[round(float(c), 1) for c in mean_cost]}, "
           f"backlog {[round(float(b), 1) for b in mean_backlog]}")


def test_criterion_6_stability_and_static_divergence():
    res = run(desk_config(Scheme.GREEDY, 10, seed=0))
    backlogs = [rec.total_backlog for rec in res.records]
    third = sum(backlogs[10_000:15_000]) / 5_000
    fourth = sum(backlogs[15_000:20_000]) / 5_000
    stable = abs(fourth - third) <= 0.10 * third if third > 0 else fourth == 0

    static_res = run(desk_config(Scheme.STATIC, 0, seed=0))
    var_early = static_res.records[1_000].controller_backlog_variance
    var_late = static_res.records[-1].controller_backlog_variance
    diverges = var_late >= 10 * var_early and var_early > 0
    report("criterion 6: greedy stable, static variance diverges",
           stable and diverges,
           f"windows {third:.1f} vs {fourth:.1f}; "
           f"static var {float(var_early):.3g} -> {float(var_late):.3g}")


def test_criterion_7_determinism(tmp_path):
    from sdnsched.cli import main
    args = ["run", "--kind", "fat-tree", "--k", "4", "--horizon", "500",
            "--scheme", "greedy", "--v", "10", "--arrivals", "poisson:2",
            "--hot-spot-rate", "20", "--controller-capacity", "60",
            "--switch-capacity", "4", "--traffic-seed", "3",
            "--run-seed", "3"]
    assert main(args + ["--name", "a", "--out-dir", str(tmp_path)]) == 0
    assert main(args + ["--name", "b", "--out-dir", str(tmp_path)]) == 0
    a = (tmp_path / "a.csv").read_bytes()
    b = (tmp_path / "b.csv").read_bytes()
    report("criterion 7: byte-identical repeated runs", a == b,
           f"{len(a)} bytes each")


def test_criterion_8_distribution_sanity():
    cfg_p = TrafficConfig(base_process=Poisson(5.88), n_switches=1,
                          n_controllers=1, seed=8)
    state = ArrivalState(cfg_p)
    n = 10 ** 5
    poisson_mean = sum(traffic.sample_slot_arrivals(state)[0]
                       for _ in range(n)) / n
    cfg_q = TrafficConfig(base_process=Pareto(shape=2, scale=2.94),
                          n_switches=1, n_controllers=1, seed=8)
    state = ArrivalState(cfg_q)
    m = 10 ** 6
    pareto_mean = sum(traffic.sample_slot_arrivals(state)[0]
                      for _ in range(m)) / m
    ok = (abs(poisson_mean - 5.88) / 5.88 < 0.02
          and abs(pareto_mean - 5.88) / 5.88 < 0.05)
    report("criterion 8: Poisson/Pareto empirical means", ok,
           f"poisson {poisson_mean:.3f}, pareto {pareto_mean:.3f}")
