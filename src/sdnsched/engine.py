"""Slot-by-slot simulation loop and run orchestration.

One run is a single-threaded deterministic loop: sample arrivals,
snapshot queues, decide, price the decision, update queues, account.
Sweeps rerun the same configuration over a V grid with common random
numbers.
"""

from __future__ import annotations

import enum
import itertools
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import traffic as tr
from .metrics import Accumulator, MetricsRecord
from .model import (
    INT64_BOUND,
    LOCAL,
    Association,
    CostModel,
    Devolution,
    QueueState,
    SchedulerParams,
    lyapunov,
)
from .scheduler import GreedyKernel, random_decide, static_decide


class Scheme(enum.Enum):
    GREEDY = "greedy"
    STATIC = "static"
    RANDOM = "random"
    JSQ = "jsq"


@dataclass(frozen=True)
class RunConfig:
    cost: CostModel
    traffic: tr.TrafficConfig
    scheme: Scheme
    params: SchedulerParams
    horizon_slots: int
    run_seed: int = 0
    stride: int = 1
    log_lyapunov: bool = False

    def __post_init__(self):
        if self.horizon_slots < 1:
            raise ValueError("horizon must be at least one slot")
        if self.stride < 1:
            raise ValueError("stride must be positive")
        if self.cost.n_switches != self.traffic.n_switches \
                or self.cost.n_controllers != self.traffic.n_controllers:
            raise ValueError("cost model and traffic config sizes disagree")


@dataclass
class RunState:
    t: int
    queues: QueueState
    arrival_state: tr.ArrivalState
    acc: Accumulator = field(default_factory=Accumulator)


def apply_slot(queues: QueueState, assoc: Association, arrivals,
               ctrl_service, switch_service, cost: CostModel):
    """Price a forced association and advance the queues one slot.

    Returns (next_queues, f_slot, g_slot), equal to slot_comm_cost,
    slot_comp_cost and step_switch_queue / step_controller_queue applied
    switch by switch. Pure; used both by the run loop and by tests that
    force a specific association.

    The slot is priced on integer arrays: f = W[i, target_i] . A, where
    W has a zero column for LOCAL, and g = (d*alpha) . A_local / d. It
    runs in int64 while n * weight * max(A) + max(Q, service) < 2**62,
    so no sum can wrap, and on object arrays of Python ints past that
    bound.
    """
    tables = cost.tables
    n_s, n_c = len(arrivals), len(queues.q_c)
    values = (arrivals, queues.q_s, switch_service, queues.q_c, ctrl_service)
    try:
        v = np.fromiter(itertools.chain(*values), np.int64)
        top = int(v[:n_s].max(initial=0)) * n_s * tables.weight \
            + int(v[n_s:].max(initial=0))
        fits = tables.w_int64 is not None and top < INT64_BOUND
    except OverflowError:
        fits = False
    if fits:
        w, scaled_alpha = tables.w_int64, tables.scaled_alpha_int64
    else:
        w, scaled_alpha = tables.w, tables.scaled_alpha
        v = np.array(list(itertools.chain(*values)), dtype=object)
    a, q_s, s_s = v[:n_s], v[n_s:2 * n_s], v[2 * n_s:3 * n_s]
    q_c, s_c = v[3 * n_s:3 * n_s + n_c], v[3 * n_s + n_c:]
    target = np.asarray(assoc.target, np.intp)
    a_local = a * (target == LOCAL)
    f_slot = int(np.dot(w[tables.rows, target], a))
    g_slot = Fraction(int(np.dot(scaled_alpha, a_local)), tables.scale)
    # the LOCAL target (-1) scatters into a spare last entry
    routed_in = np.zeros(n_c + 1, v.dtype)
    np.add.at(routed_in, target, a)
    next_q = QueueState(
        q_s=tuple(np.maximum(q_s + a_local - s_s, 0).tolist()),
        q_c=tuple(np.maximum(q_c + routed_in[:n_c] - s_c, 0).tolist()))
    return next_q, f_slot, g_slot


def decision_rule(cfg: RunConfig):
    """The run's per-slot decision rule, chosen once: a callable from the
    pre-slot queue snapshot to an Association."""
    if cfg.scheme is Scheme.STATIC:
        static = static_decide(cfg.cost)
        return lambda queues: static
    if cfg.scheme is Scheme.RANDOM:
        rng = random.Random(cfg.run_seed)
        n_s, n_c = cfg.cost.n_switches, cfg.cost.n_controllers
        return lambda queues: random_decide(n_s, n_c, rng)
    # JSQ is the devolution-off argmin at v = 0
    params = cfg.params if cfg.scheme is Scheme.GREEDY \
        else SchedulerParams(v=0, devolution=Devolution.OFF)
    kernel = GreedyKernel(cfg.cost, params)
    return lambda queues: kernel.decide(queues.q_s, queues.q_c)


def init_state(cfg: RunConfig) -> RunState:
    return RunState(
        t=0,
        queues=QueueState.zeros(cfg.cost.n_switches, cfg.cost.n_controllers),
        arrival_state=tr.ArrivalState(cfg.traffic),
    )


def step(state: RunState, cfg: RunConfig, decide, services,
         keep: bool) -> MetricsRecord | None:
    """Advance one slot: arrivals, snapshot decision, costs, queue
    updates, running sums. Returns the slot's record when keep is set."""
    ctrl_service, switch_service = services
    arrivals = tr.sample_slot_arrivals(state.arrival_state)
    snapshot = state.queues
    assoc = decide(snapshot)
    next_q, f_slot, g_slot = apply_slot(
        snapshot, assoc, arrivals, ctrl_service, switch_service, cfg.cost)
    state.queues = next_q
    state.t += 1
    state.acc.update(f_slot, g_slot, next_q.total())
    if not keep:
        return None
    lyap = drift = None
    if cfg.log_lyapunov:
        lyap = lyapunov(snapshot)
        drift = lyapunov(next_q) - lyap + cfg.params.v * (f_slot + g_slot)
    return state.acc.record(f_slot, g_slot, next_q, assoc.uploads(),
                            assoc.locals_(), lyap, drift)


@dataclass(frozen=True)
class RunResult:
    records: list[MetricsRecord]
    final: MetricsRecord
    mean_backlog: Fraction


def run(cfg: RunConfig) -> RunResult:
    """Execute the full horizon; keep one record per stride plus the
    final slot. Deterministic given (config, seeds)."""
    state = init_state(cfg)
    decide = decision_rule(cfg)
    services = tr.sample_slot_services(cfg.traffic)
    last = cfg.horizon_slots - 1
    records = []
    for t in range(cfg.horizon_slots):
        rec = step(state, cfg, decide, services,
                   keep=t % cfg.stride == 0 or t == last)
        if rec is not None:
            records.append(rec)
    return RunResult(records=records, final=records[-1],
                     mean_backlog=state.acc.mean_backlog())


@dataclass(frozen=True)
class SweepRow:
    v: object
    scheme: Scheme
    run_seed: int
    f_bar: Fraction
    g_bar: Fraction
    total_cost: Fraction
    mean_backlog: Fraction


def sweep(cfg: RunConfig, v_values) -> list[SweepRow]:
    """One run per V with identical seeds (common random numbers). A row
    reads only the final record and the mean backlog, so each run keeps
    records for its first and last slots alone."""
    if not v_values:
        raise ValueError("empty V grid")
    rows = []
    for v in v_values:
        vcfg = replace(cfg, params=replace(cfg.params, v=v),
                       stride=cfg.horizon_slots)
        res = run(vcfg)
        rows.append(SweepRow(
            v=v,
            scheme=cfg.scheme,
            run_seed=cfg.run_seed,
            f_bar=res.final.f_bar,
            g_bar=res.final.g_bar,
            total_cost=res.final.f_bar + res.final.g_bar,
            mean_backlog=res.mean_backlog,
        ))
    return rows


def capacity_check(cfg: RunConfig) -> list[str]:
    """Warn when mean arrivals meet or exceed total service capacity."""
    t = cfg.traffic
    total_in = sum(tr.mean_arrival_rates(t))
    ctrl_cap = t.controller_capacity * t.n_controllers
    switch_cap = t.switch_capacity * t.n_switches
    warnings = []
    devolution_off = (cfg.scheme is Scheme.GREEDY
                      and cfg.params.devolution is Devolution.OFF)
    if devolution_off or cfg.scheme is not Scheme.GREEDY:
        if total_in >= ctrl_cap:
            warnings.append(
                f"supercritical without devolution: mean arrivals "
                f"{float(total_in):.2f}/slot >= controller capacity {ctrl_cap}"
            )
    elif total_in >= ctrl_cap + switch_cap:
        warnings.append(
            f"supercritical: mean arrivals {float(total_in):.2f}/slot >= "
            f"total capacity {ctrl_cap + switch_cap}"
        )
    return warnings
