"""Slot-by-slot simulation loop and run orchestration.

One run is a single-threaded deterministic loop: sample arrivals,
snapshot queues, decide, price the decision, update queues, account.
The slot state stays numpy arrays for the whole run: ArrivalState rows
feed the decision rule and apply_slot directly, and a QueueState is
built only for the records a run keeps. Each run derives one int64
queue limit up front and moves to object arrays of Python ints, for
good, on the slot where a backlog could pass it, so no sum ever wraps.
Sweeps rerun the same configuration over a V grid with common random
numbers.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import traffic as tr
from .metrics import Accumulator, MetricsRecord
from .model import (
    INT64_BOUND,
    LOCAL,
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
    """A run's slot state. The backlogs and services are numpy arrays of
    one dtype: int64 while no backlog exceeds `limit`, object arrays of
    Python ints from the slot on which one could (for the rest of the
    run). `top` bounds every backlog; it grows by `growth` per slot and
    is re-read from the queues only when it passes `limit`."""

    t: int
    q_s: np.ndarray
    q_c: np.ndarray
    ctrl_service: np.ndarray
    switch_service: np.ndarray
    arrival_state: tr.ArrivalState
    limit: int
    growth: int
    top: int = 0
    acc: Accumulator = field(default_factory=Accumulator)

    @property
    def queues(self) -> QueueState:
        return QueueState(q_s=tuple(self.q_s.tolist()),
                          q_c=tuple(self.q_c.tolist()))

    def widen(self) -> None:
        """Move the run onto object arrays of Python ints."""
        self.q_s, self.q_c = self.q_s.astype(object), self.q_c.astype(object)
        self.ctrl_service = self.ctrl_service.astype(object)
        self.switch_service = self.switch_service.astype(object)


def int64_queue_limit(cost: CostModel, a_cap: int, service_top: int,
                      decide_top: int) -> int:
    """Largest backlog at which a slot can run on int64 arrays; negative
    when none can.

    With every arrival at most a_cap and every backlog at most the
    limit, apply_slot's sums stay below 2**62: the prices
    n*weight*a_cap + backlog, the slot-end backlogs, and their total over
    all queues. `decide_top` is the largest backlog the decision rule
    takes on int64 (GreedyKernel.int64_top).
    """
    tables = cost.tables
    n_s = cost.n_switches
    if tables.w_int64 is None or service_top >= INT64_BOUND:
        return -1
    growth = n_s * a_cap
    return min(INT64_BOUND - 1 - n_s * tables.weight * a_cap,
               (INT64_BOUND - 1) // (n_s + cost.n_controllers) - growth,
               decide_top)


def apply_slot(q_s: np.ndarray, q_c: np.ndarray, target: np.ndarray,
               arrivals: np.ndarray, ctrl_service: np.ndarray,
               switch_service: np.ndarray, cost: CostModel):
    """Price a forced association and advance the queues one slot.

    Returns (next_q_s, next_q_c, f_slot, g_slot), equal to
    slot_comm_cost, slot_comp_cost and step_switch_queue /
    step_controller_queue applied switch by switch. The arrays share one
    dtype: int64, with every value within int64_queue_limit, or object
    arrays of Python ints; `target` is an intp array with LOCAL for -1.
    Pure; used both by the run loop and by tests that force a specific
    association.

    The slot is priced on integer arrays: f = W[i, target_i] . A, where
    W has a zero column for LOCAL, and g = (d*alpha) . A_local / d.
    """
    tables = cost.tables
    if q_s.dtype == object:
        w, scaled_alpha = tables.w, tables.scaled_alpha
    else:
        w, scaled_alpha = tables.w_int64, tables.scaled_alpha_int64
    a_local = arrivals * (target == LOCAL)
    f_slot = int(np.dot(w[tables.rows, target], arrivals))
    g_slot = Fraction(int(np.dot(scaled_alpha, a_local)), tables.scale)
    # the LOCAL target (-1) scatters into a spare last entry
    routed_in = np.zeros(len(q_c) + 1, q_c.dtype)
    np.add.at(routed_in, target, arrivals)
    return (np.maximum(q_s + a_local - switch_service, 0),
            np.maximum(q_c + routed_in[:-1] - ctrl_service, 0),
            f_slot, g_slot)


def decision_rule(cfg: RunConfig):
    """The run's per-slot decision rule, chosen once: returns
    (decide, top), where decide maps the pre-slot backlog arrays (q_s,
    q_c) to the target array, and top is the largest backlog it takes on
    int64 arrays."""
    if cfg.scheme is Scheme.STATIC:
        static = np.array(static_decide(cfg.cost).target, np.intp)
        return (lambda q_s, q_c: static), INT64_BOUND
    if cfg.scheme is Scheme.RANDOM:
        rng = random.Random(cfg.run_seed)
        n_s, n_c = cfg.cost.n_switches, cfg.cost.n_controllers
        return (lambda q_s, q_c: random_decide(n_s, n_c, rng)), INT64_BOUND
    # JSQ is the devolution-off argmin at v = 0
    params = cfg.params if cfg.scheme is Scheme.GREEDY \
        else SchedulerParams(v=0, devolution=Devolution.OFF)
    kernel = GreedyKernel(cfg.cost, params)
    return kernel.decide, kernel.int64_top


def init_state(cfg: RunConfig, decide_top: int) -> RunState:
    """Zero backlogs, and the run's int64 queue limit for a decision rule
    that takes backlogs up to decide_top; a run whose limit is negative
    starts on object arrays."""
    t, n_s, n_c = cfg.traffic, cfg.cost.n_switches, cfg.cost.n_controllers
    a_cap = min(t.a_max, 2 ** 63 - 1)
    limit = int64_queue_limit(
        cfg.cost, a_cap, max(t.controller_capacity, t.switch_capacity),
        decide_top)
    dtype = np.int64 if limit >= 0 else object
    return RunState(
        t=0,
        q_s=np.zeros(n_s, dtype),
        q_c=np.zeros(n_c, dtype),
        ctrl_service=np.full(n_c, t.controller_capacity, dtype),
        switch_service=np.full(n_s, t.switch_capacity, dtype),
        arrival_state=tr.ArrivalState(t),
        limit=limit,
        growth=n_s * a_cap,
    )


def step(state: RunState, cfg: RunConfig, decide,
         keep: bool) -> MetricsRecord | None:
    """Advance one slot: arrivals, snapshot decision, costs, queue
    updates, running sums. Returns the slot's record when keep is set."""
    if state.top > state.limit and state.q_s.dtype != object:
        state.top = max(int(state.q_s.max(initial=0)),
                        int(state.q_c.max(initial=0)))
        if state.top > state.limit:
            state.widen()
    arrivals = state.arrival_state.next_row()
    if state.q_s.dtype == object:
        arrivals = arrivals.astype(object)
    q_s, q_c = state.q_s, state.q_c
    target = decide(q_s, q_c)
    state.q_s, state.q_c, f_slot, g_slot = apply_slot(
        q_s, q_c, target, arrivals, state.ctrl_service, state.switch_service,
        cfg.cost)
    state.top += state.growth
    state.t += 1
    state.acc.update(f_slot, g_slot,
                     int(state.q_s.sum()) + int(state.q_c.sum()))
    if not keep:
        return None
    next_q = state.queues
    locals_ = int(np.count_nonzero(target == LOCAL))
    lyap = drift = None
    if cfg.log_lyapunov:
        lyap = lyapunov(QueueState(q_s=tuple(q_s.tolist()),
                                   q_c=tuple(q_c.tolist())))
        drift = lyapunov(next_q) - lyap + cfg.params.v * (f_slot + g_slot)
    return state.acc.record(f_slot, g_slot, next_q, len(target) - locals_,
                            locals_, lyap, drift)


@dataclass(frozen=True)
class RunResult:
    records: list[MetricsRecord]
    final: MetricsRecord
    mean_backlog: Fraction


def run(cfg: RunConfig) -> RunResult:
    """Execute the full horizon; keep one record per stride plus the
    final slot. Deterministic given (config, seeds)."""
    decide, decide_top = decision_rule(cfg)
    state = init_state(cfg, decide_top)
    last = cfg.horizon_slots - 1
    records = []
    for t in range(cfg.horizon_slots):
        rec = step(state, cfg, decide, keep=t % cfg.stride == 0 or t == last)
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
