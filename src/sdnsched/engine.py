"""Slot-by-slot simulation loop and run orchestration.

Runs advance in lock step as lanes, one row per run of the (L x n)
slot arrays: each slot samples arrivals, snapshots queues, decides,
prices the decision, updates queues and accounts for every lane at
once. A `run` is the one-lane case of `run_lanes`, and a sweep or a
CLI `sweep`/`compare` command is one run_lanes call over every
(config, V) pair. Lanes with the same traffic config read one
ArrivalState row per slot (common random numbers, each draw made once);
greedy and JSQ lanes share one argmin, and pricing is one gather and
one scatter for all lanes. A QueueState is built only for the records
a lane keeps. Each lane derives one int64 queue limit up front; a lane
group moves to object arrays of Python ints, for good, on the slot
where one of its backlogs could pass its lane's limit, so no sum ever
wraps, and lanes that cannot start on int64 run in a group of their
own.
"""

from __future__ import annotations

import enum
import math
import operator
import random
from dataclasses import dataclass, field, replace
from fractions import Fraction

import numpy as np

from . import traffic as tr
from .metrics import MetricsRecord, controller_variance
from .model import (
    INT64_BOUND,
    LOCAL,
    CostModel,
    Devolution,
    QueueState,
    SchedulerParams,
    lyapunov,
)
from .scheduler import (
    GreedyKernel,
    lane_argmin,
    random_decide,
    static_decide,
)


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


class LaneRule:
    """The decision rule of lanes that decide together: maps the pre-slot
    backlogs (L x n_s, L x n_c) to the targets (L x n_s), one row per
    lane; a one-lane rule also maps 1-D backlogs to a 1-D target.

    The lanes come in `lane_order`: greedy lanes with devolution on, then
    the other argmin lanes (greedy with devolution off, and JSQ, the
    devolution-off argmin at v = 0), which all decide in one
    lane_argmin call over their stacked K matrices; then Static lanes,
    a fixed target row each; then Random lanes, each drawing from its
    own random.Random(run_seed) as a separate run would.
    """

    def __init__(self, cfgs, kernels):
        cost = cfgs[0].cost
        self.n_s, self.n_c = cost.n_switches, cost.n_controllers
        argmin = [k for k in kernels if k is not None]
        self.n_argmin = len(argmin)
        self.n_devolve = sum(k.devolve for k in argmin)
        scales = [[k.scale] for k in argmin]
        self.k_object = np.stack([k.k_object for k in argmin]) \
            if argmin else None
        self.scale_object = np.array(scales, object)
        # the int64 tables exist when every lane has them
        fits = all(k.k_int64 is not None for k in argmin)
        self.k_int64 = np.stack([k.k_int64 for k in argmin]) \
            if argmin and fits else None
        self.scale_int64 = np.array(scales, np.int64) if fits else None
        self.template = np.empty((len(cfgs), self.n_s), np.intp)
        if any(cfg.scheme is Scheme.STATIC for cfg in cfgs):
            self.template[:] = static_decide(cost).target
        self.rngs = [random.Random(cfg.run_seed) for cfg in cfgs
                     if cfg.scheme is Scheme.RANDOM]

    def decide(self, q_s: np.ndarray, q_c: np.ndarray) -> np.ndarray:
        if q_s.ndim == 1:
            return self.decide(q_s[None], q_c[None])[0]
        if q_s.dtype == object:
            k, scale = self.k_object, self.scale_object
        else:
            k, scale = self.k_int64, self.scale_int64
        n = self.n_argmin
        if n == len(self.template):
            return lane_argmin(k, scale, q_s, q_c, self.n_devolve)
        target = self.template.copy()
        if n:
            target[:n] = lane_argmin(k, scale, q_s[:n], q_c[:n],
                                     self.n_devolve)
        for row, rng in zip(target[len(target) - len(self.rngs):],
                            self.rngs):
            row[:] = random_decide(self.n_s, self.n_c, rng)
        return target


def lane_order(cfg: RunConfig) -> int:
    """A lane's place in a LaneRule: argmin lanes that devolve, other
    argmin lanes, Static lanes, Random lanes."""
    if cfg.scheme is Scheme.GREEDY:
        return 0 if cfg.params.devolution is Devolution.ON else 1
    return {Scheme.JSQ: 1, Scheme.STATIC: 2, Scheme.RANDOM: 3}[cfg.scheme]


def lane_kernel(cfg: RunConfig) -> GreedyKernel | None:
    """The GreedyKernel of an argmin lane (greedy or JSQ); None for
    Static and Random lanes, which take any backlog on int64."""
    if cfg.scheme in (Scheme.STATIC, Scheme.RANDOM):
        return None
    # JSQ is the devolution-off argmin at v = 0
    params = cfg.params if cfg.scheme is Scheme.GREEDY \
        else SchedulerParams(v=0, devolution=Devolution.OFF)
    return GreedyKernel(cfg.cost, params)


def decision_rule(cfg: RunConfig):
    """One run's decision rule, chosen once: returns (decide, top), where
    decide maps the pre-slot backlog arrays (q_s, q_c) to the target
    array, and top is the largest backlog it takes on int64 arrays."""
    kernel = lane_kernel(cfg)
    return LaneRule([cfg], [kernel]).decide, \
        INT64_BOUND if kernel is None else kernel.int64_top


def int64_queue_limit(cost: CostModel, a_cap: int, service_top: int,
                      decide_top: int) -> int:
    """Largest backlog at which a slot can run on int64 arrays; negative
    when none can.

    With every arrival at most a_cap and every backlog at most the
    limit, apply_lanes' sums stay below 2**62: the prices
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


def lane_limit(cfg: RunConfig, decide_top: int) -> tuple[int, int]:
    """A lane's (int64 queue limit, growth): no backlog grows by more
    than `growth` in a slot."""
    t = cfg.traffic
    a_cap = min(t.a_max, 2 ** 63 - 1)
    return (int64_queue_limit(cfg.cost, a_cap,
                              max(t.controller_capacity, t.switch_capacity),
                              decide_top),
            cfg.cost.n_switches * a_cap)


def _slots_within(limits, tops, growths):
    """Slots that every lane can run before its backlog bound, grown by
    its growth per slot, could pass its limit."""
    return min(((lim - top) // g + 1 if g else math.inf
                for lim, top, g in zip(limits, tops, growths)),
               default=math.inf)


@dataclass
class RunState:
    """The slot state of lanes that advance in lock step, one row per
    lane: the backlogs q (L x (n_s + n_c)), each lane's switch queues
    then its controller queues, their services, and each lane's exact
    running sums of f, d*g (d = CostTables.scale) and the total backlog,
    as Python ints.

    The arrays share one dtype: int64 while no lane's backlog could pass
    that lane's int64 queue limit, object arrays of Python ints, for
    every lane and for good, from the slot on which one could. Lane l's
    backlogs grow by at most `growth[l]` per slot, so the maxima are
    re-read only on slot `check_at`, when some lane's bound could first
    pass its limit.

    `rows[l]` is the index of lane l's arrival row among the rows a slot
    is given (`shared_row` when every lane reads the same one);
    `arrival_state` is the arrival source of a state stepped with
    `step`.
    """

    t: int
    cfgs: list[RunConfig]
    q: np.ndarray
    service: np.ndarray
    limit: list[int]
    growth: list[int]
    rows: list[int]
    check_at: float = math.inf
    shared_row: int | None = None
    f_sum: list[int] = field(default_factory=list)
    dg_sum: list[int] = field(default_factory=list)
    backlog_sum: list[int] = field(default_factory=list)
    arrival_state: tr.ArrivalState | None = None

    @classmethod
    def start(cls, cfgs, limits, rows) -> "RunState":
        """Zero backlogs for lanes with these (limit, growth) pairs; on
        object arrays when a lane's limit is negative."""
        n = len(cfgs)
        limit, growth = (list(x) for x in zip(*limits))
        dtype = np.int64 if min(limit) >= 0 else object
        cost = cfgs[0].cost
        service = [[cfg.traffic.switch_capacity] * cost.n_switches
                   + [cfg.traffic.controller_capacity] * cost.n_controllers
                   for cfg in cfgs]
        return cls(
            t=0, cfgs=list(cfgs),
            q=np.zeros((n, cost.n_switches + cost.n_controllers), dtype),
            service=np.array(service, dtype),
            limit=limit, growth=growth, rows=list(rows),
            shared_row=rows[0] if len(set(rows)) == 1 else None,
            check_at=_slots_within(limit, [0] * n, growth)
            if dtype is np.int64 else math.inf,
            f_sum=[0] * n, dg_sum=[0] * n, backlog_sum=[0] * n)

    def lane_queues(self, lane: int, q=None) -> QueueState:
        """Lane `lane`'s queues, in this state or in backlogs `q`."""
        row = (self.q if q is None else q)[lane].tolist()
        n_s = self.cfgs[0].cost.n_switches
        return QueueState(q_s=tuple(row[:n_s]), q_c=tuple(row[n_s:]))

    @property
    def queues(self) -> QueueState:
        """A one-lane state's queues."""
        return self.lane_queues(0)

    def check_limits(self) -> None:
        """Re-read every lane's largest backlog: widen when one is past
        its lane's limit, else set the next check."""
        tops = self.q.max(1, initial=0).tolist()
        if any(top > lim for top, lim in zip(tops, self.limit)):
            self.widen()
        else:
            self.check_at = self.t + _slots_within(self.limit, tops,
                                                   self.growth)

    def widen(self) -> None:
        """Move every lane onto object arrays of Python ints."""
        self.q = self.q.astype(object)
        self.service = self.service.astype(object)
        self.check_at = math.inf


def init_state(cfg: RunConfig, decide_top: int) -> RunState:
    """A one-lane state with its own arrival source: zero backlogs, and
    the run's int64 queue limit for a decision rule that takes backlogs
    up to decide_top; a run whose limit is negative starts on object
    arrays."""
    state = RunState.start([cfg], [lane_limit(cfg, decide_top)], [0])
    state.arrival_state = tr.ArrivalState(cfg.traffic)
    return state


def apply_lanes(q: np.ndarray, target: np.ndarray, arrivals: np.ndarray,
                service: np.ndarray, cost: CostModel):
    """Price L lanes' forced associations and advance their queues one
    slot, one row per lane: q and service are (L x (n_s + n_c)) arrays,
    each lane's switch queues then its controller queues; `target` is
    (L x n_s); `arrivals` is (L x n_s) or one row that every lane
    shares.

    Returns (next_q, f, dg): f and dg = d*g are arrays of each lane's
    slot costs. A lane's slot is priced on integer arrays:
    f = W[i, target_i] . A, where W is 0 for LOCAL, and
    d*g = (d*alpha) . A_local. Each switch's arrivals join one queue
    (CostTables.joins), so the inflow of every queue of every lane is one
    scatter, whose switch part is A_local.
    """
    tables = cost.tables
    if q.dtype == object:
        w, scaled_alpha = tables.w, tables.scaled_alpha
    else:
        w, scaled_alpha = tables.w_int64, tables.scaled_alpha_int64
    lanes, width = q.shape
    cells = target + tables.cells
    joins = tables.joins.take(cells)
    counts = arrivals.ravel()
    if lanes > 1:
        # lane l's queue k is entry l*width + k of the flat inflow
        joins += np.arange(0, lanes * width, width)[:, None]
        if arrivals.ndim == 1:
            counts = arrivals[None].repeat(lanes, 0).ravel()
    inflow = np.zeros((lanes, width), q.dtype)
    np.add.at(inflow.ravel(), joins.ravel(), counts)
    f = np.vecdot(w.take(cells), arrivals)
    dg = inflow[:, :cost.n_switches].dot(scaled_alpha)
    return np.maximum(q + inflow - service, 0), f, dg


def apply_slot(q_s: np.ndarray, q_c: np.ndarray, target: np.ndarray,
               arrivals: np.ndarray, ctrl_service: np.ndarray,
               switch_service: np.ndarray, cost: CostModel):
    """Price a forced association and advance the queues one slot: the
    one-lane apply_lanes.

    Returns (next_q_s, next_q_c, f_slot, g_slot), equal to
    slot_comm_cost, slot_comp_cost and step_switch_queue /
    step_controller_queue applied switch by switch. The arrays share one
    dtype: int64, with every value within int64_queue_limit, or object
    arrays of Python ints; `target` is an intp array with LOCAL for -1.
    Pure; used by tests that force a specific association.
    """
    q, f, dg = apply_lanes(np.concatenate((q_s, q_c))[None], target[None],
                           arrivals, np.concatenate((switch_service,
                                                     ctrl_service)), cost)
    n_s = cost.n_switches
    return q[0, :n_s], q[0, n_s:], int(f[0]), \
        Fraction(int(dg[0]), cost.tables.scale)


def advance(state: RunState, decide, rows, keep) -> list:
    """Advance every lane one slot: arrivals (lane l reads
    rows[state.rows[l]]), snapshot decision, costs, queue updates,
    running sums. Returns (lane, record) for each lane index in keep."""
    if state.t >= state.check_at:
        state.check_limits()
    if state.shared_row is not None:
        arrivals = rows[state.shared_row]
    else:
        arrivals = np.stack([rows[i] for i in state.rows])
    if state.q.dtype == object:
        arrivals = arrivals.astype(object)
    cost = state.cfgs[0].cost
    n_s = cost.n_switches
    q = state.q
    target = decide(q[:, :n_s], q[:, n_s:])
    state.q, f, dg = apply_lanes(q, target, arrivals, state.service, cost)
    backlog = state.q.sum(1).tolist()
    f, dg = f.tolist(), dg.tolist()
    state.f_sum = list(map(operator.add, state.f_sum, f))
    state.dg_sum = list(map(operator.add, state.dg_sum, dg))
    state.backlog_sum = list(map(operator.add, state.backlog_sum, backlog))
    t = state.t
    state.t += 1
    if not keep:
        return []
    d = cost.tables.scale
    locals_ = (target == LOCAL).sum(1).tolist()
    kept = []
    for lane in keep:
        cfg = state.cfgs[lane]
        next_q = state.lane_queues(lane)
        g_slot = Fraction(dg[lane], d)
        lyap = drift = None
        if cfg.log_lyapunov:
            lyap = lyapunov(state.lane_queues(lane, q))
            drift = lyapunov(next_q) - lyap \
                + cfg.params.v * (f[lane] + g_slot)
        kept.append((lane, MetricsRecord(
            t=t,
            f_slot=f[lane],
            g_slot=g_slot,
            f_bar=Fraction(state.f_sum[lane], t + 1),
            g_bar=Fraction(state.dg_sum[lane], d * (t + 1)),
            total_backlog=backlog[lane],
            controller_backlog_variance=controller_variance(next_q.q_c),
            uploads=n_s - locals_[lane],
            locals_=locals_[lane],
            lyapunov=lyap,
            drift_penalty_sample=drift,
        )))
    return kept


def step(state: RunState, cfg: RunConfig, decide,
         keep: bool) -> MetricsRecord | None:
    """Advance a one-lane state (init_state, whose lane is `cfg`) one
    slot on its own arrival source. Returns the slot's record when keep
    is set."""
    kept = advance(state, decide, [state.arrival_state.next_row()],
                   [0] if keep else [])
    return kept[0][1] if kept else None


@dataclass(frozen=True)
class RunResult:
    records: list[MetricsRecord]
    final: MetricsRecord
    mean_backlog: Fraction


def run_lanes(cfgs) -> list[RunResult]:
    """Run every config in lock step, one lane each, and return what a
    separate `run` of each returns, in the given order.

    The lanes share one cost model and one horizon. Lanes with the same
    traffic config read one ArrivalState row per slot, so their arrivals
    are drawn once (common random numbers). Lanes whose int64 queue
    limit is negative from the start form an object group of their own,
    so the others stay on int64; each group decides in one LaneRule call
    and prices in one apply_lanes call per slot. Each lane keeps one
    record per its stride plus the final slot.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    first = cfgs[0]
    if any(c.cost != first.cost or c.horizon_slots != first.horizon_slots
           for c in cfgs):
        raise ValueError("lanes must share one cost model and one horizon")
    sources = {}
    for cfg in cfgs:
        sources.setdefault(cfg.traffic, len(sources))
    arrival_states = [tr.ArrivalState(t) for t in sources]
    kernels = [lane_kernel(cfg) for cfg in cfgs]
    limits = [lane_limit(cfg, INT64_BOUND if k is None else k.int64_top)
              for cfg, k in zip(cfgs, kernels)]
    groups = []
    for wide in (False, True):
        lanes = sorted((i for i, (limit, _) in enumerate(limits)
                        if (limit < 0) == wide),
                       key=lambda i: lane_order(cfgs[i]))
        if not lanes:
            continue
        members = [cfgs[i] for i in lanes]
        strides = {}
        for pos, cfg in enumerate(members):
            strides.setdefault(cfg.stride, []).append(pos)
        groups.append((lanes, tuple(strides.items()),
                       LaneRule(members, [kernels[i] for i in lanes]),
                       RunState.start(members, [limits[i] for i in lanes],
                                      [sources[c.traffic] for c in members])))
    records = [[] for _ in cfgs]
    last = first.horizon_slots - 1
    for t in range(first.horizon_slots):
        rows = [a.next_row() for a in arrival_states]
        for lanes, strides, rule, state in groups:
            keep = [pos for stride, at in strides
                    if t % stride == 0 or t == last for pos in at]
            for pos, rec in advance(state, rule.decide, rows, keep):
                records[lanes[pos]].append(rec)
    results = [None] * len(cfgs)
    for lanes, _, _, state in groups:
        for pos, lane in enumerate(lanes):
            results[lane] = RunResult(
                records=records[lane], final=records[lane][-1],
                mean_backlog=Fraction(state.backlog_sum[pos], state.t))
    return results


def run(cfg: RunConfig) -> RunResult:
    """Execute the full horizon: the one-lane run_lanes. Keeps one record
    per stride plus the final slot. Deterministic given (config,
    seeds)."""
    return run_lanes([cfg])[0]


@dataclass(frozen=True)
class SweepRow:
    v: object
    scheme: Scheme
    run_seed: int
    f_bar: Fraction
    g_bar: Fraction
    total_cost: Fraction
    mean_backlog: Fraction


def sweep(cfg, v_values) -> list[SweepRow]:
    """One row per (config, V), config by config in grid order: `cfg` is
    one RunConfig or a sequence of them, and every (config, V) pair is a
    lane of one run_lanes call, so lanes with the same traffic config
    share their arrivals (common random numbers). A row reads only the
    final record and the mean backlog, so each lane keeps records for its
    first and last slots alone."""
    if not v_values:
        raise ValueError("empty V grid")
    cfgs = [cfg] if isinstance(cfg, RunConfig) else cfg
    lanes = [replace(c, params=replace(c.params, v=v),
                     stride=c.horizon_slots)
             for c in cfgs for v in v_values]
    return [SweepRow(
        v=lane.params.v,
        scheme=lane.scheme,
        run_seed=lane.run_seed,
        f_bar=res.final.f_bar,
        g_bar=res.final.g_bar,
        total_cost=res.final.f_bar + res.final.g_bar,
        mean_backlog=res.mean_backlog,
    ) for lane, res in zip(lanes, run_lanes(lanes))]


def capacity_check(cfg: RunConfig) -> list[str]:
    """Warn when mean arrivals meet or exceed total service capacity, and
    when a_max caps a fixed (hot-spot or constant) rate."""
    t = cfg.traffic
    total_in = sum(tr.mean_arrival_rates(t))
    ctrl_cap = t.controller_capacity * t.n_controllers
    switch_cap = t.switch_capacity * t.n_switches
    warnings = tr.cap_warnings(t)
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
