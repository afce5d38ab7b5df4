"""Slot-by-slot simulation loop and run orchestration.

Runs advance in lock step as lanes of one LaneGroup, one row per run of
the (L x n) slot arrays. Each slot samples arrivals, decides, prices the
decision and updates the queues (apply_slot), and accounts for every
lane at once (metrics.Accumulator). LaneGroup.advance is the one slot
loop, which binds the group's tables to locals once and calls decide,
apply_slot and Accumulator.update once per slot. A `run` is the one-lane
case of `run_lanes`, and a sweep or a CLI `sweep`/`compare` command is
one run_lanes call over every (config, V) pair. Lanes with the same
traffic config read one ArrivalState row per slot (common random
numbers, each draw made once). LaneGroup.decide decides every scheme:
greedy and JSQ lanes in one argmin over the group's own tables, Static
lanes by a row built once, Random lanes from blocks of MT19937 draws;
pricing is one gather and one scatter for all lanes. The lanes share
one keep policy, a stride and a Lyapunov flag: a slot the group keeps
adds one row of exact ints per lane to the Accumulator; a run returns
those rows, and the CLI formats its CSV from the ints and its summary,
and a sweep's rows, from RunResult.means.

A LaneGroup holds its lanes' queues, services, decision and pricing
tables in one dtype. int64_queue_limit alone decides whether a lane may
run on int64, by giving it a queue limit up front; the group starts on
object arrays of Python ints when any lane's limit is negative, and
otherwise moves to them, for good, after the slot on which one lane's
total backlog passes its limit, so no sum ever wraps; a countdown from
each lane's headroom skips the checks that cannot find it passed.
"""

from __future__ import annotations

import enum
import math
import operator
import random
import sys
from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import traffic as tr
from .metrics import Accumulator
from .model import (
    LOCAL,
    CostModel,
    Devolution,
    Rational,
    SchedulerParams,
)

RANDOM_BLOCK = 16  # slots of Random-lane targets drawn per random_decide call


def mt19937_of(rng: random.Random) -> np.random.MT19937:
    """A numpy MT19937 in rng's state: its random_raw() words are the
    32-bit words rng's getrandbits(32) would return next. rng's 624-word
    key and its position are copied once; rng itself is not advanced."""
    _, state, _ = rng.getstate()
    bits = np.random.MT19937()
    bits.state = {"bit_generator": "MT19937",
                  "state": {"key": np.array(state[:624], np.uint32),
                            "pos": state[624]}}
    return bits


def random_decide(n_switches: int, n_controllers: int,
                  bits: np.random.MT19937) -> np.ndarray:
    """Uniform random controllers, one per switch: the target array.

    With bits = mt19937_of(rng), the values, and the state bits is left
    in, equal those of
    `[rng.randrange(n_controllers) for _ in range(n_switches)]`.
    randrange(n) takes the top k = n.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while the value is >= n, so one
    random_raw call draws every word, and each redraw draws only the
    shortfall. Called with n_switches = B*n_s, it draws B slots of n_s
    switches at once, slot after slot.
    """
    if not 1 <= n_controllers < 2 ** 32:
        raise ValueError("need between 1 and 2**32 - 1 controllers")
    shift = 32 - n_controllers.bit_length()
    parts, need = [], n_switches
    while need:
        words = bits.random_raw(need) >> shift
        parts.append(np.compress(words < n_controllers, words))
        need -= len(parts[-1])
    return np.concatenate(parts, dtype=np.intp) if parts \
        else np.zeros(0, np.intp)


#: Integer arrays stay in int64 while every sum is below this bound.
INT64_BOUND = 2 ** 62


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


def argmin_rule(cfg: RunConfig) -> tuple[Fraction, bool] | None:
    """The argmin a lane decides by (LaneGroup.decide), as its V and
    whether it devolves, or None for a Static or Random lane: a greedy
    lane takes its own V and devolution, and JSQ is the devolution-off
    argmin at V = 0."""
    if cfg.scheme is Scheme.GREEDY:
        return Fraction(cfg.params.v), cfg.params.devolution is Devolution.ON
    if cfg.scheme is Scheme.JSQ:
        return Fraction(0), False
    return None


def lane_order(cfg: RunConfig) -> int:
    """A lane's place in a LaneGroup: argmin lanes that devolve, other
    argmin lanes, Static lanes, Random lanes."""
    rule = argmin_rule(cfg)
    if rule is not None:
        return 0 if rule[1] else 1
    return 2 if cfg.scheme is Scheme.STATIC else 3


def int64_queue_limit(cfg: RunConfig) -> int:
    """Largest backlog at which a lane's slot can run on int64 arrays;
    negative when none can.

    With every arrival at most a_max and every backlog at most the
    limit, apply_slot's sums stay below INT64_BOUND: the prices
    n_s*weight*a_max + backlog, the slot-end backlogs, and their total
    over all queues; so do, for a lane with an argmin_rule V = p/q,
    LaneGroup.decide's sums max|K| + scale*backlog, where max|K| =
    p*max|gap| and scale = q*d (CostTables.gap and its scale d). Services
    need no term: TrafficConfig caps them at MAX_CAPACITY.
    """
    cost, a_max = cfg.cost, cfg.traffic.a_max
    tables, n_s = cost.tables, cost.n_switches
    limit = min(INT64_BOUND - 1 - n_s * tables.weight * a_max,
                (INT64_BOUND - 1) // (n_s + cost.n_controllers) - n_s * a_max)
    rule = argmin_rule(cfg)
    if rule is None:
        return limit
    v = rule[0]
    scale = v.denominator * tables.scale
    if scale >= INT64_BOUND:
        return -1
    top = v.numerator * abs(tables.gap).max(initial=0)
    return min(limit, (INT64_BOUND - 1 - top) // scale)


def apply_slot(q: np.ndarray, target: np.ndarray, arrivals: np.ndarray,
               service: np.ndarray, cells: np.ndarray, joins: np.ndarray,
               price: np.ndarray):
    """Price L lanes' forced associations and advance their queues one
    slot, one row per lane: q and service are (L x (n_s + n_c)) arrays,
    each lane's switch queues then its controller queues; `target` and
    `arrivals` are (L x n_s), target an intp array with LOCAL for -1.
    `cells`, `joins` and `price` are a LaneGroup's tables: lane l's
    switch i under target t is cell `cells[l, i] + t`, whose arrivals
    join flat queue `joins[cell]` of q, and whose two prices are
    `price[:, cell]` (CostTables.price, tiled once per lane). q, service,
    arrivals and price share one dtype: int64, with every backlog within
    int64_queue_limit, or object arrays of Python ints.

    Returns (next_q, fdg): fdg is the (2 x L) array whose rows are each
    lane's slot costs f and d*g, equal to reference.slot_comm_cost and
    d * reference.slot_comp_cost, and next_q equals the reference
    step_switch_queue / step_controller_queue applied queue by queue.
    Both prices are one gather and one dot with the arrivals, and the
    queues are one scatter of the arrivals into q - service, clipped at 0.
    """
    cell = target + cells
    fdg = np.vecdot(price.take(cell, 1), arrivals)
    next_q = q - service
    np.add.at(next_q.ravel(), joins.take(cell).ravel(), arrivals.ravel())
    return np.maximum(next_q, 0, out=next_q), fdg


class LaneGroup:
    """Lanes that advance in lock step on one dtype, one row per lane of
    each slot array: the backlogs q (L x (n_s + n_c)), each lane's switch
    queues then its controller queues, and their services; the decision
    tables below; and apply_slot's tables, built once: each lane's cells
    (L x n_s), and the joins and prices of every lane's cells,
    CostTables.joins offset to the lane's row of q and CostTables.price,
    tiled lane by lane. `acc` keeps each lane's exact running sums, and
    the rows of the slots the lanes' one stride keeps.

    `LaneGroup(cfgs, rows)` puts the configs in `lane_order`, and
    `order[l]` is the index in `cfgs` of lane l: the `n_argmin` argmin
    lanes, first the `n_devolve` greedy lanes with devolution on, then
    greedy lanes with devolution off and JSQ lanes; then Static lanes;
    then Random lanes. `rows[i]` is the index of config i's arrival
    source among the sources `advance` is given (`shared_row` when every
    lane reads the same one).

    Argmin lane l, with the V = p/q of its argmin_rule in lowest terms,
    sends switch i to the controller j that minimises the weight
    v*(W - alpha) + Qc_j - Qs_i. With the cost model's integer gap
    d*W[i][j] - d*alpha_i (CostTables.gap, d its scale), that weight
    times q*d is K[i, j] + q*d*(Qc_j - Qs_i), with K = p*gap. K depends
    on switch i only through its gap row, so `k` (n_argmin x classes x
    n_c) holds one row per row class, and `row_class` (n_s, intp), a map
    every lane shares, gives each switch's class. `scale` holds each
    lane's q*d once per queue, in q's shape, so one product scales every
    backlog. `controllers` (n_argmin x classes x n_c, intp) holds the
    flat index in q of lane l's controller j, the same for every class,
    so one take lays the scaled controller backlogs out as k is: `decide`
    takes the argmin over j of M = K[c, j] + q*d*Qc_j once per class c and
    hands it to every switch of the class, numpy's first index on a tie
    being the lowest-index rule. `offsets` (n_argmin x n_s, intp) holds
    (l*classes + row_class[i])*n_c, the flat index of row (l,
    row_class[i]) of M, so one flat take at offsets + target reads each
    switch's minimum. A devolving lane sends switch i LOCAL where that
    minimum exceeds q*d*Qs_i, which is reference.greedy_decide; the other
    argmin lanes never go LOCAL, and since alpha_i is constant along a
    row their argmin is reference.association_only_decide, and at v = 0
    (K = 0) reference.jsq_decide.

    Every Static lane's row of `template` is the argmin of the gap alone,
    ties to the lowest index: with d*alpha_i constant along a row, that
    is reference.static_decide. Each Random lane draws from
    mt19937_of(random.Random(run_seed)), the words a separate run's
    per-slot randrange loop would take, RANDOM_BLOCK slots per call.

    The arrays are int64 while every lane's backlogs are within its int64
    queue limit, and object arrays of Python ints, for every lane and for
    good, from the slot after one lane's total backlog passes its limit:
    backlogs are nonnegative, so a lane's total bounds each of them. A
    lane's total grows by at most `growth` = n_s*a_max (at least 1) a
    slot, since no queue grows by more than its arrivals, so a check
    that finds every lane h or more below its limit skips the next
    h // growth checks (`check_at` is the next slot checked). A group
    with a negative limit starts on object arrays.
    """

    def __init__(self, cfgs, rows):
        cost = cfgs[0].cost
        self.order = sorted(range(len(cfgs)),
                            key=lambda i: lane_order(cfgs[i]))
        self.cfgs = [cfgs[i] for i in self.order]
        n_s, n_c = cost.n_switches, cost.n_controllers
        self.n_s, self.n_c = n_s, n_c
        tables = cost.tables
        # argmin lanes come first in lane order
        argmin = [rule for rule in map(argmin_rule, self.cfgs)
                  if rule is not None]
        limits = [int64_queue_limit(cfg) for cfg in self.cfgs]
        dtype = np.int64 if min(limits) >= 0 else object
        # an object group has no limit to check
        self.limit = limits if dtype is np.int64 else []
        self.growth = [max(1, n_s * cfg.traffic.a_max) for cfg in self.cfgs]
        self.check_at = 0 if self.limit else -1
        self.n_argmin = len(argmin)
        self.n_devolve = sum(devolve for _, devolve in argmin)
        self.k = np.multiply.outer(
            np.array([v.numerator for v, _ in argmin], object),
            tables.gap).astype(dtype)
        lanes, width = len(cfgs), n_s + n_c
        self.row_class = tables.row_class
        argmin_lane = np.arange(len(argmin))
        self.controllers = np.repeat(
            (argmin_lane[:, None] * width + np.arange(n_s, width))[:, None],
            len(tables.gap), 1)
        self.offsets = (argmin_lane[:, None] * len(tables.gap)
                        + tables.row_class) * n_c
        self.scale = np.array([[v.denominator * tables.scale] * width
                               for v, _ in argmin], object) \
            .reshape(-1, width).astype(dtype)
        lane = np.arange(lanes)[:, None]
        self.cells = tables.cells + lane * (n_s * (n_c + 1))
        self.joins = (tables.joins + lane * width).ravel()
        self.price = np.tile(tables.price.astype(dtype), lanes)
        self.q = np.zeros((lanes, width), dtype)
        self.service = np.array(
            [[cfg.traffic.switch_capacity] * n_s
             + [cfg.traffic.controller_capacity] * n_c for cfg in self.cfgs],
            dtype)
        self.template = np.empty((len(cfgs), n_s), np.intp)
        if any(cfg.scheme is Scheme.STATIC for cfg in cfgs):
            self.template[:] = tables.gap.argmin(1).take(tables.row_class)
        self.bits = [mt19937_of(random.Random(cfg.run_seed))
                     for cfg in self.cfgs if cfg.scheme is Scheme.RANDOM]
        self.random_block = np.empty((len(self.bits), RANDOM_BLOCK * n_s),
                                     np.intp)
        self.decided = 0
        self.rows = [rows[i] for i in self.order]
        self.shared_row = rows[0] if len(set(rows)) == 1 else None
        self.acc = Accumulator(len(cfgs), cost.tables.scale)

    def widen(self) -> None:
        """Move every array onto object arrays of Python ints."""
        self.acc.settle()
        for name in ("q", "service", "k", "scale", "price"):
            setattr(self, name, getattr(self, name).astype(object))
        self.limit = []
        self.check_at = -1

    def decide(self, q: np.ndarray) -> np.ndarray:
        """The targets (L x n_s) for the pre-slot backlogs q
        (L x (n_s + n_c)), one row per lane: the group's next slot of
        decisions. Lanes never mix, so each row is its own lane's decision.

        Random lanes read their slot from `random_block`, which every
        RANDOM_BLOCK calls is refilled with one random_decide call per
        lane; `decided` counts the calls, so the slots follow one another
        whether or not `advance` runs."""
        n, lanes = self.n_argmin, len(self.template)
        scaled = (q if n == lanes else q[:n]) * self.scale
        m = self.k + scaled.take(self.controllers)
        argmin = m.argmin(2).take(self.row_class, 1)
        # a contiguous copy of the switch backlogs compares faster than
        # the strided view at desk-sweep's shapes (5 lanes x 20 switches)
        local = m.take(self.offsets + argmin) > scaled[:, :self.n_s].copy()
        if self.n_devolve < n:
            local[self.n_devolve:] = False
        np.putmask(argmin, local, LOCAL)
        # an all-argmin group skips the template copy: about 4% of a
        # desk-sweep slot
        if n == lanes:
            return argmin
        target = self.template.copy()
        target[:n] = argmin
        if self.bits:
            at = self.decided % RANDOM_BLOCK
            if not at:
                for row, bits in zip(self.random_block, self.bits):
                    row[:] = random_decide(RANDOM_BLOCK * self.n_s, self.n_c,
                                           bits)
            target[len(target) - len(self.bits):] = \
                self.random_block[:, at * self.n_s:(at + 1) * self.n_s]
            self.decided += 1
        return target

    def advance(self, sources, slots: int) -> None:
        """Advance every lane `slots` slots, each slot reading one row from
        each ArrivalState of `sources` (lane l reads
        sources[self.rows[l]]): snapshot decision, costs, queue updates,
        running sums, with one decide, one apply_slot and one
        Accumulator.update call per slot. On the slots the lanes' one
        stride divides and on the final slot, every lane keeps its row
        in `acc` (Accumulator.keep), with its Lyapunov values when the
        lanes log them; a slot that keeps none, and is not an int64
        limit check, does nothing more. The group's tables and keep
        policy are read into locals once, the tables again after
        `widen`."""
        acc, n_s = self.acc, self.n_s
        decide, update = self.decide, acc.update
        first = self.cfgs[0]
        stride, log = first.stride, first.log_lyapunov
        last = first.horizon_slots - 1
        lanes = range(len(self.cfgs))
        shared, rows = self.shared_row, self.rows
        cells, joins = self.cells, self.joins
        q, service, price = self.q, self.service, self.price
        # each slot's arrivals, in the group's dtype; nothing keeps them
        arrivals = np.empty((len(q), n_s), q.dtype)
        check_at = self.check_at
        for t in range(acc.t, acc.t + slots):
            if shared is not None:
                arrivals[:] = sources[shared].next_row()
            else:
                drawn = [source.next_row() for source in sources]
                np.stack([drawn[i] for i in rows], out=arrivals)
            target = decide(q)
            next_q, fdg = apply_slot(q, target, arrivals, service, cells,
                                     joins, price)
            backlog = np.add.reduce(next_q, axis=1)
            update(fdg, backlog)
            if t == check_at:
                room = min(map(operator.floordiv,
                               map(operator.sub, self.limit,
                                   backlog.tolist()), self.growth))
                if room >= 0:
                    check_at = t + 1 + room
                else:
                    self.q = next_q
                    self.widen()
                    next_q, service, price = self.q, self.service, self.price
                    arrivals, check_at = arrivals.astype(object), -1
            if t % stride == 0 or t == last:
                for lane in lanes:
                    locals_ = int(np.count_nonzero(target[lane] == LOCAL))
                    acc.keep(lane, next_q[lane, n_s:].tolist(),
                             n_s - locals_, locals_,
                             q[lane].tolist() if log else None,
                             next_q[lane].tolist() if log else None)
            q = next_q
        self.q, self.check_at = q, check_at


@dataclass(frozen=True)
class RunResult:
    """A run's kept rows (metrics.Accumulator.kept), the constants that
    turn them into CSV lines (metrics.record_to_csv_row), which are the
    g scale d, the controller count and V, and its mean backlog."""

    rows: list[tuple[int, ...]]
    scale: int
    n_controllers: int
    v: Rational
    mean_backlog: Fraction

    def means(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        """The run's exact f_bar, g_bar, f_bar + g_bar and mean backlog,
        the costs read from the running sums of its final kept row, which
        is the final slot's."""
        t, _, _, f_sum, dg_sum = self.rows[-1][:5]
        f_bar = Fraction(f_sum, t + 1)
        g_bar = Fraction(dg_sum, self.scale * (t + 1))
        return f_bar, g_bar, f_bar + g_bar, self.mean_backlog


def run_lanes(cfgs) -> list[RunResult]:
    """Run every config in lock step, one lane each of one LaneGroup, and
    return what a separate `run` of each returns, in the given order.

    The lanes share one cost model, one horizon and one keep policy:
    one stride and one Lyapunov flag, so every lane keeps one row per
    stride plus the final slot. Lanes with the same traffic config read
    one ArrivalState row per slot, so their arrivals are drawn once
    (common random numbers). Each slot the group decides in one call,
    prices in one apply_slot call and accounts in one Accumulator.update
    call. It runs on object arrays from the start when any lane's int64
    queue limit is negative.
    """
    cfgs = list(cfgs)
    if not cfgs:
        return []
    first = cfgs[0]
    if any(c.cost != first.cost or c.horizon_slots != first.horizon_slots
           or c.stride != first.stride or c.log_lyapunov != first.log_lyapunov
           for c in cfgs):
        raise ValueError("lanes must share one cost model, horizon, stride "
                         "and Lyapunov flag")
    sources = {}
    for cfg in cfgs:
        sources.setdefault(cfg.traffic, len(sources))
    arrival_states = [tr.ArrivalState(t) for t in sources]
    group = LaneGroup(cfgs, [sources[c.traffic] for c in cfgs])
    group.advance(arrival_states, first.horizon_slots)
    acc = group.acc
    results = [None] * len(cfgs)
    for lane, i in enumerate(group.order):
        results[i] = RunResult(rows=acc.kept[lane], scale=acc.scale,
                               n_controllers=group.n_c,
                               v=group.cfgs[lane].params.v,
                               mean_backlog=acc.mean_backlog(lane))
    return results


def run(cfg: RunConfig) -> RunResult:
    """Execute the full horizon: the one-lane run_lanes. Keeps one row
    per stride plus the final slot. Deterministic given (config,
    seeds)."""
    return run_lanes([cfg])[0]


def sweep(cfgs, v_values) -> list[RunResult]:
    """The RunResult of each (config, V), config by config in grid
    order: every distinct (config, V) run of the RunConfigs `cfgs` is a
    lane of one run_lanes call, so lanes with the same traffic config
    share their arrivals (common random numbers). Static, Random and JSQ
    lanes do not read V, so one lane, and one RunResult whose `v` is the
    grid's first, serves every V of their config. Each lane keeps rows
    for its first and last slots alone, with no Lyapunov values:
    RunResult.means reads the last."""
    if not v_values:
        raise ValueError("empty V grid")
    pairs = [(c, v, (id(c), v if c.scheme is Scheme.GREEDY else None))
             for c in cfgs for v in v_values]
    lanes = {}
    for c, v, key in pairs:
        if key not in lanes:
            lanes[key] = replace(c, params=replace(c.params, v=v),
                                 stride=c.horizon_slots, log_lyapunov=False)
    results = dict(zip(lanes, run_lanes(list(lanes.values()))))
    return [results[key] for _, _, key in pairs]


def capacity_check(cfg: RunConfig) -> list[str]:
    """Warn when mean arrivals meet or exceed total service capacity, and
    when a_max caps a fixed (hot-spot or constant) rate."""
    t = cfg.traffic
    # each mean as a float, inf past a float's range, so that the sum
    # reaches inf rather than raising: the checks and the text need no more
    total_in = sum(float(rate) if rate <= sys.float_info.max else math.inf
                   for rate in tr.mean_arrival_rates(t))
    ctrl_cap = t.controller_capacity * t.n_controllers
    switch_cap = t.switch_capacity * t.n_switches
    warnings = tr.cap_warnings(t)
    rule = argmin_rule(cfg)
    if rule is None or not rule[1]:
        if total_in >= ctrl_cap:
            warnings.append(
                f"supercritical without devolution: mean arrivals "
                f"{total_in:.2f}/slot >= controller capacity {ctrl_cap}"
            )
    elif total_in >= ctrl_cap + switch_cap:
        warnings.append(
            f"supercritical: mean arrivals {total_in:.2f}/slot >= "
            f"total capacity {ctrl_cap + switch_cap}"
        )
    return warnings
