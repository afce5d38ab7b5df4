"""The executable specification that the fast path is tested against.

Everything here is a pure per-switch, per-queue function in Python ints
and Fractions: queue backlogs, the queue updates, slot costs and the
Lyapunov function; the greedy drift-plus-penalty rule, its baselines
(static_decide is the Static scheme's), the per-slot objective and a
brute-force oracle; a kept row's exact MetricsRecord and the controller
backlog variance; BFS hop counts; and the trace inverse CDF. The
engine's decisions and pricing, the hop matrix, the CSV writer and the
trace sampler are each tested for equality against them, so nothing
here calls engine or metrics code. No command runs this code, and no
other module imports it.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .model import LOCAL, Association, CostModel, Rational, SchedulerParams
from .traffic import EmpiricalCdf

BRUTE_FORCE_LIMIT = 10 ** 7


@dataclass(frozen=True)
class QueueState:
    """Per-switch and per-controller request backlogs."""

    q_s: tuple[int, ...]
    q_c: tuple[int, ...]

    def __post_init__(self):
        if min(self.q_s, default=0) < 0 or min(self.q_c, default=0) < 0:
            raise ValueError("queue backlogs must be nonnegative")

    @classmethod
    def zeros(cls, n_switches: int, n_controllers: int) -> "QueueState":
        return cls(q_s=(0,) * n_switches, q_c=(0,) * n_controllers)

    def total(self) -> int:
        return sum(self.q_s) + sum(self.q_c)


def step_switch_queue(q: int, routed_local: int, service: int) -> int:
    """Next switch backlog: service applies to backlog plus same-slot
    arrivals routed locally."""
    return max(q + routed_local - service, 0)


def step_controller_queue(q: int, routed_in: int, service: int) -> int:
    """Next controller backlog after receiving uploaded arrivals."""
    return max(q + routed_in - service, 0)


def slot_comm_cost(assoc: Association, arrivals: Sequence[int], cost: CostModel):
    """Communication cost of one slot: sum of W[i][j] * A_i over uploads."""
    total = 0
    for i, t in enumerate(assoc.target):
        if t != LOCAL:
            total += cost.w[i][t] * arrivals[i]
    return total


def slot_comp_cost(assoc: Association, arrivals: Sequence[int], cost: CostModel):
    """Computation cost of one slot: alpha_i * A_i over local switches."""
    total = 0
    for i, t in enumerate(assoc.target):
        if t == LOCAL:
            total += cost.alpha[i] * arrivals[i]
    return total


def lyapunov(q: QueueState) -> Fraction:
    """Quadratic potential: half the sum of squared backlogs."""
    return Fraction(sum(x * x for x in q.q_c) + sum(x * x for x in q.q_s), 2)


@dataclass(frozen=True)
class DecisionContext:
    q: QueueState
    arrivals: tuple[int, ...]
    cost: CostModel
    params: SchedulerParams

    def __post_init__(self):
        n_s, n_c = self.cost.n_switches, self.cost.n_controllers
        if len(self.q.q_s) != n_s or len(self.arrivals) != n_s \
                or len(self.q.q_c) != n_c:
            raise ValueError("context dimensions are inconsistent")


def omega(i: int, j: int, ctx: DecisionContext) -> Rational:
    """Greedy decision weight: v*(W[i][j] - alpha_i) + (Qc_j - Qs_i).

    Non-positive values mark controller j as upload-eligible for
    switch i.
    """
    v = ctx.params.v
    return v * (ctx.cost.w[i][j] - ctx.cost.alpha[i]) \
        + (ctx.q.q_c[j] - ctx.q.q_s[i])


def greedy_decide(ctx: DecisionContext) -> Association:
    """Per-switch drift-plus-penalty minimizer.

    Each switch independently uploads to the controller with the most
    negative weight, or goes LOCAL when every weight is positive.
    Switches with zero arrivals still get a decision; it routes nothing.
    """
    n_c = ctx.cost.n_controllers
    target = []
    for i in range(ctx.cost.n_switches):
        best_j, best_w = LOCAL, 0
        for j in range(n_c):
            w = omega(i, j, ctx)
            if w <= 0 and (best_j == LOCAL or w < best_w):
                best_j, best_w = j, w
        target.append(best_j)
    return Association(target=tuple(target))


def association_only_decide(ctx: DecisionContext) -> Association:
    """Devolution-off kernel: each switch picks argmin_j v*W[i][j] + Qc_j.

    Equivalent to greedy with a prohibitively large alpha, which makes
    every controller upload-eligible and leaves only this argmin.
    """
    v = ctx.params.v
    target = []
    for i in range(ctx.cost.n_switches):
        scores = [v * ctx.cost.w[i][j] + ctx.q.q_c[j]
                  for j in range(ctx.cost.n_controllers)]
        target.append(min(range(len(scores)), key=lambda j: (scores[j], j)))
    return Association(target=tuple(target))


def static_decide(cost: CostModel) -> Association:
    """The Static baseline: each switch's minimum-communication-cost
    controller, ties to the lowest index, fixed for all slots."""
    target = tuple(row.index(min(row)) for row in cost.w)
    return Association(target=target)


def jsq_decide(q: QueueState, n_switches: int) -> Association:
    """Join-the-shortest-queue: every switch picks the controller with
    the smallest backlog in the same pre-slot snapshot."""
    j = min(range(len(q.q_c)), key=lambda c: (q.q_c[c], c))
    return Association(target=(j,) * n_switches)


def slot_objective(assoc: Association, ctx: DecisionContext) -> Rational:
    """Full per-slot objective, including the association-independent
    first term: sum_i (v*alpha_i + Qs_i)*A_i plus the weight of every
    upload."""
    v = ctx.params.v
    total = 0
    for i, t in enumerate(assoc.target):
        a = ctx.arrivals[i]
        total += (v * ctx.cost.alpha[i] + ctx.q.q_s[i]) * a
        if t != LOCAL:
            total += omega(i, t, ctx) * a
    return total


def brute_force_decide(ctx: DecisionContext) -> Association:
    """Exhaustive per-slot oracle.

    Enumerates every feasible association (each switch LOCAL or one
    controller) in lexicographic target order and returns the first
    one attaining the minimum objective. The per-switch cost tables are
    built straight from the objective definition, independently of the
    greedy weight decomposition.
    """
    n_s, n_c = ctx.cost.n_switches, ctx.cost.n_controllers
    if (n_c + 1) ** n_s > BRUTE_FORCE_LIMIT:
        raise ValueError(
            f"instance too large for exhaustive search: "
            f"({n_c}+1)^{n_s} > {BRUTE_FORCE_LIMIT}"
        )
    v = ctx.params.v
    # contribution of switch i under each choice, LOCAL first
    tables = []
    for i in range(n_s):
        a = ctx.arrivals[i]
        row = [(v * ctx.cost.alpha[i] + ctx.q.q_s[i]) * a]
        row.extend((v * ctx.cost.w[i][j] + ctx.q.q_c[j]) * a
                   for j in range(n_c))
        tables.append(row)
    choices = [LOCAL] + list(range(n_c))
    best_val = None
    best = None
    for combo in itertools.product(*([range(n_c + 1)] * n_s)):
        val = 0
        for i, c in enumerate(combo):
            val += tables[i][c]
        if best_val is None or val < best_val:
            best_val = val
            best = combo
    return Association(target=tuple(choices[c] for c in best))


@dataclass(frozen=True)
class MetricsRecord:
    t: int
    f_slot: Rational
    g_slot: Rational
    f_bar: Fraction
    g_bar: Fraction
    total_backlog: int
    controller_backlog_variance: Fraction
    uploads: int
    locals_: int
    lyapunov: Optional[Fraction] = None
    drift_penalty_sample: Optional[Rational] = None


def row_record(row, scale: int, n_controllers: int, v: Rational) \
        -> MetricsRecord:
    """The MetricsRecord of a kept row (metrics.Accumulator.kept) of a
    lane with g scale d = `scale`, `n_controllers` controllers and
    parameter V = `v`: its Lyapunov value is Sum q^2 / 2 at the slot's
    start, and its drift-plus-penalty sample L(Q(t+1)) - L(Q(t)) +
    V*(f + g)."""
    t, f, dg, f_sum, dg_sum, backlog, var, uploads, locals_, *squares = row
    g = Fraction(dg, scale)
    lyap = drift = None
    if squares:
        before, after = squares
        lyap = Fraction(before, 2)
        drift = Fraction(after - before, 2) + v * (f + g)
    return MetricsRecord(
        t=t,
        f_slot=f,
        g_slot=g,
        f_bar=Fraction(f_sum, t + 1),
        g_bar=Fraction(dg_sum, scale * (t + 1)),
        total_backlog=backlog,
        controller_backlog_variance=Fraction(var, n_controllers ** 2),
        uploads=uploads,
        locals_=locals_,
        lyapunov=lyap,
        drift_penalty_sample=drift,
    )


def controller_variance(q_c: Sequence[int]) -> Fraction:
    """Population variance of the per-controller backlogs."""
    n = len(q_c)
    if n < 1:
        raise ValueError("need at least one controller")
    mean = Fraction(sum(q_c), n)
    return sum((x - mean) ** 2 for x in q_c) / n


def bfs_hops(adjacency: dict[int, tuple[int, ...]], source: int) -> dict[int, int]:
    """Unweighted shortest-path hop counts from one source node."""
    dist = {source: 0}
    queue = deque([source])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return dist


def inverse_cdf(cdf: EmpiricalCdf, u: float) -> float:
    """cdf's inverse at u in [0, 1)."""
    if u <= cdf.ps[0]:
        return cdf.xs[0]
    for (x0, p0), (x1, p1) in zip(zip(cdf.xs, cdf.ps),
                                  zip(cdf.xs[1:], cdf.ps[1:])):
        if u <= p1:
            return x0 + (x1 - x0) * (u - p0) / (p1 - p0)
    return cdf.xs[-1]
