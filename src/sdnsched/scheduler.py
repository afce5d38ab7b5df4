"""Per-slot decision rules: the greedy drift-plus-penalty rule, the
Static/Random/JSQ baselines, the per-slot objective, a brute-force
oracle that certifies per-slot optimality by exhaustive enumeration,
and the one fast decider the engine runs: GreedyKernel's tables read
by lane_argmin.

The per-switch functions (greedy_decide, association_only_decide,
jsq_decide, static_decide, brute_force_decide, slot_objective) are the
specification; lane_argmin over GreedyKernel tables is tested for
equality against them. For v = p/q, GreedyKernel's table is
K = p*(d*W - d*alpha): p times the cost model's one integer scaling of
the gap W - alpha (CostTables.gap, d = CostTables.scale). The engine
stacks the K matrices of its argmin lanes into one lane_argmin call and
calls random_decide per Random lane, with numpy arrays, and gets target
arrays back, one intp per switch. All arithmetic is exact
(int / Fraction), so every comparison is an equality check. Ties break
toward the lowest controller index everywhere; with that rule JSQ is the
devolution-off argmin at v = 0.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import (
    INT64_BOUND,
    LOCAL,
    Association,
    CostModel,
    Devolution,
    QueueState,
    Rational,
    SchedulerParams,
)

BRUTE_FORCE_LIMIT = 10 ** 7


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
    """Minimum-communication-cost association, fixed for all slots."""
    target = tuple(row.index(min(row)) for row in cost.w)
    return Association(target=target)


def random_decide(n_switches: int, n_controllers: int,
                  rng: random.Random) -> np.ndarray:
    """Uniform random controller per switch, redrawn every slot: the
    target array.

    The values, and the state rng is left in, equal those of
    `[rng.randrange(n_controllers) for _ in range(n_switches)]`.
    randrange(n) takes the top k = n.bit_length() bits of one 32-bit
    Mersenne Twister word and draws again while the value is >= n;
    getrandbits(32 * m) returns the next m words, the first in the lowest
    bits. So one call draws a whole slot's words, and each redraw draws
    only the shortfall.
    """
    if not 1 <= n_controllers < 2 ** 32:
        raise ValueError("need between 1 and 2**32 - 1 controllers")
    shift = 32 - n_controllers.bit_length()
    parts, need = [], n_switches
    while need:
        words = np.frombuffer(rng.getrandbits(32 * need)
                              .to_bytes(4 * need, "little"), "<u4") >> shift
        parts.append(words[words < n_controllers])
        need -= len(parts[-1])
    return np.concatenate(parts, dtype=np.intp) if parts \
        else np.zeros(0, np.intp)


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


class GreedyKernel:
    """The tables of the vectorised, integer-scaled greedy decider: the
    fast path for every scheme that decides from queues.

    With v = p/q in lowest terms and the cost model's integer gap
    d*W[i][j] - d*alpha_i (CostTables.gap, d its `scale`), every weight
    times q*d is K[i, j] + q*d*(Qc_j - Qs_i), with K = p*(d*W - d*alpha).
    So `scale` is q*d, and each slot is one argmin per row of
    M = K + scale*Qc. numpy returns the first index on a tie, which is
    the lowest-index rule. With devolution on, switch i goes LOCAL where
    M[i, j] > scale*Qs_i, so decisions equal greedy_decide exactly. With
    devolution off that test is skipped; alpha_i is constant along a
    row, so the argmin equals association_only_decide, and at v = 0
    (p = 0, K = 0) it equals jsq_decide.

    `k` is K as an object array of Python ints, exact at any size. While
    no backlog exceeds `int64_top`, max|K| + scale*max(Q) < 2**62, so a
    caller may cast K to int64 and run lane_argmin on int64 backlogs
    without a sum wrapping; the engine casts the stacked K matrices of a
    lane group once, and moves them back to object arrays when it
    widens.
    """

    def __init__(self, cost: CostModel, params: SchedulerParams):
        tables = cost.tables
        v = Fraction(params.v)
        self.k = v.numerator * tables.gap
        self.scale = v.denominator * tables.scale
        self.devolve = params.devolution is Devolution.ON
        # largest backlog the int64 path accepts (none when the scale
        # itself is too large for int64)
        self.int64_top = \
            (INT64_BOUND - 1 - v.numerator * tables.gap_max) // self.scale \
            if self.scale < INT64_BOUND else -1


def lane_argmin(k: np.ndarray, scale, q_s: np.ndarray, q_c: np.ndarray,
                n_devolve: int) -> np.ndarray:
    """The greedy argmin for L lanes at once: one row per lane.

    `k` stacks the lanes' K matrices (L x n_s x n_c), `scale` is their
    scales d as an (L x 1) column (or one int for all lanes), and q_s,
    q_c are the pre-slot backlogs (L x n_s, L x n_c), int64 within every
    lane's int64_top or object arrays. Each lane takes the argmin over j
    of K[i, j] + d*Qc_j per switch; the first `n_devolve` lanes go LOCAL
    where that minimum exceeds d*Qs_i. Lanes never mix, so each row is
    its own lane's decision.
    """
    m = k + (q_c * scale)[:, None, :]
    target = m.argmin(2)
    if n_devolve:
        # each switch's minimum m[l, i, target[l, i]], read from flat m
        best = m.reshape(-1).take(
            target + np.arange(0, m.size, m.shape[2]).reshape(target.shape))
        local = best > q_s * scale
        local[n_devolve:] = False
        target[local] = LOCAL
    return target
