"""Per-slot decision rules that the engine runs: the Static target,
the Random draws, and the one fast decider for every scheme that
decides from queues: GreedyKernel's tables read by lane_argmin.

lane_argmin over GreedyKernel tables is tested for equality against the
per-switch rules and the brute-force oracle in reference. For v = p/q,
GreedyKernel's table is K = p*(d*W - d*alpha): p times the cost model's
one integer scaling of the gap W - alpha (CostTables.gap, d =
CostTables.scale), one row per row class of switches with equal gap
rows. The engine stacks the K tables of its argmin lanes into one
lane_argmin call, with numpy arrays, and gets target arrays back, one
intp per switch. A Random lane draws from
mt19937_of(random.Random(run_seed)): one random_decide call gives a
block of slots' targets, with the values of a per-slot randrange loop.
All arithmetic is exact, so every comparison is an equality check. Ties
break toward the lowest controller index everywhere; with that rule JSQ
is the devolution-off argmin at v = 0.
"""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np

from .model import LOCAL, Association, CostModel, Devolution, SchedulerParams


def static_decide(cost: CostModel) -> Association:
    """Minimum-communication-cost association, fixed for all slots."""
    target = tuple(row.index(min(row)) for row in cost.w)
    return Association(target=target)


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


class GreedyKernel:
    """The tables of the vectorised, integer-scaled greedy decider: the
    fast path for every scheme that decides from queues.

    With v = p/q in lowest terms and the cost model's integer gap
    d*W[i][j] - d*alpha_i (CostTables.gap, d its `scale`), every weight
    times q*d is K[i, j] + q*d*(Qc_j - Qs_i), with K = p*(d*W - d*alpha).
    So `scale` is q*d, and each slot is one argmin per row of
    M = K + scale*Qc. numpy returns the first index on a tie, which is
    the lowest-index rule.

    K depends on switch i only through its gap row, so `k` holds one row
    per row class (CostTables.gap) and `row_class` maps each switch to
    its row: switches of one class share their argmin and its minimum in
    every slot, and only the LOCAL test below reads the switch's own
    backlog. With devolution on, switch i goes LOCAL where
    M[i, j] > scale*Qs_i, so decisions equal reference.greedy_decide
    exactly. With devolution off that test is skipped; alpha_i is
    constant along a row, so the argmin equals
    reference.association_only_decide, and at v = 0 (p = 0, K = 0) it
    equals reference.jsq_decide.

    `k` is K as a (classes x n_c) object array of Python ints, exact at
    any size. The engine casts the stacked K tables of a lane group to
    int64 while every lane's backlogs are within its
    engine.int64_queue_limit, which bounds max|K| + scale*max(Q), and
    moves them back to object arrays when it widens.
    """

    def __init__(self, cost: CostModel, params: SchedulerParams):
        tables = cost.tables
        v = Fraction(params.v)
        self.k = v.numerator * tables.gap
        self.row_class = tables.row_class
        self.scale = v.denominator * tables.scale
        self.devolve = params.devolution is Devolution.ON


def lane_argmin(k: np.ndarray, scale, q_s: np.ndarray, q_c: np.ndarray,
                n_devolve: int, row_class: np.ndarray) -> np.ndarray:
    """The greedy argmin for L lanes at once: one row per lane.

    `k` stacks the lanes' K tables (L x classes x n_c), one row per row
    class, and `row_class` (n_s, intp) maps each switch to its class, a
    map every lane shares. `scale` is the lanes' scales d as an (L x 1)
    column (or one int for all lanes), and q_s, q_c are the pre-slot
    backlogs (L x n_s, L x n_c), int64 within every lane's
    engine.int64_queue_limit or object arrays. Each lane takes the
    argmin over j of K[c, j] + d*Qc_j and its minimum once per class c,
    and hands both to every switch of the class; the first `n_devolve`
    lanes send switch i LOCAL where its minimum exceeds d*Qs_i. Lanes
    never mix, so each row is its own lane's decision.
    """
    m = k + (q_c * scale)[:, None, :]
    argmin = m.argmin(2)
    target = argmin.take(row_class, 1)
    if n_devolve:
        # each class's minimum m[l, c, argmin[l, c]], read from flat m
        best = m.reshape(-1).take(
            argmin + np.arange(0, m.size, m.shape[2]).reshape(argmin.shape))
        local = best.take(row_class, 1) > q_s * scale
        local[n_devolve:] = False
        target[local] = LOCAL
    return target
