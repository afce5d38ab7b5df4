"""Per-slot decision rules that the engine runs: the Static target,
the Random draws, and lane_argmin, the one fast decider for every scheme
that decides from queues.

Greedy, association-only (greedy with devolution off) and JSQ (the
devolution-off argmin at v = 0) are one rule, the argmin over
controllers of v*(W - alpha) + (Qc - Qs): engine.argmin_rule says which
v a lane takes and whether it devolves, and the engine stacks the
integer tables of its argmin lanes into one lane_argmin call on their
whole queue rows, and gets target arrays back, one intp per switch.
lane_argmin is tested for equality against the per-switch rules and the
brute-force oracle in reference. A Random lane draws from
mt19937_of(random.Random(run_seed)): one random_decide call gives a
block of slots' targets, with the values of a per-slot randrange loop.
All arithmetic is exact, so every comparison is an equality check. Ties
break toward the lowest controller index everywhere.
"""

from __future__ import annotations

import random

import numpy as np

from .model import LOCAL, Association, CostModel


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


def lane_argmin(k: np.ndarray, scale, q: np.ndarray, n_devolve: int,
                row_class: np.ndarray, controllers: np.ndarray,
                offsets: np.ndarray) -> np.ndarray:
    """The greedy argmin for L lanes at once: one row per lane.

    With v = p/q in lowest terms and the cost model's integer gap
    d*W[i][j] - d*alpha_i (CostTables.gap, d its `scale`), every weight
    v*(W - alpha) + Qc_j - Qs_i times q*d is K[i, j] + q*d*(Qc_j - Qs_i),
    with K = p*gap: a lane's table is K and its scale q*d. K depends on
    switch i only through its gap row, so it holds one row per row class
    and `row_class` (n_s, intp) maps each switch to its class, a map every
    lane shares.

    `k` stacks the lanes' K tables (L x classes x n_c), and q holds the
    lanes' pre-slot backlogs as whole queue rows (L x (n_s + n_c)), each
    lane's n_s switch queues then its n_c controller queues: int64 within
    every lane's engine.int64_queue_limit (which bounds max|K| +
    scale*max(Q)) or object arrays of Python ints, exact at any size.
    `scale` holds each lane's scale once per queue, in q's shape, so one
    product scales every backlog. `controllers` (L x classes x n_c, intp)
    holds the flat index in q of lane l's controller j, the same for
    every class, so one take lays the scaled controller backlogs out as k
    is, and each lane takes the argmin over j of M = K[c, j] +
    scale*Qc_j once per class c and hands it to every switch of the
    class; numpy returns the first index on a tie, the lowest-index rule.
    `offsets` (L x n_s, intp) holds the flat index of row (l,
    row_class[i]) of M, (l*classes + row_class[i])*n_c, so one flat take
    at offsets + target reads each switch's minimum. The first
    `n_devolve` lanes send switch i LOCAL where its minimum exceeds
    scale*Qs_i, which is reference.greedy_decide; the other lanes never
    go LOCAL, and since alpha_i is constant along a row their argmin is
    reference.association_only_decide, and at v = 0 (K = 0)
    reference.jsq_decide. Lanes never mix, so each row is its own lane's
    decision.
    """
    scaled = q * scale
    m = k + scaled.take(controllers)
    target = m.argmin(2).take(row_class, 1)
    local = m.take(offsets + target) > scaled[:, :len(row_class)]
    if n_devolve < len(local):
        local[n_devolve:] = False
    np.putmask(target, local, LOCAL)
    return target
