"""Core domain types and per-slot queue/cost mathematics.

Everything here is a pure function of its inputs. Queue backlogs and
request counts are nonnegative integers; costs stay exact (int or
Fraction) so that scheduler comparisons are equality checks, never
tolerance checks.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Union

import numpy as np

Rational = Union[int, Fraction]

#: Sentinel target meaning "process locally on the switch".
LOCAL = -1

#: Integer arrays stay in int64 while every sum is below this bound.
INT64_BOUND = 2 ** 62


class TopoKind(enum.Enum):
    FAT_TREE = "fat-tree"
    THREE_TIER = "three-tier"
    F10 = "f10"
    JELLYFISH = "jellyfish"


class Devolution(enum.Enum):
    ON = "on"
    OFF = "off"


@dataclass(frozen=True)
class Topology:
    """Labeled switch/host graph with pod structure.

    Switches are node ids 0..n_switches-1, hosts follow immediately
    after. ``pods`` groups non-core switch ids (empty for Jellyfish).
    """

    kind: TopoKind
    k: int
    switches: tuple[int, ...]
    hosts: tuple[int, ...]
    adjacency: dict[int, tuple[int, ...]]
    pods: tuple[tuple[int, ...], ...]

    @property
    def n_switches(self) -> int:
        return len(self.switches)

    @property
    def n_hosts(self) -> int:
        return len(self.hosts)

    def edges(self) -> list[tuple[int, int]]:
        """Undirected edge list, each pair once with u < v."""
        out = []
        for u, nbrs in self.adjacency.items():
            for v in nbrs:
                if u < v:
                    out.append((u, v))
        out.sort()
        return out


@dataclass(frozen=True)
class CostModel:
    """Hop-count matrix W (switch x controller) and per-switch alpha."""

    w: tuple[tuple[int, ...], ...]
    alpha: tuple[Rational, ...]

    def __post_init__(self):
        for i, row in enumerate(self.w):
            for j, hops in enumerate(row):
                if hops < 1:
                    raise ValueError(
                        f"w[{i}][{j}]={hops}: controllers sit on hosts, "
                        "so every switch is at least one hop away"
                    )
        if any(a < 0 for a in self.alpha):
            raise ValueError("alpha entries must be nonnegative")
        if len(self.alpha) != len(self.w):
            raise ValueError("alpha length must match w row count")

    @property
    def n_switches(self) -> int:
        return len(self.w)

    @property
    def n_controllers(self) -> int:
        return len(self.w[0]) if self.w else 0

    @cached_property
    def tables(self) -> "CostTables":
        """W, the scaled alpha and the gap as integer arrays, built once."""
        return CostTables.build(self)

    @classmethod
    def uniform_alpha(cls, w, alpha: Rational) -> "CostModel":
        w = tuple(tuple(row) for row in w)
        return cls(w=w, alpha=(alpha,) * len(w))


@dataclass(frozen=True)
class CostTables:
    """A CostModel's one integer scaling, for vectorised pricing and
    decisions, built once.

    Switch i under target t (a controller index, or LOCAL = -1) is cell
    `cells[i] + t` of the flat per-cell tables, which hold n_c + 1 cells
    per switch, LOCAL first. `w` holds W[i][t], and 0 for LOCAL.
    `joins` holds the queue that switch i's arrivals join, where the
    engine keeps each lane's queues in one row, the n_s switch queues
    then the n_c controller queues: controller t's queue n_s + t, or
    the switch's own queue i for LOCAL.

    `scaled_alpha` is d*alpha, where d is alpha's common denominator
    `scale`. `w` and `scaled_alpha` are object arrays of Python ints;
    `weight` bounds every entry of both, so a caller that knows its sums
    stay within int64 casts them (engine.LaneGroup does, once per lane
    group).

    `gap` is the decision rule's cost term in the same scale,
    d*W[i][j] - d*alpha_i, as an (n_s x n_c) object array of Python
    ints, and `gap_max` is max|gap|.
    """

    w: np.ndarray
    scaled_alpha: np.ndarray
    scale: int
    weight: int
    cells: np.ndarray
    joins: np.ndarray
    gap: np.ndarray
    gap_max: int

    @classmethod
    def build(cls, cost: "CostModel") -> "CostTables":
        n_s, n_c = cost.n_switches, cost.n_controllers
        alpha = [Fraction(a) for a in cost.alpha]
        scale = math.lcm(*(a.denominator for a in alpha))
        w = np.array([[0, *row] for row in cost.w], dtype=object) \
            .reshape(n_s * (n_c + 1))
        scaled = np.array([int(a * scale) for a in alpha], dtype=object)
        weight = max([1, *w, *scaled])
        joins = np.empty((n_s, n_c + 1), np.intp)
        joins[:, 0] = np.arange(n_s)
        joins[:, 1:] = np.arange(n_s, n_s + n_c)
        gap = w.reshape(n_s, n_c + 1)[:, 1:] * scale - scaled[:, None]
        return cls(w=w, scaled_alpha=scaled, scale=scale, weight=weight,
                   cells=np.arange(n_s) * (n_c + 1) + 1,
                   joins=joins.ravel(), gap=gap,
                   gap_max=abs(gap).max(initial=0))


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


@dataclass(frozen=True)
class Association:
    """Per-slot decision: each switch maps to LOCAL or one controller
    (one target per switch)."""

    target: tuple[int, ...]


@dataclass(frozen=True)
class SchedulerParams:
    v: Rational = 0
    devolution: Devolution = Devolution.ON

    def __post_init__(self):
        if self.v < 0:
            raise ValueError("v must be nonnegative")


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
