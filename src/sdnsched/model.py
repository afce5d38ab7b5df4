"""Core domain types: topologies, cost models with their one integer
scaling, associations and scheduler parameters.

Request counts are nonnegative integers; costs stay exact (int or
Fraction) so that the engine's decisions are checked for equality
against reference, never within a tolerance. The queue updates, slot
cost functions and Lyapunov function that the engine's pricing is tested
against are in reference.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from typing import Union

import numpy as np

Rational = Union[int, Fraction]

#: Sentinel target meaning "process locally on the switch".
LOCAL = -1


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


def _distinct(alpha):
    """alpha's distinct objects, keyed by id: a uniform-alpha model
    repeats one alpha object, so the Fraction work on it is done once
    (hashing a Fraction per switch would cost as much as the work)."""
    return {id(a): a for a in alpha}.values()


@dataclass(frozen=True)
class CostModel:
    """Hop-count matrix W (switch x controller) and per-switch alpha."""

    w: tuple[tuple[int, ...], ...]
    alpha: tuple[Rational, ...]

    def __post_init__(self):
        if min(chain.from_iterable(self.w), default=1) < 1:
            i, j = next((i, j) for i, row in enumerate(self.w)
                        for j, hops in enumerate(row) if hops < 1)
            raise ValueError(
                f"w[{i}][{j}]={self.w[i][j]}: controllers sit on hosts, "
                "so every switch is at least one hop away"
            )
        if any(a < 0 for a in _distinct(self.alpha)):
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
        """The price, join and gap tables as integer arrays, built once."""
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
    per switch, LOCAL first. `price` holds a slot's two prices per
    arrival, as two rows over the cells: row 0 holds W[i][t], and 0 for
    LOCAL; row 1 holds d*alpha_i at switch i's LOCAL cell, and 0
    elsewhere, where d is alpha's common denominator `scale`. So one
    gather of each switch's cell and one dot with the arrivals give a
    slot's f and d*g. `price` is an object array of Python ints, and
    `weight`, its largest entry (at least 1), lets
    engine.int64_queue_limit bound a lane's prices. `joins` holds the
    queue that switch i's arrivals join, where the engine keeps each
    lane's queues in one row, the n_s switch queues then the n_c
    controller queues: controller t's queue n_s + t, or the switch's own
    queue i for LOCAL.

    `gap` is the decision rule's cost term in the same scale,
    d*W[i][j] - d*alpha_i, as an object array of Python ints with one
    row per row class: switches whose gap rows are equal share a class,
    numbered in order of first appearance, and `row_class` (intp, one
    entry per switch) maps each switch to its class, so switch i's gap
    row is gap[row_class[i]].
    """

    price: np.ndarray
    scale: int
    weight: int
    cells: np.ndarray
    joins: np.ndarray
    gap: np.ndarray
    row_class: np.ndarray

    @classmethod
    def build(cls, cost: "CostModel") -> "CostTables":
        n_s, n_c = cost.n_switches, cost.n_controllers
        alpha = _distinct(cost.alpha)
        scale = math.lcm(*(Fraction(a).denominator for a in alpha))
        scaled_of = {id(a): int(Fraction(a) * scale) for a in alpha}
        scaled = np.array([scaled_of[id(a)] for a in cost.alpha],
                          dtype=object)
        price = np.zeros((2, n_s, n_c + 1), object)
        price[0, :, 1:] = cost.w
        price[1, :, 0] = scaled
        joins = np.empty((n_s, n_c + 1), np.intp)
        joins[:, 0] = np.arange(n_s)
        joins[:, 1:] = np.arange(n_s, n_s + n_c)
        gap = price[0, :, 1:] * scale - scaled[:, None]
        classes = {}
        row_class = np.array([classes.setdefault(row, len(classes))
                              for row in map(tuple, gap.tolist())], np.intp)
        gap = np.array(list(classes), object).reshape(len(classes), n_c)
        return cls(price=price.reshape(2, -1), scale=scale,
                   weight=max(1, price.max(initial=0)),
                   cells=np.arange(n_s) * (n_c + 1) + 1,
                   joins=joins.ravel(), gap=gap, row_class=row_class)


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
