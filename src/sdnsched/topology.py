"""Deterministic construction of the four evaluation topologies (the
fat-tree, F10 and three-tier through one Clos builder that writes each
node's sorted neighbour tuple directly), controller placement, BFS
hop-count matrices (one bit-parallel BFS over the switch-only graph for
every controller at once), and the derived computation cost alpha."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .model import CostModel, TopoKind, Topology


@dataclass(frozen=True)
class PlacementResult:
    controller_hosts: tuple[int, ...]

    @property
    def controller_count(self) -> int:
        return len(self.controller_hosts)


# the most nodes (switches plus hosts) a topology may have: fat-tree and
# Jellyfish k=98 (247303 nodes) and three-tier k=80 fit
MAX_NODES = 2 ** 18


def _check_k(k: int) -> None:
    if k < 4 or k % 2 != 0:
        raise ValueError(f"port count k must be even and >= 4, got {k}")


def _check_nodes(kind: TopoKind, k: int, n_nodes: int) -> None:
    """Reject a topology of more than MAX_NODES nodes before it is
    built."""
    if n_nodes > MAX_NODES:
        raise ValueError(f"{kind.value} k={k} has {n_nodes} nodes, more "
                         f"than the limit of {MAX_NODES}")


def _topology(kind: TopoKind, k: int, n_switches: int, adj,
              pods=()) -> Topology:
    """Freeze `adj`, the sorted neighbour tuple of each node id in turn,
    into a Topology whose first n_switches nodes are the switches and the
    rest the hosts."""
    return Topology(
        kind=kind,
        k=k,
        switches=tuple(range(n_switches)),
        hosts=tuple(range(n_switches, len(adj))),
        adjacency=dict(enumerate(adj)),
        pods=pods,
    )


def _clos(kind: TopoKind, k: int, n_edge: int, n_agg: int, n_core: int,
          cores_of) -> Topology:
    """Layered Clos fabric: k pods of n_edge edge and n_agg aggregate
    switches over n_core cores, k/2 hosts per edge switch. Every edge
    switch joins every aggregate of its pod; aggregate a of pod p joins
    the cores in the range cores_of(p, a) of core numbers 0..n_core-1.

    Switch ids run edges pod-major, then aggregates pod-major, then
    cores; hosts follow in edge-switch order. A pod is its edges, then
    its aggregates.

    Each node's sorted neighbour tuple is written directly: an edge
    switch's aggregates come before its hosts, an aggregate's edges
    before its cores, and a core meets its aggregates in id order.
    """
    _check_k(k)
    half = k // 2
    edges, aggs = k * n_edge, k * n_agg
    core0 = edges + aggs
    n_switches = core0 + n_core
    n_nodes = n_switches + edges * half
    _check_nodes(kind, k, n_nodes)
    edge_adj, agg_adj, host_adj = [], [], []
    core_adj = [[] for _ in range(n_core)]
    pods = []
    for p in range(k):
        pod_edges = tuple(range(p * n_edge, (p + 1) * n_edge))
        pod_aggs = tuple(range(edges + p * n_agg, edges + (p + 1) * n_agg))
        for e in pod_edges:
            host0 = n_switches + e * half
            edge_adj.append(pod_aggs + tuple(range(host0, host0 + half)))
            host_adj.extend([(e,)] * half)
        for a, agg in enumerate(pod_aggs):
            cores = cores_of(p, a)
            agg_adj.append(pod_edges + tuple(range(core0 + cores.start,
                                                   core0 + cores.stop)))
            for c in cores:
                core_adj[c].append(agg)
        pods.append(pod_edges + pod_aggs)
    return _topology(kind, k, n_switches,
                     edge_adj + agg_adj + list(map(tuple, core_adj))
                     + host_adj, tuple(pods))


def gen_fat_tree(k: int) -> Topology:
    """Standard k-ary fat-tree: k pods of k/2 edge and k/2 aggregate
    switches, (k/2)^2 cores in k/2 groups of k/2; aggregate a of every
    pod joins all cores of group a."""
    half = k // 2
    return _clos(TopoKind.FAT_TREE, k, half, half, half * half,
                 lambda p, a: range(a * half, (a + 1) * half))


def gen_f10(k: int) -> Topology:
    """F10 / AB-tree variant of the fat-tree: identical node counts and
    edge-to-aggregate wiring, but odd-indexed pods join aggregate a to
    core group (a + k/4) mod (k/2), breaking the fat-tree symmetry.
    """
    half, rot = k // 2, max(k // 4, 1)

    def cores_of(p, a):
        group = a if p % 2 == 0 else (a + rot) % half
        return range(group * half, (group + 1) * half)

    return _clos(TopoKind.F10, k, half, half, half * half, cores_of)


def gen_three_tier(k: int) -> Topology:
    """Canonical 3-tier: k pods of k-1 edge switches under one
    aggregate (the pod includes the aggregate itself), every aggregate
    joined to all k cores; each edge switch carries k/2 hosts."""
    return _clos(TopoKind.THREE_TIER, k, k - 1, 1, k, lambda p, a: range(k))


def gen_jellyfish(
    k: int,
    hosts_per_switch_min: int,
    hosts_per_switch_max: int,
    seed: int,
) -> Topology:
    """Random-graph topology: 5k^2/4 switches, k^3/4 hosts, remaining
    ports wired by incremental random pairing. Deterministic per seed.
    """
    if k < 5:
        raise ValueError(
            f"port count k must be >= 5 for jellyfish, got {k}: its k^3/4 "
            f"hosts give each of its 5k^2/4 switches a host only from k = 5")
    if not (1 <= hosts_per_switch_min <= hosts_per_switch_max <= k - 1):
        raise ValueError(
            f"host range hosts_min={hosts_per_switch_min}, "
            f"hosts_max={hosts_per_switch_max} must satisfy "
            f"1 <= hosts_min <= hosts_max <= k-1 = {k - 1}")
    n_switches = 5 * k * k // 4
    n_hosts = k ** 3 // 4
    _check_nodes(TopoKind.JELLYFISH, k, n_switches + n_hosts)
    lo, hi = hosts_per_switch_min, hosts_per_switch_max
    extra = n_hosts - lo * n_switches
    if extra < 0 or extra > (hi - lo) * n_switches:
        raise ValueError(
            f"cannot distribute {n_hosts} hosts over {n_switches} switches "
            f"with {lo}..{hi} hosts each"
        )

    rng = random.Random(seed)
    hosts_of = [lo] * n_switches
    # spread the leftover hosts one at a time over a seeded shuffle,
    # cycling until the quota is exhausted
    order = list(range(n_switches))
    rng.shuffle(order)
    idx = 0
    remaining = extra
    while remaining > 0:
        s = order[idx % n_switches]
        if hosts_of[s] < hi:
            hosts_of[s] += 1
            remaining -= 1
        idx += 1

    adj = [set() for _ in range(n_switches)]
    for s in range(n_switches):
        for _ in range(hosts_of[s]):
            adj[s].add(len(adj))
            adj.append({s})

    free = [k - hosts_of[s] for s in range(n_switches)]
    _random_pairing(rng, adj, free, n_switches)
    return _topology(TopoKind.JELLYFISH, k, n_switches,
                     [tuple(sorted(nbrs)) for nbrs in adj])


def _random_pairing(rng, adj, free, n_switches):
    """Jellyfish wiring: repeatedly join two random non-adjacent switches
    with free ports; when stuck with >= 2 free ports on one switch,
    break a random existing switch link to make progress."""
    # the switches with free ports, kept ascending (the seeded draws
    # from it, so the graphs, depend on the order); a switch leaves when
    # its last port is used
    open_sw = [s for s in range(n_switches) if free[s] > 0]

    def use(s, ports):
        free[s] -= ports
        if not free[s]:
            open_sw.remove(s)

    while True:
        if len(open_sw) < 2 and not any(free[s] >= 2 for s in open_sw):
            return
        pair = _find_pair(rng, adj, open_sw)
        if pair is not None:
            u, v = pair
            adj[u].add(v)
            adj[v].add(u)
            use(u, 1)
            use(v, 1)
            continue
        # stuck: all open switches pairwise adjacent
        stuck = [s for s in open_sw if free[s] >= 2]
        if not stuck:
            return
        s = rng.choice(stuck)
        edge = _removable_edge(rng, adj, s, n_switches)
        if edge is None:
            return
        u, v = edge
        adj[u].discard(v)
        adj[v].discard(u)
        adj[s].update((u, v))
        adj[u].add(s)
        adj[v].add(s)
        use(s, 2)


def _find_pair(rng, adj, open_sw):
    if len(open_sw) < 2:
        return None
    for _ in range(64):
        u, v = rng.sample(open_sw, 2)
        if v not in adj[u]:
            return (u, v)
    # random probing failed; scan exhaustively in seeded order
    shuffled = list(open_sw)
    rng.shuffle(shuffled)
    for i, u in enumerate(shuffled):
        for v in shuffled[i + 1:]:
            if v not in adj[u]:
                return (u, v)
    return None


def _removable_edge(rng, adj, s, n_switches):
    """Random switch-switch edge (u, v) with both ends non-adjacent to s."""
    candidates = []
    for u in range(n_switches):
        if u == s or u in adj[s]:
            continue
        for v in adj[u]:
            if v >= n_switches or v <= u:
                continue
            if v == s or v in adj[s]:
                continue
            candidates.append((u, v))
    if not candidates:
        return None
    return rng.choice(candidates)


_PLACE_RESTARTS = 200


def place_controllers(topo: Topology, seed: int = 0) -> PlacementResult:
    """Per-pair controller placement: one controller for every two pods.

    Deterministic kinds: pods paired in index order, the controller
    living on the first host of the first edge switch of the
    even-indexed pod. Jellyfish: the fat-tree count for the same k,
    hosts drawn in seeded random order with pairwise non-adjacent ToRs.
    """
    if topo.kind is TopoKind.JELLYFISH:
        return _place_jellyfish(topo, seed)
    chosen = []
    for p in range(0, len(topo.pods), 2):
        first_edge = topo.pods[p][0]
        host = min(n for n in topo.adjacency[first_edge] if n >= topo.n_switches)
        chosen.append(host)
    return PlacementResult(controller_hosts=tuple(chosen))


def _place_jellyfish(topo: Topology, seed: int) -> PlacementResult:
    count = topo.k // 2  # matches fat-tree pod pairing at equal k
    for attempt in range(_PLACE_RESTARTS):
        rng = random.Random(seed * _PLACE_RESTARTS + attempt)
        order = list(topo.hosts)
        rng.shuffle(order)
        chosen = []
        tors = []
        for h in order:
            tor = topo.adjacency[h][0]  # a host's one neighbour
            if any(tor == t or tor in topo.adjacency[t] for t in tors):
                continue
            chosen.append(h)
            tors.append(tor)
            if len(chosen) == count:
                return PlacementResult(controller_hosts=tuple(chosen))
    raise RuntimeError(
        f"no {count} hosts with pairwise non-adjacent ToRs found "
        f"after {_PLACE_RESTARTS} restarts (seed={seed})"
    )


def hop_matrix(topo: Topology, placement: PlacementResult):
    """w[i][j] = hop count from switch i to controller host j.

    Hosts are leaves, so no shortest path between switches passes
    through one: the hop count from a switch to a host is 1 plus its
    distance to the host's ToR in the switch-only graph. So this runs
    one level-synchronous BFS over the switches alone for every
    controller at once, from each controller's ToR at 1, and equals
    reference.bfs_hops from each host.

    Each switch holds one bit per controller, in 64-bit words, set once
    that controller has reached it. Each switch's segment of the
    switch-only CSR starts with the switch itself, so no segment is
    empty and one level is one gather of the words over the CSR and one
    bitwise-or per segment. A switch's hop count to controller c is the
    level at which bit c first appears: 1 plus the number of levels that
    lack it.
    """
    n_s, hosts = topo.n_switches, placement.controller_hosts
    adjacency = topo.adjacency
    # switch s's segment: s - n_s, which marks the segment's start by
    # being negative and which numpy reads as row s, then the switch
    # neighbours of s (its hosts are dropped)
    flat = []
    for s in topo.switches:
        flat.append(s - n_s)
        flat.extend(adjacency[s])
    ends = np.fromiter(flat, np.intp, len(flat))
    indices = ends[ends < n_s]
    starts = np.flatnonzero(indices < 0)
    # switch s's little-endian words start at byte 8*words*s, so its bit
    # c is bit c%8 of byte 8*words*s + c//8
    words = (len(hosts) + 63) // 64
    tors = bytearray(8 * words * n_s)
    for c, host in enumerate(hosts):
        for s in adjacency[host]:
            tors[8 * words * s + c // 8] |= 1 << c % 8
    reached = np.frombuffer(tors, "<u8").reshape(n_s, words)
    levels = [reached]
    while True:
        grown = np.bitwise_or.reduceat(reached.take(indices, axis=0), starts)
        if grown.tobytes() == reached.tobytes():  # no switch gained a bit
            break
        levels.append(grown)
        reached = grown
    # bits[l, s, c] is 1 once controller c has reached switch s at hop
    # count l + 1
    bits = np.unpackbits(np.array(levels, "<u8").view(np.uint8), axis=-1,
                         count=len(hosts), bitorder="little")
    if np.count_nonzero(bits[-1]) != bits[-1].size:
        # the first controller missing a switch, and its first such switch
        c = int(np.argmin(bits[-1].all(axis=0)))
        s = int(np.argmin(bits[-1, :, c]))
        raise ValueError(f"switch {topo.switches[s]} cannot reach "
                         f"controller host {hosts[c]}")
    hops = len(levels) + 1 - bits.sum(axis=0, dtype=np.intp)
    return tuple(map(tuple, hops.tolist()))


def derive_alpha(w) -> Fraction:
    """Average hop count over all switch-controller pairs."""
    if not w or not w[0]:
        raise ValueError("empty cost matrix")
    total = sum(sum(row) for row in w)
    return Fraction(total, len(w) * len(w[0]))


def build_cost_model(topo: Topology, placement: PlacementResult) -> CostModel:
    w = hop_matrix(topo, placement)
    return CostModel.uniform_alpha(w, derive_alpha(w))


def generate(kind: TopoKind, k: int, seed: int = 0,
             hosts_min: int | None = None, hosts_max: int | None = None) -> Topology:
    """Build the topology of `kind` with port count k: the CLI's
    dispatch. Only Jellyfish takes a host range."""
    given = [key for key, value in (("hosts_min", hosts_min),
                                    ("hosts_max", hosts_max))
             if value is not None]
    if given and kind is not TopoKind.JELLYFISH:
        raise ValueError(f"host range {', '.join(given)} given for "
                         f"{kind.value}; only jellyfish takes one")
    if kind is TopoKind.FAT_TREE:
        return gen_fat_tree(k)
    if kind is TopoKind.THREE_TIER:
        return gen_three_tier(k)
    if kind is TopoKind.F10:
        return gen_f10(k)
    if kind is TopoKind.JELLYFISH:
        # by default the mean, n_hosts // n_switches = (k^3/4) // (5k^2/4),
        # which is k // 5, to one more
        lo = hosts_min if hosts_min is not None else max(k // 5, 1)
        hi = hosts_max if hosts_max is not None else lo + 1
        return gen_jellyfish(k, lo, hi, seed)
    raise ValueError(f"unknown topology kind: {kind}")


def dump_edge_list(topo: Topology) -> str:
    """Plain-text dump: header line plus one `u v` pair per line with
    node ids rendered as s<idx> / h<idx>."""
    n_sw = topo.n_switches

    def name(n):
        return f"s{n}" if n < n_sw else f"h{n - n_sw}"

    lines = [
        f"# kind={topo.kind.value} k={topo.k} "
        f"switches={topo.n_switches} hosts={topo.n_hosts}"
    ]
    lines.extend(f"{name(u)} {name(v)}" for u, v in topo.edges())
    return "\n".join(lines) + "\n"
