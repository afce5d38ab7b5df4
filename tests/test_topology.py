import hashlib

import pytest

from sdnsched import topology
from sdnsched.model import TopoKind, Topology
from sdnsched.reference import bfs_hops
from sdnsched.topology import (
    PlacementResult,
    derive_alpha,
    dump_edge_list,
    gen_f10,
    gen_fat_tree,
    gen_jellyfish,
    gen_three_tier,
    generate,
    hop_matrix,
    place_controllers,
)


def degrees(topo):
    return {n: len(topo.adjacency[n]) for n in topo.adjacency}


class TestFatTree:
    def test_k4_counts(self):
        t = gen_fat_tree(4)
        assert t.n_switches == 20
        assert t.n_hosts == 16
        assert len(t.pods) == 4

    def test_k24_counts(self):
        t = gen_fat_tree(24)
        assert t.n_switches == 720
        assert t.n_hosts == 24 ** 3 // 4

    @pytest.mark.parametrize("k", [4, 6, 8, 10, 12])
    def test_closed_forms(self, k):
        t = gen_fat_tree(k)
        assert t.n_switches == 5 * k * k // 4
        assert t.n_hosts == k ** 3 // 4

    def test_edge_switch_degree(self):
        t = gen_fat_tree(4)
        deg = degrees(t)
        # every edge switch: k/2 aggregates + k/2 hosts
        for pod in t.pods:
            for e in pod[:2]:
                assert deg[e] == 4

    def test_every_host_one_tor(self):
        t = gen_fat_tree(4)
        for h in t.hosts:
            assert len(t.adjacency[h]) == 1

    def test_connected(self):
        t = gen_fat_tree(6)
        assert len(bfs_hops(t.adjacency, 0)) == t.n_switches + t.n_hosts

    @pytest.mark.parametrize("k", [3, 2, 5])
    def test_rejects_bad_k(self, k):
        with pytest.raises(ValueError):
            gen_fat_tree(k)


class TestThreeTier:
    def test_k26_count(self):
        assert gen_three_tier(26).n_switches == 702

    def test_k4_counts(self):
        t = gen_three_tier(4)
        assert t.n_switches == 20
        assert t.n_hosts == 24

    @pytest.mark.parametrize("k", [4, 6, 8])
    def test_closed_forms(self, k):
        t = gen_three_tier(k)
        assert t.n_switches == k * k + k
        assert t.n_hosts == (k ** 3 - k ** 2) // 2

    def test_aggregate_degree(self):
        t = gen_three_tier(4)
        deg = degrees(t)
        for pod in t.pods:
            agg = pod[-1]
            assert deg[agg] == 3 + 4  # k-1 edges + k cores

    def test_rejects_odd_k(self):
        with pytest.raises(ValueError):
            gen_three_tier(5)


class TestF10:
    def test_k24_count(self):
        assert gen_f10(24).n_switches == 720

    def test_node_counts_match_fat_tree(self):
        f, ft = gen_f10(4), gen_fat_tree(4)
        assert f.n_switches == ft.n_switches
        assert f.n_hosts == ft.n_hosts
        assert f.pods == ft.pods

    def test_wiring_differs_only_for_odd_pods(self):
        f, ft = gen_f10(4), gen_fat_tree(4)
        fe, fte = set(f.edges()), set(ft.edges())
        half = 2
        n_edge = n_agg = 4 * half
        core_start = n_edge + n_agg

        def is_agg_core(u, v):
            return n_edge <= u < core_start and core_start <= v < core_start + 4

        diff = fe ^ fte
        assert diff, "F10 must rewire some aggregate-core links"
        for u, v in diff:
            assert is_agg_core(u, v)
            pod = (u - n_edge) // half
            assert pod % 2 == 1

    def test_same_alpha_as_fat_tree(self):
        for k in (4, 8):
            f, ft = gen_f10(k), gen_fat_tree(k)
            af = derive_alpha(hop_matrix(f, place_controllers(f)))
            aft = derive_alpha(hop_matrix(ft, place_controllers(ft)))
            assert af == aft


class TestJellyfish:
    def test_counts(self):
        t = gen_jellyfish(8, 1, 2, seed=3)
        assert t.n_switches == 80
        assert t.n_hosts == 128
        assert t.pods == ()

    def test_same_seed_identical(self):
        a = gen_jellyfish(8, 1, 2, seed=7)
        b = gen_jellyfish(8, 1, 2, seed=7)
        assert a.edges() == b.edges()

    def test_different_seed_same_degree_sequence(self):
        a = gen_jellyfish(8, 1, 2, seed=1)
        b = gen_jellyfish(8, 1, 2, seed=2)
        assert a.edges() != b.edges()
        da = sorted(len(a.adjacency[s]) for s in a.switches)
        db = sorted(len(b.adjacency[s]) for s in b.switches)
        assert da == db

    def test_port_accounting(self):
        t = gen_jellyfish(8, 1, 2, seed=5)
        for s in t.switches:
            nbrs = t.adjacency[s]
            n_hosts = sum(1 for n in nbrs if n >= t.n_switches)
            assert 1 <= n_hosts <= 2
            assert len(nbrs) <= t.k

    def test_connected(self):
        t = gen_jellyfish(8, 1, 2, seed=5)
        assert len(bfs_hops(t.adjacency, 0)) == t.n_switches + t.n_hosts

    @pytest.mark.parametrize("k", [4, 3, 0])
    def test_rejects_k_below_5(self, k):
        # k = 4 has 16 hosts for 20 switches: some switch would have none
        with pytest.raises(ValueError, match=f"k must be >= 5 for jellyfish, "
                           f"got {k}: its k\\^3/4 hosts"):
            gen_jellyfish(k, 1, 2, seed=0)

    def test_k_5_builds(self):
        t = gen_jellyfish(5, 1, 2, seed=0)
        assert (t.n_switches, t.n_hosts) == (31, 31)

    def test_rejects_infeasible_hosts(self):
        with pytest.raises(ValueError):
            gen_jellyfish(8, 3, 3, seed=0)  # 240 host ports != 128

    @pytest.mark.parametrize("k", [11, 16, 26])
    def test_default_host_range_holds_the_mean(self, k):
        # k/5 hosts per switch on average; a range of k // 6 and one more
        # misses it from k = 11 on
        t = generate(TopoKind.JELLYFISH, k, seed=0)
        assert (t.n_switches, t.n_hosts) == (5 * k * k // 4, k ** 3 // 4)
        per_switch = {sum(1 for n in t.adjacency[s] if n >= t.n_switches)
                      for s in t.switches}
        assert per_switch <= {k // 5, k // 5 + 1}

    @pytest.mark.parametrize("k", [10, 15, 20])
    def test_default_host_range_keeps_buildable_graphs(self, k):
        old = max(k // 6, 1)
        for seed in (0, 1):
            assert (generate(TopoKind.JELLYFISH, k, seed).adjacency
                    == gen_jellyfish(k, old, old + 1, seed).adjacency)


def graph_digest(t, seed=0):
    """sha256 of a topology's edge list, pods and controller hosts."""
    h = hashlib.sha256(dump_edge_list(t).encode())
    h.update(repr(t.pods).encode())
    h.update(repr(place_controllers(t, seed).controller_hosts).encode())
    return h.hexdigest()


# recorded at the per-kind builders the Clos builder replaced; a change of
# wiring, node order or controller placement changes a digest
CLOS_DIGESTS = {
    ("fat-tree", 4):
        "b45c176107caffd69ba7e01b814f630d496d6906b24f0e18485830a9e951e302",
    ("fat-tree", 6):
        "50ac375f0832f123c18630fd218c9168430e3e05e5fc245f7f8d0f93b12772d6",
    ("fat-tree", 8):
        "a3b05e01c50cce95affee3a13b2f7281d91dd39a742d3cc0607e457482fabbd2",
    ("f10", 4):
        "94d73350ee1e8335d7c5f64187b9afe3a92a70be9ea382d0a643a0bbd98d1806",
    ("f10", 6):
        "4997b1e6f202f92669b7609efb994f94c8b9626dac724939e3d26263b87b71c4",
    ("f10", 8):
        "0a97efd81c462c4ffd0927ec4bac4773ae916780f766a74fc78267e5a99153c0",
    ("three-tier", 4):
        "b7cd1cd3f73a2a285f54f7ff99220a0e18a1f06b5cf10a7d0e62032931e174ec",
    ("three-tier", 6):
        "387361e3354eae9fc4bdeb68bc95b7e4aef890e8778929444c051228558f4cb9",
    ("three-tier", 8):
        "11bd2688245233595623e367948dcf818945959f8c3f024285bdd1d038572482",
}
# (k, seed); at k = 6 and 8 the leftover hosts fit in one pass over the
# shuffle, so the host range 1..3 gives the default range's graph
JELLYFISH_DIGESTS = {
    (6, 0):
        "8bed397717377a7377a60cd6438010979e42b29e8c1965c145473db58631ab08",
    (6, 1):
        "1eb249dc436225bf85622c3e004e3192b3b948142a7752c91eaca34d60ec5396",
    (6, 2):
        "5e4c6d13cd7862ad683b597052b00ca105a3a15a76eaf4ee9cdcd416580ff038",
    (8, 0):
        "3bcf6d7dffa88300b9d836c14bcde9dcb4dd989148d92cc6b42dc6f7830048f6",
    (8, 1):
        "df085b1a5b82c178c72f4e529e776cd1c2b41db9ac8a0e02c7ff9fa56f0753a6",
    (8, 2):
        "3d13d4ac84e3ae5880d779e5907139be2c4945bf221f87154cb2eca00a6ac96c",
}


class TestPinnedGraphs:
    """Every generator's exact graph."""

    @pytest.mark.parametrize("kind, k", CLOS_DIGESTS)
    def test_clos(self, kind, k):
        assert (graph_digest(generate(TopoKind(kind), k))
                == CLOS_DIGESTS[kind, k])

    @pytest.mark.parametrize("k, seed", JELLYFISH_DIGESTS)
    def test_jellyfish(self, k, seed):
        digest = JELLYFISH_DIGESTS[k, seed]
        assert graph_digest(generate(TopoKind.JELLYFISH, k, seed), seed) == digest
        assert graph_digest(gen_jellyfish(k, 1, 3, seed), seed) == digest


def reference_clos(kind, k, n_edge, n_agg, n_core, cores_of):
    """The specification of topology._clos: one neighbour list per node,
    grown link by link and then sorted."""
    topology._check_k(k)
    half = k // 2
    edges, aggs = k * n_edge, k * n_agg
    core0 = edges + aggs
    n_switches = core0 + n_core
    n_nodes = n_switches + edges * half
    topology._check_nodes(kind, k, n_nodes)
    adj = [[] for _ in range(n_nodes)]
    pods = []
    for p in range(k):
        pod_edges = range(p * n_edge, (p + 1) * n_edge)
        pod_aggs = range(edges + p * n_agg, edges + (p + 1) * n_agg)
        for e in pod_edges:
            tor_hosts = range(n_switches + e * half,
                              n_switches + (e + 1) * half)
            adj[e].extend(pod_aggs)
            adj[e].extend(tor_hosts)
            for n in (*pod_aggs, *tor_hosts):
                adj[n].append(e)
        for a, agg in enumerate(pod_aggs):
            for c in cores_of(p, a):
                adj[agg].append(core0 + c)
                adj[core0 + c].append(agg)
        pods.append((*pod_edges, *pod_aggs))
    return Topology(kind=kind, k=k, switches=tuple(range(n_switches)),
                    hosts=tuple(range(n_switches, n_nodes)),
                    adjacency={n: tuple(sorted(nbrs))
                               for n, nbrs in enumerate(adj)},
                    pods=tuple(pods))


CLOS_KINDS = [TopoKind.FAT_TREE, TopoKind.F10, TopoKind.THREE_TIER]


class TestClosBuilder:
    """The tuple-built Clos fabrics equal the list-and-sort specification,
    each kind with its own pod sizes and core wiring."""

    @pytest.mark.parametrize("k", range(4, 17, 2))
    @pytest.mark.parametrize("kind", CLOS_KINDS, ids=lambda k: k.value)
    def test_equals_reference(self, monkeypatch, kind, k):
        built = generate(kind, k)
        monkeypatch.setattr(topology, "_clos", reference_clos)
        assert built == generate(kind, k)


class TestNodeLimit:
    """No kind builds a topology of more than MAX_NODES nodes."""

    @pytest.mark.parametrize("kind", list(TopoKind), ids=lambda k: k.value)
    def test_built_at_limit_rejected_over_it(self, monkeypatch, kind):
        n_nodes = len(generate(kind, 6).adjacency)
        monkeypatch.setattr(topology, "MAX_NODES", n_nodes)
        assert len(generate(kind, 6).adjacency) == n_nodes
        monkeypatch.setattr(topology, "MAX_NODES", n_nodes - 1)
        with pytest.raises(ValueError, match=(
                f"^{kind.value} k=6 has {n_nodes} nodes, more than the "
                f"limit of {n_nodes - 1}$")):
            generate(kind, 6)


class TestPlacement:
    def test_fat_tree_24_has_12(self):
        t = gen_fat_tree(24)
        assert place_controllers(t).controller_count == 12

    def test_three_tier_26_has_13(self):
        t = gen_three_tier(26)
        assert place_controllers(t).controller_count == 13

    def test_hosts_distinct(self):
        p = place_controllers(gen_fat_tree(8))
        assert len(set(p.controller_hosts)) == p.controller_count

    def test_jellyfish_non_adjacent_tors(self):
        t = gen_jellyfish(8, 1, 2, seed=11)
        p = place_controllers(t, seed=11)
        assert p.controller_count == 4
        sw = set(t.switches)
        tors = [next(n for n in t.adjacency[h] if n in sw)
                for h in p.controller_hosts]
        assert len(set(tors)) == len(tors)
        for i, a in enumerate(tors):
            for b in tors[i + 1:]:
                assert b not in t.adjacency[a]

    def test_jellyfish_deterministic(self):
        t = gen_jellyfish(8, 1, 2, seed=11)
        assert place_controllers(t, seed=3) == place_controllers(t, seed=3)


class TestHopMatrix:
    def test_tor_is_one_hop(self):
        t = gen_fat_tree(4)
        p = place_controllers(t)
        w = hop_matrix(t, p)
        host = p.controller_hosts[0]
        tor = next(n for n in t.adjacency[host] if n < t.n_switches)
        assert w[tor][0] == 1

    def test_same_pod_different_tor_is_three(self):
        t = gen_fat_tree(4)
        p = place_controllers(t)
        w = hop_matrix(t, p)
        # controller 0 sits under edge switch 0 of pod 0; edge switch 1
        # of pod 0 reaches it via an aggregate
        assert w[1][0] == 3

    def test_other_pod_is_five(self):
        t = gen_fat_tree(4)
        w = hop_matrix(t, place_controllers(t))
        # pod 2's first edge switch, controller 0 in pod 0
        assert w[t.pods[2][0]][0] == 5

    def test_reverse_bfs_agrees(self):
        t = gen_fat_tree(4)
        p = place_controllers(t)
        w = hop_matrix(t, p)
        for i in (0, 5, 13, 19):
            fwd = bfs_hops(t.adjacency, i)
            for j, h in enumerate(p.controller_hosts):
                assert w[i][j] == fwd[h]

    @pytest.mark.parametrize("kind, k", [
        pytest.param(kind, k, id=f"{kind.value}-{k}")
        for kind in CLOS_KINDS for k in range(4, 13, 2)])
    def test_equals_bfs_from_each_controller_host(self, kind, k):
        t = generate(kind, k)
        assert_hop_matrix_is_host_bfs(t, place_controllers(t))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k", range(6, 13))
    def test_jellyfish_default_range_equals_bfs(self, k, seed):
        t = generate(TopoKind.JELLYFISH, k, seed)
        assert_hop_matrix_is_host_bfs(t, place_controllers(t, seed=seed))

    def test_second_word_equals_bfs(self):
        # 70 controllers need a second 64-bit word per switch; hosts
        # 6 apart share some ToRs and spread over every pod
        t = gen_fat_tree(12)
        p = PlacementResult(controller_hosts=t.hosts[::6][:70])
        assert len(p.controller_hosts) == 70
        assert_hop_matrix_is_host_bfs(t, p)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("k, lo, hi", [(6, 1, 2), (6, 1, 3), (8, 1, 2),
                                           (8, 1, 3)])
    def test_jellyfish_equals_bfs_from_each_controller_host(self, k, lo, hi,
                                                            seed):
        t = gen_jellyfish(k, lo, hi, seed=seed)
        assert_hop_matrix_is_host_bfs(t, place_controllers(t, seed=seed))

    def test_isolated_switch_named(self):
        # switches 0-1-2 in a line and switch 3 alone; the controller
        # host 4 hangs off switch 0
        t = Topology(kind=TopoKind.JELLYFISH, k=4, switches=(0, 1, 2, 3),
                     hosts=(4,), adjacency={0: (1, 4), 1: (0, 2), 2: (1,),
                                            3: (), 4: (0,)}, pods=())
        with pytest.raises(ValueError,
                           match="switch 3 cannot reach controller host 4"):
            hop_matrix(t, PlacementResult(controller_hosts=(4,)))

    def test_unreachable_in_second_word_named(self):
        # switches 0-1 with 65 hosts on switch 1 and host 67 on no switch:
        # controllers 0-64 reach both switches, and controller 65 (bit 1
        # of the second word) reaches none, so switch 0 is named for it
        hosts = tuple(range(2, 68))
        adjacency = {0: (1,), 1: (0, *hosts[:65]), 67: ()}
        adjacency.update((h, (1,)) for h in hosts[:65])
        t = Topology(kind=TopoKind.JELLYFISH, k=4, switches=(0, 1),
                     hosts=hosts, adjacency=adjacency, pods=())
        with pytest.raises(ValueError,
                           match="^switch 0 cannot reach controller host 67$"):
            hop_matrix(t, PlacementResult(controller_hosts=hosts))


def assert_hop_matrix_is_host_bfs(t, p):
    """hop_matrix equals bfs_hops run from each controller host, entry by
    entry."""
    w = hop_matrix(t, p)
    assert len(w) == t.n_switches
    for j, host in enumerate(p.controller_hosts):
        dist = bfs_hops(t.adjacency, host)
        assert [row[j] for row in w] == [dist[s] for s in t.switches]


class TestAlpha:
    def test_uniform_matrix(self):
        assert derive_alpha(((3, 3), (3, 3))) == 3

    def test_fat_tree_24(self):
        t = gen_fat_tree(24)
        a = derive_alpha(hop_matrix(t, place_controllers(t)))
        assert abs(float(a) - 4.13) <= 0.01

    def test_three_tier_26(self):
        t = gen_three_tier(26)
        a = derive_alpha(hop_matrix(t, place_controllers(t)))
        assert abs(float(a) - 4.81) <= 0.01

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            derive_alpha(())


def test_dump_edge_list_format():
    from sdnsched.topology import dump_edge_list
    t = gen_fat_tree(4)
    text = dump_edge_list(t)
    lines = text.strip().split("\n")
    assert lines[0] == "# kind=fat-tree k=4 switches=20 hosts=16"
    assert all(len(line.split()) == 2 for line in lines[1:])
    assert any(line.startswith("s0 ") for line in lines[1:])
    assert sum(1 for line in lines[1:] if " h" in line) == 16
