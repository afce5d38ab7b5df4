import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sdnsched import traffic
from sdnsched.engine import LaneGroup, RunConfig, Scheme
from sdnsched.model import CostModel, SchedulerParams
from sdnsched.reference import inverse_cdf
from sdnsched.traffic import (
    ArrivalState,
    Constant,
    Pareto,
    Poisson,
    TraceCdf,
    TrafficConfig,
    load_interarrival_cdf,
    mean_arrival_rates,
    sample_slot_arrivals,
)


def write_cdf(tmp_path, text, name="cdf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_cfg(process, n_switches=1, **kw):
    return TrafficConfig(base_process=process, n_switches=n_switches,
                         n_controllers=2, **kw)


class ReferenceStream:
    """One switch's arrivals, one slot per call: the scalar specification
    of ArrivalState. Poisson and Pareto draw their own 4096-slot blocks;
    trace mode draws one gap per event, the first in the constructor."""

    def __init__(self, process, cfg, index, cdf):
        self.process = process
        self.cfg = cfg
        self.rng = np.random.default_rng([cfg.seed, index])
        self.buf = np.empty(0, np.int64)
        self.pos = 0
        if isinstance(process, TraceCdf):
            self.cdf = cdf
            self.next_event = inverse_cdf(cdf, self.rng.random())

    def _refill(self):
        p = self.process
        if isinstance(p, Poisson):
            self.buf = self.rng.poisson(p.rate, 4096)
        else:
            u = self.rng.random(4096)
            draws = np.rint(p.scale / u ** (1.0 / p.shape))
            self.buf = np.minimum(draws, self.cfg.a_max).astype(np.int64)
        self.pos = 0

    def next_slot(self) -> int:
        p = self.process
        if isinstance(p, Constant):
            count = p.rate
        elif isinstance(p, TraceCdf):
            count = 0
            budget = float(self.cfg.slot_length_us)
            while self.next_event <= budget:
                count += 1
                budget -= self.next_event
                self.next_event = inverse_cdf(self.cdf, self.rng.random())
            self.next_event -= budget
        else:
            if self.pos >= len(self.buf):
                self._refill()
            count = int(self.buf[self.pos])
            self.pos += 1
        return min(max(count, 0), self.cfg.a_max)


def reference_rows(cfg, n_slots):
    base = cfg.base_process
    cdf = load_interarrival_cdf(base.path) \
        if isinstance(base, TraceCdf) else None
    streams = [ReferenceStream(
        Constant(cfg.hot_spot_rate) if i in cfg.hot_spot_switches else base,
        cfg, i, cdf) for i in range(cfg.n_switches)]
    return [tuple(s.next_slot() for s in streams) for _ in range(n_slots)]


def sampled_rows(cfg, n_slots, block=None):
    with mock.patch.object(traffic, "_BLOCK", block or traffic._BLOCK):
        state = ArrivalState(cfg)
    rows = [sample_slot_arrivals(state) for _ in range(n_slots)]
    for row in rows:
        assert type(row) is tuple
        assert all(type(x) is int for x in row)
    return rows


@st.composite
def cdf_texts(draw):
    """CDF files of 1-5 points, some with a first gap of 0. Gaps of 0
    have probability at most 1/2, so a slot holds at most a few hundred
    events."""
    n = draw(st.integers(1, 5))
    xs = sorted(draw(st.sets(st.integers(50, 3000), min_size=n, max_size=n)))
    ps = sorted(draw(st.sets(st.integers(1, 15), min_size=n - 1,
                             max_size=n - 1)))
    if n > 1 and ps[0] <= 8 and draw(st.booleans()):
        xs[0] = 0
    ps = [p / 16 for p in ps] + [1.0]
    return "".join(f"{x} {p!r}\n" for x, p in zip(xs, ps))


@st.composite
def traffic_cases(draw, tmp_dir):
    kind = draw(st.sampled_from(["poisson", "pareto", "constant", "trace"]))
    if kind == "poisson":
        process = Poisson(draw(st.floats(0, 30)))
    elif kind == "pareto":
        process = Pareto(draw(st.floats(0.2, 3)), draw(st.floats(0.5, 5)))
    elif kind == "constant":
        process = Constant(draw(st.integers(0, 40)))
    else:
        path = Path(tmp_dir) / f"cdf{draw(st.integers(0, 10 ** 9))}.txt"
        path.write_text(draw(cdf_texts()))
        process = TraceCdf(str(path))
    n = draw(st.integers(1, 5))
    cfg = make_cfg(
        process, n_switches=n,
        hot_spot_switches=frozenset(draw(st.sets(st.integers(0, n - 1)))),
        hot_spot_rate=draw(st.integers(0, 30)),
        a_max=draw(st.sampled_from([1, 7, 25, 10 ** 6])),
        slot_length_us=draw(st.integers(100, 3000)),
        seed=draw(st.integers(0, 2 ** 32)))
    return cfg, draw(st.sampled_from([2, 3, 8, 64]))


@st.composite
def clustered_cdfs(draw):
    """CDF points whose probabilities crowd 2-12 deep into one bucket of
    sample_array's search table, plus a few spread ones and sometimes a
    point mass at ps[0] > 0. Returns (points, cluster size)."""
    n_cluster = draw(st.integers(2, 12))
    centre = draw(st.floats(0.01, 0.98))
    spacing = draw(st.sampled_from([1e-12, 1e-9, 1e-6]))
    ps = {centre + i * spacing for i in range(n_cluster)}
    ps |= set(draw(st.lists(st.floats(0.001, 0.999), max_size=4)))
    if draw(st.booleans()):
        ps.add(0.0)
    ps = sorted(p for p in ps if p < 1.0) + [1.0]
    steps = draw(st.lists(st.floats(0.5, 100.0), min_size=len(ps) - 1,
                          max_size=len(ps) - 1))
    xs = [draw(st.sampled_from([0.0, 3.5, 700.0]))]
    for step in steps:
        xs.append(xs[-1] + step)
    return list(zip(xs, ps)), n_cluster


def bits(values) -> list[int]:
    return np.asarray(values, dtype=float).view(np.uint64).tolist()


class TestCdfLoading:
    def test_constant_point(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(tmp_path, "1700 1.0\n"))
        assert cdf.mean == 1700
        assert inverse_cdf(cdf, 0.3) == 1700

    def test_comments_and_blanks(self, tmp_path):
        cdf = load_interarrival_cdf(
            write_cdf(tmp_path, "# us  prob\n\n1000 0.0\n2400 1.0\n"))
        assert cdf.mean == 1700

    def test_rejects_incomplete_probability(self, tmp_path):
        with pytest.raises(ValueError, match="1.0"):
            load_interarrival_cdf(write_cdf(tmp_path, "1000 0.5\n2000 0.9\n"))

    def test_rejects_non_monotone_with_line_number(self, tmp_path):
        with pytest.raises(ValueError, match=":3"):
            load_interarrival_cdf(
                write_cdf(tmp_path, "1000 0.2\n2000 0.5\n1500 1.0\n"))

    def test_rejects_empty(self, tmp_path):
        with pytest.raises(ValueError, match="no data"):
            load_interarrival_cdf(write_cdf(tmp_path, "# only a comment\n"))

    def test_rejects_negative_interarrival(self, tmp_path):
        with pytest.raises(ValueError, match="nonnegative"):
            load_interarrival_cdf(write_cdf(tmp_path, "-5 0.5\n5 1.0\n"))

    @pytest.mark.parametrize("text", ["nan 1.0\n", "5 0.5\ninf 1.0\n"])
    def test_rejects_non_finite(self, tmp_path, text):
        with pytest.raises(ValueError, match="finite"):
            load_interarrival_cdf(write_cdf(tmp_path, text))

    def test_rejects_all_zero_gaps(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            load_interarrival_cdf(write_cdf(tmp_path, "0 1.0\n"))

    def test_rejects_binary_file_by_path(self, tmp_path):
        # the head of an executable: byte 24 starts no UTF-8 sequence
        path = tmp_path / "bin.cdf"
        path.write_bytes(b"\x7fELF\x02\x01\x01" + bytes(9)
                         + b"\x03\x00>\x00\x01\x00\x00\x00\xd0o\x00\x00")
        with pytest.raises(ValueError) as exc:
            load_interarrival_cdf(str(path))
        assert str(exc.value).startswith(f"{path}: not UTF-8 text: ")
        assert "position 24" in str(exc.value)

    def test_crlf_lines_numbered(self, tmp_path):
        path = tmp_path / "crlf.cdf"
        path.write_bytes(b"# us prob\r\n1000 0.5\r\n900 1.0\r\n")
        with pytest.raises(ValueError, match=":3: columns must be strictly"):
            load_interarrival_cdf(str(path))

    def test_parsed_once_per_arrival_state_and_capacity_check(
            self, tmp_path, monkeypatch):
        from sdnsched import engine, traffic
        from sdnsched.model import CostModel, SchedulerParams
        calls = []
        real = traffic.load_interarrival_cdf
        monkeypatch.setattr(traffic, "load_interarrival_cdf",
                            lambda path: calls.append(path) or real(path))
        # the TraceCdf reads its file once; the traffic config's event
        # limit, the arrival state and the capacity check all read the
        # parsed CDF it holds
        cfg = make_cfg(TraceCdf(write_cdf(tmp_path, "1700 1.0\n")),
                       n_switches=5)
        assert len(calls) == 1
        ArrivalState(cfg)
        engine.capacity_check(engine.RunConfig(
            cost=CostModel.uniform_alpha(((1, 2),) * 5, 2), traffic=cfg,
            scheme=engine.Scheme.GREEDY, params=SchedulerParams(v=1),
            horizon_slots=1))
        assert len(calls) == 1

    def test_rejects_malformed_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_interarrival_cdf(write_cdf(tmp_path, "1000\n"))

    def test_uniform_sample_mean(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(tmp_path, "1000 0.0\n2400 1.0\n"))
        rng = np.random.default_rng(0)
        draws = [inverse_cdf(cdf, u) for u in rng.random(10 ** 5)]
        assert abs(np.mean(draws) - 1700) / 1700 < 0.01


class TestArrivals:
    def test_constant_hot_spot(self):
        cfg = make_cfg(Poisson(5.88), n_switches=3,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=200)
        state = ArrivalState(cfg)
        for _ in range(10):
            arr = sample_slot_arrivals(state)
            assert arr[1] == 200

    def test_trace_rate_from_constant_interarrival(self, tmp_path):
        path = write_cdf(tmp_path, "1700 1.0\n")
        cfg = make_cfg(TraceCdf(path))
        state = ArrivalState(cfg)
        total = sum(sample_slot_arrivals(state)[0] for _ in range(2000))
        # 10000us slots / 1700us inter-arrival = 5.88 per slot
        assert abs(total / 2000 - 5.88) < 0.01

    def test_trace_above_event_limit_rejected(self, tmp_path):
        # a mean gap of 5e-7 us: 2e10 events in a 10000 us slot
        path = write_cdf(tmp_path, "0 0.999999\n1 1.0\n")
        with pytest.raises(ValueError, match="above the limit 1000000"):
            ArrivalState(make_cfg(TraceCdf(path)))

    def test_trace_conserves_events_across_boundaries(self, tmp_path):
        # replay: total arrivals over T slots equals events in [0, T*slot)
        path = write_cdf(tmp_path, "500 0.0\n2500 1.0\n")
        cfg = make_cfg(TraceCdf(path), seed=9)
        state = ArrivalState(cfg)
        n_slots = 500
        total = sum(sample_slot_arrivals(state)[0] for _ in range(n_slots))
        cdf = load_interarrival_cdf(path)
        rng = np.random.default_rng([cfg.seed, 0])
        t, events = inverse_cdf(cdf, rng.random()), 0
        horizon = n_slots * cfg.slot_length_us
        while t <= horizon:
            events += 1
            t += inverse_cdf(cdf, rng.random())
        assert total == events

    def test_poisson_mean(self):
        cfg = make_cfg(Poisson(5.88))
        state = ArrivalState(cfg)
        n = 20_000
        total = sum(sample_slot_arrivals(state)[0] for _ in range(n))
        assert abs(total / n - 5.88) / 5.88 < 0.02

    def test_pareto_mean(self):
        cfg = make_cfg(Pareto(shape=2, scale=2.94))
        state = ArrivalState(cfg)
        n = 200_000
        total = sum(sample_slot_arrivals(state)[0] for _ in range(n))
        assert abs(total / n - 5.88) / 5.88 < 0.05

    def test_pareto_tail_clipped_not_zeroed(self):
        # at seed 0, 5 of these 40000 shape-0.2 draws exceed int64; each
        # must be capped at a_max, never wrap to 0
        cfg = make_cfg(Pareto(shape=0.2, scale=1.0), seed=0)
        state = ArrivalState(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            draws = [sample_slot_arrivals(state)[0] for _ in range(40_000)]
        assert min(draws) >= 1

    def test_pareto_tail_capped_past_int64(self):
        # with a_max >= 2^63, a tail draw is capped at 2^63 - 1, the
        # largest count an int64 row holds; at seed 0, 5 of these 40000
        # shape-0.2 draws reach it
        cfg = make_cfg(Pareto(shape=0.2, scale=1.0), seed=0, a_max=10 ** 20)
        state = ArrivalState(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            draws = [sample_slot_arrivals(state)[0] for _ in range(40_000)]
        assert min(draws) >= 1
        assert draws.count(2 ** 63 - 1) == 5
        assert max(draws) == 2 ** 63 - 1

    def test_pareto_draw_of_exactly_2_63_capped(self):
        # scale 2^63 * u0, where u0 is the stream's first uniform, makes
        # the first draw exactly 2^63, the float that the cap 2^63 - 1
        # compares as: it is capped, not cast past int64
        u0 = np.random.default_rng([3, 0]).random()
        assert np.rint(2.0 ** 63 * u0 / u0) == 2.0 ** 63
        cfg = make_cfg(Pareto(1.0, 2.0 ** 63 * u0), seed=3, a_max=10 ** 20)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert sample_slot_arrivals(ArrivalState(cfg)) == (2 ** 63 - 1,)

    def test_pareto_overflowing_draws_capped_quietly(self):
        # with shape 1e-300 every u**(1/shape) underflows to 0, so every
        # draw is inf: each is capped at a_max, with no numpy warning
        cfg = make_cfg(Pareto(shape=1e-300, scale=1.0), seed=0)
        state = ArrivalState(cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            draws = [sample_slot_arrivals(state)[0] for _ in range(600)]
        assert set(draws) == {cfg.a_max}

    def test_same_seed_bit_identical(self):
        cfg = make_cfg(Poisson(5.88), n_switches=4, seed=42)
        a = [sample_slot_arrivals(ArrivalState(cfg))
             for _ in range(1)]
        s1, s2 = ArrivalState(cfg), ArrivalState(cfg)
        for _ in range(100):
            assert sample_slot_arrivals(s1) == sample_slot_arrivals(s2)

    def test_a_max_cap(self):
        cfg = make_cfg(Poisson(50), a_max=3)
        state = ArrivalState(cfg)
        assert all(max(sample_slot_arrivals(state)) <= 3 for _ in range(200))

    def test_hot_spot_leaves_other_streams_unchanged(self):
        base = make_cfg(Poisson(5.88), n_switches=3, seed=7)
        hot = make_cfg(Poisson(5.88), n_switches=3, seed=7,
                       hot_spot_switches=frozenset({0}), hot_spot_rate=50)
        s_base, s_hot = ArrivalState(base), ArrivalState(hot)
        for _ in range(200):
            a, b = sample_slot_arrivals(s_base), sample_slot_arrivals(s_hot)
            assert a[1:] == b[1:]


class TestBlockSampler:
    """ArrivalState's rows equal the scalar reference, draw for draw."""

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_rows_equal_reference(self, data):
        with tempfile.TemporaryDirectory() as tmp_dir:
            cfg, block = data.draw(traffic_cases(tmp_dir))
            n_slots = 3 * block + 5  # several block and gap refills
            assert sampled_rows(cfg, n_slots, block) == \
                reference_rows(cfg, n_slots)

    @pytest.mark.parametrize("process", [
        Poisson(5.88), Poisson(40), Pareto(0.2, 1.0), Pareto(2, 2.94)])
    def test_full_blocks_equal_reference(self, process):
        cfg = make_cfg(process, n_switches=4, seed=3,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=9)
        n_slots = 2 * traffic._BLOCK + 77
        assert sampled_rows(cfg, n_slots) == reference_rows(cfg, n_slots)

    @pytest.mark.parametrize("process", [
        Poisson(2.0), Pareto(2, 2.94), Constant(3)])
    def test_hot_rate_past_int64_equals_reference(self, process):
        # a hot-spot rate of 2^64 under a_max 2^70: the hot switch gets
        # min(rate, a_max) = 2^64 arrivals every slot, as for a constant
        # base and in mean_arrival_rates, while its neighbours' draws
        # stay those of the reference
        cfg = make_cfg(process, n_switches=4, seed=0,
                       hot_spot_switches=frozenset({0}),
                       hot_spot_rate=2 ** 64, a_max=2 ** 70)
        n_slots = traffic._BLOCK + 77
        rows = sampled_rows(cfg, n_slots)
        assert rows == reference_rows(cfg, n_slots)
        assert {row[0] for row in rows} == {2 ** 64} == \
            {mean_arrival_rates(cfg)[0]}

    @pytest.mark.parametrize("text", [
        "700 1.0\n",                      # one point: every gap is 700
        "0 0.25\n900 1.0\n",              # a quarter of the gaps are 0
        "0 0.9\n50 1.0\n",                # ~400 events per slot: many passes
        "120 0.0\n300 0.2\n800 0.6\n2500 1.0\n",
    ])
    def test_trace_equals_reference(self, tmp_path, text):
        cfg = make_cfg(TraceCdf(write_cdf(tmp_path, text)), n_switches=3,
                       slot_length_us=1000, seed=5,
                       hot_spot_switches=frozenset({2}), hot_spot_rate=4)
        assert sampled_rows(cfg, 300) == reference_rows(cfg, 300)

    def test_nothing_drawn_in_constructor(self, tmp_path):
        for process in (Poisson(3), TraceCdf(write_cdf(tmp_path, "9 1.0\n"))):
            state = ArrivalState(make_cfg(process, n_switches=2, seed=4))
            fresh = np.random.default_rng([4, 0])
            assert state.rngs[0].random() == fresh.random()

    @given(clustered_cdfs(), st.integers(0, 2 ** 32))
    @settings(max_examples=100, deadline=None)
    def test_sample_array_exact_for_clustered_probabilities(self, case, seed):
        points, n_cluster = case
        cdf = traffic.EmpiricalCdf(points)
        ps = np.array(cdf.ps)
        u = np.concatenate([
            np.random.default_rng(seed).random(500), [0.0], ps[:-1],
            np.nextafter(ps[:-1], 0.0), np.nextafter(ps[:-1], 1.0),
            np.linspace(ps.min(), ps[-2], 50)])
        cdf.sample_array(u[:1])
        m, steps = cdf._search[0], cdf._search[2]
        u = np.concatenate([u, np.arange(m) / m])  # every bucket edge
        # the cluster straddles at most one bucket edge, so the search
        # takes several correction steps, or a binary search when that is
        # more steps than a binary search takes
        assert steps is None or steps >= (n_cluster + 1) // 2
        assert bits(cdf.sample_array(u)) == \
            bits([inverse_cdf(cdf, x) for x in u])

    @pytest.mark.parametrize("ps, steps", [
        # three probabilities in one bucket: three correction steps
        ([0.0, 0.5, 0.5 + 1e-9, 0.5 + 2e-9, 0.75, 1.0], 3),
        # a log-binned tail, 40 points in [0.99, 1): a binary search
        ([0.5] + list(1 - 10 ** -np.linspace(2, 8, 40)) + [1.0], None),
    ])
    def test_sample_array_search_choice(self, ps, steps):
        cdf = traffic.EmpiricalCdf([(10.0 * (i + 1), p)
                                    for i, p in enumerate(ps)])
        u = np.concatenate([np.random.default_rng(1).random(2000), [0.0],
                            ps[:-1], np.nextafter(ps[:-1], 1.0),
                            1 - np.geomspace(1e-9, 0.02, 500)])
        out = cdf.sample_array(u)
        assert cdf._search[2] == steps
        assert bits(out) == bits([inverse_cdf(cdf, x) for x in u])

    def test_sample_array_keeps_negative_zero(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(tmp_path, "-0 0.5\n10 1.0\n"))
        u = np.array([0.0, 0.25, 0.5, 0.75])
        assert bits(cdf.sample_array(u)) == \
            bits([inverse_cdf(cdf, x) for x in u])

    @pytest.mark.parametrize("block", [None, 16])
    def test_trace_events_past_the_window(self, tmp_path, block):
        # runs of 1 us gaps: a slot often holds far more events than the
        # window, so the count takes further passes
        cfg = make_cfg(TraceCdf(write_cdf(tmp_path, "1 0.97\n30000 1.0\n")),
                       n_switches=4, slot_length_us=1000, seed=2,
                       hot_spot_switches=frozenset({1}))
        with mock.patch.object(ArrivalState, "_top_up_gaps", autospec=True,
                               side_effect=ArrivalState._top_up_gaps) as passes:
            rows = sampled_rows(cfg, 200, block)
        assert rows == reference_rows(cfg, 200)
        assert passes.call_count > 200 + 50

    @given(st.data())
    @settings(max_examples=50, deadline=None)
    def test_trace_batched_refills_with_hot_spots(self, data):
        # a CDF with zero gaps makes the switches read their gaps at
        # uneven rates, so each batched refill finds them at different
        # read positions; hot-spot switches are not trace switches
        n = data.draw(st.integers(2, 6))
        block = data.draw(st.integers(2, 64))
        zero = data.draw(st.integers(1, 8)) / 16
        big = data.draw(st.integers(100, 3000))
        with tempfile.TemporaryDirectory() as tmp_dir:
            cfg = make_cfg(
                TraceCdf(write_cdf(Path(tmp_dir), f"0 {zero!r}\n{big} 1.0\n")),
                n_switches=n,
                hot_spot_switches=frozenset(data.draw(
                    st.sets(st.integers(0, n - 1), max_size=n - 1))),
                hot_spot_rate=3,
                slot_length_us=data.draw(st.integers(100, 3000)),
                seed=data.draw(st.integers(0, 2 ** 32)))
            n_slots = 3 * block + 5
            assert sampled_rows(cfg, n_slots, block) == \
                reference_rows(cfg, n_slots)

    @pytest.mark.parametrize("process", [Poisson(5.88), Pareto(0.9, 2.0),
                                         "trace"])
    def test_seed_past_the_pool_equals_reference(self, tmp_path, process):
        # a seed of 2^96 or more is four words, so each switch's entropy
        # runs past SeedSequence's pool of four
        if process == "trace":
            process = TraceCdf(write_cdf(tmp_path, "0 0.25\n900 1.0\n"))
        cfg = make_cfg(process, n_switches=4, slot_length_us=1000,
                       seed=2 ** 100 + 12345,
                       hot_spot_switches=frozenset({2}), hot_spot_rate=4)
        n_slots = traffic._BLOCK + 77
        assert sampled_rows(cfg, n_slots) == reference_rows(cfg, n_slots)

    def test_sample_array_matches_sample(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(
            tmp_path, "0 0.1\n10 0.35\n250.5 0.6\n251 0.9\n9000 1.0\n"))
        u = np.concatenate([np.random.default_rng(0).random(5000),
                            [0.0, 0.1, 0.35, 0.6, 0.9, 0.1000001]])
        assert cdf.sample_array(u).tolist() == \
            [inverse_cdf(cdf, x) for x in u]


def lane_services(cfg):
    """The constant service vectors (controllers, switches) that the
    engine's lane loop builds from a traffic config."""
    cost = CostModel.uniform_alpha(((1,) * cfg.n_controllers,)
                                   * cfg.n_switches, 1)
    run_cfg = RunConfig(cost=cost, traffic=cfg, scheme=Scheme.STATIC,
                        params=SchedulerParams(), horizon_slots=1)
    [row] = LaneGroup([run_cfg], [0]).service.tolist()
    return tuple(row[cfg.n_switches:]), tuple(row[:cfg.n_switches])


# seeds of one to ten 32-bit words: from 2^96 on, a switch's entropy
# (the seed's words, then its index) runs past SeedSequence's pool of four
SEEDS = st.one_of(
    st.sampled_from([0, 2 ** 32 - 1, 2 ** 32, 2 ** 96, 2 ** 300]),
    st.integers(0, 300).flatmap(lambda bits: st.integers(0, 2 ** bits)))


def assert_default_rng_streams(seed, ids):
    streams = traffic.switch_streams(seed, ids)
    assert len(streams) == len(ids)
    for rng, i in zip(streams, ids):
        reference = np.random.default_rng([seed, i])
        assert rng.bit_generator.state == reference.bit_generator.state
        assert rng.random(3).tolist() == reference.random(3).tolist()
        assert rng.poisson(5.88, 3).tolist() == \
            reference.poisson(5.88, 3).tolist()


class TestSwitchStreams:
    """switch_streams(seed, ids) is default_rng([seed, i]) for each i."""

    @pytest.mark.parametrize("ids", [
        [],
        # fat-tree k=4 without its hot pod, switches 0, 1, 8 and 9
        [2, 3, 4, 5, 6, 7, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19],
        list(range(720)),                # fat-tree k=24
    ], ids=["empty", "gap", "720"])
    @given(seed=SEEDS)
    @settings(max_examples=25, deadline=None)
    def test_equal_default_rng(self, ids, seed):
        assert_default_rng_streams(seed, ids)

    @given(seed=SEEDS, ids=st.lists(st.integers(0, 2 ** 32 - 1), max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_any_ids_equal_default_rng(self, seed, ids):
        assert_default_rng_streams(seed, ids)

    def test_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            traffic.switch_streams(-1, [0])

    def test_traffic_config_rejects_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0, got -1"):
            make_cfg(Poisson(5.88), seed=-1)


class TestServices:
    def test_controller_vector(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=3,
                            n_controllers=12, controller_capacity=600)
        ctrl, _ = lane_services(cfg)
        assert ctrl == (600,) * 12

    def test_zero_capacity(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=2,
                            n_controllers=2, controller_capacity=0,
                            switch_capacity=0)
        ctrl, sw = lane_services(cfg)
        assert ctrl == (0, 0) and sw == (0, 0)

    def test_switch_vector(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=720,
                            n_controllers=2, switch_capacity=10)
        _, sw = lane_services(cfg)
        assert sw == (10,) * 720


class TestMeanRate:
    def test_pareto_mean_formula(self):
        cfg = make_cfg(Pareto(shape=2, scale=2.94))
        assert mean_arrival_rates(cfg)[0] == pytest.approx(5.88)

    def test_hot_spot_override(self):
        cfg = make_cfg(Poisson(5.88), n_switches=2,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=200)
        assert mean_arrival_rates(cfg) == [5.88, 200]

    def test_fixed_rates_capped_at_a_max(self):
        # as ArrivalState caps them: switch 1 is a hot spot
        cfg = make_cfg(Constant(9), n_switches=2, a_max=5,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=50)
        assert mean_arrival_rates(cfg) == [5, 5] \
            == ArrivalState(cfg).next_row().tolist()
        cfg = make_cfg(Constant(4), n_switches=2, a_max=5,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=50)
        assert mean_arrival_rates(cfg) == [4, 5]

    @pytest.mark.parametrize("process", [Pareto(shape=1, scale=2),
                                         Pareto(shape=0.5, scale=3),
                                         Poisson(100)])
    def test_random_rates_capped_at_a_max(self, process):
        # every draw is capped at a_max, so a mean is at most a_max, an
        # infinite Pareto mean included
        assert mean_arrival_rates(make_cfg(process, a_max=7)) == [7]
