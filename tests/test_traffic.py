import warnings

import numpy as np
import pytest

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
    sample_slot_services,
)


def write_cdf(tmp_path, text, name="cdf.txt"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def make_cfg(process, n_switches=1, **kw):
    return TrafficConfig(base_process=process, n_switches=n_switches,
                         n_controllers=2, **kw)


class TestCdfLoading:
    def test_constant_point(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(tmp_path, "1700 1.0\n"))
        assert cdf.mean == 1700
        assert cdf.sample(0.3) == 1700

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

    def test_rejects_all_zero_gaps(self, tmp_path):
        with pytest.raises(ValueError, match="positive"):
            load_interarrival_cdf(write_cdf(tmp_path, "0 1.0\n"))

    def test_parsed_once_per_arrival_state_and_capacity_check(
            self, tmp_path, monkeypatch):
        from sdnsched import engine, traffic
        from sdnsched.model import CostModel, SchedulerParams
        calls = []
        real = traffic.load_interarrival_cdf
        monkeypatch.setattr(traffic, "load_interarrival_cdf",
                            lambda path: calls.append(path) or real(path))
        cfg = make_cfg(TraceCdf(write_cdf(tmp_path, "1700 1.0\n")),
                       n_switches=5)
        ArrivalState(cfg)
        assert len(calls) == 1
        engine.capacity_check(engine.RunConfig(
            cost=CostModel.uniform_alpha(((1, 2),) * 5, 2), traffic=cfg,
            scheme=engine.Scheme.GREEDY, params=SchedulerParams(v=1),
            horizon_slots=1))
        assert len(calls) == 2

    def test_rejects_malformed_line(self, tmp_path):
        with pytest.raises(ValueError, match=":1"):
            load_interarrival_cdf(write_cdf(tmp_path, "1000\n"))

    def test_uniform_sample_mean(self, tmp_path):
        cdf = load_interarrival_cdf(write_cdf(tmp_path, "1000 0.0\n2400 1.0\n"))
        rng = np.random.default_rng(0)
        draws = [cdf.sample(u) for u in rng.random(10 ** 5)]
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

    def test_trace_conserves_events_across_boundaries(self, tmp_path):
        # replay: total arrivals over T slots equals events in [0, T*slot)
        path = write_cdf(tmp_path, "500 0.0\n2500 1.0\n")
        cfg = make_cfg(TraceCdf(path), seed=9)
        state = ArrivalState(cfg)
        n_slots = 500
        total = sum(sample_slot_arrivals(state)[0] for _ in range(n_slots))
        stream = ArrivalState(cfg).streams[0]
        t, events = stream.next_event, 0
        horizon = n_slots * cfg.slot_length_us
        while t <= horizon:
            events += 1
            t += stream.cdf.sample(stream.rng.random())
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


class TestServices:
    def test_controller_vector(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=3,
                            n_controllers=12, controller_capacity=600)
        ctrl, _ = sample_slot_services(cfg)
        assert ctrl == (600,) * 12

    def test_zero_capacity(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=2,
                            n_controllers=2, controller_capacity=0,
                            switch_capacity=0)
        ctrl, sw = sample_slot_services(cfg)
        assert ctrl == (0, 0) and sw == (0, 0)

    def test_switch_vector(self):
        cfg = TrafficConfig(base_process=Constant(1), n_switches=720,
                            n_controllers=2, switch_capacity=10)
        _, sw = sample_slot_services(cfg)
        assert sw == (10,) * 720


class TestMeanRate:
    def test_pareto_mean_formula(self):
        cfg = make_cfg(Pareto(shape=2, scale=2.94))
        assert mean_arrival_rates(cfg)[0] == pytest.approx(5.88)

    def test_hot_spot_override(self):
        cfg = make_cfg(Poisson(5.88), n_switches=2,
                       hot_spot_switches=frozenset({1}), hot_spot_rate=200)
        assert mean_arrival_rates(cfg) == [5.88, 200]
