import contextlib
import hashlib
import io
import itertools
import json
import os
import shlex
import tempfile
import time
from dataclasses import replace
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from sdnsched import cli, engine, topology, traffic
from sdnsched.cli import build_parser, cmd_sweep, main
from sdnsched.metrics import format_rational
from sdnsched.model import Devolution

from conftest import records


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTopo:
    def test_fat_tree_24_stats(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "topo", "--kind", "fat-tree",
                               "--k", "24", "--out", str(tmp_path / "e.txt"))
        assert code == 0
        assert "switches=720" in out
        assert "controllers=12" in out
        assert "alpha=4.130556" in out

    def test_three_tier_26_stats(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, "topo", "--kind", "three-tier",
                               "--k", "26", "--out", str(tmp_path / "e.txt"))
        assert code == 0
        assert "switches=702" in out
        assert "controllers=13" in out
        assert "alpha=4.811966" in out

    @pytest.mark.parametrize("kind", ["fat-tree", "jellyfish"])
    def test_huge_k_rejected(self, capsys, kind):
        # about 2e9 nodes, rejected before any is built
        code, _, err = run_cli(capsys, "topo", "--kind", kind, "--k", "2000")
        assert code == 1
        assert (f"error: {kind} k=2000 has 2005000000 nodes, more than the "
                f"limit of {topology.MAX_NODES}") in err

    def test_odd_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "topo", "--kind", "fat-tree",
                               "--k", "5")
        assert code == 1
        assert "even" in err

    def test_jellyfish_k_below_5_rejected(self, capsys):
        code, out, err = run_cli(capsys, "topo", "--kind", "jellyfish",
                                 "--k", "4")
        assert code == 1 and out == ""
        assert err.startswith("error: port count k must be >= 5 for "
                              "jellyfish, got 4: ")
        assert err.count("\n") == 1

    def test_edge_list_dump(self, capsys, tmp_path):
        out_file = tmp_path / "edges.txt"
        code, _, _ = run_cli(capsys, "topo", "--kind", "fat-tree", "--k", "4",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("# kind=fat-tree k=4")

    def test_negative_seed_named(self, capsys, tmp_path):
        # random.Random seeds with |seed|, so -3 would build seed 3's graph
        out_file = tmp_path / "edges.txt"
        code, out, err = run_cli(capsys, "topo", "--kind", "jellyfish",
                                 "--k", "6", "--seed", "-3",
                                 "--out", str(out_file))
        assert code == 1
        assert err == "error: --seed must be >= 0, got -3\n"
        assert out == "" and not out_file.exists()

    def test_jellyfish_default_host_range_builds(self, capsys):
        # 1024 hosts over 320 switches: 3 or 4 each, so the default range
        # must reach the mean of k/5 hosts per switch
        code, out, err = run_cli(capsys, "topo", "--kind", "jellyfish",
                                 "--k", "16", "--seed", "0")
        assert code == 0, err
        assert "switches=320 hosts=1024" in out

    @pytest.mark.parametrize("kind", ["fat-tree", "f10", "three-tier"])
    def test_host_range_outside_jellyfish_rejected(self, capsys, kind):
        code, _, err = run_cli(capsys, "topo", "--kind", kind, "--k", "4",
                               "--hosts-min", "0")
        assert code == 1
        assert (f"error: host range hosts_min given for {kind}; only "
                "jellyfish takes one") in err


class TestRun:
    def base_args(self, tmp_path, *extra):
        return ["run", "--kind", "fat-tree", "--k", "4", "--horizon", "50",
                "--arrivals", "poisson:2", "--controller-capacity", "20",
                "--switch-capacity", "4", "--out-dir", str(tmp_path),
                *extra]

    def test_run_writes_csv_and_summary(self, capsys, tmp_path):
        code, out, _ = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--v", "10", "--name", "demo"))
        assert code == 0
        csv = (tmp_path / "demo.csv").read_text().strip().split("\n")
        assert csv[0].startswith("t,f_slot,g_slot,f_bar")
        assert len(csv) == 51
        summary = json.loads((tmp_path / "demo.summary.json").read_text())
        assert summary["config"]["alpha"] == "3.700000"
        assert summary["config"]["n_controllers"] == 2

    def test_missing_horizon_named(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--kind", "fat-tree", "--k", "4",
                               "--scheme", "jsq", "--out-dir", str(tmp_path))
        assert code == 1
        assert "horizon" in err

    def test_all_validation_errors_reported(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "run", "--kind", "fat-tree", "--k", "4",
            "--horizon", "10", "--scheme", "greedy",
            "--arrivals", "bogus:1", "--v", "zzz",
            "--out-dir", str(tmp_path))
        assert code == 1
        assert "bogus" in err and "zzz" in err

    def test_config_file_with_flag_override(self, capsys, tmp_path):
        cfg = {"kind": "fat-tree", "k": 4, "scheme": "jsq", "horizon": 20,
               "arrivals": "constant:2", "name": "fromfile"}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, out, _ = run_cli(capsys, "run", "--config", str(path),
                               "--horizon", "5", "--out-dir", str(tmp_path))
        assert code == 0
        csv = (tmp_path / "fromfile.csv").read_text().strip().split("\n")
        assert len(csv) == 6  # header + overridden horizon

    def test_unknown_config_key_rejected(self, capsys, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "fat-tree", "nope": 1}))
        code, _, err = run_cli(capsys, "run", "--config", str(path),
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert "nope" in err

    @pytest.mark.parametrize("command", ["run", "sweep"])
    @pytest.mark.parametrize("text, problem", [
        (b'{"kind": "fat-tree",', "Expecting property name enclosed in "
         "double quotes: line 1 column 21 (char 20)"),
        (b"\xff{}", None),
        # nested deeper than the recursion limit
        (b"[" * 100000, "maximum recursion depth exceeded while decoding a "
         "JSON array from a unicode string"),
        (b'{"a": ' * 100000, "maximum recursion depth exceeded while "
         "decoding a JSON object from a unicode string"),
    ], ids=["truncated", "not-utf-8", "deep-array", "deep-object"])
    def test_malformed_config_named(self, capsys, tmp_path, command, text,
                                    problem):
        path = tmp_path / "bad.json"
        path.write_bytes(text)
        grid = ["--v-grid", "0"] if command == "sweep" else []
        code, _, err = run_cli(capsys, command, "--config", str(path), *grid,
                               "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: {path}: ") and err.count("\n") == 1
        if problem:
            assert err == f"error: {path}: {problem}\n"
        assert not (tmp_path / "out").exists()

    def run_config(self, capsys, tmp_path, **overrides):
        cfg = {"kind": "fat-tree", "k": 4, "scheme": "greedy", "horizon": 5,
               "arrivals": "constant:2", **overrides}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        return run_cli(capsys, "run", "--config", str(path),
                       "--out-dir", str(tmp_path))

    @pytest.mark.parametrize("flag, name", [
        ("--controller-capacity", "controller"),
        ("--switch-capacity", "switch"),
    ])
    def test_capacity_above_limit_named(self, capsys, tmp_path, flag, name):
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "jsq", flag, "2000000"))
        assert code == 1
        assert f"{name} capacity 2000000 exceeds the limit 1000000" in err

    @pytest.mark.parametrize("flags, problems", [
        (["--controller-capacity", "-1", "--hot-spot-rate", "-2"],
         ["hot_spot_rate must be >= 0, got -2",
          "controller_capacity must be >= 0, got -1"]),
        (["--switch-capacity", "-3"], ["switch_capacity must be >= 0, got -3"]),
        (["--hot-spot-rate", "-1", "--controller-capacity", "-4",
          "--switch-capacity", "-5"],
         ["hot_spot_rate must be >= 0, got -1",
          "controller_capacity must be >= 0, got -4",
          "switch_capacity must be >= 0, got -5"]),
    ], ids=["controller-hot-spot", "switch", "all-three"])
    def test_negative_rate_or_capacity_named(self, capsys, tmp_path, flags,
                                             problems):
        code, _, err = run_cli(capsys, "run", "--kind", "f10", "--k", "4",
                               "--scheme", "jsq", "--horizon", "3", *flags,
                               "--out-dir", str(tmp_path))
        assert code == 1
        for problem in problems:
            assert problem in err
        assert "rates and capacities" not in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("flags, named", [
        (["--hosts-min", "0"], "hosts_min=0, hosts_max=1"),
        (["--hosts-min", "3", "--hosts-max", "1"], "hosts_min=3, hosts_max=1"),
    ], ids=["min-zero", "min-above-max"])
    def test_jellyfish_host_range_named(self, capsys, tmp_path, flags, named):
        code, _, err = run_cli(capsys, "run", "--kind", "jellyfish", "--k",
                               "6", "--scheme", "jsq", "--horizon", "3",
                               *flags, "--out-dir", str(tmp_path))
        assert code == 1
        assert f"host range {named} must satisfy " \
            "1 <= hosts_min <= hosts_max <= k-1 = 5" in err
        assert "Traceback" not in err

    def test_jellyfish_k_below_5_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--kind", "jellyfish", "--k",
                               "4", "--scheme", "jsq", "--horizon", "3",
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: port count k must be >= 5 for "
                              "jellyfish, got 4: ")
        assert err.count("\n") == 1
        assert not list(tmp_path.iterdir())

    def test_host_range_outside_jellyfish_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "run", "--kind", "fat-tree", "--k",
                               "4", "--scheme", "jsq", "--horizon", "3",
                               "--hosts-min", "0", "--hosts-max", "-5",
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert ("error: host range hosts_min, hosts_max given for fat-tree; "
                "only jellyfish takes one") in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_config_value_of_wrong_type_rejected(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, k="4")
        assert code == 1
        assert "'k' must be int" in err and "Traceback" not in err

    def test_config_bool_for_int_rejected(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, horizon=True)
        assert code == 1
        assert "'horizon' must be int" in err

    def test_hot_spot_ids_outside_topology_rejected(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, hot_spot_rate=50,
                                       hot_spot_switches=[99, -1, 3])
        assert code == 1
        assert "[-1, 99] outside [0, 20)" in err
        assert not list(tmp_path.glob("*.summary.json"))

    def test_config_problems_reported_together(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, k="4", stride=False,
                                       hot_spot_switches=["0"])
        assert code == 1
        for name in ("'k'", "'stride'", "'hot_spot_switches'"):
            assert name in err
        code, _, err = self.run_config(capsys, tmp_path, scheme="bogus",
                                       hot_spot_switches=[20])
        assert code == 1
        assert "bogus" in err and "[20] outside" in err

    @pytest.mark.parametrize("flags, problems", [
        (["--v", "-1", "--arrivals", "bogus:1"],
         ["bad v value '-1'", "bad arrival process 'bogus:1'"]),
        (["--v", "-1"], ["bad v value '-1'"]),
        (["--stride", "0", "--arrivals", "bogus:1"],
         ["stride must be >= 1, got 0", "bad arrival process 'bogus:1'"]),
        (["--slot-length-us", "0", "--stride", "0"],
         ["slot length must be positive", "stride must be >= 1, got 0"]),
    ], ids=["v-arrivals", "v", "stride-arrivals", "slot-length-stride"])
    def test_every_problem_reported(self, capsys, tmp_path, flags, problems):
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", *flags))
        assert code == 1
        for problem in problems:
            assert f"error: {problem}" in err
        assert err.count("error: ") == len(problems)
        assert "Traceback" not in err

    def test_negative_traffic_seed_flag_named(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "jsq", "--traffic-seed", "-1"))
        assert code == 1
        assert "traffic_seed must be >= 0, got -1" in err
        assert "non-negative integer" not in err

    def test_negative_traffic_seed_key_named(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, traffic_seed=-1)
        assert code == 1
        assert "traffic_seed must be >= 0, got -1" in err
        assert "non-negative integer" not in err

    @pytest.mark.parametrize("flag", ["--run-seed", "--topo-seed"])
    def test_negative_seed_flag_named(self, capsys, tmp_path, flag):
        # random.Random seeds with |seed|, so -3 would run as 3
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path / "out", "--scheme", "random", flag, "-3"))
        assert code == 1
        key = flag[2:].replace("-", "_")
        assert err == f"error: {key} must be >= 0, got -3\n"
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("key", ["run_seed", "topo_seed"])
    def test_negative_seed_key_named(self, capsys, tmp_path, key):
        code, _, err = self.run_config(capsys, tmp_path, **{key: -1})
        assert code == 1
        assert err == f"error: {key} must be >= 0, got -1\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("cdf, problem", [
        ("-5 0.5\n5 1.0\n", "nonnegative"),
        ("0 1.0\n", "positive"),
        ("5 0.5\nnan 1.0\n", "finite"),
    ])
    def test_degenerate_trace_cdf_rejected(self, capsys, tmp_path, cdf,
                                           problem):
        path = tmp_path / "trace.cdf"
        path.write_text(cdf)
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--arrivals", f"trace:{path}"))
        assert code == 1
        assert problem in err and "Traceback" not in err

    @pytest.mark.parametrize("cdf, mean", [
        ("0 0.5\n5e-324 1.0\n", "0.0"),
        ("0 0.999999\n1 1.0\n", "5.000000000143778e-07"),
        ("0 0.5\n1e-300 1.0\n", "2.5e-301"),
    ])
    def test_trace_cdf_above_event_limit_rejected(self, capsys, tmp_path,
                                                  cdf, mean):
        # a mean gap of 0 (underflow) or far below a slot would need
        # billions of events per slot
        path = tmp_path / "trace.cdf"
        path.write_text(cdf)
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--horizon", "2",
            "--arrivals", f"trace:{path}"))
        assert code == 1
        assert f"{path}: mean inter-arrival time {mean} us" in err
        assert "above the limit 1000000" in err and "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    def test_trace_slot_past_float_range_rejected(self, capsys, tmp_path):
        path = tmp_path / "trace.cdf"
        path.write_text("0 0.0\n100 0.5\n400 1.0\n")
        code, _, err = self.run_config(capsys, tmp_path,
                                       arrivals=f"trace:{path}",
                                       slot_length_us=10 ** 400)
        assert code == 1
        assert err == (f"error: {path}: mean inter-arrival time 150.0 us "
                       "gives inf events per slot, above the limit "
                       "1000000\n")

    def test_out_dir_problem_reported_before_the_run(self, capsys, tmp_path,
                                                     monkeypatch):
        # an output directory that cannot be made fails the command
        # before it warns or runs, so stderr holds only the error
        monkeypatch.setattr(engine, "run", None)
        (tmp_path / "file").write_text("")
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path / "file" / "out", "--scheme", "greedy",
            "--controller-capacity", "1"))
        assert code == 1
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_trace_cdf_reported_with_other_problems(self, capsys,
                                                         tmp_path):
        # the CDF is read when the config is resolved, so its problem
        # comes with the others, before anything is written
        path = tmp_path / "trace.cdf"
        path.write_text("-5 0.5\n5 1.0\n")
        code, out, err = self.run_config(
            capsys, tmp_path, arrivals=f"trace:{path}",
            controller_capacity=traffic.MAX_CAPACITY + 1)
        assert code == 1 and out == ""
        assert err == (
            f"error: bad arrival process 'trace:{path}': {path}: "
            "inter-arrival times must be nonnegative\n"
            "error: controller capacity 1000001 exceeds the limit 1000000\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == \
            ["cfg.json", "trace.cdf"]

    def test_trace_path_with_nul_byte_named(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path,
                                       arrivals="trace:a\u0000b")
        assert code == 1
        assert err == ("error: bad arrival process 'trace:a\\x00b': "
                       "embedded null byte\n")

    def test_trace_run_reads_its_cdf_once(self, capsys, tmp_path,
                                          monkeypatch):
        calls = []
        real = traffic.load_interarrival_cdf
        monkeypatch.setattr(traffic, "load_interarrival_cdf",
                            lambda path: calls.append(path) or real(path))
        path = tmp_path / "trace.cdf"
        path.write_text("0 0.0\n100 0.5\n400 1.0\n")
        code, _, err = self.run_config(capsys, tmp_path,
                                       arrivals=f"trace:{path}")
        assert code == 0, err
        assert calls == [str(path)]

    @pytest.mark.parametrize("spec, problem", [
        ("pareto:0,1", "shape must be finite and > 0"),
        ("pareto:1,-1", "scale must be finite and > 0"),
        ("pareto:nan,1", "shape must be finite and > 0"),
        ("constant:-3", "rate must be >= 0"),
        ("poisson:-1", "rate must be finite and >= 0"),
    ])
    def test_degenerate_arrival_parameters_rejected(self, capsys, tmp_path,
                                                    spec, problem):
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--arrivals", spec))
        assert code == 1
        assert repr(spec) in err and problem in err
        assert "Traceback" not in err
        assert not list(tmp_path.glob("*.csv"))

    @pytest.mark.parametrize("a_max", [-1, 0])
    def test_a_max_below_one_rejected(self, capsys, tmp_path, a_max):
        code, _, err = self.run_config(capsys, tmp_path, a_max=a_max,
                                       arrivals="poisson:3")
        assert code == 1
        assert f"a_max must be >= 1, got {a_max}" in err
        assert not list(tmp_path.glob("*.csv"))

    def test_poisson_rate_above_numpy_limit_rejected(self, capsys, tmp_path):
        # numpy's Generator.poisson takes lam up to 9.223372006484771e18
        code, _, err = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--horizon", "3",
            "--arrivals", "poisson:1e30"))
        assert code == 1
        assert "bad arrival process 'poisson:1e30'" in err
        assert "at most 9.223372006484771e+18" in err
        assert "lam value too large" not in err
        code, _, _ = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "greedy", "--horizon", "3",
            "--arrivals", "poisson:9.223372006484771e18"))
        assert code == 0

    def test_fixed_rate_above_a_max_warns(self, capsys, tmp_path):
        code, _, err = self.run_config(capsys, tmp_path, a_max=5,
                                       arrivals="constant:9",
                                       hot_spot_rate=50)
        assert code == 0
        assert "warning: hot-spot rate 50 exceeds a_max 5" in err
        assert "warning: constant rate 9 exceeds a_max 5" in err

    def test_capped_rates_in_warning(self, capsys, tmp_path):
        # the 4 hot-spot switches get a_max = 10^6 arrivals a slot and the
        # other 16 get 7: 4000112 a slot, not 4 * 5000000 + 16 * 7
        code, _, err = run_cli(
            capsys, "run", "--kind", "fat-tree", "--k", "4", "--scheme",
            "greedy", "--horizon", "3", "--hot-spot-rate", "5000000",
            "--arrivals", "constant:7", "--out-dir", str(tmp_path))
        assert code == 0
        assert ("warning: supercritical: mean arrivals 4000112.00/slot >= "
                "total capacity 1400") in err

    def test_means_past_float_range_warned(self, capsys, tmp_path):
        # 4 hot-spot switches of 10^400 arrivals a slot: the warning reads
        # their total as inf, and the run runs on Python ints
        code, _, err = self.run_config(
            capsys, tmp_path, scheme="jsq", horizon=2, arrivals="poisson:2",
            a_max=10 ** 400, hot_spot_rate=10 ** 400)
        assert code == 0
        assert err == ("warning: supercritical without devolution: mean "
                       "arrivals inf/slot >= controller capacity 1200\n")

    def test_subcritical_once_capped_not_warned(self, capsys, tmp_path):
        # capped, 4 * 10^6 + 16 * 5.88 arrivals a slot are below the total
        # capacity 2 * 10^6 + 20 * 2 * 10^5, though not below the
        # controllers' 2 * 10^6
        code, _, err = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4", "--horizon",
            "3", "--hot-spot-rate", "5000000", "--controller-capacity",
            "1000000", "--switch-capacity", "200000", "--v-grid", "1",
            "--out-dir", str(tmp_path))
        assert code == 0
        assert "warning: supercritical:" not in err
        assert ("warning: supercritical without devolution: mean arrivals "
                "4000094.08/slot >= controller capacity 2000000") in err

    @pytest.mark.parametrize("a_max, warned", [(5, None), (7, "140.00")])
    def test_capped_random_rates_in_warning(self, capsys, tmp_path, a_max,
                                            warned):
        # ArrivalState caps each Poisson(100) draw at a_max, so the 20
        # switches get at most 20 * a_max arrivals a slot: 100 is below
        # the controllers' 2 * 60, and 140 is not
        code, _, err = self.run_config(
            capsys, tmp_path, scheme="jsq", horizon=200,
            arrivals="poisson:100", a_max=a_max, controller_capacity=60,
            hot_spot_rate=0)
        assert code == 0
        if warned is None:
            assert err == ""
        else:
            assert err == (f"warning: supercritical without devolution: mean "
                           f"arrivals {warned}/slot >= controller capacity "
                           "120\n")

    def test_jsq_equals_greedy_devolution_off_v0(self, capsys, tmp_path):
        common = ["--kind", "fat-tree", "--k", "4", "--horizon", "100",
                  "--arrivals", "poisson:3", "--controller-capacity", "25",
                  "--switch-capacity", "4", "--traffic-seed", "5",
                  "--out-dir", str(tmp_path)]
        run_cli(capsys, "run", *common, "--scheme", "jsq",
                "--name", "jsq_run")
        run_cli(capsys, "run", *common, "--scheme", "greedy",
                "--devolution", "off", "--v", "0", "--name", "greedy_run")
        jsq = (tmp_path / "jsq_run.csv").read_bytes()
        greedy = (tmp_path / "greedy_run.csv").read_bytes()
        assert jsq == greedy


class TestFlagEqualsKey:
    """A run key's flag does what the key does in a --config file: the
    same CSV and summary bytes, for every key that has a flag. The summary
    embeds every key given, so a flag that is dropped fails too."""

    BASE = {"kind": "jellyfish", "k": 10, "scheme": "greedy", "horizon": 12,
            "arrivals": "poisson:3", "controller_capacity": 30, "name": "eq"}
    # each differs from its default and from BASE
    VALUES = {
        "kind": "fat-tree", "k": 8, "topo_seed": 3, "hosts_min": 1,
        "hosts_max": 4, "scheme": "random", "v": "7/2", "devolution": "off",
        "horizon": 9, "run_seed": 4, "arrivals": "pareto:2,1.5",
        "hot_spot_rate": 20, "controller_capacity": 25, "switch_capacity": 2,
        "traffic_seed": 6, "slot_length_us": 5000, "stride": 4,
        "log_lyapunov": True, "name": "other",
    }

    def output(self, capsys, out_dir, cfg, *flags):
        out_dir.mkdir()
        path = out_dir / "cfg.json"
        path.write_text(json.dumps(cfg))
        code, _, err = run_cli(capsys, "run", "--config", str(path), *flags,
                               "--out-dir", str(out_dir))
        assert code == 0, err
        name = cfg.get("name", self.VALUES["name"])
        return [(out_dir / f"{name}{ext}").read_bytes()
                for ext in (".csv", ".summary.json")]

    @pytest.mark.parametrize("key", [name for name, key in
                                     cli.RUN_KEYS.items() if key.commands])
    def test_flag_equals_config_key(self, capsys, tmp_path, key):
        value = self.VALUES[key]
        base = {name: v for name, v in self.BASE.items() if name != key}
        flag = ["--" + key.replace("_", "-")]
        if value is not True:
            flag.append(str(value))
        by_flag = self.output(capsys, tmp_path / "flag", base, *flag)
        assert by_flag == self.output(capsys, tmp_path / "key",
                                      {**base, key: value})


class TestOutputDigests:
    """sha256 of the CSV and summary bytes of runs that the benchmark
    does not hash: a Lyapunov log at a fractional V and a stride whose
    last row is the extra final slot, a group on object arrays from the
    start (V = 10^30), a plain stride-1 run, and a multi-seed sweep,
    whose lanes read different arrival sources."""

    COMMON = ["run", "--kind", "fat-tree", "--k", "4",
              "--arrivals", "poisson:2", "--controller-capacity", "14",
              "--switch-capacity", "1", "--topo-seed", "1",
              "--traffic-seed", "5", "--run-seed", "5", "--name", "pin"]

    @pytest.mark.parametrize("flags, csv_digest, summary_digest", [
        (["--v", "7/2", "--horizon", "20", "--stride", "3", "--log-lyapunov"],
         "c7f4f316db91f7a0ec715b3487bd9278bcd4f469fc36f8b397eac983f124f2e0",
         "b7bb345581d95a5cfd4834887a4fc38faf838a40744cb59f6a1140473ae70d01"),
        (["--v", "1e30", "--horizon", "30", "--stride", "1",
          "--log-lyapunov"],
         "79fbe4fabef2335987eedb1ec6ffc494522258bd6b85f667db0a0f715f4caab7",
         "505640f69ce7c7f38665265af5efd0cd256a714227e1c87568951309dfba925b"),
        (["--v", "10", "--horizon", "50", "--stride", "1"],
         "0882a65736503c4dfdb46ea1506353fe6155974a242851258e413b50b0a39904",
         "98ff41a45d7d3308f717a717ae9443bf0b62e9cfed089183996756519f81be0c"),
    ], ids=["lyapunov-stride-3", "object-arrays", "stride-1"])
    def test_bytes_pinned(self, capsys, tmp_path, flags, csv_digest,
                          summary_digest):
        code, _, err = run_cli(capsys, *self.COMMON, "--scheme", "greedy",
                               *flags, "--out-dir", str(tmp_path))
        assert code == 0, err
        digests = [hashlib.sha256((tmp_path / f"pin{ext}").read_bytes())
                   .hexdigest() for ext in (".csv", ".summary.json")]
        assert digests == [csv_digest, summary_digest]

    def test_sweep_bytes_pinned(self, capsys, tmp_path):
        # two traffic seeds: each slot stacks one arrivals row per source
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--arrivals", "poisson:2", "--controller-capacity", "14",
            "--switch-capacity", "1", "--topo-seed", "1", "--schemes", "greedy,random,jsq,static", "--seeds", "5,6",
            "--v-grid", "7/2,10", "--horizon", "40",
            "--out-dir", str(tmp_path))
        assert code == 0, err
        digests = [hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("sweep.csv", "sweep.mean.csv")]
        assert digests == [
            "f6e5b385bbc8cede11ce44a85bf72240e6c84107ee27a74217fe54b367c91cb9",
            "5a50ca7dc73dd2c849cb264f591084507a1df748a99290b4f6741bd63f100181"]


class TestSweep:
    def test_row_count(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "20", "--arrivals", "constant:2",
            "--controller-capacity", "20", "--switch-capacity", "4",
            "--v-grid", "0,10,100", "--schemes", "greedy,static",
            "--seeds", "1,2", "--out-dir", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 1 + 3 * 2 * 2  # header + |V| * schemes * seeds

    def test_capacity_checked_once_per_scheme(self, capsys, tmp_path,
                                              monkeypatch):
        # the command reads the CDF once, when it resolves its config:
        # every (scheme, seed) config shares that process, and stderr
        # holds each of the two warnings their capacity checks give once
        from sdnsched import traffic
        calls = []
        real = traffic.load_interarrival_cdf
        monkeypatch.setattr(traffic, "load_interarrival_cdf",
                            lambda path: calls.append(path) or real(path))
        cdf = tmp_path / "t.cdf"
        cdf.write_text("0 0.0\n100 0.5\n400 1.0\n")
        code, _, err = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4",
            "--horizon", "3", "--arrivals", f"trace:{cdf}",
            "--seeds", "0,1,2", "--v-grid", "0,10",
            "--controller-capacity", "30", "--switch-capacity", "20",
            "--out-dir", str(tmp_path / "out"))
        assert code == 0
        assert len(calls) == 1
        assert err == (
            "warning: supercritical: mean arrivals 1333.33/slot >= total "
            "capacity 460\n"
            "warning: supercritical without devolution: mean arrivals "
            "1333.33/slot >= controller capacity 60\n")

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_args_unchanged(self, capsys, tmp_path, command):
        args = build_parser().parse_args([
            command, "--kind", "fat-tree", "--k", "4", "--horizon", "5",
            "--arrivals", "constant:2", "--v-grid", "0,10",
            "--seeds", "1,2", "--out-dir", str(tmp_path)])
        before = dict(vars(args))
        assert cmd_sweep(args) == 0
        capsys.readouterr()
        assert vars(args) == before

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    @pytest.mark.parametrize("flag", [
        ["--v", "10"], ["--run-seed", "1"], ["--traffic-seed", "1"],
        ["--stride", "3"], ["--log-lyapunov"], ["--name", "foo"]],
        ids=lambda flag: flag[0])
    def test_run_only_flag_is_usage_error(self, capsys, tmp_path, command,
                                          flag):
        # V and the seeds come from --v-grid and --seeds, and neither
        # command keeps per-slot records or names per-run files
        with pytest.raises(SystemExit) as exc:
            main([command, "--kind", "fat-tree", "--k", "4", "--horizon",
                  "5", "--v-grid", "0", "--seeds", "1", *flag,
                  "--out-dir", str(tmp_path)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flag[0]}" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    def test_fabric_built_once_per_command(self, capsys, tmp_path,
                                           monkeypatch):
        calls = []
        generate = topology.generate
        monkeypatch.setattr(topology, "generate",
                            lambda *a, **kw: calls.append(a) or
                            generate(*a, **kw))
        code, _, _ = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--arrivals", "constant:2",
            "--v-grid", "0,10", "--seeds", "1,2", "--out-dir", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def test_config_resolved_once_per_command(self, capsys, tmp_path,
                                              monkeypatch):
        calls = []
        resolve = cli.resolve
        monkeypatch.setattr(cli, "resolve",
                            lambda cfg: calls.append(cfg) or resolve(cfg))
        code, _, _ = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--arrivals", "constant:2",
            "--schemes", "greedy,jsq,static", "--v-grid", "0,10",
            "--seeds", "1,2,3", "--out-dir", str(tmp_path))
        assert code == 0
        assert len(calls) == 1

    def test_unknown_scheme_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--schemes", "greedy,bogus",
            "--v-grid", "0", "--out-dir", str(tmp_path))
        assert code == 1
        assert "unknown scheme 'bogus'" in err

    def test_v_free_lanes_run_once(self, capsys, tmp_path, monkeypatch):
        # Static, Random and JSQ ignore V: each (scheme, seed) is one lane
        # whose row repeats for every V; greedy runs one lane per V
        lane_counts = []
        run_lanes = engine.run_lanes
        monkeypatch.setattr(engine, "run_lanes",
                            lambda cfgs: lane_counts.append(len(cfgs)) or
                            run_lanes(cfgs))
        code, _, _ = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4",
            "--horizon", "30", "--arrivals", "poisson:3",
            "--controller-capacity", "25", "--switch-capacity", "3",
            "--v-grid", "0,10,100", "--seeds", "0,1",
            "--out-dir", str(tmp_path))
        assert code == 0
        assert lane_counts == [3 * 2 + 3 * 2]
        _, *rows = (tmp_path / "sweep.csv").read_text().strip().split("\n")
        assert len(rows) == 4 * 3 * 2
        values = {}
        for row in rows:
            scheme, seed, v, *rest = row.split(",")
            values.setdefault((scheme, seed), set()).add(tuple(rest))
        for (scheme, _), seen in values.items():
            assert len(seen) == (3 if scheme == "greedy" else 1)

    def test_duplicate_v_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "10", "--v-grid", "1,1",
            "--out-dir", str(tmp_path))
        assert code == 1
        assert "duplicate" in err

    @pytest.mark.parametrize("flag, value, repeated", [
        ("--v-grid", "0,10,0", "0"), ("--v-grid", "1/2,3,0.5", "0.5"),
        ("--v-grid", "1,1.0", "1.0"),
        ("--seeds", "1,2,1", "1"), ("--seeds", "3,03", "03"),
        ("--schemes", "greedy,static,greedy", "greedy"),
        ("--schemes", "jsq, jsq", "jsq"),
    ])
    def test_duplicate_value_named(self, capsys, tmp_path, flag, value,
                                   repeated):
        args = {"--v-grid": "0", "--seeds": "0", "--schemes": "greedy",
                flag: value}
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", *(x for kv in args.items() for x in kv),
            "--out-dir", str(tmp_path))
        assert code == 1
        assert err == f"error: duplicate {flag} value {repeated!r}\n"
        assert not (tmp_path / "sweep.csv").exists()

    def test_duplicate_seeds_and_schemes_both_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "20", "--schemes", "greedy,greedy",
            "--seeds", "1,1", "--v-grid", "0", "--out-dir", str(tmp_path))
        assert code == 1
        assert err.splitlines() == ["error: duplicate --seeds value '1'",
                                    "error: duplicate --schemes value "
                                    "'greedy'"]
        assert not (tmp_path / "sweep.csv").exists()

    def test_compare_duplicate_seed_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--v-grid", "0", "--seeds", "2,2",
            "--out-dir", str(tmp_path))
        assert code == 1
        assert "duplicate --seeds value '2'" in err

    @pytest.mark.parametrize("flag, value", [
        ("--seeds", "x"), ("--seeds", ""), ("--seeds", "-3"),
        ("--v-grid", "nan"), ("--v-grid", "1/0"), ("--v-grid", "-1"),
    ])
    def test_bad_list_value_named(self, capsys, tmp_path, flag, value):
        args = {"--v-grid": "0,10", "--seeds": "0", flag: value}
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", *(x for kv in args.items() for x in kv),
            "--out-dir", str(tmp_path))
        assert code == 1
        assert f"bad {flag} value {value!r}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flag, value", [
        ("--v-grid", "1,,2"), ("--v-grid", ""), ("--seeds", "0,,1"),
        ("--schemes", "greedy,,jsq"), ("--schemes", "greedy, "),
    ])
    def test_empty_token_named(self, capsys, tmp_path, flag, value):
        # every list flag reads an empty token as a bad value
        args = {"--v-grid": "0", "--seeds": "0", "--schemes": "greedy",
                flag: value}
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", *(x for kv in args.items() for x in kv),
            "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err.startswith(f"error: bad {flag} value {value!r}")
        assert list(tmp_path.iterdir()) == []

    def test_duplicates_of_every_list_flag_named(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "sweep", "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--v-grid", "0,1/2,0.5", "--seeds", "1, 1",
            "--schemes", "jsq,jsq", "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err.splitlines() == ["error: duplicate --v-grid value '0.5'",
                                    "error: duplicate --seeds value '1'",
                                    "error: duplicate --schemes value 'jsq'"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_negative_topo_seed_named(self, capsys, tmp_path, command):
        code, _, err = run_cli(
            capsys, command, "--kind", "fat-tree", "--k", "4",
            "--horizon", "5", "--v-grid", "0", "--topo-seed", "-3",
            "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == "error: topo_seed must be >= 0, got -3\n"
        assert list(tmp_path.iterdir()) == []

    def test_compare_covers_four_schemes(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "compare", "--kind", "fat-tree", "--k", "4",
            "--horizon", "10", "--arrivals", "constant:2",
            "--controller-capacity", "20", "--switch-capacity", "4",
            "--v-grid", "0,10", "--out-dir", str(tmp_path))
        assert code == 0
        body = (tmp_path / "sweep.csv").read_text()
        for scheme in ("greedy", "static", "random", "jsq"):
            assert f"\n{scheme}," in body


class TestSweepConfigs:
    def test_equals_separate_resolutions(self, tmp_path):
        # a Jellyfish config file whose keys flags override
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({
            "kind": "jellyfish", "k": 6, "topo_seed": 2, "hosts_min": 1,
            "hosts_max": 2, "scheme": "random", "horizon": 40, "v": "5",
            "arrivals": "poisson:3", "hot_spot_rate": 25, "run_seed": 9}))
        args = build_parser().parse_args([
            "sweep", "--config", str(path), "--hosts-max", "3",
            "--devolution", "off", "--horizon", "30", "--v-grid", "0"])
        given = cli._given(args)
        schemes, seeds = ["jsq", "greedy", "static", "random"], [3, 0, 8]
        cfgs = cli.sweep_configs(given, schemes, seeds)
        assert cfgs == [
            cli.resolve({**given, "scheme": scheme, "run_seed": seed,
                         "traffic_seed": seed})[0]
            for scheme in schemes for seed in seeds]
        # the flags took effect, and each pair has its own scheme and seeds
        assert {(c.horizon_slots, c.params.devolution, c.params.v)
                for c in cfgs} == {(30, Devolution.OFF, 5)}
        assert [(c.scheme.value, c.run_seed, c.traffic.seed)
                for c in cfgs] == [(scheme, seed, seed) for scheme in schemes
                                   for seed in seeds]


class TestSweepEqualsRuns:
    """Every sweep.csv row equals the summary of a separate `run` of its
    (scheme, seed, V)."""

    COMMON = ["--kind", "fat-tree", "--k", "4", "--horizon", "60",
              "--arrivals", "poisson:3", "--hot-spot-rate", "25",
              "--controller-capacity", "30", "--switch-capacity", "3"]
    GRID = "1/3,10,1e30"

    @pytest.mark.parametrize("command, schemes, flags", [
        ("sweep", ["--schemes", "greedy,random,jsq,static"], []),
        ("compare", [], []),
        ("sweep", [], ["--devolution", "off"]),
    ])
    def test_rows_equal_separate_runs(self, capsys, tmp_path, command,
                                      schemes, flags):
        code, _, _ = run_cli(capsys, command, *self.COMMON, *schemes,
                             *flags, "--v-grid", self.GRID, "--seeds", "3,8",
                             "--out-dir", str(tmp_path / "sweep"))
        assert code == 0
        _, *rows = (tmp_path / "sweep" / "sweep.csv").read_text() \
            .strip().split("\n")
        assert len(rows) == 3 * 2 * (4 if command == "compare" or schemes
                                     else 1)
        for row in rows:
            scheme, seed, v, *values = row.split(",")
            code, _, _ = run_cli(
                capsys, "run", *self.COMMON, *flags, "--scheme", scheme,
                "--v", v, "--run-seed", seed, "--traffic-seed", seed,
                "--stride", "60", "--name", "one",
                "--out-dir", str(tmp_path / "run"))
            assert code == 0
            summary = json.loads(
                (tmp_path / "run" / "one.summary.json").read_text())
            assert values == [summary[key] for key in (
                "f_bar", "g_bar", "total_cost", "mean_backlog")], row


class TestSweepMeans:
    """sweep.mean.csv holds the exact seed mean of each (scheme, V) of a
    sweep.csv, in its order."""

    COMMON = ["--kind", "fat-tree", "--k", "4", "--horizon", "30",
              "--arrivals", "poisson:3", "--hot-spot-rate", "25",
              "--controller-capacity", "30", "--switch-capacity", "3"]

    @pytest.mark.parametrize("command, schemes, grid", [
        ("sweep", ["greedy", "jsq"], "0,10,7/2"),
        ("compare", ["greedy", "static", "random", "jsq"], "7/2"),
    ])
    def test_rows_equal_means_of_separate_runs(self, capsys, tmp_path,
                                               command, schemes, grid):
        flags = ["--schemes", ",".join(schemes)] if command == "sweep" else []
        argv = [command, *self.COMMON, *flags, "--v-grid", grid,
                "--seeds", "0,1,2", "--out-dir", str(tmp_path)]
        code, _, _ = run_cli(capsys, *argv)
        assert code == 0
        header, *rows = (tmp_path / "sweep.mean.csv").read_text().splitlines()
        assert header == "scheme,v,mean_total_cost,mean_backlog"
        cfgs = cli.sweep_configs(cli._given(build_parser().parse_args(argv)),
                                 schemes, [0, 1, 2])
        expected = []
        for scheme in schemes:
            for v in grid.split(","):
                results = [engine.run(replace(
                    c, params=replace(c.params, v=Fraction(v))))
                    for c in cfgs if c.scheme.value == scheme]
                cost = sum(records(r)[-1].f_bar + records(r)[-1].g_bar
                           for r in results)
                backlog = sum(r.mean_backlog for r in results)
                expected.append(",".join([
                    scheme, v, format_rational(cost / len(results)),
                    format_rational(backlog / len(results))]))
        assert rows == expected

    def test_one_seed_means_are_its_rows(self, capsys, tmp_path):
        code, _, _ = run_cli(
            capsys, "sweep", *self.COMMON, "--schemes", "greedy,static",
            "--v-grid", "1/3,10", "--seeds", "8", "--out-dir", str(tmp_path))
        assert code == 0
        _, *rows = (tmp_path / "sweep.csv").read_text().splitlines()
        _, *means = (tmp_path / "sweep.mean.csv").read_text().splitlines()
        assert means == [
            ",".join([scheme, v, total_cost, mean_backlog])
            for scheme, _, v, _, _, total_cost, mean_backlog
            in (row.split(",") for row in rows)]


class TestParseV:
    """V is read exactly, from --v, a config's "v" and --v-grid."""

    RUN = ("--kind", "fat-tree", "--k", "4", "--horizon", "2")

    def written_v(self, capsys, tmp_path, how, text):
        """The V a command given `text` writes, as its output names it."""
        if how == "grid":
            code, _, err = run_cli(capsys, "sweep", *self.RUN, "--v-grid",
                                   text, "--out-dir", str(tmp_path))
            assert code == 0, err
            row = (tmp_path / "sweep.csv").read_text().splitlines()[1]
            return row.split(",")[2]
        args = ["--v", text]
        if how == "config":
            (tmp_path / "cfg.json").write_text(json.dumps({"v": text}))
            args = ["--config", str(tmp_path / "cfg.json")]
        code, _, err = run_cli(capsys, "run", *self.RUN, "--scheme", "greedy",
                               *args, "--name", "run",
                               "--out-dir", str(tmp_path))
        assert code == 0, err
        summary = json.loads((tmp_path / "run.summary.json").read_text())
        return summary["config"]["v"]

    @pytest.mark.parametrize("how", ["flag", "config", "grid"])
    @pytest.mark.parametrize("text, v", [
        ("1e-400", Fraction(1, 10 ** 400)),
        ("123456789012345678901234567890", 123456789012345678901234567890),
        ("2.5e-3", Fraction(1, 400)),
    ])
    def test_decimal_read_exactly(self, capsys, tmp_path, how, text, v):
        assert self.written_v(capsys, tmp_path, how, text) == str(v)

    @pytest.mark.parametrize("text", ["1e99999999", "1e-1001", "nan", "inf",
                                      "-inf", "snan", "1e"])
    def test_non_finite_or_huge_exponent_rejected(self, capsys, tmp_path,
                                                  text):
        start = time.perf_counter()
        code, _, err = run_cli(capsys, "run", *self.RUN, "--scheme", "greedy",
                               f"--v={text}", "--out-dir", str(tmp_path))
        assert time.perf_counter() - start < 1
        assert code == 1
        assert f"error: bad v value {text!r}" in err

    @pytest.mark.parametrize("text", [
        "9" * 4000 + "e1000",                 # 5000 digits, Python's limit
        f"{10 ** cli.MAX_V_DIGITS}",
        f"1/{10 ** cli.MAX_V_DIGITS}",
        "0." + "1" * cli.MAX_V_DIGITS,
    ], ids=["4000-nines-e1000", "numerator", "denominator", "decimal"])
    def test_too_many_digits_named(self, capsys, tmp_path, text):
        code, _, err = run_cli(capsys, "run", *self.RUN, "--scheme", "greedy",
                               f"--v={text}", "--out-dir", str(tmp_path))
        assert code == 1
        assert f"error: bad v value {text!r}" in err
        assert f"at most {cli.MAX_V_DIGITS} digits" in err
        assert "integer string conversion" not in err

    @pytest.mark.parametrize("how", ["flag", "config", "grid"])
    def test_most_digits_read_exactly(self, capsys, tmp_path, how):
        top = 10 ** cli.MAX_V_DIGITS - 1
        text = f"{top}/{top - 2}"
        assert self.written_v(capsys, tmp_path, how, text) == text


class TestRunNameLength:
    """A run whose output file name would exceed the output directory's
    file-name limit is rejected before it runs."""

    RUN = ("run", "--kind", "fat-tree", "--k", "4", "--horizon", "2",
           "--scheme", "greedy", "--run-seed", "0")

    def test_default_name_too_long_rejected_before_the_run(
            self, capsys, tmp_path, monkeypatch):
        def no_run(cfg):
            raise AssertionError("engine.run called")

        monkeypatch.setattr(engine, "run", no_run)
        out_dir = tmp_path / "out"
        code, _, err = run_cli(capsys, *self.RUN, "--v", "1e216",
                               "--out-dir", str(out_dir))
        assert code == 1
        assert err.startswith("error: the default run name, which embeds V,")
        assert "--name" in err
        assert "256 bytes long" in err
        assert not out_dir.exists()
        assert list(tmp_path.iterdir()) == []

    def test_default_name_at_the_limit_runs(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.RUN, "--v", "1e215",
                               "--out-dir", str(tmp_path))
        assert code == 0, err
        name = f"fat-tree_k4_greedy_v1{'0' * 215}_seed0.summary.json"
        assert len(name) == 255
        assert (tmp_path / name).is_file()

    def test_given_name_too_long_named(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, *self.RUN, "--name", "x" * 243,
                               "--out-dir", str(tmp_path))
        assert code == 1
        assert err.startswith("error: --name makes the output file name")
        assert "embeds V" not in err
        assert list(tmp_path.iterdir()) == []


class TestRunNameChars:
    """A run name that names no file in the output directory is rejected
    before the run, and nothing is written."""

    RUN = TestRunNameLength.RUN

    @pytest.fixture(autouse=True)
    def no_run(self, monkeypatch):
        def no_run(cfg):
            raise AssertionError("engine.run called")

        monkeypatch.setattr(engine, "run", no_run)

    @pytest.mark.parametrize("name", ["a/b", "../escaped", ""])
    def test_flag_named(self, capsys, tmp_path, name):
        code, _, err = run_cli(capsys, *self.RUN, "--name", name,
                               "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: --name must be a nonempty file name without "
                       f"'/' or NUL bytes, got {name!r}\n")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("name", ["a\0b", "o/x", ""])
    def test_config_key_named(self, capsys, tmp_path, name):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"kind": "fat-tree", "k": 4,
                                    "scheme": "greedy", "horizon": 2,
                                    "name": name}))
        code, _, err = run_cli(capsys, "run", "--config", str(path),
                               "--out-dir", str(tmp_path / "out"))
        assert code == 1
        assert err == ("error: config key 'name' must be a nonempty file "
                       f"name without '/' or NUL bytes, got {name!r}\n")
        assert list(tmp_path.iterdir()) == [path]


def test_seed_env_var(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SDND_SEED", "77")
    code, out, _ = run_cli(capsys, "run", "--kind", "fat-tree", "--k", "4",
                           "--horizon", "5", "--scheme", "jsq",
                           "--arrivals", "constant:1", "--name", "envseed",
                           "--out-dir", str(tmp_path))
    assert code == 0
    summary = json.loads((tmp_path / "envseed.summary.json").read_text())
    assert summary["config"]["run_seed"] == 77
    assert summary["config"]["traffic_seed"] == 77


def test_bad_seed_env_var_named(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("SDND_SEED", "abc")
    code, _, err = run_cli(capsys, "run", "--kind", "fat-tree", "--k", "4",
                           "--horizon", "5", "--scheme", "jsq",
                           "--out-dir", str(tmp_path))
    assert code == 1
    assert "bad SDND_SEED value 'abc'" in err


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "jsq", "--topo-seed", "1", "--traffic-seed", "1",
     "--run-seed", "1"],
    ["sweep", "--v-grid", "0", "--topo-seed", "1", "--seeds", "1"],
], ids=["run", "sweep"])
def test_seed_env_var_unread_when_every_seed_given(capsys, tmp_path,
                                                  monkeypatch, argv):
    monkeypatch.setenv("SDND_SEED", "abc")
    code, _, err = run_cli(capsys, *argv, "--kind", "fat-tree", "--k", "4",
                           "--horizon", "5", "--out-dir", str(tmp_path))
    assert code == 0, err
    assert "SDND_SEED" not in err


def test_negative_seed_env_var_named(capsys, tmp_path, monkeypatch):
    # SDND_SEED supplies every seed here, so the message names it, once
    monkeypatch.setenv("SDND_SEED", "-1")
    code, _, err = run_cli(capsys, "run", "--kind", "fat-tree", "--k", "4",
                           "--horizon", "5", "--scheme", "jsq",
                           "--out-dir", str(tmp_path / "out"))
    assert code == 1
    assert err == "error: SDND_SEED must be >= 0, got -1\n"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["run", "--scheme", "jsq", "--topo-seed", "1", "--traffic-seed", "1",
     "--horizon", "5"],
    ["sweep", "--v-grid", "0", "--seeds", "1", "--horizon", "5"],
    ["topo"],
], ids=["run-seed", "sweep-topo-seed", "topo"])
def test_negative_seed_env_var_named_when_it_supplies_one(
        capsys, tmp_path, monkeypatch, argv):
    # SDND_SEED supplies one seed here: a run seed, a sweep's topology
    # seed, topo's seed
    monkeypatch.setenv("SDND_SEED", "-1")
    out = ["--out-dir", str(tmp_path / "out")] if argv[0] != "topo" else []
    code, stdout, err = run_cli(capsys, *argv, "--kind", "fat-tree",
                                "--k", "4", *out)
    assert code == 1
    assert err == "error: SDND_SEED must be >= 0, got -1\n"
    assert stdout == ""
    assert list(tmp_path.iterdir()) == []


def readme_commands():
    """Every `sdnsched ...` command of README's CLI block, continuation
    lines joined, as argument lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1] \
        .split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sdnsched ")]


def readme_key_table():
    """The rows of README's table of run keys, as lists of cells."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    lines = text.split("| key | type | default | flag in |\n", 1)[1] \
        .splitlines()[1:]
    return [[cell.strip() for cell in line[1:-1].split(" | ")] for line in
            itertools.takewhile(lambda line: line.startswith("| "), lines)]


def test_readme_key_table_matches_cli():
    # every run key, in the table's order, with its type, default and
    # flag commands: a value default is its JSON text, a computed one
    # says what it is worked out from
    types = {int: "integer", str: "string", bool: "boolean",
             list: "list of switch ids"}
    rows = readme_key_table()
    assert [row[0] for row in rows] == [f"`{name}`" for name in cli.RUN_KEYS]
    for (_, kind, default, flags), key in zip(rows, cli.RUN_KEYS.values()):
        assert kind == ("one of " + ", ".join(f"`{c.value}`" for c in
                                              key.choices)
                        if key.choices else types[key.type])
        if key.default is cli.REQUIRED:
            assert default == "required"
        elif key.default is None:
            assert default.startswith("from ")
        else:
            assert default == f"`{json.dumps(key.default)}`"
        assert flags == (", ".join(f"`{c}`" for c in key.commands)
                         if key.commands else "none")


def test_readme_commands_run(capsys, tmp_path):
    # the documented flags still parse and run (at a short horizon)
    commands = readme_commands()
    assert {argv[0] for argv in commands} == {"topo", "run", "sweep",
                                              "compare"}
    for argv in commands:
        for flag, value in (("--horizon", "50"),
                            ("--out-dir", str(tmp_path / "out")),
                            ("--out", str(tmp_path / "edges.txt"))):
            if flag in argv:
                argv[argv.index(flag) + 1] = value
        code, _, err = run_cli(capsys, *argv)
        assert code == 0, (argv, err)


#: Texts a fuzzed flag takes: negative, zero, small, huge, not a number,
#: a division by zero, empty, repeated, and not a number at all
FUZZ_TEXTS = ["-1", "0", "1", "2", "4", "7/2", str(10 ** 30), str(10 ** 400),
              "1e400", "nan", "inf", "1/0", "", " ", "1,1", "0,,1", "3,03",
              "x", "true"]
#: JSON values a fuzzed config key takes: the same, and the wrong types
FUZZ_VALUES = [-1, 0, 1, 2, 4, 10 ** 30, 10 ** 400, 1.5, float("nan"), "",
               "x", "1/0", True, None, [], [0, 0], [-1], ["a"], {}]
#: Any V text, as --v, --v-grid or a config's "v" takes it
V_TEXTS = st.one_of(
    st.sampled_from(FUZZ_TEXTS),
    st.from_regex(r"\A[ +-]?[0-9_]{0,4}(\.[0-9]{0,3})?"
                  r"([eE][+-]?[0-9]{1,9})?(/[0-9]{0,3})?\Z"),
    st.text(alphabet="0123456789.eE+-/_ nafiNIs", max_size=8),
    st.text(max_size=4))
#: Each command's flags and the values it holds when it is not fuzzed,
#: so that most drawn commands get past argparse
FUZZ_BASE = {
    "topo": ["--kind", "fat-tree", "--k", "4"],
    "run": ["--kind", "fat-tree", "--k", "4", "--scheme", "greedy",
            "--horizon", "2"],
    "sweep": ["--kind", "fat-tree", "--k", "4", "--horizon", "2",
              "--v-grid", "0,1"],
    "compare": ["--kind", "fat-tree", "--k", "4", "--horizon", "2",
                "--v-grid", "1"],
}
#: Output paths a fuzzed --out or --out-dir takes, under the example's
#: own directory "{out}": that directory, a path to make, and one under a
#: file, which cannot be made
FUZZ_OUT = ["{out}", "{out}/new/edges.txt", "{out}/cfg.json/x"]
#: Largest k and horizon drawn: a valid larger one is no error, it only
#: runs longer
FUZZ_CAPS = {"k": 8, "horizon": 5}


@pytest.fixture(scope="module")
def fuzz_files(tmp_path_factory):
    """The files a fuzzed command names: trace CDFs good and bad, config
    files that are not a JSON object of keys, a directory and a path that
    does not exist."""
    root = tmp_path_factory.mktemp("fuzz")
    texts = {"good.cdf": "0 0.0\n100 0.5\n400 1.0\n",
             "negative.cdf": "-5 0.5\n5 1.0\n",
             "dense.cdf": "0 0.999999\n1 1.0\n",
             "binary.cdf": "\udcff",
             "list.json": "[1, 2]", "broken.json": "{\"k\": ",
             "deep.json": "[" * 100_000}
    for name, text in texts.items():
        (root / name).write_bytes(text.encode("utf-8", "surrogateescape"))
    return {"root": root, "files": [str(root / name) for name in texts]
            + [str(root), str(root / "missing")]}


def fuzz_values(name, files):
    """Texts of run key or flag `name`, from the pools: any V text for V,
    and for the arrival process, a trace of every fuzz file too."""
    if name in ("v", "v_grid"):
        return V_TEXTS
    if name == "schemes":
        return st.sampled_from(["greedy", "jsq,static", "random,greedy",
                                "greedy,greedy", "x", "", "greedy,,jsq"])
    if name == "arrivals":
        return st.sampled_from(
            ["poisson:2", "poisson:nan", "poisson:1e30", "pareto:1,1",
             "pareto:0.5,1e300", "pareto:0,1", "constant:3", "constant:-1",
             f"constant:{10 ** 30}", "trace:", "x:1", "poisson"]
            + [f"trace:{path}" for path in files])
    key, cap = cli.RUN_KEYS.get(name), FUZZ_CAPS.get(name)
    texts = [text for text in FUZZ_TEXTS if cap is None
             or not (text.isdigit() and int(text) > cap)]
    # half the draws of a flag with choices, or of an integer flag, are
    # ones that argparse takes, so that most commands get past it
    if key is not None and key.choices:
        valid = [choice.value for choice in key.choices]
    elif key is None or key.type is int:
        valid = [text for text in texts if text.lstrip("-").isdigit()]
    else:
        valid = texts
    return st.one_of(st.sampled_from(valid), st.sampled_from(texts))


@st.composite
def fuzz_configs(draw, files):
    """A --config file's contents: one of the fuzz files, or a JSON object
    of run keys (and an unknown one), each a pool value of any type or a
    text its flag would take."""
    if draw(st.booleans()):
        return draw(st.sampled_from(files))
    names = draw(st.lists(st.sampled_from([*cli.RUN_KEYS, "unknown"]),
                          max_size=4, unique=True))
    return {name: draw(st.one_of(st.sampled_from(FUZZ_VALUES),
                                 fuzz_values(name, files)))
            for name in names}


@st.composite
def fuzz_commands(draw, files):
    """argv for topo, run, sweep or compare, and a --config file's
    contents (None for none): each command's base flags, each dropped now
    and then, and then flags drawn from build_parser()'s own, which
    override them."""
    command = draw(st.sampled_from(sorted(FUZZ_BASE)))
    parser = build_parser()._subparsers._group_actions[0].choices[command]
    flags = sorted(action.option_strings[-1] for action in parser._actions
                   if action.option_strings and action.dest != "help")
    base = FUZZ_BASE[command]
    # "{out}" stands for the example's own output directory
    argv = [command] + (["--out-dir={out}"] if command != "topo" else [])
    for flag, value in zip(base[::2], base[1::2]):
        if draw(st.integers(0, 7)):
            argv += [flag, value]
    config = None
    for flag in draw(st.lists(st.sampled_from(flags), max_size=4)):
        if flag == "--log-lyapunov":
            argv.append(flag)
        elif flag == "--config":
            config = draw(fuzz_configs(files))
        elif flag == "--out":
            argv.append(f"--out={draw(st.sampled_from(FUZZ_OUT))}")
        elif flag == "--out-dir":
            # a directory to make, or one that cannot be: a file's path
            argv.append(f"--out-dir={draw(st.sampled_from(FUZZ_OUT))}")
        else:
            # --flag=value, so that argparse reads a value such as "-x"
            # as the flag's, not as a flag
            value = draw(fuzz_values(flag[2:].replace("-", "_"), files))
            argv.append(f"{flag}={value}")
    return argv, config


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_fuzzed_commands_exit_0_1_or_2(fuzz_files, data):
    # exit 1 is a named input problem, one `error:` line each; any other
    # exception escaping main is a bug. V is read exactly from any text
    files = fuzz_files["files"]
    argv, config = data.draw(fuzz_commands(files))
    env = data.draw(st.sampled_from([None, "-1", "x", "3"]))
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory(dir=fuzz_files["root"]) as out_dir, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), \
            mock.patch.dict(os.environ, {"SDND_SEED": env} if env else {}):
        if env is None:
            os.environ.pop("SDND_SEED", None)
        path = Path(out_dir) / "cfg.json"
        path.write_text(json.dumps(config if isinstance(config, dict)
                                   else {}))
        if config is not None:
            argv.append("--config=" + (str(path) if isinstance(config, dict)
                                       else config))
        argv = [arg.replace("{out}", out_dir) for arg in argv]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            assert exc.code == 2 and "usage: sdnsched" in err.getvalue()
            return
    lines = err.getvalue().splitlines()
    assert code in (0, 1, 2), (argv, lines)
    if code == 1:
        assert lines and all(line.startswith("error: ") for line in lines), \
            (argv, lines)
    elif code == 2:
        assert lines[-1].startswith("runtime failure: "), (argv, lines)
