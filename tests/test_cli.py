import json
import shlex
from pathlib import Path

import pytest

from sdnsched import cli, engine, topology
from sdnsched.cli import build_parser, cmd_sweep, main


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

    def test_odd_k_rejected(self, capsys):
        code, _, err = run_cli(capsys, "topo", "--kind", "fat-tree",
                               "--k", "5")
        assert code == 1
        assert "even" in err

    def test_edge_list_dump(self, capsys, tmp_path):
        out_file = tmp_path / "edges.txt"
        code, _, _ = run_cli(capsys, "topo", "--kind", "fat-tree", "--k", "4",
                             "--out", str(out_file))
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0].startswith("# kind=fat-tree k=4")


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

    def test_negative_run_seed_accepted(self, capsys, tmp_path):
        code, _, _ = run_cli(capsys, *self.base_args(
            tmp_path, "--scheme", "random", "--run-seed", "-2"))
        assert code == 0

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

    @pytest.mark.parametrize("command", ["sweep", "compare"])
    def test_args_unchanged(self, capsys, tmp_path, command):
        args = build_parser().parse_args([
            command, "--kind", "fat-tree", "--k", "4", "--horizon", "5",
            "--arrivals", "constant:2", "--v-grid", "0,10",
            "--seeds", "1,2", "--out-dir", str(tmp_path)])
        before = dict(vars(args))
        fixed = ["greedy", "jsq"] if command == "compare" else None
        assert cmd_sweep(args, fixed_schemes=fixed) == 0
        capsys.readouterr()
        assert vars(args) == before

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
        resolve = cli._resolve_run
        monkeypatch.setattr(cli, "_resolve_run",
                            lambda args: calls.append(args) or resolve(args))
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


def test_negative_seed_env_var_named(capsys, tmp_path, monkeypatch):
    # SDND_SEED supplies the traffic seed here, so the message names it
    monkeypatch.setenv("SDND_SEED", "-1")
    code, _, err = run_cli(capsys, "run", "--kind", "fat-tree", "--k", "4",
                           "--horizon", "5", "--scheme", "jsq",
                           "--out-dir", str(tmp_path))
    assert code == 1
    assert "SDND_SEED must be >= 0, got -1" in err


def readme_commands():
    """Every `sdnsched ...` command of README's CLI block, continuation
    lines joined, as argument lists without the program name."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1] \
        .split("```", 1)[0]
    return [shlex.split(line)[1:]
            for line in block.replace("\\\n", " ").splitlines()
            if line.startswith("sdnsched ")]


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
