"""Command-line surface: topo / run / sweep / compare subcommands.

Configuration comes from an optional JSON file plus flag overrides;
every run's summary embeds the fully resolved config so output can be
reproduced byte for byte. Exit codes: 0 success, 1 validation error,
2 runtime failure.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

from . import engine, topology, traffic
from .engine import RunConfig, Scheme
from .metrics import (
    CSV_HEADER,
    CSV_HEADER_LYAP,
    format_rational,
    record_to_csv_row,
)
from .model import Devolution, SchedulerParams, TopoKind


class ConfigError(Exception):
    """Validation failure; carries every problem found, not just the first."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


def _default_seed() -> int:
    text = os.environ.get("SDND_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ConfigError([f"bad SDND_SEED value {text!r}: expected an "
                           "integer"]) from None


def _parse_v(text: str) -> Fraction:
    v = Fraction(text) if "/" in text else Fraction(str(float(text)))
    if v.denominator == 1:
        return v.numerator
    return v


# kind -> (process class, type of each comma-separated parameter)
_PROCESSES = {
    "poisson": (traffic.Poisson, float),
    "pareto": (traffic.Pareto, float, float),
    "constant": (traffic.Constant, int),
    "trace": (traffic.TraceCdf, str),
}


def _parse_process(text: str):
    kind, _, rest = text.partition(":")
    make, *types = _PROCESSES.get(kind, (None,))
    try:
        # a trace path is one parameter, commas included
        fields = rest.split(",") if len(types) > 1 else [rest]
        values = [want(field) for want, field in zip(types, fields,
                                                      strict=True)]
    except ValueError:
        make = None
    if make is None:
        raise ValueError(
            f"bad arrival process {text!r}; expected poisson:RATE, "
            "pareto:SHAPE,SCALE, constant:RATE, or trace:PATH")
    try:
        return make(*values)
    except ValueError as exc:
        raise ValueError(f"bad arrival process {text!r}: {exc}") from None


_RUN_FIELDS = {
    "kind": str, "k": int, "topo_seed": int, "hosts_min": int, "hosts_max": int,
    "scheme": str, "v": str, "devolution": str, "horizon": int,
    "run_seed": int, "arrivals": str, "hot_spot_rate": int,
    "hot_spot_switches": list, "controller_capacity": int,
    "switch_capacity": int, "a_max": int, "traffic_seed": int,
    "slot_length_us": int, "stride": int, "log_lyapunov": bool, "name": str,
}


def _has_type(value, want: type) -> bool:
    # bool is an int subclass, but true/false is not a count
    return isinstance(value, want) \
        and not (want is int and isinstance(value, bool))


def _load_config_file(path: str) -> dict:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise ConfigError([f"{path}: expected a JSON object of config keys"])
    problems = []
    unknown = set(data) - set(_RUN_FIELDS)
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")
    for key, value in data.items():
        want = _RUN_FIELDS.get(key)
        if want is not None and not _has_type(value, want):
            problems.append(f"config key {key!r} must be {want.__name__}, "
                            f"got {value!r}")
    hot = data.get("hot_spot_switches")
    if isinstance(hot, list) and not all(_has_type(s, int) for s in hot):
        problems.append(f"config key 'hot_spot_switches' must list switch "
                        f"ids, got {hot!r}")
    if problems:
        raise ConfigError(problems)
    return data


def _resolve_run(args) -> tuple[RunConfig, dict]:
    """Merge config file and flags into a RunConfig, collecting all
    validation problems before failing."""
    cfg = {}
    if args.config:
        cfg.update(_load_config_file(args.config))
    for name in _RUN_FIELDS:
        flag = getattr(args, name, None)
        if flag is not None:
            cfg[name] = flag

    problems = []
    for required in ("kind", "k", "scheme", "horizon"):
        if required not in cfg:
            problems.append(f"missing required field: {required}")
    if problems:
        raise ConfigError(problems)

    try:
        kind = TopoKind(cfg["kind"])
    except ValueError:
        problems.append(f"unknown topology kind {cfg['kind']!r}")
        kind = None
    try:
        scheme = Scheme(cfg["scheme"])
    except ValueError:
        problems.append(f"unknown scheme {cfg['scheme']!r}")
        scheme = None
    try:
        v = _parse_v(str(cfg.get("v", "0")))
    except (ValueError, ZeroDivisionError):
        problems.append(f"bad v value {cfg.get('v')!r}")
        v = 0
    devolution = Devolution(cfg.get("devolution", "on")) \
        if cfg.get("devolution", "on") in ("on", "off") else None
    if devolution is None:
        problems.append(f"devolution must be 'on' or 'off'")
    try:
        process = _parse_process(cfg.get("arrivals", "poisson:5.88"))
    except ValueError as exc:
        problems.append(str(exc))
        process = None
    if cfg["horizon"] < 1:
        problems.append("horizon must be >= 1")
    traffic_seed = cfg.get("traffic_seed", _default_seed())
    if traffic_seed < 0:
        # numpy seeds the per-switch streams, and takes no negative seed
        name = "traffic_seed" if "traffic_seed" in cfg else "SDND_SEED"
        problems.append(f"{name} must be >= 0, got {traffic_seed}")
    if kind is None:
        raise ConfigError(problems)

    # the switch count that bounds hot-spot ids needs the topology
    topo_seed = cfg.get("topo_seed", _default_seed())
    try:
        topo = topology.generate(kind, cfg["k"], seed=topo_seed,
                                 hosts_min=cfg.get("hosts_min"),
                                 hosts_max=cfg.get("hosts_max"))
    except ValueError as exc:
        raise ConfigError(problems + [str(exc)]) from None
    placement = topology.place_controllers(topo, seed=topo_seed)
    cost = topology.build_cost_model(topo, placement)
    hot = cfg.get("hot_spot_switches")
    if hot is None:
        hot = _default_hot_spot(topo)
    outside = sorted(s for s in hot if not 0 <= s < topo.n_switches)
    if outside:
        problems.append(f"hot_spot_switches {outside} outside "
                        f"[0, {topo.n_switches})")
    if problems:
        raise ConfigError(problems)

    hot_rate = cfg.get("hot_spot_rate", 0)
    try:
        tcfg = traffic.TrafficConfig(
            base_process=process,
            n_switches=topo.n_switches,
            n_controllers=placement.controller_count,
            slot_length_us=cfg.get("slot_length_us", 10_000),
            hot_spot_switches=frozenset(hot) if hot_rate > 0
            else frozenset(),
            hot_spot_rate=hot_rate,
            controller_capacity=cfg.get("controller_capacity", 600),
            switch_capacity=cfg.get("switch_capacity", 10),
            a_max=cfg.get("a_max", 10 ** 6),
            seed=traffic_seed,
        )
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    run_cfg = RunConfig(
        cost=cost,
        traffic=tcfg,
        scheme=scheme,
        params=SchedulerParams(v=v, devolution=devolution),
        horizon_slots=cfg["horizon"],
        run_seed=cfg.get("run_seed", _default_seed()),
        stride=cfg.get("stride", 1 if cfg["horizon"] <= 10_000 else 10),
        log_lyapunov=cfg.get("log_lyapunov", False),
    )
    resolved = dict(cfg)
    resolved.update({
        "kind": kind.value, "scheme": scheme.value,
        "v": str(v), "devolution": devolution.value,
        "topo_seed": topo_seed,
        "traffic_seed": tcfg.seed, "run_seed": run_cfg.run_seed,
        "stride": run_cfg.stride,
        "n_switches": topo.n_switches, "n_hosts": topo.n_hosts,
        "n_controllers": placement.controller_count,
        "alpha": format_rational(cost.alpha[0]),
        "hot_spot_switches": sorted(tcfg.hot_spot_switches),
        "hot_spot_rate": hot_rate,
        "controller_capacity": tcfg.controller_capacity,
        "switch_capacity": tcfg.switch_capacity,
    })
    return run_cfg, resolved


def _default_hot_spot(topo) -> list[int]:
    if topo.pods:
        return list(topo.pods[0])
    # Jellyfish has no pods; mimic one pod's share of the switches
    share = max(topo.n_switches // max(topo.k, 1), 1)
    return list(range(share))


def _write_run_output(run_cfg, resolved, result, out_dir: Path, name: str):
    out_dir.mkdir(parents=True, exist_ok=True)
    header = CSV_HEADER_LYAP if run_cfg.log_lyapunov else CSV_HEADER
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w") as fh:
        fh.write(header + "\n")
        for rec in result.records:
            fh.write(record_to_csv_row(rec) + "\n")
    summary = {
        "config": resolved,
        "f_bar": format_rational(result.final.f_bar),
        "g_bar": format_rational(result.final.g_bar),
        "total_cost": format_rational(result.final.f_bar + result.final.g_bar),
        "mean_backlog": format_rational(result.mean_backlog),
        "final_backlog": result.final.total_backlog,
    }
    with open(out_dir / f"{name}.summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary


def cmd_topo(args) -> int:
    kind = TopoKind(args.kind)
    seed = args.seed if args.seed is not None else _default_seed()
    topo = topology.generate(kind, args.k, seed=seed,
                             hosts_min=args.hosts_min, hosts_max=args.hosts_max)
    placement = topology.place_controllers(topo, seed=seed)
    cost = topology.build_cost_model(topo, placement)
    stats = (
        f"kind={kind.value} k={args.k} switches={topo.n_switches} "
        f"hosts={topo.n_hosts} controllers={placement.controller_count} "
        f"alpha={format_rational(cost.alpha[0])}"
    )
    if args.out:
        Path(args.out).write_text(topology.dump_edge_list(topo))
    print(stats)
    return 0


def cmd_run(args) -> int:
    run_cfg, resolved = _resolve_run(args)
    for warning in engine.capacity_check(run_cfg):
        print(f"warning: {warning}", file=sys.stderr)
    result = engine.run(run_cfg)
    name = resolved.get("name") or (
        f"{resolved['kind']}_k{resolved['k']}_{resolved['scheme']}"
        f"_v{resolved['v'].replace('/', 'over')}_seed{resolved['run_seed']}"
    )
    csv_path, summary = _write_run_output(
        run_cfg, resolved, result, Path(args.out_dir), name)
    print(f"{name}: total_cost={summary['total_cost']} "
          f"mean_backlog={summary['mean_backlog']} csv={csv_path}")
    return 0


def _parse_grid(text: str):
    try:
        values = [_parse_v(tok) for tok in text.split(",") if tok]
        if min(values, default=0) < 0:
            raise ValueError
    except (ValueError, ZeroDivisionError):
        raise ConfigError([f"bad --v-grid value {text!r}: expected "
                           "comma-separated nonnegative V values"]) from None
    if len(set(values)) != len(values):
        raise ConfigError(["duplicate V values in grid"])
    if not values:
        raise ConfigError(["empty V grid"])
    return values


def cmd_sweep(args, fixed_schemes=None) -> int:
    grid = _parse_grid(args.v_grid)
    names = fixed_schemes or [s.strip() for s in args.schemes.split(",")]
    try:
        # each seed is a run seed and a traffic seed
        seeds = [int(s) for s in args.seeds.split(",")]
        if min(seeds) < 0:
            raise ValueError
    except ValueError:
        raise ConfigError([f"bad --seeds value {args.seeds!r}: expected "
                           "comma-separated nonnegative integers"]) from None
    known = {s.value for s in Scheme}
    unknown = [f"unknown scheme {name!r}" for name in names
               if name not in known]
    if unknown:
        raise ConfigError(unknown)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    # one resolution; the (scheme, seed) configs differ only in these
    base, _ = _resolve_run(argparse.Namespace(**{
        **vars(args), "scheme": names[0],
        "run_seed": seeds[0], "traffic_seed": seeds[0]}))
    cfgs = [replace(base, scheme=Scheme(name), run_seed=seed,
                    traffic=replace(base.traffic, seed=seed))
            for name in names for seed in seeds]
    warnings = {w: None for cfg in cfgs for w in engine.capacity_check(cfg)}
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    rows = engine.sweep(cfgs, grid)
    path = out_dir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write("scheme,seed,v,f_bar,g_bar,total_cost,mean_backlog\n")
        for row in rows:
            fh.write(",".join([
                row.scheme.value, str(row.run_seed), str(row.v),
                format_rational(row.f_bar),
                format_rational(row.g_bar),
                format_rational(row.total_cost),
                format_rational(row.mean_backlog),
            ]) + "\n")
    print(f"wrote {len(rows)} rows to {path}")
    return 0


def _add_run_flags(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--kind", choices=[k.value for k in TopoKind])
    p.add_argument("--k", type=int)
    p.add_argument("--topo-seed", dest="topo_seed", type=int)
    p.add_argument("--hosts-min", dest="hosts_min", type=int)
    p.add_argument("--hosts-max", dest="hosts_max", type=int)
    p.add_argument("--v")
    p.add_argument("--devolution", choices=["on", "off"])
    p.add_argument("--horizon", type=int)
    p.add_argument("--run-seed", dest="run_seed", type=int)
    p.add_argument("--traffic-seed", dest="traffic_seed", type=int)
    p.add_argument("--arrivals",
                   help="poisson:RATE | pareto:SHAPE,SCALE | constant:RATE | trace:PATH")
    p.add_argument("--hot-spot-rate", dest="hot_spot_rate", type=int)
    p.add_argument("--controller-capacity", dest="controller_capacity", type=int)
    p.add_argument("--switch-capacity", dest="switch_capacity", type=int)
    p.add_argument("--slot-length-us", dest="slot_length_us", type=int)
    p.add_argument("--stride", type=int)
    p.add_argument("--log-lyapunov", dest="log_lyapunov", action="store_const",
                   const=True)
    p.add_argument("--name", help="basename for output files")
    p.add_argument("--out-dir", dest="out_dir", default="out")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sdnsched",
        description="Dynamic switch-controller association and control "
                    "devolution simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topo", help="generate and dump a topology")
    p_topo.add_argument("--kind", required=True,
                        choices=[k.value for k in TopoKind])
    p_topo.add_argument("--k", type=int, required=True)
    p_topo.add_argument("--seed", type=int)
    p_topo.add_argument("--hosts-min", dest="hosts_min", type=int)
    p_topo.add_argument("--hosts-max", dest="hosts_max", type=int)
    p_topo.add_argument("--out", help="write the edge list to this file")
    p_topo.set_defaults(func=cmd_topo)

    p_run = sub.add_parser("run", help="execute one simulation run")
    _add_run_flags(p_run)
    p_run.add_argument("--scheme", choices=[s.value for s in Scheme])
    p_run.set_defaults(func=cmd_run)

    p_sweep = sub.add_parser("sweep", help="run a V grid, one row per (V, scheme, seed)")
    _add_run_flags(p_sweep)
    p_sweep.add_argument("--v-grid", dest="v_grid", required=True,
                         help="comma-separated V values")
    p_sweep.add_argument("--schemes", default="greedy")
    p_sweep.add_argument("--seeds", default="0")
    p_sweep.set_defaults(func=cmd_sweep)

    p_cmp = sub.add_parser("compare",
                           help="sweep all four schemes over a V grid")
    _add_run_flags(p_cmp)
    p_cmp.add_argument("--v-grid", dest="v_grid", required=True)
    p_cmp.add_argument("--seeds", default="0")
    p_cmp.set_defaults(func=lambda a: cmd_sweep(
        a, fixed_schemes=["greedy", "static", "random", "jsq"]))

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
