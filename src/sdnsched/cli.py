"""Command-line surface: topo / run / sweep / compare subcommands.

Configuration comes from an optional JSON file plus flag overrides;
every run's summary embeds the fully resolved config so output can be
reproduced byte for byte. Exit codes: 0 success, 1 a named input
problem (a ConfigError, or an OSError from a file the command reads or
writes), 2 usage error (from argparse) or runtime failure. Any other
exception is a bug, and escapes main.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from dataclasses import fields, replace
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
    """Validation failure; carries every problem found, not just the
    first, each once."""

    def __init__(self, problems):
        self.problems = list(dict.fromkeys(problems))
        super().__init__("; ".join(self.problems))


def _default_seed() -> int:
    text = os.environ.get("SDND_SEED", "0")
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"bad SDND_SEED value {text!r}: expected an "
                         "integer") from None


#: Largest decimal exponent, either sign, of a V: Fraction("1e10000000")
#: takes seconds, and larger exponents hang.
MAX_V_EXPONENT = 1000

#: Most decimal digits in V's numerator or its denominator: the summary
#: and the sweep rows print V exactly, and Python converts no int of
#: more than 4300 digits to text. Twice the exponent bound leaves room
#: for a long mantissa on top of the largest exponent.
MAX_V_DIGITS = 2 * MAX_V_EXPONENT


def _parse_v(text: str) -> int | Fraction:
    """A nonnegative V, written p/q or as a decimal, read exactly (never
    through a float); an int when whole."""
    exponent = text.lower().partition("e")[2]
    if exponent and abs(int(exponent)) > MAX_V_EXPONENT:
        raise ValueError(f"V exponent {exponent} beyond {MAX_V_EXPONENT}")
    v = Fraction(text)
    if v < 0:
        raise ValueError("V must be nonnegative")
    if max(v.numerator, v.denominator) >= 10 ** MAX_V_DIGITS:
        raise ValueError(f"V has more than {MAX_V_DIGITS} digits in its "
                         "numerator or denominator")
    return v.numerator if v.denominator == 1 else v


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
        return make(*values)  # a trace file is read here, once
    except (ValueError, OSError) as exc:
        raise ValueError(f"bad arrival process {text!r}: {exc}") from None


RUN_COMMANDS = ("run", "sweep", "compare")
#: A run key's type; default (a value, REQUIRED, or None where the code
#: computes it); the commands that take it as a flag; flag choices, help
RunKey = namedtuple("RunKey", "type default commands choices help",
                    defaults=(None, RUN_COMMANDS, None, None))
REQUIRED = object()
_TRAFFIC = {f.name: f.default for f in fields(traffic.TrafficConfig)}
#: Every run key, in flag order. Sweep and compare take V and the seeds
#: from their grids, keep two records per run and write no per-run
#: files, so only run takes those keys as flags.
RUN_KEYS = {
    "kind": RunKey(str, REQUIRED, choices=TopoKind),
    "k": RunKey(int, REQUIRED),
    "topo_seed": RunKey(int),
    "hosts_min": RunKey(int),
    "hosts_max": RunKey(int),
    "scheme": RunKey(str, REQUIRED, ("run",), choices=Scheme),
    "v": RunKey(str, "0", ("run",)),
    "devolution": RunKey(str, "on", choices=Devolution),
    "horizon": RunKey(int, REQUIRED),
    "run_seed": RunKey(int, None, ("run",)),
    "arrivals": RunKey(str, "poisson:5.88", help="poisson:RATE | "
                       "pareto:SHAPE,SCALE | constant:RATE | trace:PATH"),
    # the CLI always has a hot set, so its rate of 0 is what turns the hot
    # spot off; TrafficConfig's 200 is the rate of a set a caller names
    "hot_spot_rate": RunKey(int, 0),
    "hot_spot_switches": RunKey(list, None, ()),
    "controller_capacity": RunKey(int, _TRAFFIC["controller_capacity"]),
    "switch_capacity": RunKey(int, _TRAFFIC["switch_capacity"]),
    "a_max": RunKey(int, _TRAFFIC["a_max"], ()),
    "traffic_seed": RunKey(int, None, ("run",)),
    "slot_length_us": RunKey(int, _TRAFFIC["slot_length_us"]),
    "stride": RunKey(int, None, ("run",)),
    "log_lyapunov": RunKey(bool, False, ("run",)),
    "name": RunKey(str, None, ("run",), help="basename for output files"),
}


def _has_type(value, want: type) -> bool:
    # bool is an int subclass, but true/false is not a count
    return isinstance(value, want) \
        and not (want is int and isinstance(value, bool))


def _key_problems(cfg: dict) -> list[str]:
    """Missing, unknown and mistyped run keys."""
    problems = [f"missing required field: {name}" for name in RUN_KEYS
                if RUN_KEYS[name].default is REQUIRED and name not in cfg]
    unknown = set(cfg) - set(RUN_KEYS)
    if unknown:
        problems.append(f"unknown config keys: {sorted(unknown)}")
    for name, value in cfg.items():
        key = RUN_KEYS.get(name)
        if key is not None and not _has_type(value, key.type):
            problems.append(f"config key {name!r} must be "
                            f"{key.type.__name__}, got {value!r}")
    hot = cfg.get("hot_spot_switches")
    if isinstance(hot, list) and not all(_has_type(s, int) for s in hot):
        problems.append(f"config key 'hot_spot_switches' must list switch "
                        f"ids, got {hot!r}")
    return problems


def _given(args) -> dict:
    """A run, sweep or compare command's run keys: its config file's,
    then its flags', which override them."""
    cfg = {}
    if args.config:
        with open(args.config) as fh:
            try:
                cfg = json.load(fh)
            # not JSON, not UTF-8, or nested deeper than the recursion limit
            except (ValueError, RecursionError) as exc:
                raise ConfigError([f"{args.config}: {exc}"]) from None
        if not isinstance(cfg, dict):
            raise ConfigError([f"{args.config}: expected a JSON object of "
                               "config keys"])
    return {**cfg, **{name: getattr(args, name) for name in RUN_KEYS
                      if getattr(args, name, None) is not None}}


def _fabric(kind: TopoKind, k: int, seed: int, hosts_min, hosts_max):
    """The topology of `kind` and its cost model, with controllers placed
    from `seed`."""
    topo = topology.generate(kind, k, seed=seed, hosts_min=hosts_min,
                             hosts_max=hosts_max)
    placement = topology.place_controllers(topo, seed=seed)
    return topo, topology.build_cost_model(topo, placement)


def resolve(cfg: dict) -> tuple[RunConfig, dict]:
    """The RunConfig of the run keys `cfg` (the keys a --config file
    holds), and the resolved keys a summary embeds. Every problem found
    is collected before failing with one ConfigError."""
    problems = _key_problems(cfg)
    if problems:
        raise ConfigError(problems)

    def attempt(make, *args, problem=None, **kwargs):
        """make(...), or None with `problem` (by default the error's own
        message) recorded."""
        try:
            return make(*args, **kwargs)
        except (ValueError, ZeroDivisionError) as exc:
            problems.append(problem or str(exc))

    def value(key):
        return cfg.get(key, RUN_KEYS[key].default)

    def seed(key):
        # SDND_SEED is read only when it supplies the seed. A negative
        # seed is named by the key or variable that gave it: random.Random
        # would seed with its absolute value. 0 stands in for a bad or
        # negative value, so that the other checks still run
        given = cfg[key] if key in cfg else attempt(_default_seed) or 0
        if given < 0:
            name = key if key in cfg else "SDND_SEED"
            problems.append(f"{name} must be >= 0, got {given}")
        return max(given, 0)

    kind = attempt(TopoKind, cfg["kind"],
                   problem=f"unknown topology kind {cfg['kind']!r}")
    scheme = attempt(Scheme, cfg["scheme"],
                     problem=f"unknown scheme {cfg['scheme']!r}")
    v = attempt(_parse_v, str(value("v")),
                problem=f"bad v value {cfg.get('v')!r}: expected a "
                        "nonnegative number or p/q, with a decimal exponent "
                        f"within +-{MAX_V_EXPONENT} and at most "
                        f"{MAX_V_DIGITS} digits in its numerator and "
                        "denominator")
    devolution = attempt(Devolution, value("devolution"),
                         problem="devolution must be 'on' or 'off'")
    process = attempt(_parse_process, value("arrivals"))
    horizon = cfg["horizon"]
    if horizon < 1:
        problems.append("horizon must be >= 1")
    stride = cfg.get("stride", 1 if horizon <= 10_000 else 10)
    if stride < 1:
        problems.append(f"stride must be >= 1, got {stride}")
    topo_seed, run_seed = seed("topo_seed"), seed("run_seed")
    traffic_seed = seed("traffic_seed")
    # the switch count, which bounds the hot-spot ids, and the traffic
    # config need the topology
    fabric = attempt(_fabric, kind, cfg["k"], topo_seed, cfg.get("hosts_min"),
                     cfg.get("hosts_max")) if kind else None
    if fabric is None:
        raise ConfigError(problems)
    topo, cost = fabric
    hot = cfg.get("hot_spot_switches", _default_hot_spot(topo))
    outside = sorted(s for s in hot if not 0 <= s < topo.n_switches)
    if outside:
        problems.append(f"hot_spot_switches {outside} outside "
                        f"[0, {topo.n_switches})")
    hot_rate = value("hot_spot_rate")
    tcfg = attempt(
        traffic.TrafficConfig, base_process=process,
        n_switches=topo.n_switches, n_controllers=cost.n_controllers,
        slot_length_us=value("slot_length_us"),
        hot_spot_switches=frozenset(hot) if hot_rate > 0 else frozenset(),
        hot_spot_rate=hot_rate,
        controller_capacity=value("controller_capacity"),
        switch_capacity=value("switch_capacity"), a_max=value("a_max"),
        seed=traffic_seed)
    if problems:
        raise ConfigError(problems)

    run_cfg = RunConfig(
        cost=cost, traffic=tcfg, scheme=scheme,
        params=SchedulerParams(v=v, devolution=devolution),
        horizon_slots=horizon, run_seed=run_seed, stride=stride,
        log_lyapunov=value("log_lyapunov"))
    resolved = {
        **cfg, "kind": kind.value, "scheme": scheme.value, "v": str(v),
        "devolution": devolution.value, "topo_seed": topo_seed,
        "traffic_seed": traffic_seed, "run_seed": run_seed, "stride": stride,
        "n_switches": topo.n_switches, "n_hosts": topo.n_hosts,
        "n_controllers": cost.n_controllers,
        "alpha": format_rational(cost.alpha[0]),
        "hot_spot_switches": sorted(tcfg.hot_spot_switches),
        "hot_spot_rate": hot_rate,
        "controller_capacity": tcfg.controller_capacity,
        "switch_capacity": tcfg.switch_capacity}
    return run_cfg, resolved


def sweep_configs(cfg: dict, schemes, seeds) -> list[RunConfig]:
    """The RunConfig of every (scheme, seed) pair of the run keys `cfg`,
    scheme by scheme, then seed by seed; each seed is both the run seed
    and the traffic seed. The pairs differ in nothing else, so `cfg` is
    resolved once."""
    unknown = [f"unknown scheme {name!r}" for name in schemes
               if name not in {s.value for s in Scheme}]
    if unknown:
        raise ConfigError(unknown)
    base, _ = resolve({**cfg, "scheme": schemes[0], "run_seed": seeds[0],
                       "traffic_seed": seeds[0]})
    return [replace(base, scheme=Scheme(name), run_seed=seed,
                    traffic=replace(base.traffic, seed=seed))
            for name in schemes for seed in seeds]


def _default_hot_spot(topo) -> list[int]:
    if topo.pods:
        return list(topo.pods[0])
    # Jellyfish has no pods; mimic one pod's share of the switches
    share = max(topo.n_switches // max(topo.k, 1), 1)
    return list(range(share))


def _write_run_output(run_cfg, resolved, result, out_dir: Path, name: str):
    header = CSV_HEADER_LYAP if run_cfg.log_lyapunov else CSV_HEADER
    csv_path = out_dir / f"{name}.csv"
    with open(csv_path, "w") as fh:
        fh.write(header + "\n")
        lane = result.scale, result.n_controllers, result.v
        for row in result.rows:
            fh.write(record_to_csv_row(row, *lane) + "\n")
    f_bar, g_bar, total_cost, mean_backlog = result.means()
    summary = {
        "config": resolved,
        "f_bar": format_rational(f_bar),
        "g_bar": format_rational(g_bar),
        "total_cost": format_rational(total_cost),
        "mean_backlog": format_rational(mean_backlog),
        "final_backlog": result.rows[-1][5],  # the final row's total backlog
    }
    with open(out_dir / f"{name}.summary.json", "w") as fh:
        json.dump(summary, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return csv_path, summary


def cmd_topo(args) -> int:
    kind = TopoKind(args.kind)
    try:
        seed = args.seed if args.seed is not None else _default_seed()
        if seed < 0:
            name = "--seed" if args.seed is not None else "SDND_SEED"
            raise ConfigError([f"{name} must be >= 0, got {seed}"])
        topo, cost = _fabric(kind, args.k, seed, args.hosts_min,
                             args.hosts_max)
    except ValueError as exc:
        raise ConfigError([str(exc)]) from None
    stats = (f"kind={kind.value} k={args.k} switches={topo.n_switches} "
             f"hosts={topo.n_hosts} controllers={cost.n_controllers} "
             f"alpha={format_rational(cost.alpha[0])}")
    if args.out:
        Path(args.out).write_text(topology.dump_edge_list(topo))
    print(stats)
    return 0


def _check_run_name(out_dir: Path, name: str, source: str | None) -> None:
    """Reject, before the run, a run name that `source` gave (--name or
    the config key; None for the default name) when it is empty or holds
    a '/' or a NUL byte, so that it names no file of out_dir, or when its
    longest output file name, <name>.summary.json, exceeds the file-name
    limit of out_dir (or of its nearest existing parent, when out_dir is
    yet to be made)."""
    if not name or "/" in name or "\0" in name:
        raise ConfigError([f"{source} must be a nonempty file name without "
                           f"'/' or NUL bytes, got {name!r}"])
    file_name = f"{name}.summary.json"
    directory = next(p for p in (out_dir, *out_dir.parents) if p.is_dir())
    limit = os.pathconf(directory, "PC_NAME_MAX")
    size = len(os.fsencode(file_name))
    if size > limit:
        which = source or "the default run name, which embeds V,"
        raise ConfigError([
            f"{which} makes the output file name {name[:40]}....summary.json "
            f"{size} bytes long, over the output directory's file-name "
            f"limit of {limit} bytes; pass a shorter --name"])


def cmd_run(args) -> int:
    run_cfg, resolved = resolve(_given(args))
    source = "--name" if args.name is not None else (
        "config key 'name'" if "name" in resolved else None)
    name = resolved["name"] if source else (
        f"{resolved['kind']}_k{resolved['k']}_{resolved['scheme']}"
        f"_v{resolved['v'].replace('/', 'over')}_seed{resolved['run_seed']}")
    out_dir = Path(args.out_dir)
    _check_run_name(out_dir, name, source)
    out_dir.mkdir(parents=True, exist_ok=True)
    for warning in engine.capacity_check(run_cfg):
        print(f"warning: {warning}", file=sys.stderr)
    result = engine.run(run_cfg)
    csv_path, summary = _write_run_output(
        run_cfg, resolved, result, out_dir, name)
    print(f"{name}: total_cost={summary['total_cost']} "
          f"mean_backlog={summary['mean_backlog']} csv={csv_path}")
    return 0


def _parse_seed(text: str) -> int:
    seed = int(text)
    if seed < 0:
        raise ValueError("seeds must be nonnegative")
    return seed


#: Each list flag of sweep and compare, how it reads a token, and what
#: it takes
_LIST_FLAGS = (("--v-grid", _parse_v, "nonnegative V values"),
              ("--seeds", _parse_seed, "nonnegative integers"),
              ("--schemes", str, "scheme names"))


def _parse_lists(args) -> list[list]:
    """The values of each of _LIST_FLAGS, in order, from a sweep or
    compare command's arguments. Each is split at commas and each token
    stripped; a flag with an empty or unreadable token is a bad value,
    and a token whose value an earlier token of its flag gave is a
    duplicate, named as written, since it would run, write and average
    one run twice. Every flag's problems are reported together."""
    lists, problems = [], []
    for flag, parse, what in _LIST_FLAGS:
        text = getattr(args, flag[2:].replace("-", "_"))
        tokens = [token.strip() for token in text.split(",")]
        try:
            if "" in tokens:
                raise ValueError
            values = [parse(token) for token in tokens]
        except (ValueError, ZeroDivisionError):
            problems.append(f"bad {flag} value {text!r}: expected "
                            f"comma-separated {what}")
            continue
        seen = set()
        for token, value in zip(tokens, values):
            if value in seen:
                problems.append(f"duplicate {flag} value {token!r}")
            seen.add(value)
        lists.append(values)
    if problems:
        raise ConfigError(problems)
    return lists


def cmd_sweep(args) -> int:
    grid, seeds, names = _parse_lists(args)
    cfgs = sweep_configs(_given(args), names, seeds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    warnings = {w: None for cfg in cfgs for w in engine.capacity_check(cfg)}
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    # a row's scheme, seed and V are its pair's: one RunResult serves
    # every V of a config that does not read V
    pairs = [(cfg, v) for cfg in cfgs for v in grid]
    means = [result.means() for result in engine.sweep(cfgs, grid)]
    path = out_dir / "sweep.csv"
    with open(path, "w") as fh:
        fh.write("scheme,seed,v,f_bar,g_bar,total_cost,mean_backlog\n")
        for (cfg, v), row in zip(pairs, means):
            fh.write(",".join([cfg.scheme.value, str(cfg.run_seed), str(v),
                               *map(format_rational, row)]) + "\n")
    # the exact seed mean of each (scheme, V), in the order above; it is
    # taken here because sweep.csv rounds
    groups = {}
    for (cfg, v), (_, _, total_cost, mean_backlog) in zip(pairs, means):
        groups.setdefault((cfg.scheme.value, v), []).append(
            (total_cost, mean_backlog))
    mean_path = out_dir / "sweep.mean.csv"
    with open(mean_path, "w") as fh:
        fh.write("scheme,v,mean_total_cost,mean_backlog\n")
        for (scheme, v), group in groups.items():
            fh.write(",".join([scheme, str(v), *(
                format_rational(sum(column) / len(group))
                for column in zip(*group))]) + "\n")
    print(f"wrote {len(pairs)} rows to {path} and {len(groups)} seed means "
          f"to {mean_path}")
    return 0


#: Each run key's flag and argparse keywords, and the keys flagged by each
#: set of commands: built at import, not by every build_parser call
_FLAGS = {name: ("--" + name.replace("_", "-"), {"help": key.help} | (
    {"action": "store_const", "const": True} if key.type is bool else
    {"type": key.type, "choices": key.choices and
     [choice.value for choice in key.choices]}))
    for name, key in RUN_KEYS.items()}
_FLAGGED = {commands: [name for name, key in RUN_KEYS.items()
                       if key.commands == commands]
            for commands in {key.commands for key in RUN_KEYS.values()}}


def _add_flags(parser, names, **extra):
    for name in names:
        parser.add_argument(_FLAGS[name][0], **_FLAGS[name][1], **extra)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sdnsched", description=(
        "Dynamic switch-controller association and control devolution "
        "simulator"))
    sub = parser.add_subparsers(dest="command", required=True)

    p_topo = sub.add_parser("topo", help="generate and dump a topology")
    _add_flags(p_topo, ("kind", "k"), required=True)
    p_topo.add_argument("--seed", type=int)
    _add_flags(p_topo, ("hosts_min", "hosts_max"))
    p_topo.add_argument("--out", help="write the edge list to this file")
    p_topo.set_defaults(func=cmd_topo)

    p_run = sub.add_parser("run", help="execute one simulation run")
    p_run.set_defaults(func=cmd_run)
    # no abbreviations, so that run's --v is not read as --v-grid
    p_sweep = sub.add_parser("sweep", allow_abbrev=False,
                             help="run a V grid, one row per (V, scheme, seed)")
    p_cmp = sub.add_parser("compare", allow_abbrev=False,
                           help="sweep all four schemes over a V grid")
    for command, p in (("run", p_run), ("sweep", p_sweep), ("compare", p_cmp)):
        p.add_argument("--config", help="JSON config file")
        _add_flags(p, _FLAGGED[RUN_COMMANDS])
        p.add_argument("--out-dir", default="out")
        _add_flags(p, _FLAGGED.get((command,), ()))
    p_sweep.add_argument("--v-grid", required=True,
                         help="comma-separated V values")
    p_sweep.add_argument("--schemes", default="greedy")
    p_sweep.add_argument("--seeds", default="0")
    p_sweep.set_defaults(func=cmd_sweep)
    p_cmp.add_argument("--v-grid", required=True)
    p_cmp.add_argument("--seeds", default="0")
    p_cmp.set_defaults(func=cmd_sweep, schemes="greedy,static,random,jsq")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except RuntimeError as exc:
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
