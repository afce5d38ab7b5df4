"""sdnsched benchmark: one workload through the public `sdnsched.cli.main`.

    python3 perfbench/run.py --workload desk-sweep --seed 3 --seconds 20 --trace 0

Run from the root of a checkout; the library is imported from `src/`.
Everything runs in this one process on one thread.

`--trace 0` measures the end-to-end metrics: host µs per simulated slot
(`slot_us`), the time to build one run's inputs (`setup_s`) and the
process's peak resident memory (`peak_rss_mib`). `--trace 1` alternates
untraced commands with commands traced by `layertrace.Tracer` and prints
the per-layer metrics. Every command's output files are hashed and
compared with the digest recorded in `perfbench/reference.json`; a
command that exits non-zero or writes other bytes counts as failed.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`. See perfbench/README.md for why each
workload exists and which layer metric should move which end-to-end one.
"""

from __future__ import annotations

import os

# One thread: set before numpy is imported through the library.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import gc
import hashlib
import io
import itertools
import json
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = BENCH_DIR / ".work"
REFERENCE = BENCH_DIR / "reference.json"

# The benchmark seed selects one of this many input sets; the reference
# digests cover each of them.
N_INPUTS = 16

# Share of --seconds spent timing set-up; the rest times commands.
SETUP_SHARE = 0.15
MIN_SETUP_SAMPLES = 20
MIN_COMMANDS = 3

EVENTS_PER_SLOT = 12  # trace-run: mean arrivals per switch per slot
SLOT_LENGTH_US = 10_000  # the CLI's default slot length
CDF_POINTS = 17


@dataclass(frozen=True)
class Workload:
    name: str
    subcommand: str  # sweep | compare | run
    k: int  # fat-tree radix
    horizon: int  # slots per engine run
    schemes: tuple[str, ...]
    v_grid: tuple[int, ...]
    arrivals: str  # "poisson:RATE", or "trace" for a CDF written from the seed
    hot_spot_rate: int
    controller_capacity: int
    switch_capacity: int

    def slots(self, horizon: int | None = None) -> int:
        """Slots simulated by one command, summed over its engine runs."""
        return (horizon or self.horizon) * len(self.schemes) * len(self.v_grid)

    @property
    def outputs(self) -> tuple[str, ...]:
        if self.subcommand == "run":
            return (f"{self.name}.csv", f"{self.name}.summary.json")
        return ("sweep.csv",)

    def out_dir(self) -> Path:
        return WORK_DIR / self.name

    def cdf_path(self, s: int) -> str:
        # relative to the checkout root, so summary.json embeds the same
        # `trace:PATH` on every checkout
        return f"perfbench/.work/trace-{s}.cdf"

    def prepare(self, s: int) -> None:
        """Write the input files of input set `s`: trace-run's CDF."""
        if self.arrivals == "trace":
            write_trace_cdf(ROOT / self.cdf_path(s), s)

    def arrival_spec(self, s: int) -> str:
        if self.arrivals == "trace":
            return f"trace:{self.cdf_path(s)}"
        return self.arrivals

    def argv(self, s: int, horizon: int | None = None) -> list[str]:
        """CLI arguments for input set `s`. Every seed is explicit, so an
        ambient SDND_SEED cannot change the workload."""
        argv = [
            self.subcommand, "--kind", "fat-tree", "--k", str(self.k),
            "--topo-seed", str(s),
            "--arrivals", self.arrival_spec(s),
            "--hot-spot-rate", str(self.hot_spot_rate),
            "--controller-capacity", str(self.controller_capacity),
            "--switch-capacity", str(self.switch_capacity),
            "--horizon", str(horizon or self.horizon),
            "--out-dir", str(self.out_dir().relative_to(ROOT)),
        ]
        if self.subcommand == "run":
            (scheme,), (v,) = self.schemes, self.v_grid
            argv += ["--scheme", scheme, "--v", str(v),
                     "--traffic-seed", str(s), "--run-seed", str(s),
                     "--stride", "1", "--name", self.name]
        else:
            argv += ["--v-grid", ",".join(map(str, self.v_grid)),
                     "--seeds", str(s)]
            if self.subcommand == "sweep":
                argv += ["--schemes", ",".join(self.schemes)]
        return argv


WORKLOADS = {w.name: w for w in (
    # The paper's V trade-off at desk scale (20 switches x 2 controllers):
    # fixed per-slot costs dominate, so per-switch loops barely matter.
    Workload("desk-sweep", "sweep", k=4, horizon=2000, schemes=("greedy",),
             v_grid=(0, 10, 100, 1000, 10000), arrivals="poisson:2",
             hot_spot_rate=20, controller_capacity=60, switch_capacity=4),
    # All four schemes on a large fabric (720 x 12): per-switch Python
    # loops in decision, pricing and arrivals dominate.
    Workload("fabric-compare", "compare", k=24, horizon=500,
             schemes=("greedy", "static", "random", "jsq"), v_grid=(100,),
             arrivals="poisson:5.88", hot_spot_rate=0,
             controller_capacity=600, switch_capacity=10),
    # Trace-driven arrivals (80 x 4) with a per-slot CSV: the per-event
    # sampling loop dominates; covers CSV and summary.json bytes.
    Workload("trace-run", "run", k=8, horizon=400, schemes=("greedy",),
             v_grid=(100,), arrivals="trace", hot_spot_rate=0,
             controller_capacity=600, switch_capacity=10),
)}


def input_set(seed: int) -> int:
    return seed % N_INPUTS


def write_trace_cdf(path: Path, s: int) -> None:
    """Write an inter-arrival CDF drawn from seed `s`.

    Probabilities are equal steps of 1/16, so the inverse-CDF search costs
    the same on every input set; the inter-arrival times are random and
    scaled to a mean of SLOT_LENGTH_US / EVENTS_PER_SLOT.
    """
    rng = random.Random(s)
    xs = list(itertools.accumulate(rng.uniform(0.2, 1.0)
                                   for _ in range(CDF_POINTS)))
    ps = [i / (CDF_POINTS - 1) for i in range(CDF_POINTS)]
    mean = sum((p1 - p0) * (x0 + x1) / 2
               for x0, x1, p0, p1 in zip(xs, xs[1:], ps, ps[1:]))
    scale = SLOT_LENGTH_US / EVENTS_PER_SLOT / mean
    lines = [f"# inter-arrival CDF for benchmark input set {s}"]
    lines += [f"{x * scale:.3f} {p!r}" for x, p in zip(xs, ps)]
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def output_digest(out_dir: Path, names) -> str | None:
    """sha256 over each output file's name and bytes; None if one is missing."""
    h = hashlib.sha256()
    for name in sorted(names):
        try:
            data = (out_dir / name).read_bytes()
        except FileNotFoundError:
            return None
        h.update(name.encode() + b"\0" + len(data).to_bytes(8, "big") + data)
    return h.hexdigest()


def load_reference(workload: str, s: int) -> str:
    data = json.loads(REFERENCE.read_text())
    return data["digests"][workload][s]


def import_library():
    """Import sdnsched from the checkout's `src/`, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "sdnsched" / "__init__.py").is_file():
        raise ImportError(f"no sdnsched package under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import sdnsched
    if Path(sdnsched.__file__).resolve().parent != src / "sdnsched":
        raise ImportError(f"sdnsched imported from {sdnsched.__file__}")
    from sdnsched import cli, topology, traffic
    return cli, topology, traffic


class Command:
    """One workload command on one input set, checked against a digest."""

    def __init__(self, cli, workload: Workload, s: int, expected: str | None,
                 horizon: int | None = None):
        self.cli = cli
        self.workload = workload
        self.argv = workload.argv(s, horizon)
        self.out_dir = workload.out_dir()
        self.expected = expected
        self.attempted = 0
        self.failed = 0

    def run(self) -> tuple[float, str | None]:
        """Run once; returns (seconds, digest). Failures are counted."""
        for name in self.workload.outputs:
            (self.out_dir / name).unlink(missing_ok=True)
        gc.collect()
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = self.cli.main(self.argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code
        except Exception:
            code = None
            err.write(traceback.format_exc())
        elapsed = time.perf_counter() - start
        self.attempted += 1
        digest = output_digest(self.out_dir, self.workload.outputs)
        # with no expected digest (while recording one), only the exit code
        # is checked
        if code != 0 or digest is None or (
                self.expected is not None and digest != self.expected):
            self.failed += 1
            print(f"command failed: exit={code} digest={digest} "
                  f"expected={self.expected}\n{err.getvalue()}",
                  file=sys.stderr)
        return elapsed, digest


def time_setup(topology, traffic, workload: Workload, s: int,
               budget: float) -> list[float]:
    """Seconds to build one run's inputs with the constructors the CLI
    calls, repeated for `budget` seconds."""
    from sdnsched.model import TopoKind
    if workload.arrivals == "trace":
        process = traffic.TraceCdf(path=workload.cdf_path(s))
    else:
        process = traffic.Poisson(
            rate=float(workload.arrivals.removeprefix("poisson:")))

    def build():
        topo = topology.generate(TopoKind.FAT_TREE, workload.k, seed=s)
        placement = topology.place_controllers(topo, seed=s)
        topology.build_cost_model(topo, placement)
        hot = frozenset(topo.pods[0]) if workload.hot_spot_rate else frozenset()
        tcfg = traffic.TrafficConfig(
            base_process=process,
            n_switches=topo.n_switches,
            n_controllers=placement.controller_count,
            slot_length_us=SLOT_LENGTH_US,
            hot_spot_switches=hot,
            hot_spot_rate=workload.hot_spot_rate,
            controller_capacity=workload.controller_capacity,
            switch_capacity=workload.switch_capacity,
            seed=s,
        )
        traffic.ArrivalState(tcfg)

    build()  # warm-up
    samples = []
    deadline = time.perf_counter() + budget
    while len(samples) < MIN_SETUP_SAMPLES or time.perf_counter() < deadline:
        start = time.perf_counter()
        build()
        samples.append(time.perf_counter() - start)
    return samples


def describe(name: str, values, unit: str) -> str:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (f"{name}: median {q2:.6g} {unit} "
            f"(q1 {q1:.6g}, q3 {q3:.6g}, n={len(values)})")


def end_to_end(cli, topology, traffic, workload, s, seconds, expected,
               horizon=None):
    """Returns (result, report lines) for --trace 0."""
    setup = time_setup(topology, traffic, workload, s, seconds * SETUP_SHARE)
    command = Command(cli, workload, s, expected, horizon)
    command.run()  # warm-up, checked but not timed
    slots = workload.slots(horizon)
    per_slot = []
    deadline = time.perf_counter() + seconds * (1 - SETUP_SHARE)
    while len(per_slot) < MIN_COMMANDS or time.perf_counter() < deadline:
        elapsed, _ = command.run()
        per_slot.append(elapsed / slots * 1e6)
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    metrics = {
        "slot_us": {"value": statistics.median(per_slot), "unit": "us"},
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "peak_rss_mib": {"value": rss_mib, "unit": "MiB"},
    }
    lines = [
        describe("slot_us", per_slot, "us"),
        describe("setup_s", setup, "s"),
        f"peak_rss_mib: {rss_mib:.6g} MiB",
        f"failed_frac: {command.failed / command.attempted:.6g} "
        f"({command.failed} of {command.attempted} commands)",
    ]
    return {"correct": command.failed == 0, "attempted": command.attempted,
            "failed": command.failed, "metrics": metrics}, lines


def command_counts(tracer) -> dict[str, int]:
    """Counts of one traced command; they must repeat exactly."""
    spans, counts = tracer.spans, tracer.counts
    return {
        "traffic.requests": counts["traffic.requests"],
        "scheduler.decisions": spans["scheduler.decide"][0],
        "metrics.records_built": spans["metrics.account"][0],
        # a record is kept when it reaches an output file: a CSV row, or
        # the final record of a run that becomes a sweep row
        "metrics.records_kept": (spans["metrics.csv"][0]
                                 + counts["engine.sweep_rows"]),
        "metrics.csv_rows": spans["metrics.csv"][0],
    }


def layer_metrics(totals, counts, n_traced, slots, overhead):
    """Per-layer metrics from span sums over `n_traced` traced commands,
    as name -> (value, unit, spans the value is read from)."""
    def per_call(span, scale):
        calls, total, _ = totals[span]
        return total / calls / scale if calls else 0.0

    def self_time(span):
        _, total, child = totals[span]
        return total - child

    topo_ns = sum(totals[s][1] for s in (
        "topology.generate", "topology.place_controllers",
        "topology.build_cost_model"))
    builds = totals["topology.generate"][0]
    built = counts["metrics.records_built"]
    kept = counts["metrics.records_kept"]
    kept_spans = ("metrics.account", "metrics.csv", "engine.sweep")
    return {
        "topology.build_ms": (topo_ns / builds / 1e6 if builds else 0.0,
                              "ms", ("topology.generate",)),
        "traffic.sample_us": (per_call("traffic.sample", 1e3), "us",
                              ("traffic.sample",)),
        "traffic.requests": (counts["traffic.requests"], "count",
                             ("traffic.sample",)),
        "scheduler.decide_us": (per_call("scheduler.decide", 1e3), "us",
                                ("scheduler.decide",)),
        "scheduler.decisions": (counts["scheduler.decisions"], "count",
                                ("scheduler.decide",)),
        "model.price_update_us": (per_call("model.price_update", 1e3), "us",
                                  ("model.price_update",)),
        "metrics.account_us": (per_call("metrics.account", 1e3), "us",
                               ("metrics.account",)),
        "metrics.records_built": (built, "count", ("metrics.account",)),
        "metrics.records_kept": (kept, "count", kept_spans),
        "metrics.record_keep_ratio": (kept / built if built else 0.0,
                                      "ratio", kept_spans),
        "metrics.csv_us_per_row": (per_call("metrics.csv", 1e3), "us",
                                   ("metrics.csv",)),
        "metrics.csv_rows": (counts["metrics.csv_rows"], "count",
                             ("metrics.csv",)),
        "engine.self_us": (self_time("engine.run") / (n_traced * slots) / 1e3,
                           "us", ("engine.run",)),
        "cli.self_ms": (self_time("cli.main") / n_traced / 1e6, "ms",
                        ("cli.main",)),
        "trace.overhead_frac": (overhead, "ratio", ("cli.main",)),
    }


def traced(cli, workload, s, seconds, expected, horizon=None):
    """Returns (result, report lines) for --trace 1."""
    import layertrace

    tracer = layertrace.Tracer(layertrace.TARGETS)
    command = Command(cli, workload, s, expected, horizon)
    command.run()  # warm-up
    slots = workload.slots(horizon)
    plain, with_spans, digests, per_command = [], [], set(), []
    totals = {name: [0, 0, 0] for name, _, _ in tracer.targets}
    deadline = time.perf_counter() + seconds
    while len(with_spans) < MIN_COMMANDS or time.perf_counter() < deadline:
        elapsed, digest = command.run()
        plain.append(elapsed)
        digests.add(digest)
        with tracer.installed():
            elapsed, digest = command.run()
        with_spans.append(elapsed)
        digests.add(digest)
        per_command.append(command_counts(tracer))
        for name, (calls, total, child) in tracer.spans.items():
            acc = totals[name]
            acc[0] += calls
            acc[1] += total
            acc[2] += child
    counts_repeat = all(c == per_command[0] for c in per_command)
    if not counts_repeat:
        print(f"counts differ between traced commands: {per_command}",
              file=sys.stderr)
    overhead = statistics.median(with_spans) / statistics.median(plain) - 1
    values = layer_metrics(totals, per_command[0], len(with_spans), slots,
                           overhead)
    metrics = {}
    lines = []
    # a metric whose spans are all missing from the library is unmeasured
    for name, (value, unit, spans) in values.items():
        if all(span in tracer.unmeasured for span in spans):
            value = None
            lines.append(f"{name}: unmeasured (callable missing)")
        else:
            shown = value if unit == "count" else f"{value:.6g}"
            lines.append(f"{name}: {shown} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    lines.append(describe("slot_us untraced", [t / slots * 1e6 for t in plain],
                          "us"))
    lines.append(describe("slot_us traced", [t / slots * 1e6 for t in with_spans],
                          "us"))
    lines.append(f"counts repeat exactly: {counts_repeat}; "
                 f"traced digests equal untraced: {len(digests) == 1}")
    correct = command.failed == 0 and counts_repeat and len(digests) == 1
    return {"correct": correct, "attempted": command.attempted,
            "failed": command.failed, "metrics": metrics}, lines


def run_benchmark(workload_name: str, seed: int, seconds: float, trace: bool,
                  horizon: int | None = None, expected: str | None = None):
    """Run one workload; returns (result, report lines).

    `horizon` and `expected` override the workload's horizon and the
    recorded reference digest (the self-tests use short horizons).
    """
    cli, topology, traffic = import_library()
    workload = WORKLOADS[workload_name]
    s = input_set(seed)
    workload.prepare(s)
    if expected is None:
        expected = load_reference(workload.name, s)
    if trace:
        return traced(cli, workload, s, seconds, expected, horizon)
    return end_to_end(cli, topology, traffic, workload, s, seconds, expected,
                      horizon)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("error: --seconds must be positive", file=sys.stderr)
        return 2
    os.chdir(ROOT)
    try:
        result, lines = run_benchmark(args.workload, args.seed, args.seconds,
                                      bool(args.trace))
    except (ImportError, OSError, KeyError, ValueError) as exc:
        print(f"error: cannot run the benchmark: {exc!r}", file=sys.stderr)
        return 2
    print(f"workload {args.workload}, seed {args.seed} "
          f"(input set {input_set(args.seed)}), trace {args.trace}")
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
