#!/usr/bin/env python3
"""Desk-scale trade-off sweep: run the greedy scheduler over a grid of
V values on a fat-tree(4) with one hot pod, averaging over seeds with
common random numbers, and write cost/backlog curves to CSV.

Usage: python3 scripts/sweep_v.py [--out results/sweep_v.csv]
"""

import argparse
import csv
import pathlib

from sdnsched.cli import sweep_configs
from sdnsched.engine import RunConfig, sweep
from sdnsched.metrics import format_rational

# config-file keys, resolved as `sdnsched sweep` resolves them; the
# topology seed is fixed, so SDND_SEED changes nothing
EXPERIMENT = {"kind": "fat-tree", "k": 4, "topo_seed": 0,
              "arrivals": "poisson:2", "hot_spot_rate": 20,
              "controller_capacity": 60, "switch_capacity": 4}
V_GRID = [0, 10, 100, 1000, 10000]
SEEDS = [0, 1, 2, 3, 4]
HORIZON = 20_000


def configs(horizon: int) -> list[RunConfig]:
    """One greedy run per seed; the sweep sets V."""
    return sweep_configs({**EXPERIMENT, "horizon": horizon}, ["greedy"],
                         SEEDS)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results/sweep_v.csv")
    ap.add_argument("--horizon", type=int, default=HORIZON)
    args = ap.parse_args()

    # every (V, seed) run is a lane of one loop; arrivals are drawn once
    # per seed
    results = sweep(configs(args.horizon), V_GRID)
    rows = []
    for v in V_GRID:
        picked = [r for r in results if r.v == v]
        mean_cost = sum(r.total_cost for r in picked) / len(picked)
        mean_backlog = sum(r.mean_backlog for r in picked) / len(picked)
        rows.append((v, mean_cost, mean_backlog))
        print(f"V={v:>6}  mean total cost {float(mean_cost):10.3f}  "
              f"mean backlog {float(mean_backlog):12.3f}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["v", "mean_total_cost", "mean_backlog"])
        for v, c, b in rows:
            w.writerow([v, format_rational(c), format_rational(b)])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
