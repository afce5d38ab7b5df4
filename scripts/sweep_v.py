#!/usr/bin/env python3
"""Desk-scale trade-off sweep: run the greedy scheduler over a grid of
V values on a fat-tree(4) with one hot pod, averaging over seeds with
common random numbers, and write cost/backlog curves to CSV.

Usage: python3 scripts/sweep_v.py [--out results/sweep_v.csv]
"""

import argparse
import csv
import pathlib

from sdnsched.engine import RunConfig, Scheme, sweep
from sdnsched.metrics import format_rational
from sdnsched.model import SchedulerParams
from sdnsched.topology import build_cost_model, gen_fat_tree, place_controllers
from sdnsched.traffic import Poisson, TrafficConfig

V_GRID = [0, 10, 100, 1000, 10000]
SEEDS = [0, 1, 2, 3, 4]
HORIZON = 20_000


def configs(horizon: int) -> list[RunConfig]:
    """One greedy run per seed; the sweep sets V."""
    topo = gen_fat_tree(4)
    cost = build_cost_model(topo, place_controllers(topo))
    return [RunConfig(
        cost=cost,
        traffic=TrafficConfig(
            base_process=Poisson(2),
            n_switches=topo.n_switches,
            n_controllers=cost.n_controllers,
            hot_spot_switches=frozenset(topo.pods[0]),
            hot_spot_rate=20,
            controller_capacity=60,
            switch_capacity=4,
            seed=seed,
        ),
        scheme=Scheme.GREEDY,
        params=SchedulerParams(),
        horizon_slots=horizon,
        run_seed=seed,
    ) for seed in SEEDS]


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
