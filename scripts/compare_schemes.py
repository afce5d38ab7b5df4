#!/usr/bin/env python3
"""Compare the greedy scheduler against the Static, Random, and JSQ
baselines on a fat-tree(4) with one hot pod, averaging over seeds with
common random numbers, and write a summary table to CSV.

Usage: python3 scripts/compare_schemes.py [--v 100] [--out results/compare.csv]
"""

import argparse
import csv
import pathlib
from fractions import Fraction

from sdnsched.cli import sweep_configs
from sdnsched.engine import RunConfig, Scheme, sweep
from sdnsched.metrics import format_rational

# config-file keys, resolved as `sdnsched compare` resolves them; the
# topology seed is fixed, so SDND_SEED changes nothing
EXPERIMENT = {"kind": "fat-tree", "k": 4, "topo_seed": 0,
              "arrivals": "poisson:2", "hot_spot_rate": 20,
              "controller_capacity": 60, "switch_capacity": 4}
SCHEMES = (Scheme.GREEDY, Scheme.STATIC, Scheme.RANDOM, Scheme.JSQ)
SEEDS = [0, 1, 2, 3, 4]


def configs(horizon: int) -> list[RunConfig]:
    """One run per (scheme, seed); the sweep sets V."""
    return sweep_configs({**EXPERIMENT, "horizon": horizon},
                         [s.value for s in SCHEMES], SEEDS)


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--v", type=Fraction, default=Fraction(100))
    ap.add_argument("--horizon", type=int, default=20_000)
    ap.add_argument("--out", default="results/compare.csv")
    args = ap.parse_args()

    # every (scheme, seed) run is a lane of one loop; arrivals are drawn
    # once per seed
    results = sweep(configs(args.horizon), [args.v])
    rows = []
    for scheme in SCHEMES:
        picked = [r for r in results if r.scheme is scheme]
        mean_cost = sum(r.total_cost for r in picked) / len(picked)
        mean_backlog = sum(r.mean_backlog for r in picked) / len(picked)
        rows.append((scheme.value, mean_cost, mean_backlog))
        print(f"{scheme.value:>6}  mean total cost {float(mean_cost):10.3f}  "
              f"mean backlog {float(mean_backlog):12.3f}")

    out = pathlib.Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["scheme", "mean_total_cost", "mean_backlog"])
        for name, c, b in rows:
            w.writerow([name, format_rational(c), format_rational(b)])
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
