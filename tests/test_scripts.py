"""The scripts under scripts/ run, at a short horizon, and each CSV row
is the seed mean of separate engine.run results for its configs."""

import csv
import runpy
import sys
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from sdnsched.engine import run
from sdnsched.metrics import format_rational

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"
HORIZON = 30


def run_script(name, tmp_path, monkeypatch, *extra):
    """Run the script's main() with --horizon HORIZON; returns its module
    globals and the rows of the CSV it wrote."""
    module = runpy.run_path(str(SCRIPTS / name))
    out = tmp_path / "out.csv"
    monkeypatch.setattr(sys, "argv", [name, "--horizon", str(HORIZON),
                                      "--out", str(out), *extra])
    module["main"]()
    with out.open(newline="") as fh:
        return module, list(csv.reader(fh))


def seed_mean(cfgs, v):
    """[mean total cost, mean backlog] of separate runs at V = v, as the
    scripts format them."""
    results = [run(replace(c, params=replace(c.params, v=v))) for c in cfgs]
    cost = sum(r.final.f_bar + r.final.g_bar for r in results) / len(results)
    backlog = sum(r.mean_backlog for r in results) / len(results)
    return [format_rational(cost), format_rational(backlog)]


def test_sweep_v(tmp_path, monkeypatch, capsys):
    module, (header, *rows) = run_script("sweep_v.py", tmp_path, monkeypatch)
    assert header == ["v", "mean_total_cost", "mean_backlog"]
    cfgs = module["configs"](HORIZON)
    assert len(cfgs) == len(module["SEEDS"])
    assert rows == [[str(v), *seed_mean(cfgs, v)] for v in module["V_GRID"]]
    assert capsys.readouterr().out.count("mean total cost") == len(rows)


@pytest.mark.parametrize("v", [None, "7/2"])
def test_compare_schemes(tmp_path, monkeypatch, capsys, v):
    module, (header, *rows) = run_script(
        "compare_schemes.py", tmp_path, monkeypatch,
        *(["--v", v] if v else []))
    assert header == ["scheme", "mean_total_cost", "mean_backlog"]
    cfgs = module["configs"](HORIZON)
    v = Fraction(v or 100)
    assert rows == [
        [scheme.value,
         *seed_mean([c for c in cfgs if c.scheme is scheme], v)]
        for scheme in module["SCHEMES"]]
    assert capsys.readouterr().out.count("mean total cost") == len(rows)
