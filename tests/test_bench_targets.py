"""The benchmark's span targets still resolve.

perfbench/layertrace.py times the library through callables it names by
module and attribute path, and leaves a span unmeasured when none of its
targets exists. A library change that deletes or renames the last target
of a span would silently zero that span's metric, so each span must keep
at least one callable that resolves.
"""

import importlib.util
from pathlib import Path

import pytest

LAYERTRACE = Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


def load_layertrace():
    spec = importlib.util.spec_from_file_location("layertrace", LAYERTRACE)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


layertrace = load_layertrace()
SPANS = sorted({name for name, _, _ in layertrace.TARGETS})


@pytest.mark.parametrize("span", SPANS)
def test_span_resolves_a_callable(span):
    found = [f"{module}:{path}" for name, module, path in layertrace.TARGETS
             if name == span and layertrace._resolve(module, path)]
    assert found, f"no target of span {span} resolves"


def test_slot_spans_are_live(tmp_path):
    # a command prices and accounts once per slot, whatever its lane
    # count, writes one CSV row per kept record, and draws one block of
    # targets per RANDOM_BLOCK slots for its one Random lane, if any
    from sdnsched.cli import main
    from sdnsched.engine import RANDOM_BLOCK

    horizon = 5
    common = ["--kind", "fat-tree", "--k", "4", "--horizon", str(horizon),
              "--arrivals", "poisson:2", "--out-dir", str(tmp_path)]
    tracer = layertrace.Tracer(layertrace.TARGETS)
    for argv, rows, draws in [
            (["compare", *common, "--v-grid", "0,10", "--seeds", "1"], 0,
             -(-horizon // RANDOM_BLOCK)),
            (["run", *common, "--scheme", "greedy", "--v", "10",
              "--stride", "1", "--name", "live"], horizon, 0)]:
        with tracer.installed():
            assert main(argv) == 0
        calls = {name: stats[0] for name, stats in tracer.spans.items()}
        assert calls["model.price_update"] == horizon, argv[0]
        assert calls["metrics.account"] == horizon, argv[0]
        assert calls["metrics.csv"] == rows, argv[0]
        assert calls["scheduler.decide"] == draws, argv[0]
    csv = (tmp_path / "live.csv").read_text().splitlines()
    assert len(csv) == 1 + horizon
