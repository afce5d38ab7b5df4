"""Self-tests of the benchmark harness, at tiny horizons.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))
import layertrace  # noqa: E402
import run  # noqa: E402

TINY = 3  # slots per engine run
SECONDS = 0.05


@pytest.fixture(autouse=True)
def at_checkout_root(monkeypatch):
    monkeypatch.chdir(run.ROOT)


def tiny_digest(name, s=0, horizon=TINY):
    cli, _, _ = run.import_library()
    workload = run.WORKLOADS[name]
    workload.prepare(s)
    command = run.Command(cli, workload, s, expected=None, horizon=horizon)
    _, digest = command.run()
    assert command.failed == 0
    return digest


def declared_units(kind):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_prints_with_its_unit(name, trace):
    units = declared_units("per_layer" if trace else "end_to_end")
    result, lines = run.run_benchmark(name, 0, SECONDS, trace, horizon=TINY,
                                      expected=tiny_digest(name))
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    for metric, unit in units.items():
        assert isinstance(result["metrics"][metric]["value"], (int, float))
        assert any(line.startswith(f"{metric}: ") and f" {unit}" in line
                   for line in lines), metric
    if trace:
        assert ("counts repeat exactly: True; "
                "traced digests equal untraced: True") in lines
    else:
        assert any(line.startswith("failed_frac: 0 ") for line in lines)


def test_wrong_reference_digest_fails_every_command():
    result, lines = run.run_benchmark("desk-sweep", 0, SECONDS, False,
                                      horizon=TINY, expected="0" * 64)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert any(line.startswith("failed_frac: 1 ") for line in lines)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_recorded_reference_matches_at_this_commit(name):
    assert tiny_digest(name, s=0, horizon=None) \
        == run.load_reference(name, 0)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_ambient_sdnd_seed_does_not_change_outputs(name, monkeypatch):
    monkeypatch.delenv("SDND_SEED", raising=False)
    base = tiny_digest(name, s=1)
    monkeypatch.setenv("SDND_SEED", "7")
    assert tiny_digest(name, s=1) == base


def test_trace_cdf_is_deterministic_with_twelve_events_per_slot(tmp_path):
    from sdnsched import traffic

    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    run.write_trace_cdf(a, 3)
    run.write_trace_cdf(b, 3)
    run.write_trace_cdf(c, 4)
    assert a.read_bytes() == b.read_bytes() != c.read_bytes()
    cdf = traffic.load_interarrival_cdf(str(a))
    assert run.SLOT_LENGTH_US / cdf.mean == pytest.approx(12, rel=1e-3)


def test_missing_callable_is_unmeasured_and_unwrapped(monkeypatch):
    from sdnsched import engine

    original = engine.apply_slot
    targets = tuple(
        (name, module, "NoSuchKernel.decide" if name == "scheduler.decide"
         else path)
        for name, module, path in layertrace.TARGETS)
    tracer = layertrace.Tracer(targets)
    with tracer.installed():
        assert engine.apply_slot is not original
    assert engine.apply_slot is original
    assert tracer.unmeasured == {"scheduler.decide"}

    monkeypatch.setattr(layertrace, "TARGETS", targets)
    result, lines = run.run_benchmark("trace-run", 0, SECONDS, True,
                                      horizon=TINY,
                                      expected=tiny_digest("trace-run"))
    assert result["correct"]
    assert result["metrics"]["scheduler.decide_us"]["value"] is None
    assert result["metrics"]["scheduler.decisions"]["value"] is None
    assert result["metrics"]["model.price_update_us"]["value"] > 0
    assert "scheduler.decide_us: unmeasured (callable missing)" in lines
