"""Tests of the benchmark's own arithmetic and plumbing.

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import cells  # noqa: E402
import harness  # noqa: E402
import stats  # noqa: E402
import tracer  # noqa: E402
from cells import DEFAULT_SEED, Cell, Workload  # noqa: E402


@pytest.fixture
def clean_env(monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        monkeypatch.delenv(name)


# ------------------------------------------------------------ percentiles

@pytest.mark.parametrize("n, tail", [
    (9, None), (99, None), (100, 90.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (9999, 99.0), (10000, 99.9),
])
def test_tail_percentile_keeps_ten_samples_beyond(n, tail):
    assert stats.tail_percentile(n) == tail
    if tail is not None:
        assert stats.beyond(n, tail) >= stats.TAIL_MIN_BEYOND


def test_no_p95_below_200_samples():
    assert not stats.p95_allowed(199)
    assert stats.p95_allowed(200)


def test_nearest_rank_percentile():
    values = list(range(200, 0, -1))
    p95 = stats.percentile(values, 95)
    assert p95 == 190
    assert sum(v > p95 for v in values) == 10
    assert stats.percentile(values, 50) == 100
    assert stats.percentile([3.0], 95) == 3.0
    with pytest.raises(ValueError):
        stats.percentile([], 50)


# ------------------------------------------------------------- self time

class FakeClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_nested_children():
    # A [0, 10] holds memory [1, 5], which holds a nested memory [2, 4]
    # (an L1 read calling the L2's), and launch [6, 9].
    tr = tracer.Tracer(clock=FakeClock(0, 1, 2, 4, 5, 6, 9, 10))
    a = tr.open("app.run")
    outer = tr.open("sim.memory", record=False)
    inner = tr.open("sim.memory", record=False)
    tr.close(inner)
    tr.close(outer)
    launch = tr.open("sim.launch")
    tr.close(launch)
    tr.close(a)
    assert tr.self_s["sim.memory"] == pytest.approx(4)  # 2 + 2, not 4 + 2
    assert tr.self_s["sim.launch"] == pytest.approx(3)
    assert tr.self_s["app.run"] == pytest.approx(10 - 4 - 3)
    assert tr.self_durations("app.run") == [pytest.approx(3)]
    # Only recorded spans are kept, each with its parent's index.
    assert [(s[0], s[4]) for s in tr.spans] == [("app.run", None),
                                               ("sim.launch", 0)]


def test_closing_a_span_closes_the_spans_left_open_inside_it():
    tr = tracer.Tracer(clock=FakeClock(0, 1, 2, 7, 7, 8))
    campaign = tr.open("campaign")
    tr.begin_trial()  # a trial whose campaign raised before its progress
    tr.open("sim.launch")
    tr.close(campaign)
    assert tr.trial is None and not tr._stack
    assert tr.durations("campaign") == [8]
    assert tr.durations("trial") == [6] and tr.durations("sim.launch") == [5]


def test_campaign_self_time_excludes_its_trials():
    tr = tracer.Tracer(clock=FakeClock(0, 1, 4, 5, 8, 10))
    campaign = tr.open("campaign")
    for _ in range(2):
        tr.begin_trial()
        tr.end_trial()
    tr.close(campaign)
    assert tr.durations("trial") == [3, 3]
    assert tr.campaign_self() == [pytest.approx(4)]


def test_instrument_restores_every_wrapped_name():
    import repro.fi.campaign as campaign_mod
    import repro.sim.gpu as gpu_mod
    from repro.kernels.vectoradd import VectorAdd

    before = (gpu_mod.GPU.launch, gpu_mod.CompiledKernel,
              campaign_mod.outputs_equal, VectorAdd.run)
    with tracer.instrument(tracer.Tracer(), [VectorAdd]):
        assert gpu_mod.GPU.launch is not before[0]
    assert (gpu_mod.GPU.launch, gpu_mod.CompiledKernel,
            campaign_mod.outputs_equal, VectorAdd.run) == before


# ---------------------------------------------------------- failed trials

def _smoke_context(tmp_path, workload=cells.WORKLOADS["smoke"]):
    return harness.set_up(workload, DEFAULT_SEED, tmp_path, repeats=1)


def test_forged_tally_mismatch_fails_the_whole_cell(clean_env, tmp_path):
    ctx = _smoke_context(tmp_path)
    cell = ctx.workload.cells[0]
    reference = json.loads((HERE / "reference.json").read_text())
    expected = {c: r["tally"] for c, r
                in reference["workloads"]["smoke"].items()}
    good = harness.run_pass(ctx, workers=1, expected=expected)
    assert good.failed == 0 and not good.problems

    forged = dict(expected[cell.name])
    forged["masked"] += 1
    forged["sdc"] -= 1
    res = harness.run_pass(ctx, workers=1,
                           expected={**expected, cell.name: forged})
    assert res.failed == cell.trials
    assert stats.ratio(res.failed, res.planned) == pytest.approx(
        cell.trials / sum(c.trials for c in ctx.workload.cells))
    assert len(res.problems) == 1 and cell.name in res.problems[0]


def test_raising_campaign_fails_its_planned_trials(clean_env, tmp_path):
    # A uarch storage campaign without a structure raises a ConfigError.
    bad = Cell("uarch", "va", "va_k1", structure=None, trials=3)
    good = Cell("sw", "va", "va_k1", trials=3)
    ctx = _smoke_context(tmp_path, Workload("bad", (bad, good)))
    res = harness.run_pass(ctx, workers=1, expected={})
    assert res.failed == bad.trials and res.planned == 6
    assert res.tallies[bad.name] is None
    assert res.tallies[good.name] is not None
    assert "campaign raised" in res.problems[0]


def test_check_cell_counts_crashes_and_short_campaigns():
    from types import SimpleNamespace

    from repro.fi import OutcomeCounts

    cell = Cell("sw", "va", "va_k1", trials=4)
    counts = OutcomeCounts(masked=2, sdc=1, crash=1)
    result = SimpleNamespace(trials=4, counts=counts)
    assert harness.check_cell(cell, result, None) == (1, None)
    short = SimpleNamespace(trials=4, counts=OutcomeCounts(masked=3))
    failed, why = harness.check_cell(cell, short, None)
    assert failed == 4 and "3 of 4" in why


# ---------------------------------------------------------------- smoke

def _run(*args, cwd=ROOT):
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_workload_end_to_end(trace):
    out = _run("--workload", "smoke", "--seed", str(DEFAULT_SEED),
               "--seconds", "1", "--trace", trace)
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 8
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = {m["name"]: m["unit"]
             for m in spec["per_layer" if trace == "1" else "end_to_end"]}
    if trace == "0":
        names.pop("trial_p95_ms")  # the smoke run has < 200 samples
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    out = _run("--workload", "smoke", "--seconds", "1", "--trace", "0",
               cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""
