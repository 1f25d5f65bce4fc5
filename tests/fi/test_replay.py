"""Golden launch replay end to end: a campaign replaying golden launches
produces the same journal bytes, cache payload bytes and tallies as one
that simulates every launch (the profile's memo emptied)."""

import dataclasses
import functools

import pytest

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.fi import CampaignSpec, profile_app, run_campaign
from repro.fi.journal import journal_dir
from repro.fi.planner import StopRule
from repro.hardening.registry import hardening_scheme
from repro.kernels import application_names, get_application

APPS = application_names("paper") + application_names("nn")
CACHES = ("l1d", "l2", "l1t")


@functools.lru_cache(maxsize=None)
def _profile(app: str, uarch: bool, harden: str | None):
    config = quadro_gv100_like() if uarch else tesla_v100_like()
    factory = hardening_scheme(harden) if harden else None
    return profile_app(get_application(app), config, factory)


def _run(spec, profile, cache, monkeypatch):
    """Run ``spec`` on a fresh cache; returns the journal bytes as of the
    last commit that left one, the cache payload bytes and the tally."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(cache))
    journals = {}

    def progress(done, total, outcome):
        journals.update((p.name, p.read_bytes())
                        for p in journal_dir().glob("*.jsonl"))

    result = run_campaign(spec, profile=profile, progress=progress)
    payloads = {p.name: p.read_bytes() for p in cache.glob("*.json")}
    return journals, payloads, result.counts.to_dict()


def _assert_replay_identical(spec, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "0")
    profile = _profile(spec.app, spec.level == "uarch", spec.harden)
    assert profile.checkpoints
    memo = _run(spec, profile, tmp_path / "memo", monkeypatch)
    full = _run(spec, dataclasses.replace(profile, checkpoints=()),
                tmp_path / "full", monkeypatch)
    assert memo[0] and memo[1]
    assert memo == full


def _cells():
    for i, app in enumerate(APPS):
        kernels = get_application(app).kernel_names
        yield CampaignSpec(level="uarch", app=app, structure="rf",
                           trials=6, seed=3)
        yield CampaignSpec(level="uarch", app=app, kernel=kernels[-1],
                           structure=CACHES[i % len(CACHES)], trials=6,
                           seed=3)
        yield CampaignSpec(level="sw", app=app, trials=6, seed=3)


@pytest.mark.parametrize("spec", list(_cells()),
                         ids=lambda s: f"{s.level}-{s.app}-{s.structure}")
def test_every_app_replays_identically(spec, tmp_path, monkeypatch):
    _assert_replay_identical(spec, tmp_path, monkeypatch)


SPECIAL = [
    CampaignSpec(level="uarch", app="bfs", structure="rf", trials=6, seed=5,
                 fault_model="stuck0"),
    CampaignSpec(level="uarch", app="bfs", structure="l2", trials=6, seed=5,
                 fault_model="intermittent"),
    CampaignSpec(level="uarch", app="bfs", kernel="bfs_k2", trials=6, seed=5,
                 target="control"),
    CampaignSpec(level="uarch", app="va", structure="rf", trials=6, seed=5,
                 harden="tmr"),
    CampaignSpec(level="sw", app="gemm", trials=6, seed=5, harden="abft"),
    CampaignSpec(level="src-sticky", app="pathfinder", trials=6, seed=5),
    CampaignSpec(level="sw", app="sradv1", trials=6, seed=5,
                 sdc_anatomy=True),
    CampaignSpec(level="uarch", app="hotspot", structure="l2", seed=5,
                 budget=12, stop_rule=StopRule(ci_halfwidth=0.3,
                                               min_trials=6)),
]


@pytest.mark.parametrize("spec", SPECIAL, ids=[
    "stuck0", "intermittent", "control", "tmr", "abft", "src-sticky",
    "sdc-anatomy", "budget-stop-rule"])
def test_fault_models_and_options_replay_identically(spec, tmp_path,
                                                     monkeypatch):
    _assert_replay_identical(spec, tmp_path, monkeypatch)


def test_a_fault_free_trial_replays_every_launch():
    """Trial GPUs carry the profile's memo: with no fault planned, every
    launch starts from the golden state and is replayed."""
    from repro.fi.campaign import _gpu_factory, _kernel_rollup
    from repro.kernels.base import DeviceHarness

    profile = _profile("bfs", True, None)
    gpu = _gpu_factory(profile, quadro_gv100_like())()
    get_application("bfs").run(gpu, DeviceHarness())
    rollup = _kernel_rollup(gpu)
    assert sum(r["replayed"] for r in rollup.values()) == len(
        profile.launches) == sum(r["launches"] for r in rollup.values())
