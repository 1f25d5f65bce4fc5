"""Telemetry wiring through run_campaign: event coverage, worker
interleaving, the default REPRO_TELEMETRY path, and — the contract that
matters — bit-identical results and cache payloads with telemetry on/off."""

import json

import pytest

from repro.fi import CampaignSpec, profile_app, run_campaign
from repro.kernels import get_application
from repro.telemetry.events import TelemetrySession, read_events

TRIALS = 8


@pytest.fixture()
def va_profile(v100):
    return profile_app(get_application("va"), v100)


def _spec(workers=1, telemetry=None, use_cache=True):
    return CampaignSpec(level="sw", app="va", kernel="va_k1", config="v100",
                        trials=TRIALS, seed=11, workers=workers,
                        use_cache=use_cache, telemetry=telemetry)


def _run_with_events(tmp_path, workers, va_profile, name="events.jsonl"):
    with TelemetrySession(tmp_path / name) as session:
        result = run_campaign(_spec(workers=workers), profile=va_profile,
                              telemetry_session=session)
    return result, read_events(tmp_path / name)


def _cache_payloads(cache):
    return {p.name: json.loads(p.read_text())
            for p in sorted(cache.glob("*.json"))}


# ----------------------------------------------------------- event coverage

def test_serial_campaign_emits_full_phase_vocabulary(tmp_cache, tmp_path):
    # no pre-built profile: the campaign runs its own golden profiling,
    # so the golden_run span shows up alongside the trial phases
    with TelemetrySession(tmp_path / "events.jsonl") as session:
        result = run_campaign(_spec(), telemetry_session=session)
    events = read_events(tmp_path / "events.jsonl")
    kinds = {e["kind"] for e in events}
    assert kinds == {"campaign", "cache", "span", "commit", "kernels"}

    begin = next(e for e in events if e.get("phase") == "begin")
    end = next(e for e in events if e.get("phase") == "end")
    assert begin["total"] == TRIALS and begin["workers"] == 1
    assert end["committed"] == TRIALS

    spans = {e["name"] for e in events if e["kind"] == "span"}
    assert {"golden_run", "sim.setup", "trial", "inject.plan",
            "classify", "journal.commit", "cache.store"} <= spans

    commits = [e for e in events if e["kind"] == "commit"]
    assert len(commits) == TRIALS
    assert [c["trial"] for c in commits] == list(range(TRIALS))  # in order
    outcomes = [c["outcome"] for c in commits]
    assert result.counts.masked == outcomes.count("masked")
    assert result.counts.sdc == outcomes.count("sdc")

    trial_spans = [e for e in events if e["kind"] == "span"
                   and e["name"] == "trial"]
    assert len(trial_spans) == TRIALS
    assert all(e["dur"] > 0 for e in trial_spans)


def test_parallel_campaign_streams_events_from_every_worker(tmp_cache,
                                                            tmp_path,
                                                            va_profile):
    result, events = _run_with_events(tmp_path, 4, va_profile)
    trial_spans = [e for e in events if e["kind"] == "span"
                   and e["name"] == "trial"]
    assert {e["worker"] for e in trial_spans} == {0, 1, 2, 3}
    assert len(trial_spans) == TRIALS
    # every trial's worker events arrive before the parent commits it
    # (per-producer FIFO), so all commits are present and in trial order
    commits = [e for e in events if e["kind"] == "commit"]
    assert [c["trial"] for c in commits] == list(range(TRIALS))
    # journal commits stay a parent-only affair (single-writer contract)
    assert all(e["worker"] is None for e in events
               if e["kind"] == "span" and e["name"] == "journal.commit")
    # the per-worker sim.setup ran once per pool member
    setups = [e for e in events if e["kind"] == "span"
              and e["name"] == "sim.setup"]
    assert {e["worker"] for e in setups} == {0, 1, 2, 3}


def test_cache_hit_emits_single_load_event(tmp_cache, tmp_path, va_profile):
    _run_with_events(tmp_path, 1, va_profile, name="first.jsonl")
    with TelemetrySession(tmp_path / "second.jsonl") as session:
        run_campaign(_spec(), profile=va_profile, telemetry_session=session)
    events = read_events(tmp_path / "second.jsonl")
    assert len(events) == 1
    assert events[0]["kind"] == "cache"
    assert events[0]["hit"] is True


# -------------------------------------------------- env knob + default path

def test_repro_telemetry_env_writes_default_path(tmp_cache, monkeypatch,
                                                 va_profile):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    run_campaign(_spec(), profile=va_profile)
    streams = list((tmp_cache / "telemetry").glob("*.jsonl"))
    assert len(streams) == 1
    events = read_events(streams[0])
    # the stream is keyed (and tagged) by the campaign cache key
    assert streams[0].stem == events[0]["campaign"]
    assert any(e["kind"] == "commit" for e in events)


def test_spec_can_veto_env_enabled_telemetry(tmp_cache, monkeypatch,
                                             va_profile):
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    run_campaign(_spec(telemetry=False), profile=va_profile)
    assert not (tmp_cache / "telemetry").exists()


def test_telemetry_off_by_default(tmp_cache, va_profile):
    run_campaign(_spec(), profile=va_profile)
    assert not (tmp_cache / "telemetry").exists()


# --------------------------------------------------------- the bit contract

def test_results_bit_identical_with_telemetry_on_and_off(tmp_path,
                                                         monkeypatch,
                                                         va_profile):
    """Telemetry must never leak into tallies, cache keys or payloads —
    at any worker count."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "plain"))
    plain = run_campaign(_spec(), profile=va_profile)
    plain_cache = _cache_payloads(tmp_path / "plain")

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tel"))
    monkeypatch.setenv("REPRO_TELEMETRY", "1")
    telemetered = run_campaign(_spec(), profile=va_profile)
    tel_cache = _cache_payloads(tmp_path / "tel")

    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "tel4"))
    parallel = run_campaign(_spec(workers=4), profile=va_profile)
    par_cache = _cache_payloads(tmp_path / "tel4")

    assert telemetered.to_dict() == plain.to_dict()
    assert parallel.to_dict() == plain.to_dict()
    assert tel_cache == plain_cache  # same keys AND same payloads
    assert par_cache == plain_cache


def test_kernel_rollup_counts_replayed_launches(tmp_cache, tmp_path, gv100):
    """Multi-launch trials replay golden launches; the kernels rollup
    counts them and the summary reports their share. Without the
    liveness log every injected launch simulates; with it, these four RF
    faults are proven dead and their trials replay every launch."""
    import dataclasses

    from repro.telemetry import summarize_events

    spec = CampaignSpec(level="uarch", app="bfs", kernel="bfs_k1",
                        structure="rf", config=gv100, trials=4, seed=11)
    profile = profile_app(get_application("bfs"), gv100)
    summaries = {}
    for name, prof in (("armed", dataclasses.replace(profile,
                                                     liveness=None)),
                       ("oracle", profile)):
        with TelemetrySession(tmp_path / f"{name}.jsonl") as session:
            run_campaign(spec.derive(use_cache=False), profile=prof,
                         telemetry_session=session)
        events = read_events(tmp_path / f"{name}.jsonl")
        rollups = [e["kernels"] for e in events if e["kind"] == "kernels"]
        assert len(rollups) == 4
        for rollup in rollups:
            assert all(0 <= r["replayed"] <= r["launches"]
                       for r in rollup.values())
        summaries[name] = summarize_events(events)
    assert 0 < summaries["armed"].replayed_share < 1
    assert summaries["armed"].dead_fault_share is None
    assert summaries["oracle"].replayed_share == 1
    assert (summaries["oracle"].dead_faults
            == summaries["oracle"].liveness_judged == 4)
