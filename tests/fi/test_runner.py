"""Resilient execution engine: trial isolation, journaled checkpoint/resume,
crash-safe caching (repro.fi.runner + repro.fi.journal)."""

import logging
import threading

import pytest

from repro.errors import CampaignError, ConfigError
from repro.fi import campaign as campaign_mod
from repro.fi.campaign import (
    CampaignSpec,
    default_trials,
    profile_app,
    run_campaign,
)
from repro.fi.journal import CampaignJournal, list_journals
from repro.fi.runner import _journal_prefix_valid, max_trial_failure_rate
from repro.kernels import get_application


def _sw_campaign(app, kernel, config, *, trials, seed=1, use_cache=True,
                 profile=None, max_failure_rate=None, progress=None):
    return run_campaign(
        CampaignSpec(level="sw", app=app, kernel=kernel, config=config,
                     trials=trials, seed=seed, use_cache=use_cache),
        profile=profile, max_failure_rate=max_failure_rate,
        progress=progress)


@pytest.fixture(autouse=True)
def _serial_engine(monkeypatch):
    """This module pins the *serial* engine contract — call-order-sensitive
    FlakyApp counters and exact journal lengths at kill time — so force
    workers=1 even when the environment (e.g. the CI pool matrix) sets
    REPRO_WORKERS. The pool path is covered by test_parallel.py."""
    monkeypatch.setenv("REPRO_WORKERS", "1")


class FlakyApp:
    """Wraps a real application; ``run()`` raises on chosen call numbers.

    Calls are numbered from 1 and count every ``run()`` invocation,
    including the campaign runner's retries — so ``fail_calls={3}`` makes
    trial 3's first attempt fail (its retry, call 4, succeeds), while
    ``fail_calls={3, 4}`` fails the attempt *and* the retry."""

    def __init__(self, inner, fail_calls=(), fail_all=False,
                 exc=RuntimeError):
        self.inner = inner
        self.fail_calls = set(fail_calls)
        self.fail_all = fail_all
        self.exc = exc
        self.calls = 0

    @property
    def name(self):
        return self.inner.name

    @property
    def seed(self):
        return self.inner.seed

    @property
    def kernel_names(self):
        return self.inner.kernel_names

    def run(self, gpu, harness=None):
        self.calls += 1
        if self.fail_all or self.calls in self.fail_calls:
            raise self.exc(f"flaky failure on call {self.calls}")
        return self.inner.run(gpu, harness)


class KillSwitchApp(FlakyApp):
    """Raises KeyboardInterrupt from call ``explode_at`` on — a stand-in
    for SIGKILL/preemption: a BaseException the runner must NOT isolate."""

    def __init__(self, inner, explode_at):
        super().__init__(inner)
        self.explode_at = explode_at

    def run(self, gpu, harness=None):
        self.calls += 1
        if self.calls >= self.explode_at:
            raise KeyboardInterrupt()
        return self.inner.run(gpu, harness)


@pytest.fixture()
def va_profile(v100):
    return profile_app(get_application("va"), v100)


# ---------------------------------------------------------------- isolation

def test_flaky_trial_retried_without_aborting(tmp_cache, v100, va_profile):
    ref = _sw_campaign(get_application("va"), "va_k1", v100,
                       trials=10, seed=5, use_cache=False,
                       profile=va_profile)
    flaky = FlakyApp(get_application("va"), fail_calls={3})
    result = _sw_campaign(flaky, "va_k1", v100, trials=10, seed=5,
                          profile=va_profile)
    # 10 trials + 1 retry; the retry reruns the same seed, so tallies match
    # an unperturbed campaign exactly and no crash is recorded.
    assert flaky.calls == 11
    assert result.counts == ref.counts
    assert result.counts.crash == 0
    assert not list_journals()  # journal deleted on completion


def test_persistent_failure_tallied_as_crash(tmp_cache, v100, va_profile):
    flaky = FlakyApp(get_application("va"), fail_calls={2, 3})
    result = _sw_campaign(flaky, "va_k1", v100, trials=30, seed=5,
                          profile=va_profile)
    assert result.counts.crash == 1
    assert result.counts.total == 30
    assert result.counts.classified == 29
    # crash is infrastructure, not a fault effect: excluded from FR
    assert 0.0 <= result.counts.failure_rate <= 1.0
    assert not list_journals()
    assert len(list(tmp_cache.glob("*.json"))) == 1  # result still cached


def test_failure_threshold_raises_campaign_error(tmp_cache, v100, va_profile):
    bad = FlakyApp(get_application("va"), fail_all=True)
    with pytest.raises(CampaignError, match="REPRO_MAX_TRIAL_FAILURES"):
        _sw_campaign(bad, "va_k1", v100, trials=10, seed=3,
                     profile=va_profile)
    # the journal survives a threshold abort (it holds the tracebacks)
    assert list_journals()


def test_threshold_override_allows_flaky_minority(tmp_cache, v100,
                                                  va_profile):
    flaky = FlakyApp(get_application("va"), fail_calls={2, 3})
    with pytest.raises(CampaignError):
        _sw_campaign(flaky, "va_k1", v100, trials=30, seed=5,
                     profile=va_profile, use_cache=False,
                     max_failure_rate=0.0)


# ---------------------------------------------------------- resume/journal

def test_kill_mid_campaign_resumes_bit_for_bit(tmp_cache, v100, va_profile):
    trials, seed = 12, 7
    ref = _sw_campaign(get_application("va"), "va_k1", v100,
                       trials=trials, seed=seed, use_cache=False,
                       profile=va_profile)

    bomb = KillSwitchApp(get_application("va"), explode_at=6)
    with pytest.raises(KeyboardInterrupt):
        _sw_campaign(bomb, "va_k1", v100, trials=trials, seed=seed,
                     profile=va_profile)
    journals = list_journals()
    assert len(journals) == 1
    assert journals[0][1] == 5  # five trials completed before the "kill"

    progressed = []
    healthy = FlakyApp(get_application("va"))
    resumed = _sw_campaign(
        healthy, "va_k1", v100, trials=trials, seed=seed,
        profile=va_profile,
        progress=lambda done, total, outcome: progressed.append(done))
    # only the remaining 7 trials were simulated...
    assert healthy.calls == trials - 5
    # ...but progress covered replayed + live trials, and the tallies are
    # identical to the uninterrupted run.
    assert progressed == list(range(1, trials + 1))
    assert resumed.counts == ref.counts
    assert resumed.control_path_masked == ref.control_path_masked
    assert not list_journals()


def test_journal_torn_tail_dropped_and_compacted(tmp_path):
    j = CampaignJournal("k1", tmp_path)
    r0 = {"event": "trial", "trial": 0, "seed": 11, "outcome": "masked",
          "cycles": 5}
    r1 = {"event": "trial", "trial": 1, "seed": 12, "outcome": "sdc",
          "cycles": 6}
    j.append(r0)
    j.append(r1)
    with open(j.path, "a", encoding="utf-8") as f:
        f.write('{"event": "tri')  # SIGKILL mid-append
    assert j.load() == [r0, r1]
    # the file was compacted back to its valid prefix: appends stay valid
    r2 = {"event": "trial", "trial": 2, "seed": 13, "outcome": "due",
          "cycles": 7}
    j.append(r2)
    assert j.load() == [r0, r1, r2]
    j.discard()
    assert not j.exists()


def test_list_journals_never_cuts_a_live_writers_tail(tmp_path):
    """`campaign status`/`gc` list journals while their campaigns may
    still be appending: a half-written record must survive the listing
    and be complete once its writer finishes the line."""
    import json

    j = CampaignJournal("k1", tmp_path)
    r0 = {"event": "trial", "trial": 0, "seed": 11, "outcome": "masked",
          "cycles": 5}
    r1 = {"event": "trial", "trial": 1, "seed": 12, "outcome": "sdc",
          "cycles": 6}
    j.append(r0)
    line = json.dumps(r1, sort_keys=True) + "\n"
    with open(j.path, "a", encoding="utf-8") as writer:
        writer.write(line[:20])
        writer.flush()
        assert list_journals(tmp_path)[0].trials == 1
        writer.write(line[20:])
    assert j.load() == [r0, r1]


def test_journal_prefix_validation():
    recs = [{"trial": 0, "seed": 11, "outcome": "masked", "cycles": 1},
            {"trial": 1, "seed": 12, "outcome": "due", "cycles": 2}]
    assert _journal_prefix_valid(recs, [11, 12, 13])
    assert not _journal_prefix_valid(recs, [99, 12])  # foreign seeds
    assert not _journal_prefix_valid(recs, [11])  # more records than trials
    assert not _journal_prefix_valid(
        [{"trial": 0, "seed": 11, "outcome": "nope", "cycles": 1}], [11])


# ------------------------------------------------------- crash-safe cache

def test_cache_store_atomic_when_rename_fails(tmp_cache, monkeypatch):
    campaign_mod._cache_store("key", {"a": 1})

    def boom(src, dst):
        raise OSError("disk full")

    real_replace = campaign_mod.os.replace
    monkeypatch.setattr(campaign_mod.os, "replace", boom)
    with pytest.raises(OSError):
        campaign_mod._cache_store("key", {"a": 2})
    monkeypatch.setattr(campaign_mod.os, "replace", real_replace)
    assert campaign_mod._cache_load("key") == {"a": 1}  # old value intact
    assert not list(tmp_cache.glob("*.tmp"))  # temp file cleaned up


def test_cache_load_quarantines_corrupt_file(tmp_cache, caplog):
    tmp_cache.mkdir(parents=True, exist_ok=True)
    (tmp_cache / "bad.json").write_text("{not json")
    with caplog.at_level(logging.WARNING, logger="repro.fi.campaign"):
        assert campaign_mod._cache_load("bad") is None
    assert not (tmp_cache / "bad.json").exists()
    assert (tmp_cache / "bad.json.corrupt").exists()
    assert "quarantined" in caplog.text
    # quarantine unblocks the slot: a fresh store+load round-trips
    campaign_mod._cache_store("bad", {"ok": 1})
    assert campaign_mod._cache_load("bad") == {"ok": 1}


def test_concurrent_cache_stores_never_torn(tmp_cache):
    key = "shared"
    payloads = [{"v": i, "pad": "x" * 4096} for i in range(4)]
    stop = threading.Event()

    def writer(payload):
        while not stop.is_set():
            campaign_mod._cache_store(key, payload)

    threads = [threading.Thread(target=writer, args=(p,)) for p in payloads]
    for t in threads:
        t.start()
    reads = 0
    try:
        for _ in range(5000):
            loaded = campaign_mod._cache_load(key)
            if loaded is not None:
                assert loaded in payloads  # complete payload, never torn
                reads += 1
            if reads >= 200:
                break
    finally:
        stop.set()
        for t in threads:
            t.join()
    assert reads > 0
    # a torn read would have been quarantined: prove none happened
    assert not list(tmp_cache.glob("*.corrupt"))


# ------------------------------------------------------------- env knobs

def test_default_trials_validation(monkeypatch):
    monkeypatch.setenv("REPRO_TRIALS", "24")
    assert default_trials() == 24
    for bad in ("abc", "0", "-3", "1.5"):
        monkeypatch.setenv("REPRO_TRIALS", bad)
        with pytest.raises(ConfigError, match="REPRO_TRIALS"):
            default_trials()
    monkeypatch.delenv("REPRO_TRIALS")
    assert default_trials() == campaign_mod.DEFAULT_TRIALS


def test_max_trial_failure_rate_validation(monkeypatch):
    monkeypatch.setenv("REPRO_MAX_TRIAL_FAILURES", "0.25")
    assert max_trial_failure_rate() == 0.25
    for bad in ("nope", "-0.1", "1.5"):
        monkeypatch.setenv("REPRO_MAX_TRIAL_FAILURES", bad)
        with pytest.raises(ConfigError, match="REPRO_MAX_TRIAL_FAILURES"):
            max_trial_failure_rate()
    monkeypatch.delenv("REPRO_MAX_TRIAL_FAILURES")
    assert max_trial_failure_rate() == 0.10
