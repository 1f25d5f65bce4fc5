"""Dead-fault disarming: the golden register-file liveness oracle.

* Differential: a campaign whose profile carries the access log (dead RF
  faults run unarmed) produces the same journal bytes, cache payload
  bytes and tallies as one whose profile carries none (every fault
  armed and simulated).
* Site reconstruction: the (warp, register, lane) the oracle rebuilds
  from the log is what the armed plan picks live at the fire, and its
  verdict matches the warp's first access to that lane after the flip.
* Never disarmed: ECC, persistent, control and non-RF plans, and logs of
  another run.
"""

import dataclasses
import functools

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.arch.structures import Structure
from repro.errors import ExecutionError
from repro.fi import CampaignSpec, profile_app, run_campaign
from repro.fi.campaign import _gpu_factory, seed_tag
from repro.fi.gpufi import MicroarchInjector, draw_site, plan_microarch_fault
from repro.fi.journal import journal_dir
from repro.fi.planner import StopRule
from repro.hardening.registry import hardening_scheme
from repro.kernels import application_names, get_application
from repro.kernels.base import DeviceHarness
from repro.sim.gpu import Tracer
from repro.telemetry import read_events, summarize_events
from repro.telemetry.events import TelemetrySession
from repro.utils.rng import derive_rng, spawn_seeds

APPS = application_names("paper") + application_names("nn")
GV100 = quadro_gv100_like()


@functools.lru_cache(maxsize=None)
def _profile(app: str, harden: str | None = None):
    factory = hardening_scheme(harden) if harden else None
    return profile_app(get_application(app), GV100, factory)


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


def _dead_trials(spec, profile) -> int:
    """Trials of ``spec`` whose plan the oracle proves dead."""
    kernel = spec.kernel or get_application(spec.app).kernel_names[0]
    launches = profile.kernel_launches(kernel)
    tag = seed_tag("uarch", spec.app, kernel, GV100.name, structure="rf",
                   harden=spec.harden)
    return sum(profile.liveness.is_dead(plan_microarch_fault(
        launches, Structure.RF, s, spec.num_bits))
        for s in spawn_seeds(spec.seed, tag, spec.budget or spec.trials))


def _assert_oracle_identical(spec, tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "0")
    profile = _profile(spec.app, spec.harden)
    assert profile.liveness is not None
    oracle = _run(spec, profile, tmp_path / "oracle", monkeypatch)
    armed = _run(spec, dataclasses.replace(profile, liveness=None),
                 tmp_path / "armed", monkeypatch)
    assert oracle[0] and oracle[1]
    assert oracle == armed
    return profile


@pytest.mark.parametrize("app", APPS)
def test_every_app_matches_armed_simulation(app, tmp_path, monkeypatch):
    spec = CampaignSpec(level="uarch", app=app, structure="rf", trials=8,
                        seed=3)
    _assert_oracle_identical(spec, tmp_path, monkeypatch)


def test_the_oracle_disarms_most_suite_rf_faults():
    """Not a vacuous differential: most RF faults are proven dead."""
    dead = total = 0
    for app in APPS:
        spec = CampaignSpec(level="uarch", app=app, structure="rf",
                            trials=8, seed=3)
        dead += _dead_trials(spec, _profile(app))
        total += 8
    assert dead / total > 0.5


SPECIAL = [
    CampaignSpec(level="uarch", app="gemm", structure="rf", trials=12,
                 seed=5, num_bits=2),
    CampaignSpec(level="uarch", app="va", structure="rf", trials=10, seed=5,
                 harden="tmr"),
    CampaignSpec(level="uarch", app="gemm", structure="rf", trials=8, seed=5,
                 harden="abft"),
    CampaignSpec(level="uarch", app="kmeans", structure="rf", trials=10,
                 seed=5, sdc_anatomy=True),
    CampaignSpec(level="uarch", app="lud", kernel="lud_k2", structure="rf",
                 seed=5, budget=16,
                 stop_rule=StopRule(ci_halfwidth=0.3, min_trials=8)),
    CampaignSpec(level="uarch", app="bfs", structure="rf", trials=10, seed=5,
                 workers=2),
]


@pytest.mark.parametrize("spec", SPECIAL, ids=[
    "two-bit", "tmr", "abft", "sdc-anatomy", "budget-stop-rule",
    "workers-2"])
def test_options_match_armed_simulation(spec, tmp_path, monkeypatch):
    profile = _assert_oracle_identical(spec, tmp_path, monkeypatch)
    assert _dead_trials(spec, profile) > 0


# ------------------------------------------------------ site reconstruction

class _Stop(Exception):
    """Ends a site-reconstruction run once its answer is known."""


class _FirstAccess(Tracer):
    """GPU tracer, attached at the flip: the kind of the target warp's
    first issue that reads or writes the flipped register lane."""

    def __init__(self):
        self.site = None  # (fire clock, warp uid, [(reg, lane), ...])
        self.first = None

    def record(self, now, pc, instr, warp, gm):
        fire, uid, cells = self.site
        if warp.uid != uid or now <= fire:
            return
        reg, lane = cells[0]
        if gm[lane]:
            if reg in instr.source_registers():
                self.first = "read"
            elif reg in instr.dest_registers():
                self.first = "write"
        if self.first is not None:
            raise _Stop


class _InjectedLaunchOnly(MicroarchInjector):
    """Stops the run when the launch after the injected one starts: the
    injected launch's banks are gone by then."""

    def arm(self, launch_index, kernel_name, gpu):
        if launch_index > self.plan.launch_index:
            raise _Stop
        return super().arm(launch_index, kernel_name, gpu)


def _live_site(profile, plan):
    """Run ``plan`` armed; returns the site it picked live at the fire
    and whether its first flipped lane was read before being written."""
    gpu = _gpu_factory(profile, GV100)()
    watch = _FirstAccess()
    fire = plan.fire

    def spying_fire(g):
        banks = g.live_rf_banks()
        sizes = [bank.regs.size * 32 for bank in banks]
        site = draw_site(derive_rng(plan.seed, "uarch-fire"), sizes)
        if site is None:
            watch.site = (g.now, -1, [])
        else:
            index, bit = site
            owner = {id(w.bank): w.uid for w in g.resident_warps()}
            cells = [divmod(b // 32, g.config.warp_size)
                     for b in plan._bits(bit, sizes[index])]
            watch.site = (g.now, owner[id(banks[index])],
                          list(dict.fromkeys(cells)))
            g.tracer = watch
        fire(g)

    plan.fire = spying_fire
    gpu.uarch_injector = _InjectedLaunchOnly(plan)
    try:
        get_application(profile.app_name).run(gpu, DeviceHarness())
    except _Stop:
        pass
    except ExecutionError:
        # The corrupted lane was consumed before the tracer saw the issue
        # complete (an out-of-bounds address, say): it was read.
        watch.first = watch.first or "read"
    return watch.site, watch.first == "read"


SITE_APPS = ("va", "bfs", "gemm", "lud", "scp", "hotspot", "sradv1",
             "nw", "attention")


def test_oracle_rebuilds_the_live_site_and_its_first_access():
    plans = dead = 0
    for app in SITE_APPS:
        profile = _profile(app)
        for kernel in get_application(app).kernel_names:
            launches = profile.kernel_launches(kernel)
            for seed in range(8):
                for num_bits in (1, 2):
                    planned = functools.partial(
                        plan_microarch_fault, launches, Structure.RF,
                        7000 + seed, num_bits)
                    plan = planned()
                    fired = profile.liveness.flipped(plan)
                    verdict = profile.liveness.is_dead(plan)
                    site, read = _live_site(profile, planned())
                    where = f"{app}/{kernel} seed {seed} x{num_bits}"
                    assert fired == site, where
                    if num_bits == 1:
                        assert verdict == (not read), where
                    elif read:
                        assert not verdict, where
                    plans += 1
                    dead += verdict
    assert plans >= 200
    assert 0 < dead < plans


# ---------------------------------------------------------- never disarmed

def test_ecc_persistent_control_and_non_rf_plans_are_never_disarmed():
    for app in ("va", "bfs", "gemm"):
        profile = _profile(app)
        launches = profile.kernel_launches(
            get_application(app).kernel_names[0])
        for seed in range(40):
            never = [
                plan_microarch_fault(launches, Structure.RF, seed,
                                     ecc_protected=True),
                plan_microarch_fault(launches, Structure.RF, seed,
                                     num_bits=2, ecc_protected=True),
                plan_microarch_fault(launches, None, seed,
                                     target="control"),
                *(plan_microarch_fault(launches, Structure.RF, seed,
                                       fault_model=model)
                  for model in ("stuck0", "stuck1", "intermittent")),
                *(plan_microarch_fault(launches, structure, seed)
                  for structure in Structure if structure is not
                  Structure.RF),
            ]
            for plan in never:
                assert not profile.liveness.is_dead(plan), plan


def test_a_log_of_another_run_judges_nothing(tmp_path, monkeypatch):
    va = get_application("va")
    plain = _profile("va")
    assert plain.describes(va, GV100, None)
    assert not plain.describes(get_application("scp"), GV100, None)
    assert not plain.describes(va, tesla_v100_like(), None)
    assert not plain.describes(va, GV100, hardening_scheme("tmr"))
    assert not plain.describes(get_application("va", seed=1), GV100, None)
    # A profile of another harness judges no trial: a TMR campaign on
    # the plain profile runs every fault armed.
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    spec = CampaignSpec(level="uarch", app="va", structure="rf", trials=4,
                        seed=3, config=GV100, harden="tmr", use_cache=False)
    judged = {}
    for name, profile in (("tmr", _profile("va", "tmr")),
                          ("plain", _profile("va"))):
        with TelemetrySession(tmp_path / f"{name}.jsonl") as session:
            run_campaign(spec, profile=profile, telemetry_session=session)
        judged[name] = summarize_events(
            read_events(tmp_path / f"{name}.jsonl"))
    assert judged["tmr"].liveness_judged == 4
    assert judged["plain"].liveness_judged == 0
    assert judged["plain"].dead_fault_share is None


# ------------------------------------------------------------ observability

def test_dead_faults_are_counted_and_telemetry_changes_nothing(
        tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_STORE", "0")
    spec = CampaignSpec(level="uarch", app="gemm", structure="rf",
                        trials=12, seed=5)
    profile = _profile("gemm")
    quiet = _run(spec, profile, tmp_path / "quiet", monkeypatch)
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "loud"))
    with TelemetrySession(tmp_path / "events.jsonl") as session:
        result = run_campaign(spec, profile=profile,
                              telemetry_session=session)
    assert result.counts.to_dict() == quiet[2]
    assert {p.name: p.read_bytes()
            for p in (tmp_path / "loud").glob("*.json")} == quiet[1]
    summary = summarize_events(read_events(tmp_path / "events.jsonl"))
    assert summary.liveness_judged == 12
    assert summary.dead_faults == _dead_trials(spec, profile) > 0
    assert summary.dead_fault_share == pytest.approx(
        summary.dead_faults / 12)


def test_log_is_compact():
    liveness = _profile("gemm").liveness
    issues = sum(log.clock.size for log in liveness.launches)
    assert issues == sum(s["warp_instructions"]
                         for s in _profile("gemm").stats_by_launch)
    assert liveness.nbytes <= 32 * issues
    assert all(np.all(np.diff(log.clock) >= 0) for log in liveness.launches)
