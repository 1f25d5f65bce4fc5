"""Set-up and passes of one benchmark workload.

A pass runs every cell of a workload once, cold, through the public
``repro.fi.run_campaign`` API, back to back in one process, on an empty
``REPRO_CACHE_DIR`` (the run ledger lives under it). Each campaign runs
the real journal, cache store and ledger path. Golden profiles come from
set-up and are passed in, so no pass pays for a golden run.

Every cell's result is checked: its trial count must equal the planned
count and its outcome tally must equal the expected one (the stored
reference at the reference seed, else the run's first pass). A cell
that fails a check, or whose campaign raised, counts all of its planned
trials as failed; otherwise its CRASH trials count as failed.
"""

from __future__ import annotations

import os
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

from repro.arch.config import quadro_gv100_like, tesla_v100_like
from repro.fi import CampaignSpec, profile_app, run_campaign
from repro.hardening.registry import hardening_scheme
from repro.kernels import get_application
from repro.telemetry import read_events, summarize_events, telemetry_dir

from cells import Cell, Workload

_CONFIGS = {"gv100": quadro_gv100_like, "v100": tesla_v100_like}

clock = time.perf_counter

#: What one calibration chunk takes on the reference host. Reported
#: times are scaled to that host: ``time * CALIBRATION_REFERENCE_S /
#: median chunk time of the run``.
CALIBRATION_REFERENCE_S = 0.004


def calibrate(chunks: int) -> list[float]:
    """Time ``chunks`` runs of a fixed pure-Python arithmetic loop.

    The loop is the benchmark's own code, so no change to the program
    moves it; only the host's speed does. Shared hosts drift by tens of
    percent over minutes; the median chunk time of a run, with chunks
    timed after every campaign, tracks that drift (see ``NOTES.md``).
    """
    times = []
    for _ in range(chunks):
        start = clock()
        acc = 0
        for i in range(50_000):
            acc += i * i
        times.append(clock() - start)
    return times


def isolate_environment(environ=os.environ) -> None:
    """Drop every ambient ``REPRO_*`` knob (trials, workers, telemetry,
    stop rules, hang factor, failure ceiling, store, cache location), so
    that only the specs decide what a campaign does."""
    for name in [n for n in environ if n.startswith("REPRO_")]:
        del environ[name]


@dataclass
class Context:
    """What set-up builds: applications, configs and golden profiles."""

    workload: Workload
    seed: int
    out_dir: Path
    apps: dict
    configs: dict
    profiles: dict
    setup_s: list[float] = field(default_factory=list)  # per repetition
    golden_s: list[float] = field(default_factory=list)  # per profile_app
    #: ``{cell: {"trials", "tally", "sim"}}`` at the reference seed, else {}.
    reference: dict = field(default_factory=dict)

    def profile(self, cell: Cell):
        return self.profiles[(cell.app, cell.config, cell.harden)]

    def spec(self, cell: Cell, workers: int, telemetry: bool) -> CampaignSpec:
        return CampaignSpec(
            level=cell.level, app=self.apps[cell.app], kernel=cell.kernel,
            structure=cell.structure, config=self.configs[cell.config],
            trials=cell.trials, seed=self.seed, workers=workers,
            harden=cell.harden, sdc_anatomy=cell.sdc_anatomy,
            telemetry=telemetry)

    @property
    def app_classes(self) -> list[type]:
        return [type(app) for app in self.apps.values()]


def set_up(workload: Workload, seed: int, out_dir: Path,
           repeats: int) -> Context:
    """Build the applications and profile every distinct (app, config,
    harden) of the workload, ``repeats`` times from scratch; the last
    repetition's objects are used."""
    setup_s, golden_s = [], []
    for _ in range(repeats):
        start = clock()
        apps = {c.app: get_application(c.app) for c in workload.cells}
        configs = {c.config: _CONFIGS[c.config]() for c in workload.cells}
        profiles = {}
        for c in workload.cells:
            key = (c.app, c.config, c.harden)
            if key not in profiles:
                t = clock()
                profiles[key] = profile_app(
                    apps[c.app], configs[c.config],
                    hardening_scheme(c.harden) if c.harden else None)
                golden_s.append(clock() - t)
        setup_s.append(clock() - start)
    return Context(workload, seed, out_dir, apps, configs, profiles,
                   setup_s, golden_s)


@dataclass
class PassResult:
    wall_s: float = 0.0  # cold campaigns, back to back
    planned: int = 0
    committed: int = 0
    masked: int = 0
    failed: int = 0
    gaps_s: list[float] = field(default_factory=list)  # trial latencies
    hits_s: list[float] = field(default_factory=list)  # warm run_campaign
    tallies: dict = field(default_factory=dict)  # cell -> tally | None
    problems: list[str] = field(default_factory=list)
    calibration_s: list[float] = field(default_factory=list)
    #: From the campaigns' telemetry streams (telemetry passes only).
    worker_utilization: float | None = None
    idle_share: float | None = None

    def fail(self, cell: Cell, why: str) -> None:
        self.failed += cell.trials
        self.problems.append(f"{cell.name}: {why}")


def check_cell(cell: Cell, result, expected: dict | None) -> tuple[int, str | None]:
    """Failed trials of one campaign result, and why, against the planned
    trial count and the ``expected`` tally (``None``: no tally to match)."""
    tally = result.counts.to_dict()
    if result.trials != cell.trials or result.counts.total != cell.trials:
        return cell.trials, (f"ran {result.counts.total} of "
                             f"{cell.trials} planned trials")
    if expected is not None and tally != expected:
        return cell.trials, f"tally {tally} != expected {expected}"
    return result.counts.crash, None


def run_pass(ctx: Context, *, workers: int, expected: dict,
             tracer=None, telemetry: bool = False,
             warm_repeats: int = 0) -> PassResult:
    """Run every cell cold on an empty cache, then ``warm_repeats`` warm
    re-runs of each, which must hit the cache and return the same result.

    ``expected`` maps cell names to the tally each must produce (a cell
    absent from it is checked for its trial count only).
    """
    res = PassResult()
    cache = Path(tempfile.mkdtemp(prefix="cache-", dir=ctx.out_dir))
    os.environ["REPRO_CACHE_DIR"] = str(cache)
    try:
        done = []
        start = clock()
        for cell in ctx.workload.cells:
            res.planned += cell.trials
            result, series = _cold(ctx, cell, workers, telemetry, tracer, res)
            res.calibration_s += calibrate(3)
            if result is None:
                continue
            for stamps in series:
                res.gaps_s += [b - a for a, b in zip(stamps, stamps[1:])]
            res.committed += result.counts.total
            res.masked += result.counts.masked
            res.tallies[cell.name] = result.counts.to_dict()
            failed, why = check_cell(cell, result, expected.get(cell.name))
            res.failed += failed
            if why:
                res.problems.append(f"{cell.name}: {why}")
            else:
                done.append((cell, result))
        res.wall_s = clock() - start - sum(res.calibration_s)
        for _ in range(warm_repeats):
            for cell, result in done:
                _warm(ctx, cell, workers, result, res)
        if telemetry:
            _runner_stats(res, workers)
    finally:
        os.environ.pop("REPRO_CACHE_DIR", None)
        shutil.rmtree(cache, ignore_errors=True)
    return res


def _cold(ctx, cell, workers, telemetry, tracer, res):
    """Run one cell cold; returns its result (``None`` if it raised) and
    the series of callback times whose gaps are its trial latencies.

    Serial campaigns give one series, the ``progress`` callbacks: each
    gap is one trial including its journal commit. Pooled campaigns
    commit in trial order, so their commit gaps are bimodal (a trial that
    finished behind a slower one commits right after it); they give one
    series per worker instead, its ``worker_progress`` callbacks, whose
    gaps are that worker's trials as the parent receives them.
    """
    stamps = []
    by_worker: dict[int, list[float]] = {}

    def progress(done, total, outcome):
        stamps.append(clock())
        if tracer is not None:
            tracer.end_trial()

    def worker_progress(worker, done):
        by_worker.setdefault(worker, []).append(clock())

    spec = ctx.spec(cell, workers, telemetry)
    profile = ctx.profile(cell)
    if tracer is not None:
        tracer.begin_cell(cell.name, profile)
        frame = tracer.open("campaign")
    try:
        result = run_campaign(spec, profile=profile, progress=progress,
                              worker_progress=worker_progress)
        return result, (list(by_worker.values()) if workers > 1
                        else [stamps])
    except Exception:
        # One raising campaign fails its cell, loudly, and the pass goes on.
        traceback.print_exc(file=sys.stderr)
        res.tallies[cell.name] = None
        res.fail(cell, "campaign raised")
        return None, []
    finally:
        if tracer is not None:
            tracer.close(frame)


def _warm(ctx, cell, workers, cold, res) -> None:
    missed = []
    spec = ctx.spec(cell, workers, telemetry=False)
    start = clock()
    try:
        hit = run_campaign(spec, profile=ctx.profile(cell),
                           progress=lambda *a: missed.append(a))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        res.fail(cell, "warm campaign raised")
        return
    res.hits_s.append(clock() - start)
    if missed or hit.to_dict() != cold.to_dict():
        res.fail(cell, "warm re-run missed the cache or changed the result")


def _runner_stats(res: PassResult, workers: int) -> None:
    """Worker utilization per campaign (mean over the pool's workers, or
    the main process when serial) from the campaigns' own telemetry, and
    the share of worker time over the whole pass not spent in trials."""
    utilization, busy = [], 0.0
    for path in sorted(telemetry_dir().glob("*.jsonl")):
        summary = summarize_events(read_events(path))
        labels = ([w for w in summary.worker_busy if w != "main"]
                  or list(summary.worker_busy))
        utilization += [summary.worker_utilization[w] for w in labels]
        busy += sum(summary.worker_busy[w] for w in labels)
    res.worker_utilization = (statistics.mean(utilization)
                              if utilization else 0.0)
    res.idle_share = (1.0 - busy / (workers * res.wall_s)
                      if res.wall_s else 0.0)
