"""Layered fault-injection campaign benchmark.

    python3 perfbench/run.py --workload uarch-replay --seed 7 --seconds 35 --trace 0

Runs fixed matrices of fault-injection campaigns (see ``cells.py``)
through the public ``repro.fi.run_campaign`` API as a closed loop from
one process, and checks every campaign's outcome tally. Times are host
wall time; end-to-end times are scaled to a reference host speed by a
calibration loop timed through the run (``NOTES.md``), with the raw
values printed beside them. The simulated statistics are exact counts.
The model is not validated against GPU hardware, so no accuracy figure
is reported.

``--trace 0`` repeats timed passes, each cold on an empty cache and
followed by warm re-runs, until ``--seconds`` have passed (at least two
passes), and reports the end-to-end metrics. ``--trace 1`` runs one
untraced serial pass, two serial passes with layer spans (the second
with campaign telemetry on), and, for a pooled workload, one pooled pass
with telemetry, and reports the per-layer metrics. Human-readable lines
come first; the last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

from cells import DEFAULT_SEED, WORKLOADS  # noqa: E402
import stats  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

#: Set-up repetitions per run; ``setup_s`` takes their median.
SETUP_REPEATS = 3

#: Timed passes per run at least, so that every run can compare the
#: tallies of two passes at its seed.
MIN_PASSES = 2

#: Warm re-runs of every cell after the cold campaigns of a timed pass.
WARM_REPEATS = 5


def load_reference(workload: str, seed: int) -> dict:
    """``{cell: {"trials", "tally", "sim"}}`` stored for ``workload`` at
    the reference seed; empty at any other seed."""
    if seed != DEFAULT_SEED:
        return {}
    ref = json.loads(REFERENCE.read_text())
    if ref["seed"] != DEFAULT_SEED or workload not in ref["workloads"]:
        raise SystemExit(f"{REFERENCE} holds no reference for {workload} "
                         f"at seed {DEFAULT_SEED}")
    return ref["workloads"][workload]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child (the pool
    workers are forked children), in MiB."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def timed_run(ctx, harness, seconds: float, import_s: float):
    """End-to-end metrics over timed passes, scaled to the reference host
    by the run's median calibration chunk time."""
    wl = ctx.workload
    expected = {c: r["tally"] for c, r in ctx.reference.items()}
    calibration = harness.calibrate(5)
    passes, durations, gaps, rss = [], [], [], 0.0
    start = time.perf_counter()
    # Start another pass only while it is expected to end in time, once
    # there are enough passes and latency samples.
    while (len(passes) < MIN_PASSES
           or (wl.needs_p95 and not stats.p95_allowed(len(gaps)))
           or (time.perf_counter() - start + stats.median(durations)
               <= seconds)):
        t = time.perf_counter()
        p = harness.run_pass(ctx, workers=wl.workers, expected=expected,
                             warm_repeats=WARM_REPEATS)
        durations.append(time.perf_counter() - t)
        passes.append(p)
        gaps += p.gaps_s
        calibration += p.calibration_s
        if len(passes) == MIN_PASSES:
            # Memory grows with the number of passes, which depends on
            # host speed; the peak over set-up and a fixed number of
            # passes does not.
            rss = peak_rss_mb()
        # At a seed without a stored reference, the first pass is the
        # reference of the others.
        expected = expected or {c: tally for c, tally in p.tallies.items()
                                if tally}
    hits = [h for p in passes for h in p.hits_s]
    rates = [stats.ratio(p.committed, p.wall_s) for p in passes]
    cal = stats.median(calibration)
    scale = harness.CALIBRATION_REFERENCE_S / cal
    raw = {
        "trials_per_s": (stats.median(rates), "1/s", len(rates)),
        "trial_p50_ms": (stats.median([stats.percentile(p.gaps_s, 50)
                                       for p in passes]) * 1e3, "ms",
                         len(gaps)),
        "setup_s": (import_s + stats.median(ctx.setup_s), "s",
                    len(ctx.setup_s)),
        "peak_rss_mb": (rss, "MiB", 1),
        "cache_hit_p50_ms": (stats.percentile(hits, 50) * 1e3, "ms",
                             len(hits)),
    }
    if stats.p95_allowed(len(gaps)):
        raw["trial_p95_ms"] = (stats.percentile(gaps, 95) * 1e3, "ms",
                               len(gaps))
    metrics = {}
    for name, (value, unit, n) in raw.items():
        factor = {"1/s": 1 / scale, "s": scale, "ms": scale}.get(unit, 1.0)
        metrics[name] = (value * factor, unit, n, value)
    tail = stats.tail_percentile(len(gaps))
    notes = [
        f"passes {len(passes)}, cells {len(wl.cells)}, workers {wl.workers}",
        f"calibration chunk median {cal * 1e3:.4f} ms over {len(calibration)}"
        f" chunks; times scaled by {scale:.4f} to the reference host "
        f"({harness.CALIBRATION_REFERENCE_S * 1e3:g} ms)",
        f"highest tail with >= {stats.TAIL_MIN_BEYOND} samples beyond: "
        + (f"p{tail:g} = {stats.percentile(gaps, tail) * 1e3:.3f} ms raw"
           if tail else "none")]
    return passes, metrics, notes


def traced_run(ctx, harness, tracer_mod):
    """Per-layer metrics from traced passes."""
    wl = ctx.workload
    expected = {c: r["tally"] for c, r in ctx.reference.items()}
    untraced = harness.run_pass(ctx, workers=1, expected=expected)
    expected = expected or {c: tally for c, tally
                            in untraced.tallies.items() if tally}
    tracers, traced = [], []
    for telemetry in (False, True):
        tr = tracer_mod.Tracer()
        with tracer_mod.instrument(tr, ctx.app_classes):
            traced.append(harness.run_pass(ctx, workers=1, expected=expected,
                                           tracer=tr, telemetry=telemetry))
        tracers.append(tr)
    passes = [untraced, *traced]
    runner = traced[1]
    if wl.workers > 1:
        runner = harness.run_pass(ctx, workers=wl.workers, expected=expected,
                                  telemetry=True)
        passes.append(runner)

    # The exact simulator counts must repeat across traced passes, and
    # match the stored reference at its seed.
    first = tracers[0].cell_counts()
    ref_counts = {c: r["sim"] for c, r in ctx.reference.items()}
    for cell in wl.cells:
        counts = first.get(cell.name)
        if (tracers[1].cell_counts().get(cell.name) != counts
                or ref_counts.get(cell.name, counts) != counts):
            traced[1].fail(cell, "simulator counts differ between traced "
                                 "passes or from the reference")

    OUT_DIR.mkdir(exist_ok=True)
    trace_path = OUT_DIR / f"trace-{wl.name}-seed{ctx.seed}.jsonl"
    tracers[0].dump(trace_path)
    calibration = [c for p in passes for c in p.calibration_s]
    metrics = {name: (value, unit, n, value) for name, (value, unit, n)
               in layer_metrics(tracers[0], traced[0], untraced, runner,
                                ctx, calibration).items()}
    notes = [f"spans written to {trace_path.relative_to(ROOT)}"]
    return passes, metrics, notes


def layer_metrics(tr, traced, untraced, runner, ctx, calibration) -> dict:
    """``{name: (value, unit, samples)}`` of every per-layer metric, in
    raw host time."""
    ms = 1e3
    wall = traced.wall_s
    counts = tr.cell_counts().values()

    def total(key):
        return sum(c[key] for c in counts)

    def p50_ms(durations):
        return (stats.p50_or_zero(durations) * ms, "ms", len(durations))

    trials = tr.durations("trial")
    trial_s = sum(trials)
    launches = tr.durations("sim.launch")
    compiles = tr.durations("sim.compile")
    resets = tr.durations("sim.reset")
    plans = tr.durations("inject.plan")
    journal = tr.durations("journal.append")
    in_trials = {name: sum(s[2] - s[1] for s in tr.spans
                           if s[0] == name and s[5] is not None)
                 for name in ("sim.reset", "journal.append", "inject.plan")}
    winst, cycles = total("warp_instructions"), total("cycles")
    n = len(trials)
    return {
        "sim.launch_ms": p50_ms(launches),
        "sim.launches_per_trial": (stats.ratio(len(launches), n), "count", n),
        "sim.ns_per_winst": (stats.ratio(sum(launches) * 1e9, winst), "ns",
                             winst),
        "sim.ns_per_cycle": (stats.ratio(sum(launches) * 1e9, cycles), "ns",
                             cycles),
        "sim.scheduler_share": (tr.self_s["sim.launch"] / wall, "share", 1),
        "sim.execute_share": (tr.self_s["sim.execute"] / wall, "share", 1),
        "sim.memory_share": (tr.self_s["sim.memory"] / wall, "share", 1),
        "sim.compile_ms": p50_ms(compiles),
        "sim.compiles_per_trial": (stats.ratio(len(compiles), n), "count", n),
        "sim.compile_reuse_share": (stats.ratio(tr.compile_reuse,
                                                len(compiles)), "share",
                                    len(compiles)),
        "sim.reset_ms": p50_ms(resets),
        "sim.cycles": (cycles, "count", n),
        "sim.warp_instructions": (winst, "count", n),
        "sim.l1d_accesses": (total("l1d_accesses"), "count", n),
        "sim.l2_accesses": (total("l2_accesses"), "count", n),
        "inject.plan_ms": p50_ms(plans),
        "inject.prefix_launch_share": (
            stats.ratio(total("prefix_launch_cycles"), total("trial_cycles")),
            "share", n),
        "inject.prefix_cycle_share": (
            stats.ratio(total("prefix_cycle_cycles"),
                        total("uarch_trial_cycles")), "share", n),
        "trial.masked_share": (stats.ratio(traced.masked, traced.committed),
                               "share", traced.committed),
        "trial.ms": p50_ms(trials),
        "trial.reset_share": (stats.ratio(in_trials["sim.reset"], trial_s),
                              "share", n),
        "trial.journal_share": (stats.ratio(in_trials["journal.append"],
                                            trial_s), "share", n),
        "trial.plan_share": (stats.ratio(in_trials["inject.plan"], trial_s),
                             "share", n),
        "app.run_ms": p50_ms(tr.durations("app.run")),
        "app.host_self_ms": p50_ms(tr.self_durations("app.run")),
        "app.memcpy_ms": p50_ms(tr.durations("app.memcpy")),
        "app.classify_ms": p50_ms(tr.durations("app.classify")),
        "sdc.analyze_ms": p50_ms(tr.durations("sdc.analyze")),
        "campaign.self_ms": p50_ms(tr.campaign_self()),
        "campaign.golden_ms": p50_ms(ctx.golden_s),
        "journal.append_ms": p50_ms(journal),
        "journal.appends": (len(journal), "count", n),
        "store.record_ms": p50_ms(tr.durations("store.record")),
        "runner.worker_utilization": (runner.worker_utilization, "share",
                                      len(ctx.workload.cells)),
        "runner.idle_share": (runner.idle_share, "share",
                              len(ctx.workload.cells)),
        "host.calibration_ms": (stats.median(calibration) * ms, "ms",
                                len(calibration)),
        "trace.overhead_s": (wall - untraced.wall_s, "s", 1),
        "trace.overhead_share": (stats.ratio(wall - untraced.wall_s,
                                             untraced.wall_s), "share", 1),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2

    workload = WORKLOADS[args.workload]
    reference = load_reference(workload.name, args.seed)
    sys.path.insert(0, str(SRC))
    import harness  # the first import of the repro stack

    harness.isolate_environment()
    import_s = time.perf_counter() - _PROCESS_START
    OUT_DIR.mkdir(exist_ok=True)
    ctx = harness.set_up(workload, args.seed, OUT_DIR, SETUP_REPEATS)
    ctx.reference = reference
    if args.trace:
        import tracer

        passes, metrics, notes = traced_run(ctx, harness, tracer)
    else:
        passes, metrics, notes = timed_run(ctx, harness, args.seconds,
                                           import_s)

    planned = sum(p.planned for p in passes)
    failed = sum(p.failed for p in passes)
    problems = [q for p in passes for q in p.problems]
    correct = not problems and failed == 0
    if workload.needs_p95 and not args.trace and "trial_p95_ms" not in metrics:
        correct = False
        problems.append("fewer than 200 trial-latency samples for a p95")

    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}")
    for note in notes:
        print(f"  {note}")
    for name, (value, unit, samples, raw) in metrics.items():
        print(f"  {name:28s} {value:14.6g} {unit:6s} (n={samples}, "
              f"raw {raw:.6g})")
    print(f"  {'failed_ratio':28s} {stats.ratio(failed, planned):14.6g} "
          f"{'share':6s} ({failed} of {planned} planned trials)")
    for problem in problems:
        print(f"  FAILED {problem}")
    print(json.dumps({
        "correct": correct, "attempted": planned, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit, _, _) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
