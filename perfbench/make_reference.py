"""Regenerate ``reference.json``: every cell's tally and exact simulator
counts at the reference seed.

    python3 perfbench/make_reference.py

The tallies come from the same specs run outside the benchmark: plain
``run_campaign`` calls with registry names, serial, each doing its own
golden run, on an empty cache. The simulator counts come from one traced
pass of the benchmark, whose tallies must equal the plain ones.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from cells import DEFAULT_SEED, WORKLOADS
from run import OUT_DIR, REFERENCE, SRC


def plain_tallies(workload) -> dict:
    from repro.fi import CampaignSpec, run_campaign

    tallies = {}
    cache = tempfile.mkdtemp(prefix="reference-", dir=OUT_DIR)
    os.environ["REPRO_CACHE_DIR"] = cache
    try:
        for cell in workload.cells:
            spec = CampaignSpec(
                level=cell.level, app=cell.app, kernel=cell.kernel,
                structure=cell.structure, config=cell.config,
                trials=cell.trials, seed=DEFAULT_SEED, workers=1,
                harden=cell.harden, sdc_anatomy=cell.sdc_anatomy)
            tallies[cell.name] = run_campaign(spec).counts.to_dict()
    finally:
        del os.environ["REPRO_CACHE_DIR"]
        shutil.rmtree(cache, ignore_errors=True)
    return tallies


def main() -> int:
    sys.path.insert(0, str(SRC))
    import harness
    import tracer

    harness.isolate_environment()
    OUT_DIR.mkdir(exist_ok=True)
    out = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS.values():
        tallies = plain_tallies(workload)
        ctx = harness.set_up(workload, DEFAULT_SEED, OUT_DIR, repeats=1)
        tr = tracer.Tracer()
        with tracer.instrument(tr, ctx.app_classes):
            traced = harness.run_pass(ctx, workers=1, expected=tallies,
                                      tracer=tr)
        if traced.failed or traced.problems:
            print(f"{workload.name}: traced pass disagrees with plain "
                  f"campaigns: {traced.problems}", file=sys.stderr)
            return 1
        counts = tr.cell_counts()
        out["workloads"][workload.name] = {
            cell.name: {"trials": cell.trials, "tally": tallies[cell.name],
                        "sim": counts[cell.name]}
            for cell in workload.cells}
        print(f"{workload.name}: {len(workload.cells)} cells", file=sys.stderr)
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
