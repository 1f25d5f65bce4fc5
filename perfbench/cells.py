"""The benchmark's workloads: fixed matrices of fault-injection campaign cells.

A cell is one ``CampaignSpec`` minus the seed, which the benchmark takes
from its command line. Why each workload holds the cells it does is
written next to it, and at greater length in ``NOTES.md``.

Trials per cell are small, so that a run holds several passes, and
uneven: a workload's pooled trial latencies form one mode per group of
cells with similar trials, and a median on the boundary between two
modes flips between them from run to run. The counts put each median
inside one group (the bfs cells of ``uarch-replay``, the va cells of
``campaign-churn``).
"""

from __future__ import annotations

from dataclasses import dataclass

#: The seed the stored reference tallies were made with (``reference.json``).
DEFAULT_SEED = 7


@dataclass(frozen=True)
class Cell:
    level: str
    app: str
    kernel: str
    structure: str | None = None
    harden: str | None = None
    sdc_anatomy: bool = False
    trials: int = 12

    @property
    def config(self) -> str:
        """The paper's tool pairing: gpuFI-4 on GV100, NVBitFI on V100."""
        return "gv100" if self.level == "uarch" else "v100"

    @property
    def name(self) -> str:
        parts = [self.level, self.app, self.kernel]
        if self.structure:
            parts.append(self.structure)
        name = "/".join(parts)
        if self.harden:
            name += "+" + self.harden
        if self.sdc_anatomy:
            name += "+anatomy"
        return name


@dataclass(frozen=True)
class Workload:
    name: str
    cells: tuple[Cell, ...]
    #: Trial-execution pool size of the timed passes (1 = serial).
    workers: int = 1
    #: Whether a run must collect enough trial-latency samples for a p95.
    needs_p95: bool = True


def _churn_cells() -> tuple[Cell, ...]:
    cells = []
    for app, trials in (("va", 30), ("scp", 18)):
        kernel = f"{app}_k1"
        cells += [Cell("uarch", app, kernel, "rf", trials=trials),
                  Cell("uarch", app, kernel, "l1d", trials=trials),
                  Cell("sw", app, kernel, trials=trials),
                  Cell("sw-ld", app, kernel, trials=trials),
                  Cell("src", app, kernel, trials=trials)]
    return tuple(cells)


WORKLOADS = {w.name: w for w in (
    # Serial uarch storage cells: GPU.launch is most of trial time and most
    # masked trials replay the whole golden run; single-launch gemm is the
    # control for launch-boundary snapshots and compile caching.
    Workload(
        "uarch-replay",
        (Cell("uarch", "bfs", "bfs_k1", "rf", trials=20),
         Cell("uarch", "bfs", "bfs_k2", "l1d", trials=20),
         Cell("uarch", "sradv1", "sradv1_k4", "smem"),
         Cell("uarch", "hotspot", "hotspot_k1", "l2"),
         Cell("uarch", "lud", "lud_k2", "rf"),
         Cell("uarch", "gemm", "gemm_tile", "rf"),
         Cell("uarch", "va", "va_k1", "rf", harden="tmr"))),
    # The sw/src injector hooks run on every instruction; SDC and DUE
    # dominate; the only workload through the forked pool and repro.sdc.
    Workload(
        "sw-pool",
        (Cell("sw", "bfs", "bfs_k1", trials=20),
         Cell("sw", "gemm", "gemm_tile", sdc_anatomy=True, trials=20),
         Cell("sw", "sradv1", "sradv1_k1", sdc_anatomy=True, trials=20),
         Cell("sw-ld", "kmeans", "kmeans_k1", trials=20),
         Cell("src", "pathfinder", "pathfinder_k1", trials=20),
         Cell("sw", "gemm", "gemm_tile", harden="abft", trials=20)),
        workers=2),
    # Many short serial campaigns: reset, the journal fsync, planning and
    # the per-campaign key/journal/cache/ledger work are a large share.
    Workload(
        "campaign-churn",
        _churn_cells()),
    # Not measured: a seconds-long end-to-end check of the benchmark itself.
    Workload(
        "smoke",
        (Cell("uarch", "va", "va_k1", "rf", trials=4),
         Cell("sw", "va", "va_k1", trials=4)),
        needs_p95=False),
)}
