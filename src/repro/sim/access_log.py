"""Register-file access log of a fault-free run.

A profiling run attaches an :class:`AccessRecorder` as ``gpu.access_log``.
The simulator then reports, per launch, every warp-instruction issue
(clock, warp uid, program index, guard mask) and every CTA's residency
(SM, clock hosted, clock retired, its warps). Recording only appends
references; each finished launch is packed once into a
:class:`LaunchAccesses` of NumPy arrays.

Which registers an issue reads and writes is static per program index
(:meth:`repro.isa.instruction.Instruction.source_registers` and
``dest_registers``), so the log need not decode operands. The liveness
oracle of :mod:`repro.fi.liveness` answers its questions from these
arrays alone.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.isa.program import Program


@dataclass(frozen=True, eq=False)
class LaunchAccesses:
    """Issues and CTA residency of one launch, as arrays.

    Issues are in simulation order, so ``clock`` is non-decreasing.
    ``mask`` packs each issue's guard mask, lane ``l`` at bit ``l % 8`` of
    byte ``l // 8``. A CTA's warps hold consecutive uids from
    ``cta_first_warp``; its register banks were allocated in that order.
    """

    program: Program
    clock: np.ndarray  # int64, per issue
    warp: np.ndarray  # int64 warp uid, per issue
    pc: np.ndarray  # int32 program index, per issue
    mask: np.ndarray  # uint8 (issues, lane bytes), packed guard masks
    cta_sm: np.ndarray  # int32, per CTA
    cta_host: np.ndarray  # int64 clock the CTA was hosted at
    cta_retire: np.ndarray  # int64 clock the CTA retired at
    cta_first_warp: np.ndarray  # int64 uid of the CTA's first warp
    cta_warps: np.ndarray  # int32 warps per CTA


class AccessRecorder:
    """Collects one :class:`LaunchAccesses` per simulated launch."""

    def __init__(self):
        self.launches: list[LaunchAccesses] = []
        self._issues: list[tuple] = []
        #: Records one issue: ``issue((clock, warp uid, pc, guard mask))``.
        #: A list's own ``append``, so recording costs one tuple per issue.
        #: The guard mask is a fresh array or the warp's ``alive`` array,
        #: which the simulator replaces rather than mutates.
        self.issue = self._issues.append
        self._ctas: dict[int, list[int]] = {}

    def host(self, sm_index: int, cta, now: int) -> None:
        self._ctas[cta.warps[0].uid] = [sm_index, now, -1, len(cta.warps)]

    def retire(self, cta, now: int) -> None:
        self._ctas[cta.warps[0].uid][2] = now

    def end_launch(self, program: Program) -> None:
        clock, warp, pc, guard = zip(*self._issues)  # every launch issues
        self._issues.clear()
        table = np.array([(first, *row) for first, row in self._ctas.items()],
                         dtype=np.int64).reshape(-1, 5)
        self._ctas = {}
        self.launches.append(LaunchAccesses(
            program=program,
            clock=np.array(clock, dtype=np.int64),
            warp=np.array(warp, dtype=np.int64),
            pc=np.array(pc, dtype=np.int32),
            mask=np.packbits(np.concatenate(guard).reshape(len(guard), -1),
                             axis=1, bitorder="little"),
            cta_sm=table[:, 1].astype(np.int32),
            cta_host=table[:, 2].copy(),
            cta_retire=table[:, 3].copy(),
            cta_first_warp=table[:, 0].copy(),
            cta_warps=table[:, 4].astype(np.int32),
        ))
