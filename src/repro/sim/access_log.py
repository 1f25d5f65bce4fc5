"""The golden run's recorder: launch replay memo and register-file log.

A fault-free run attaches one :class:`GoldenRecorder` as ``gpu.tracer``.
In one pass it collects, per launch, a
:class:`~repro.sim.replay.Checkpoint` (the golden launch memo) and a
:class:`LaunchAccesses`: every warp-instruction issue (clock, warp uid,
program index, guard mask) and every CTA's residency (SM, clock hosted,
clock retired, its warps). Recording only appends references; each
finished launch is packed once into NumPy arrays. Which registers an
issue reads and writes is static per program index
(:func:`access_tables`), so the log need not decode operands; the
liveness oracle of :mod:`repro.fi.liveness` and the register-reuse
analyzer of :mod:`repro.analysis.reuse` answer their questions from
these arrays alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from repro.isa.program import Program
from repro.sim import replay
from repro.sim.gpu import Tracer


def access_tables(program: Program) -> tuple[np.ndarray, np.ndarray]:
    """``(reads, writes)``: boolean ``[program index, register]`` tables of
    the general-purpose registers each instruction reads and writes."""
    shape = (len(program), max(program.num_regs, 1))
    reads = np.zeros(shape, dtype=bool)
    writes = np.zeros(shape, dtype=bool)
    for pc, instr in enumerate(program):
        reads[pc, list(instr.source_registers())] = True
        writes[pc, list(instr.dest_registers())] = True
    return reads, writes


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

    @cached_property
    def tables(self) -> tuple[np.ndarray, np.ndarray]:
        """:func:`access_tables` of the launch's program."""
        return access_tables(self.program)


class GoldenRecorder(Tracer):
    """Collects one checkpoint and one :class:`LaunchAccesses` per
    simulated launch (see the module docstring)."""

    def __init__(self):
        self.checkpoints: list = []
        self.launches: list[LaunchAccesses] = []
        self._issues: list[tuple] = []
        self._ctas: dict[int, list[int]] = {}
        self._before = None

    def begin_launch(self, gpu, launch, program) -> None:
        self._before = (replay.state_digest(gpu),
                        replay.allocation_counters(gpu), program)

    def record(self, now, pc, instr, warp, gm) -> None:
        # The guard mask is a fresh array or the warp's ``alive`` array,
        # which the simulator replaces rather than mutates.
        self._issues.append((now, warp.uid, pc, gm))

    def host(self, sm_index, cta, now) -> None:
        self._ctas[cta.warps[0].uid] = [sm_index, now, -1, len(cta.warps)]

    def retire(self, cta, now) -> None:
        self._ctas[cta.warps[0].uid][2] = now

    def end_launch(self, gpu, record) -> None:
        digest, counters, program = self._before
        self.checkpoints.append(replay.Checkpoint(
            digest=digest,
            launch=record.launch,
            program=program,
            heap=gpu.mem.data[: gpu.mem.written_end].copy(),
            l2=gpu.l2.save_state(),
            counters=tuple(a - b for a, b in zip(
                replay.allocation_counters(gpu), counters)),
            cursors=replay.scheduler_cursors(gpu),
            stats=record.stats.copy(),
        ))
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
