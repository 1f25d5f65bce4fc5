"""Register-reuse analysis (Section V-B / Figure 12 of the paper).

The paper proposes augmenting software-level fault injection with a
*register reuse analyzer*: a fault placed in a register should affect every
subsequent instruction that reads the register until it is next written.
This module implements that analyzer over the golden run's access log
(:mod:`repro.sim.access_log`): for every dynamic register write it counts
how many dynamic reads consume the value before it is overwritten — the
replication factor that a single-instruction fault model under-counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.fi.campaign import profile_app


def reads_per_write(launches) -> dict[int, list[int]]:
    """Read counts of the values each program index wrote, from the
    :class:`~repro.sim.access_log.LaunchAccesses` of one run.

    Values live per (warp uid, register), not per lane. An issue whose
    guard mask is empty touches nothing; any other reads every source
    register of its instruction, then writes every destination, which
    ends the value it overwrites. Values still live at the end count the
    reads seen so far. Program indices of all launches share one key.
    """
    warp, reg, seq, pc = [], [], [], []
    offset = 0
    for log in launches:
        issued = np.flatnonzero(log.mask.any(axis=1))
        for kind, table in enumerate(log.tables):  # reads, then writes
            rows, regs = np.nonzero(table[log.pc[issued]])
            at = issued[rows]
            warp.append(log.warp[at])
            reg.append(regs)
            seq.append(2 * (offset + at) + kind)
            pc.append(log.pc[at])
        offset += log.pc.size
    if not seq:
        return {}
    order = np.lexsort((np.concatenate(seq), np.concatenate(reg),
                        np.concatenate(warp)))
    warp, reg, seq, pc = (np.concatenate(a)[order]
                          for a in (warp, reg, seq, pc))
    index = np.arange(order.size)
    is_write = (seq & 1).astype(bool)
    first = np.ones(order.size, dtype=bool)  # first access of its key
    first[1:] = (warp[1:] != warp[:-1]) | (reg[1:] != reg[:-1])
    key_start = np.maximum.accumulate(np.where(first, index, 0))
    last_write = np.maximum.accumulate(np.where(is_write, index, -1))
    counted = ~is_write & (last_write >= key_start)
    reads = np.bincount(last_write[counted], minlength=order.size)[is_write]
    writer = pc[is_write]
    return {int(p): reads[writer == p].tolist() for p in np.unique(writer)}


@dataclass
class ReuseReport:
    """Aggregated reuse statistics of one kernel/application."""

    per_instruction: dict[int, float] = field(default_factory=dict)
    mean_reads_per_write: float = 0.0
    fraction_multi_read: float = 0.0  # writes read 2+ times
    fraction_dead_write: float = 0.0  # writes never read

    def summary(self) -> str:
        return (
            f"mean reads/write = {self.mean_reads_per_write:.2f}, "
            f"multi-read writes = {self.fraction_multi_read:.1%}, "
            f"dead writes = {self.fraction_dead_write:.1%}"
        )


class RegisterReuseAnalyzer:
    """Aggregates reuse statistics from an application's golden run."""

    def __init__(self, config):
        self.config = config

    def analyze(self, app) -> ReuseReport:
        counts = reads_per_write(
            profile_app(app, self.config).liveness.launches)
        if not counts:
            return ReuseReport()
        arr = np.concatenate(list(counts.values()))
        return ReuseReport(
            per_instruction={idx: float(np.mean(c))
                             for idx, c in counts.items()},
            mean_reads_per_write=float(arr.mean()),
            fraction_multi_read=float((arr >= 2).mean()),
            fraction_dead_write=float((arr == 0).mean()),
        )


def affected_instructions(program, start_index: int, reg: int) -> list[int]:
    """Static forward scan (Fig. 12): instructions reading ``reg`` after
    ``start_index`` until the first rewrite, along the fall-through path.

    This mirrors the paper's illustrative example: a fault in the output
    register of instruction ``start_index`` should be replicated into every
    returned instruction.
    """
    affected: list[int] = []
    for idx in range(start_index + 1, len(program)):
        instr = program[idx]
        if reg in instr.source_registers():
            affected.append(idx)
        if reg in instr.dest_registers():
            break
        if instr.info.is_branch:
            break  # conservative: stop at control flow
    return affected
