"""Dead-fault oracle: is a register-file fault overwritten or freed unread?

Most microarchitecture-level RF faults are masked by the hardware itself:
the flipped bit sits in a register that is written again, or whose bank
is freed, before anything reads it. Such a trial behaves exactly like a
fault-free one. :class:`RFLiveness` proves it from the golden run alone,
so the campaign runs the trial without arming the fault and every launch
replays from the golden memo (:mod:`repro.sim.replay`).

The fault-free profiling run's golden recorder logs the register file's
accesses (:mod:`repro.sim.access_log`): per launch, every issue's clock, warp,
program index and guard mask, and every CTA's SM, host clock and retire
clock. For a plan it can judge, the oracle

1. finds the fire iteration: the first golden issue clock at or after
   ``plan.cycle`` in launch ``plan.launch_index``;
2. rebuilds the live banks ``GPU.live_rf_banks()`` returns there: per SM
   in index order, the warps of the CTAs hosted at or before that clock
   and retired after it, in allocation order;
3. draws the site from a fresh ``derive_rng(plan.seed, "uarch-fire")``
   through :func:`repro.fi.gpufi.draw_site`, as the plan itself does;
4. maps each flipped bit to (warp, register, lane);
5. calls the bit dead when the warp's next access to that register on
   that lane after the fire is a write, or when there is none.

Why that is sound:

* The simulator is deterministic, so a trial of the same application on
  the same configuration under the same harness issues exactly what the
  golden run issued until the flip.
* The flip happens after the issue step of the fire iteration, so an
  access at that clock precedes it.
* An issue reads the registers of ``Instruction.source_registers()`` and
  writes those of ``dest_registers()``; executor closures compute full
  width but write only guard-mask lanes, and memory operations address
  only guard-mask lanes, so a lane off the guard mask neither reads nor
  writes. An instruction that reads and writes the register counts as a
  read. Every write replaces the whole 32-bit lane word.
* Banks are freed when their CTA retires and a freed bank is never
  reused, so a bit with no access before that is never read.
* A dead bit changes nothing the simulator can observe: not a value, a
  branch, an address or a cycle. The trial's outcome, cycles and
  statistics are therefore those of the golden run.

Only transient, non-ECC, storage-target RF plans are judged. Persistent
models re-pin their bits against every later write, ECC plans are
corrected or raise a DUE when they fire, control-state sites are read by
the scheduler every cycle, and SMEM windows and cache lines have no
per-issue log here; every other plan simulates as before. The campaign
consults the oracle only when the profile describes the trials' own
application, configuration and harness
(:meth:`repro.fi.campaign.AppProfile.describes`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.structures import Structure
from repro.fi.gpufi import MicroarchFaultPlan, draw_site
from repro.sim.access_log import LaunchAccesses
from repro.utils.rng import derive_rng


@dataclass(frozen=True, eq=False)
class RFLiveness:
    """The golden run's register-file access log (see the module
    docstring)."""

    warp_size: int
    launches: tuple[LaunchAccesses, ...]

    @property
    def nbytes(self) -> int:
        """Bytes held by the log's arrays."""
        return sum(a.nbytes for log in self.launches
                   for a in vars(log).values() if isinstance(a, np.ndarray))

    def is_dead(self, plan) -> bool:
        """Whether every bit ``plan`` flips is provably never read."""
        if not (isinstance(plan, MicroarchFaultPlan)
                and plan.structure is Structure.RF
                and plan.target == "storage"
                and plan.fault_model == "transient"
                and not plan.ecc_protected
                and 0 <= plan.launch_index < len(self.launches)):
            return False
        fired = self.flipped(plan)
        if fired is None:
            return False  # the golden launch ends first: nothing to judge
        now, warp, cells = fired
        log = self.launches[plan.launch_index]
        return all(self._dead(log, warp, now, reg, lane)
                   for reg, lane in cells)

    def flipped(self, plan) -> tuple[int, int, list[tuple[int, int]]] | None:
        """Where the RF ``plan`` fires, rebuilt from the log: the fire
        clock, the uid of the warp whose bank it hits, and the (register,
        lane) of each flipped bit (no cells when no bank is live).
        ``None`` when the golden launch ends before ``plan.cycle``."""
        log = self.launches[plan.launch_index]
        fire = int(np.searchsorted(log.clock, plan.cycle))
        if fire == log.clock.size:
            return None
        now = int(log.clock[fire])
        warps = self._live_warps(log, now)
        bank_bits = max(log.program.num_regs, 1) * self.warp_size * 32
        site = draw_site(derive_rng(plan.seed, "uarch-fire"),
                         [bank_bits] * warps.size)
        if site is None:
            return now, -1, []
        index, bit = site
        cells = [divmod(b // 32, self.warp_size)
                 for b in plan._bits(bit, bank_bits)]
        return now, int(warps[index]), list(dict.fromkeys(cells))

    @staticmethod
    def _live_warps(log: LaunchAccesses, now: int) -> np.ndarray:
        """Warp uids of the banks live after the issue step at ``now``,
        in ``GPU.live_rf_banks()`` order."""
        live = (log.cta_host <= now) & (log.cta_retire > now)
        sm, first = log.cta_sm[live], log.cta_first_warp[live]
        count = log.cta_warps[live]
        order = np.lexsort((first, sm))
        first, count = first[order], count[order]
        offsets = np.arange(count.sum()) - np.repeat(
            np.cumsum(count) - count, count)
        return np.repeat(first, count) + offsets

    def _dead(self, log: LaunchAccesses, warp: int, now: int, reg: int,
              lane: int) -> bool:
        """Whether ``warp``'s first access to (``reg``, ``lane``) after
        the issue step at ``now`` is a write, or there is none."""
        after = np.flatnonzero((log.warp == warp) & (log.clock > now))
        on = (log.mask[after, lane >> 3] >> (lane & 7)) & 1
        reads, writes = log.tables
        pcs = log.pc[after]
        read = reads[pcs, reg]
        touched = on.astype(bool) & (read | writes[pcs, reg])
        if not touched.any():
            return True
        return not read[int(np.argmax(touched))]
