"""Warp and CTA runtime state.

Divergence is handled with per-lane program counters and min-PC scheduling:
on each issue, the lanes of a warp sharing the minimum PC among live lanes
execute together. Diverged lane groups therefore interleave and reconverge
automatically once their PCs meet again, without an explicit reconvergence
stack — adequate for the reducible control flow of the benchmark kernels and
robust to fault-corrupted control flow.
"""

from __future__ import annotations

import numpy as np

from repro.isa.instruction import PT, SpecialReg

NUM_PREDS = 8


class Warp:
    """One resident warp."""

    __slots__ = (
        "uid",
        "cta",
        "index_in_cta",
        "rf_uid",
        "bank",
        "preds",
        "pc",
        "done",
        "next_ready",
        "waiting_barrier",
        "finished",
        "specials",
        "alive",
        "diverged",
        "upc",
    )

    def __init__(self, uid: int, cta: "CTA", index_in_cta: int, rf_uid: int, bank):
        self.uid = uid
        self.cta = cta
        self.index_in_cta = index_in_cta
        self.rf_uid = rf_uid
        self.bank = bank  # WarpRegisters
        warp_size = bank.regs.shape[1]
        self.preds = np.zeros((NUM_PREDS, warp_size), dtype=bool)
        self.preds[PT] = True
        self.pc = np.zeros(warp_size, dtype=np.int32)
        self.done = np.zeros(warp_size, dtype=bool)
        self.next_ready = 0
        self.waiting_barrier = False
        self.specials = self._build_specials(warp_size)
        # Cached scheduler/divergence state (hot path):
        # - ``alive`` mirrors ``~done`` and is refreshed on EXIT;
        # - while ``diverged`` is False, every alive lane sits at ``upc`` and
        #   the per-lane ``pc`` array is not consulted; a mixed-outcome branch
        #   materialises per-lane PCs and flips ``diverged`` on.
        self.finished = bool(self.done.all())
        self.alive = ~self.done
        self.diverged = False
        self.upc = 0

    def _build_specials(self, warp_size: int) -> np.ndarray:
        cta = self.cta
        lanes = np.arange(warp_size, dtype=np.uint32)
        linear = self.index_in_cta * warp_size + lanes
        bx, by, bz = cta.block_dim
        tid_x = linear % bx
        rem = linear // bx
        tid_y = rem % by
        tid_z = rem // by
        sp = np.zeros((len(SpecialReg), warp_size), dtype=np.uint32)
        sp[SpecialReg.TID_X] = tid_x
        sp[SpecialReg.TID_Y] = tid_y
        sp[SpecialReg.TID_Z] = tid_z
        sp[SpecialReg.CTAID_X] = cta.ctaid[0]
        sp[SpecialReg.CTAID_Y] = cta.ctaid[1]
        sp[SpecialReg.CTAID_Z] = cta.ctaid[2]
        sp[SpecialReg.NTID_X] = bx
        sp[SpecialReg.NTID_Y] = by
        sp[SpecialReg.NTID_Z] = bz
        sp[SpecialReg.NCTAID_X] = cta.grid_dim[0]
        sp[SpecialReg.NCTAID_Y] = cta.grid_dim[1]
        sp[SpecialReg.NCTAID_Z] = cta.grid_dim[2]
        sp[SpecialReg.LANEID] = lanes
        sp[SpecialReg.WARPID] = self.index_in_cta
        # Lanes beyond the block's thread count never run.
        self.done = linear >= cta.num_threads
        return sp

    def update_finished(self) -> bool:
        """Refresh cached masks after an EXIT retires lanes."""
        self.alive = ~self.done
        self.finished = bool(self.done.all())
        return self.finished

    def materialize_pcs(self) -> None:
        """Switch to per-lane PCs without changing warp semantics.

        While uniform, the per-lane ``pc`` array is a stale cache and ``upc``
        is authoritative; fault injectors that corrupt an individual lane's
        PC first call this so the corruption is actually consulted by min-PC
        scheduling (the lanes reconverge on their own if the PCs stay equal).
        """
        if not self.diverged:
            self.pc[:] = self.upc
            self.diverged = True


class CTA:
    """One cooperative thread array resident on an SM."""

    __slots__ = (
        "ctaid",
        "grid_dim",
        "block_dim",
        "num_threads",
        "warps",
        "smem_uid",
        "smem",
        "barrier_arrived",
        "sm",
    )

    def __init__(
        self,
        ctaid: tuple[int, int, int],
        grid_dim: tuple[int, int, int],
        block_dim: tuple[int, int, int],
    ):
        self.ctaid = ctaid
        self.grid_dim = grid_dim
        self.block_dim = block_dim
        self.num_threads = block_dim[0] * block_dim[1] * block_dim[2]
        self.warps: list[Warp] = []
        self.smem_uid: int | None = None
        self.smem = None  # SharedWindow or None
        self.barrier_arrived = 0
        self.sm = None

    @property
    def finished(self) -> bool:
        return all(w.finished for w in self.warps)

    def live_warp_count(self) -> int:
        return sum(1 for w in self.warps if not w.finished)

    def arrive_barrier(self, warp: Warp) -> None:
        warp.waiting_barrier = True
        self.barrier_arrived += 1
        self.maybe_release_barrier()

    def maybe_release_barrier(self) -> None:
        """Release the barrier once every still-live warp has arrived."""
        live = self.live_warp_count()
        if live > 0 and self.barrier_arrived >= live:
            self.barrier_arrived = 0
            for w in self.warps:
                w.waiting_barrier = False
