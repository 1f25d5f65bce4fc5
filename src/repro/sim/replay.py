"""Golden launch replay: skip launches that start from the golden state.

A fault-free run records, through its
:class:`~repro.sim.access_log.GoldenRecorder`, one :class:`Checkpoint`
per kernel launch: a digest of the device state the launch starts from,
the launch itself, and everything the launch leaves behind. A later run
on the same configuration whose launch ``i`` has the same arguments and
starts from a state with the same digest would simulate exactly what the
golden run simulated, so :func:`replay_launch` restores the golden
post-launch state and hands back a copy of the golden statistics
instead.

Soundness rests on three facts of the simulator:

* it is deterministic;
* the L1 caches are invalidated, and every register bank and
  shared-memory window is zero-filled, at each launch, so a launch
  starts from nothing but device memory, the L2 and each SM's warp
  scheduler cursor (reset only when a CTA retires, so a control fault on
  an SM that hosts no further CTA carries it into the next launch);
* the digest (:func:`state_digest`) covers every part of those that
  the launch can observe: the heap bytes below the write high-water mark
  and the allocator watermark; per L2 set, which ways are valid, their
  tags, dirty bits and data, and the LRU order among them; the cursors.

It leaves out what a launch cannot observe: invalid-line data (refilled
before any read) and the absolute LRU clock (stamps are only compared
within a set). Restoring the golden post-state for those parts is
therefore as good as simulating. The GPU replays a launch only when no
injector is active in it and no tracer is attached (see
:meth:`repro.sim.gpu.GPU.launch`), and only when the golden cycles fit
the launch's cycle budget and the trial watchdog, so a timeout still
fires at the cycle it fires when simulated.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from repro.isa.program import Program
from repro.sim.stats import LaunchStats


@dataclass(frozen=True, eq=False)
class Checkpoint:
    """One launch of a fault-free run: its key and its effect."""

    digest: bytes  # state_digest() before the launch
    launch: object  # the KernelLaunch (name, geometry, params, smem)
    program: Program
    heap: np.ndarray  # mem.data[:written_end] after the launch
    l2: tuple  # Cache.save_state() after the launch
    counters: tuple[int, ...]  # allocation counters the launch advanced
    cursors: tuple[int, ...]  # scheduler_cursors() after the launch
    stats: LaunchStats


def state_digest(gpu) -> bytes:
    """Digest of the device state a kernel launch can observe."""
    mem = gpu.mem
    end = mem.written_end
    h = hashlib.blake2b(digest_size=16)
    h.update(np.array([mem.heap_end, end], dtype=np.int64).tobytes())
    h.update(mem.data[:end])
    h.update(np.array(scheduler_cursors(gpu), dtype=np.int64).tobytes())
    gpu.l2.update_canonical(h)
    return h.digest()


def scheduler_cursors(gpu) -> tuple[int, ...]:
    """Each SM's round-robin warp scheduler cursor."""
    return tuple(sm._rr for sm in gpu.sms)


def allocation_counters(gpu) -> tuple[int, ...]:
    """The GPU's warp-uid counter and each SM's RF/SMEM uid counters."""
    counters = [gpu._warp_uid]
    for sm in gpu.sms:
        counters += (sm.rf._next_uid, sm.smem._next_uid)
    return tuple(counters)


def replay_launch(gpu, index: int, launch, program: Program,
                  budget: int) -> LaunchStats | None:
    """Apply golden launch ``index`` to ``gpu`` if it is the same launch
    from the same state; returns a copy of its statistics, else ``None``.

    ``budget`` is the launch's cycle budget; a launch whose golden cycles
    exceed it, or would carry the run past ``gpu.trial_cycle_budget``, is
    left to the simulator so that it times out exactly where it would.
    """
    memo = gpu.replay
    if index >= len(memo):
        return None
    ck = memo[index]
    if ck.launch != launch or not (ck.program is program
                                   or ck.program == program):
        return None
    cycles = ck.stats.cycles
    watchdog = gpu.trial_cycle_budget
    if cycles > budget or (watchdog is not None
                           and gpu.trial_cycles_done + cycles > watchdog):
        return None
    if state_digest(gpu) != ck.digest:
        return None
    mem = gpu.mem
    mem.data[: ck.heap.size] = ck.heap
    mem.written_end = ck.heap.size
    gpu.l2.load_state(ck.l2)
    gpu._warp_uid += ck.counters[0]
    for sm, rf, smem, rr in zip(gpu.sms, ck.counters[1::2],
                                ck.counters[2::2], ck.cursors):
        sm.rf._next_uid += rf
        sm.smem._next_uid += smem
        sm._rr = rr
    return ck.stats.copy()
