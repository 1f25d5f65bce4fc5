"""Top-level GPU device: memory management, kernel launch, and the clock.

The GPU executes launches synchronously (the host driver regains control when
the kernel has drained). Fault-injection hooks:

* ``uarch_injector`` — armed per launch; fired once when the clock reaches the
  planned cycle, flipping one bit in a hardware structure. Persistent plans
  (stuck-at / intermittent fault models) additionally get an ``enforce``
  call every clock iteration after firing, re-pinning their bits, and are
  re-armed (and re-bound to the launch's live state) on every later launch.
* ``sw_injector`` — receives an ``after_write`` callback for every dynamic
  instruction that produces a general-purpose destination value.
* ``tracer`` — optional :class:`Tracer` observing every simulated launch
  (the golden run's :class:`~repro.sim.access_log.GoldenRecorder` builds
  the replay memo and the register-file access log this way). An
  attached tracer turns launch replay off.
* ``cycle_budget_fn`` — per-launch cycle budget (timeout detection), set by
  the campaign harness from the fault-free profile.
* ``trial_cycle_budget`` — cross-launch watchdog: total cycles one app run
  (all launches together) may execute before :class:`SimTimeout` aborts it.
  Per-launch budgets cannot catch a host-side convergence loop that a
  persistent fault keeps from ever converging; this one does.
* ``replay`` — golden launch memo (one :class:`~repro.sim.replay.Checkpoint`
  per launch of the fault-free run, set by the campaign harness). A launch
  in which no injector is active and no tracer is attached, whose
  arguments and pre-launch state digest equal the golden launch at the
  same index, and whose golden cycles fit both budgets above, is not
  simulated: the golden post-launch memory, L2 and scheduler cursors are
  restored and the record carries a copy of the golden statistics
  (``replayed=True``).
  Every other launch is simulated. See :mod:`repro.sim.replay`.

Compiled kernels are cached per GPU, keyed on the program object and the
encoded launch parameters (the constant bank), so a trial rebuilds no
kernel an earlier trial on the same device already built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.arch.config import GPUConfig
from repro.errors import DeadlockError, LaunchError, SimTimeout
from repro.isa.program import Program
from repro.sim.cache import Cache, DRAMInterface
from repro.sim.executor import CompiledKernel
from repro.sim.memory import GlobalMemory
from repro.sim.replay import replay_launch
from repro.sim.sm import SM
from repro.sim.stats import LaunchStats
from repro.sim.warp import CTA
from repro.utils.bitops import bitcast_f2u

#: Absolute cycle cap for launches without an explicit budget (profiling).
DEFAULT_CYCLE_CAP = 10_000_000

#: Compiled kernels one GPU keeps; the cache starts over when full (host
#: loops perturbed by faults can launch with ever new parameters).
KERNEL_CACHE_SIZE = 64


@dataclass(frozen=True)
class Buffer:
    """A device allocation."""

    addr: int
    nbytes: int


@dataclass(frozen=True)
class KernelLaunch:
    """Launch geometry + parameters (kept on the record for reproducibility)."""

    name: str
    grid: tuple[int, int]
    block: tuple[int, int]
    params: tuple[int, ...]
    smem_bytes: int


@dataclass
class LaunchRecord:
    """Everything measured about one completed launch."""

    index: int
    launch: KernelLaunch
    stats: LaunchStats
    program_name: str = ""
    #: Restored from the golden run's memo instead of simulated.
    replayed: bool = False

    @property
    def name(self) -> str:
        return self.launch.name

    @property
    def cycles(self) -> int:
        return self.stats.cycles


class Tracer:
    """Observer of simulated launches (``GPU.tracer``); no-ops here."""

    def begin_launch(self, gpu, launch, program) -> None:
        """Before ``launch`` (a :class:`KernelLaunch`) is simulated."""

    def record(self, now, pc, instr, warp, gm) -> None:
        """After ``warp`` issued ``instr`` (at ``pc``, clock ``now``, guard
        mask ``gm``)."""

    def host(self, sm_index, cta, now) -> None:
        """After SM ``sm_index`` hosted ``cta`` and allocated its warps."""

    def retire(self, cta, now) -> None:
        """After ``cta`` retired and its register banks were freed."""

    def end_launch(self, gpu, record) -> None:
        """After the launch completed with ``record`` (a LaunchRecord)."""


def _encode_param(p) -> int:
    if isinstance(p, Buffer):
        return p.addr
    if isinstance(p, bool):
        return int(p)
    if isinstance(p, (int, np.integer)):
        return int(p) & 0xFFFFFFFF
    if isinstance(p, (float, np.floating)):
        return bitcast_f2u(float(p))
    raise LaunchError(f"unsupported kernel parameter type {type(p)!r}")


class GPU:
    """The simulated device."""

    def __init__(self, config: GPUConfig):
        self.config = config
        self.mem = GlobalMemory(config.dram_bytes)
        self._dram_if = DRAMInterface(self.mem, config.latencies.dram, None)
        self.l2 = Cache("l2", config.l2, config.latencies.l2_hit, self._dram_if,
                        write_back=True)
        self.sms = [SM(i, self) for i in range(config.num_sms)]
        self.launch_records: list[LaunchRecord] = []
        self.now = 0
        self.kernel: CompiledKernel | None = None
        self.stats: LaunchStats | None = None
        self._warp_uid = 0
        self._pending: list[CTA] = []
        self._current_smem_bytes = 0
        # Hooks
        self.uarch_injector = None
        self.sw_injector = None
        self.tracer: Tracer | None = None
        self.cycle_budget_fn = None
        self.replay: tuple = ()
        self._kernels: dict[tuple, CompiledKernel] = {}
        # Trial watchdog (see module docstring): cumulative cycle budget
        # across every launch of one app run, and the cycles already burnt
        # by completed launches of the current run.
        self.trial_cycle_budget: int | None = None
        self.trial_cycles_done = 0

    @property
    def global_cycle(self) -> int:
        """Cycles executed so far in this app run, across all launches."""
        return self.trial_cycles_done + self.now

    # ------------------------------------------------------------------ #
    # Memory API
    # ------------------------------------------------------------------ #
    def malloc(self, nbytes: int) -> Buffer:
        return Buffer(self.mem.alloc(nbytes), nbytes)

    def malloc_like(self, array: np.ndarray) -> Buffer:
        return self.malloc(array.nbytes)

    def memcpy_htod(self, buffer: Buffer, array: np.ndarray) -> None:
        payload = np.ascontiguousarray(array).view(np.uint8).reshape(-1)
        if payload.size > buffer.nbytes:
            raise LaunchError("htod copy larger than buffer")
        # Make DRAM authoritative, then drop stale cached copies.
        self.l2.flush()
        self.l2.invalidate_all()
        self.mem.write_bytes(buffer.addr, payload)

    def memcpy_dtoh(self, buffer: Buffer, dtype=np.uint32, count: int | None = None
                    ) -> np.ndarray:
        self.l2.flush()
        raw = self.mem.read_bytes(buffer.addr, buffer.nbytes)
        out = raw.view(dtype)
        if count is not None:
            out = out[:count]
        return out.copy()

    def upload(self, array: np.ndarray) -> Buffer:
        """Allocate + copy in one step."""
        buf = self.malloc_like(array)
        self.memcpy_htod(buf, array)
        return buf

    # ------------------------------------------------------------------ #
    # Launch
    # ------------------------------------------------------------------ #
    def next_warp_uid(self) -> int:
        self._warp_uid += 1
        return self._warp_uid

    def launch(
        self,
        program: Program,
        grid: tuple[int, int],
        block: tuple[int, int],
        params=(),
        smem_bytes: int = 0,
        name: str | None = None,
    ) -> LaunchRecord:
        """Run one kernel to completion; returns its record."""
        gx, gy = grid
        bx, by = block
        if gx < 1 or gy < 1 or bx < 1 or by < 1:
            raise LaunchError(f"bad launch geometry grid={grid} block={block}")
        if bx * by > self.config.max_warps_per_sm * self.config.warp_size:
            raise LaunchError(f"block of {bx * by} threads exceeds SM capacity")
        if smem_bytes > self.config.smem_bytes_per_sm:
            raise LaunchError("requested shared memory exceeds SM capacity")
        if program.uses_shared and smem_bytes == 0:
            raise LaunchError(f"{program.name} uses shared memory but none requested")

        encoded = tuple(_encode_param(p) for p in params)
        kernel_name = name or program.name
        launch_index = len(self.launch_records)
        launch = KernelLaunch(kernel_name, grid, block, encoded, smem_bytes)

        budget = None
        if self.cycle_budget_fn is not None:
            budget = self.cycle_budget_fn(launch_index, kernel_name)
        if budget is None:
            budget = DEFAULT_CYCLE_CAP

        plan = None
        if self.uarch_injector is not None:
            plan = self.uarch_injector.arm(launch_index, kernel_name, self)
        sw = self.sw_injector
        if sw is not None:
            sw.begin_launch(launch_index, kernel_name)

        tracer = self.tracer
        if (self.replay and plan is None and tracer is None
                and not (sw is not None and sw.active)):
            stats = replay_launch(self, launch_index, launch, program, budget)
            if stats is not None:
                self.stats = stats
                self.trial_cycles_done += stats.cycles
                record = LaunchRecord(launch_index, launch, stats,
                                      program.name, replayed=True)
                self.launch_records.append(record)
                return record

        if tracer is not None:
            tracer.begin_launch(self, launch, program)

        self.kernel = self._compiled(program, encoded)
        stats = LaunchStats(
            regs_per_thread=program.num_regs,
            smem_bytes_per_cta=smem_bytes,
            threads_launched=gx * gy * bx * by,
            ctas_launched=gx * gy,
        )
        self.stats = stats
        self._dram_if.stats = stats

        # Kernel boundary: L1 caches do not persist across launches; the L2
        # keeps its data but its fill timing belongs to the old clock epoch.
        for sm in self.sms:
            sm.l1d.invalidate_all()
            sm.l1t.invalidate_all()
            sm.l1d.reset_stats()
            sm.l1t.reset_stats()
        self.l2.reset_stats()
        self.l2.new_clock_epoch()

        # Build the pending CTA queue (x fastest, matching CUDA's iteration).
        self._current_smem_bytes = smem_bytes
        grid_dim = (gx, gy, 1)
        block_dim = (bx, by, 1)
        self._pending = [
            CTA((cx, cy, 0), grid_dim, block_dim)
            for cy in range(gy)
            for cx in range(gx)
        ]
        num_warps = -(-bx * by // self.config.warp_size)
        if not any(
            sm.can_host(num_warps, max(program.num_regs, 1), smem_bytes)
            for sm in self.sms
        ):
            raise LaunchError(
                f"no SM can host a CTA of {kernel_name} "
                f"({num_warps} warps, {program.num_regs} regs, {smem_bytes}B smem)"
            )
        for sm in self.sms:
            self._fill_sm(sm, program, smem_bytes)

        if plan is not None and plan.fired:
            # A persistent fault re-armed for a later launch: the
            # simulator rebuilt RF/warp state at launch, so the plan
            # re-resolves its drawn site against the live structures.
            plan.rebind(self)

        try:
            self._run(plan, budget, stats)
        finally:
            self._dram_if.stats = None
            self._drain_residency()
            self.trial_cycles_done += stats.cycles
            self.now = 0

        record = LaunchRecord(launch_index, launch, stats, program.name)
        self._collect_cache_stats(stats)
        self.launch_records.append(record)
        if tracer is not None:
            tracer.end_launch(self, record)
        return record

    def _compiled(self, program: Program,
                  encoded: tuple[int, ...]) -> CompiledKernel:
        """The kernel of ``program`` specialised to ``encoded`` parameters,
        compiled on first use. The entry holds the program, so its ``id``
        in the key is never reused while the entry lives."""
        key = (id(program), encoded)
        kernel = self._kernels.get(key)
        if kernel is None:
            if len(self._kernels) >= KERNEL_CACHE_SIZE:
                self._kernels.clear()
            kernel = self._kernels[key] = CompiledKernel(
                program, np.asarray(encoded, dtype=np.uint32), self.config)
        return kernel

    def _fill_sm(self, sm: SM, program: Program, smem_bytes: int) -> None:
        regs = max(program.num_regs, 1)
        while self._pending:
            cta = self._pending[0]
            num_warps = -(-cta.num_threads // self.config.warp_size)
            if not sm.can_host(num_warps, regs, smem_bytes):
                return
            self._pending.pop(0)
            sm.host_cta(cta, regs, smem_bytes)

    def on_cta_finished(self, sm: SM, cta: CTA) -> None:
        sm.retire_cta(cta)
        if self._pending and self.kernel is not None:
            self._fill_sm(sm, self.kernel.program, self._current_smem_bytes)

    def _drain_residency(self) -> None:
        """Force-free every resident CTA (after an aborted launch)."""
        self._pending = []
        for sm in self.sms:
            for cta in list(sm.ctas):
                sm.retire_cta(cta)

    def _collect_cache_stats(self, stats: LaunchStats) -> None:
        for sm in self.sms:
            stats.l1d.merge(sm.l1d.stats)
            stats.l1t.merge(sm.l1t.stats)
        stats.l2.merge(self.l2.stats)

    # ------------------------------------------------------------------ #
    # Main loop
    # ------------------------------------------------------------------ #
    def _run(self, plan, budget: int, stats: LaunchStats) -> None:
        now = 0
        self.now = 0
        sms = self.sms
        trial_budget = self.trial_cycle_budget
        burnt = self.trial_cycles_done
        while self._pending or any(sm.ctas for sm in sms):
            for sm in sms:
                warp = sm.pick_ready(now)
                if warp is not None:
                    latency = sm.execute(warp, now)
                    warp.next_ready = now + latency

            if plan is not None:
                if not plan.fired:
                    if now >= plan.cycle:
                        plan.fire(self)
                elif plan.persistent:
                    # Stuck-at / intermittent models: the defect re-asserts
                    # itself every clock iteration, overriding any write.
                    plan.enforce(self)

            resident = 0
            nxt: int | None = None
            for sm in sms:
                resident += len(sm.warps)
                ev = sm.next_event()
                if ev is not None and (nxt is None or ev < nxt):
                    nxt = ev
            stats.max_warps_observed = max(stats.max_warps_observed, resident)
            if resident == 0 and not self._pending:
                break
            if nxt is None:
                if resident or self._pending:
                    raise DeadlockError(
                        "all resident warps blocked (barrier deadlock)"
                    )
                break
            new_now = max(now + 1, nxt)
            stats.warp_cycles_resident += resident * (new_now - now)
            now = new_now
            self.now = now
            stats.cycles = now
            if now > budget:
                raise SimTimeout(now, budget)
            if trial_budget is not None and burnt + now > trial_budget:
                # Cross-launch watchdog: the whole app run overshot K× its
                # golden cycle count (REPRO_HANG_FACTOR) — abort instead of
                # wedging the worker on a fault-induced infinite loop.
                raise SimTimeout(burnt + now, trial_budget)
        stats.cycles = now

    # ------------------------------------------------------------------ #
    # Fault-target enumeration (used by the microarchitecture injector)
    # ------------------------------------------------------------------ #
    def live_rf_banks(self):
        """All live warp register banks across SMs, flattened."""
        banks = []
        for sm in self.sms:
            banks.extend(sm.rf.live_banks())
        return banks

    def live_smem_windows(self):
        windows = []
        for sm in self.sms:
            windows.extend(sm.smem.live_windows())
        return windows

    def resident_warps(self):
        """All resident warps across SMs (control-state fault targets)."""
        return [warp for sm in self.sms for warp in sm.warps]

    def cache_instances(self, structure) -> list[Cache]:
        from repro.arch.structures import Structure

        if structure is Structure.L1D:
            return [sm.l1d for sm in self.sms]
        if structure is Structure.L1T:
            return [sm.l1t for sm in self.sms]
        if structure is Structure.L2:
            return [self.l2]
        raise ValueError(f"{structure} is not a cache structure")

    # ------------------------------------------------------------------ #
    def reset(self) -> None:
        """Return the device to its post-boot state (fresh app run): equal,
        array for array and counter for counter, to a new ``GPU(config)``
        (hooks and the compiled-kernel cache excepted)."""
        self.mem.reset()
        self.l2.reset()
        for sm in self.sms:
            sm.reset()
        self.launch_records.clear()
        self.now = 0
        self.trial_cycles_done = 0
        self.kernel = None
        self.stats = None
        self._warp_uid = 0
        self._pending = []
        self._current_smem_bytes = 0
