"""Golden launch replay at the simulator level: the state key, what stays
out of it, restore fidelity, reset, and the write high-water mark."""

import dataclasses

import numpy as np
import pytest

from repro.arch.structures import Structure
from repro.errors import SimTimeout
from repro.fi.gpufi import MicroarchFaultPlan, MicroarchInjector
from repro.isa import assemble
from repro.sim import GPU
from repro.sim.access_log import GoldenRecorder
from repro.sim.gpu import Tracer
from repro.sim.memory import GlobalMemory
from repro.sim.replay import state_digest

# out[i] = in[i] + 1 (c[0x0] = in, c[0x4] = out)
INCR = assemble(
    """
    S2R R0, SR_CTAID.X
    S2R R1, SR_TID.X
    S2R R2, SR_NTID.X
    IMAD R3, R0, R2, R1
    SHL R4, R3, 0x2
    IADD R5, R4, c[0x0][0x0]
    LD R6, [R5]
    IADD R6, R6, 0x1
    IADD R7, R4, c[0x0][0x4]
    ST [R7], R6
    EXIT
""",
    name="incr",
)

# Writes registers and shared memory, touches no global memory.
DIRTY = assemble(
    """
    S2R R1, SR_TID.X
    SHL R2, R1, 0x2
    MOV R7, 0x5a5a
    STS [R2], R7
    EXIT
""",
    name="dirty",
)

# out[tid] = R7 + smem[tid], both read before anything writes them.
READ_FRESH = assemble(
    """
    S2R R1, SR_TID.X
    SHL R2, R1, 0x2
    LDS R3, [R2]
    IADD R3, R3, R7
    IADD R4, R2, c[0x0][0x0]
    ST [R4], R3
    EXIT
""",
    name="read_fresh",
)

# out[ctaid] = tid: every warp of a CTA stores to the same word, so the
# warp the scheduler issues last decides what stays there.
RACE = assemble(
    """
    S2R R0, SR_CTAID.X
    S2R R1, SR_TID.X
    SHL R2, R0, 0x2
    IADD R3, R2, c[0x0][0x0]
    ST [R3], R1
    EXIT
""",
    name="race",
)

N = 1280  # 10 KiB of buffers: more than one line in some L2 sets


def _host(gpu):
    """Allocate and fill the buffers of the INCR pipeline."""
    a = gpu.upload(np.arange(N, dtype=np.uint32))
    b = gpu.malloc(4 * N)
    return a, b


def _pipeline(gpu, launches=3):
    """``launches`` back-to-back INCR launches ping-ponging two buffers."""
    a, b = _host(gpu)
    for i in range(launches):
        src, dst = (a, b) if i % 2 == 0 else (b, a)
        gpu.launch(INCR, (N // 32, 1), (32, 1), [src, dst])
    return a, b


def _golden(config, launches=3):
    gpu = GPU(config)
    recorder = gpu.tracer = GoldenRecorder()
    _pipeline(gpu, launches)
    return gpu, tuple(recorder.checkpoints)


def _stats(gpu):
    return [dataclasses.asdict(r.stats) for r in gpu.launch_records]


# ----------------------------------------------------------------- the key

def test_digest_sees_every_observable_bit(gv100):
    gpu = GPU(gv100)
    _pipeline(gpu, 1)
    base = state_digest(gpu)
    l2 = gpu.l2
    way = int(np.flatnonzero(l2.valid)[0])

    def changed(mutate, undo):
        mutate()
        try:
            return state_digest(gpu) != base
        finally:
            undo()
            assert state_digest(gpu) == base

    heap = gpu.mem.data
    addr = gpu.mem.written_end - 1
    assert changed(lambda: heap.__setitem__(addr, heap[addr] ^ 1),
                   lambda: heap.__setitem__(addr, heap[addr] ^ 1))
    assert changed(lambda: l2.flip_bit(way * l2.geo.line_bytes * 8 + 5),
                   lambda: l2.flip_bit(way * l2.geo.line_bytes * 8 + 5))
    tag = int(l2.tags[way])
    assert changed(lambda: l2.tags.__setitem__(way, tag ^ (1 << 20)),
                   lambda: l2.tags.__setitem__(way, tag))
    assert changed(lambda: l2.dirty.__setitem__(way, not l2.dirty[way]),
                   lambda: l2.dirty.__setitem__(way, not l2.dirty[way]))
    sm = gpu.sms[-1]
    assert changed(lambda: setattr(sm, "scheduler_cursor", 1),
                   lambda: setattr(sm, "scheduler_cursor", 0))


def test_digest_ignores_absolute_lru_clock_and_invalid_lines(gv100):
    gpu = GPU(gv100)
    _pipeline(gpu, 2)
    base = state_digest(gpu)
    l2 = gpu.l2
    l2.lru[l2.valid] += 1_000_003
    l2._lru_clock += 1_000_003
    invalid = int(np.flatnonzero(~l2.valid)[0])
    l2.data[invalid] ^= 0xFF
    assert state_digest(gpu) == base
    # The LRU *order* within a set is observable, though.
    set_ways = l2.lru.reshape(l2.geo.num_sets, l2.geo.assoc)
    valid_sets = l2.valid.reshape(l2.geo.num_sets, l2.geo.assoc)
    s = int(np.flatnonzero(valid_sets.sum(axis=1) >= 2)[0])
    w0, w1 = np.flatnonzero(valid_sets[s])[:2]
    set_ways[s, w0], set_ways[s, w1] = set_ways[s, w1], set_ways[s, w0]
    assert state_digest(gpu) != base


def test_launch_depends_only_on_memory_and_l2(gv100):
    """L1D/L1T, RF and SMEM are rebuilt at every launch, so they stay out
    of the key: leftovers there change nothing a launch computes."""
    clean, dirty = GPU(gv100), GPU(gv100)
    out_clean, out_dirty = clean.malloc(4 * 64), dirty.malloc(4 * 64)
    before = state_digest(dirty)
    dirty.launch(DIRTY, (1, 1), (64, 1), smem_bytes=256)
    for sm in dirty.sms:
        for cache in (sm.l1d, sm.l1t):
            cache.data[:] = 0xA5
            cache.valid[:] = True
            cache.tags[:] = np.arange(cache.tags.size) * 4096 + 4096
            cache.lru[:] = np.arange(cache.lru.size)[::-1]
    assert state_digest(dirty) == state_digest(clean) == before
    for gpu, out in ((clean, out_clean), (dirty, out_dirty)):
        gpu.launch(READ_FRESH, (1, 1), (64, 1), [out], smem_bytes=256)
    assert not clean.memcpy_dtoh(out_clean).any()
    assert not dirty.memcpy_dtoh(out_dirty).any()
    assert _stats(clean) == _stats(dirty)[1:]
    assert state_digest(clean) == state_digest(dirty)


# --------------------------------------------------------------- replaying

def test_replay_restores_the_golden_run(gv100):
    golden, memo = _golden(gv100)
    trial = GPU(gv100)
    trial.replay = memo
    a, b = _pipeline(trial)
    assert [r.replayed for r in trial.launch_records] == [True] * 3
    assert _stats(trial) == _stats(golden)
    assert trial.launch_records[0].stats is not memo[0].stats
    for buf in (a, b):
        assert np.array_equal(trial.memcpy_dtoh(buf), golden.memcpy_dtoh(buf))
    assert state_digest(trial) == state_digest(golden)
    assert trial._warp_uid == golden._warp_uid
    assert trial.trial_cycles_done == golden.trial_cycles_done


def test_diverged_state_is_simulated(gv100):
    _, memo = _golden(gv100)
    trial = GPU(gv100)
    trial.replay = memo
    a, b = _host(trial)
    trial.mem.data[a.addr] ^= 1  # a fault that survived into launch 0
    trial.launch(INCR, (N // 32, 1), (32, 1), [a, b])
    trial.launch(INCR, (N // 32, 1), (32, 1), [b, a])
    assert [r.replayed for r in trial.launch_records] == [False, False]
    # Different arguments never match, even from the golden state.
    other = GPU(gv100)
    other.replay = memo
    a, b = _host(other)
    other.launch(INCR, (N // 32, 1), (32, 1), [b, a])
    assert not other.launch_records[0].replayed


def test_injected_and_persistent_launches_are_never_replayed(gv100):
    _, memo = _golden(gv100)
    for model, expected in (("transient", [True, False, True]),
                            ("stuck0", [True, False, False])):
        trial = GPU(gv100)
        trial.replay = memo
        plan = MicroarchFaultPlan(launch_index=1, cycle=10**9,
                                  structure=Structure.RF, seed=1,
                                  fault_model=model)
        trial.uarch_injector = MicroarchInjector(plan)
        _pipeline(trial)
        assert [r.replayed for r in trial.launch_records] == expected


def test_tracer_disables_replay(gv100):
    _, memo = _golden(gv100)
    for tracer in (Tracer(), GoldenRecorder()):
        trial = GPU(gv100)
        trial.replay = memo
        trial.tracer = tracer
        _pipeline(trial)
        assert not any(r.replayed for r in trial.launch_records)


class _StallPlan:
    """Arms launch 0 and holds every resident warp back by ``delay``
    cycles: the launch runs slow but leaves the golden state behind."""

    launch_index = 0
    cycle = 0
    persistent = False

    def __init__(self, delay):
        self.delay = delay
        self.fired = False

    def fire(self, gpu):
        self.fired = True
        for warp in gpu.resident_warps():
            warp.next_ready += self.delay


@pytest.mark.parametrize("slack", [-1, 0])
def test_watchdog_fires_at_the_same_cycle(gv100, slack):
    golden, memo = _golden(gv100, launches=4)
    delay = 5_000
    budget = golden.trial_cycles_done + delay + slack
    results = []
    for replay in (memo, ()):
        trial = GPU(gv100)
        trial.replay = replay
        trial.trial_cycle_budget = budget
        trial.uarch_injector = MicroarchInjector(_StallPlan(delay))
        try:
            _pipeline(trial, launches=4)
            outcome = None
        except SimTimeout as exc:
            outcome = (exc.cycles, exc.limit)
        results.append((outcome, trial.global_cycle,
                        [r.cycles for r in trial.launch_records],
                        [r.replayed for r in trial.launch_records]))
    (with_memo, without) = results
    assert with_memo[:3] == without[:3]
    assert with_memo[3][1:3] == [True, True]  # the converged launches
    if slack < 0:
        assert with_memo[0] == (budget + 1, budget)
    else:
        assert with_memo[0] is None and with_memo[3] == [False] + [True] * 3


def test_per_launch_budget_is_respected(gv100):
    golden, memo = _golden(gv100)
    cycles = [r.cycles for r in golden.launch_records]
    trial = GPU(gv100)
    trial.replay = memo
    trial.cycle_budget_fn = lambda i, name: cycles[i] - 1 if i == 1 else None
    with pytest.raises(SimTimeout) as exc:
        _pipeline(trial)
    assert (exc.value.cycles, exc.value.limit) == (cycles[1], cycles[1] - 1)
    assert [r.replayed for r in trial.launch_records] == [True]


class _CursorPlan:
    """Arms launch 0 and sets one SM's scheduler cursor, as a control
    fault in the warp scheduler would."""

    launch_index = 0
    cycle = 0
    persistent = False

    def __init__(self, sm, value):
        self.sm = sm
        self.value = value
        self.fired = False

    def fire(self, gpu):
        self.fired = True
        gpu.sms[self.sm].scheduler_cursor = self.value


def test_stale_scheduler_cursor_is_simulated(gv100):
    """A cursor fault on an SM that hosts no CTA in its launch survives
    into the next launch and reorders that launch's warps there."""
    ctas = 8  # enough for the second launch to reach SM 1

    def race(gpu):
        out = gpu.malloc(4 * ctas)
        gpu.launch(RACE, (1, 1), (32, 1), [out])  # SM 0 only
        gpu.launch(RACE, (ctas, 1), (128, 1), [out])
        return gpu.memcpy_dtoh(out)

    golden = GPU(gv100)
    recorder = golden.tracer = GoldenRecorder()
    want = race(golden)
    memo = tuple(recorder.checkpoints)
    runs = []
    for replay in (memo, ()):
        trial = GPU(gv100)
        trial.replay = replay
        trial.uarch_injector = MicroarchInjector(_CursorPlan(1, 1))
        out = race(trial)
        assert trial.uarch_injector.plan.fired
        runs.append((out, _stats(trial), state_digest(trial),
                     [r.replayed for r in trial.launch_records]))
        trial.uarch_injector = None
        trial.reset()
        assert [sm.scheduler_cursor for sm in trial.sms] == [0] * len(trial.sms)
    (out, stats, digest, replayed), without = runs
    assert not np.array_equal(out, want)  # the fault reached memory
    assert np.array_equal(out, without[0])
    assert (stats, digest) == without[1:3]
    assert replayed == [False, False]


# -------------------------------------------------------- reset and memory

def test_reset_returns_to_a_fresh_gpu(gv100):
    gpu = GPU(gv100)
    plan = MicroarchFaultPlan(launch_index=0, cycle=40, structure=Structure.L2,
                              seed=3)
    gpu.uarch_injector = MicroarchInjector(plan)
    _pipeline(gpu)
    gpu.l2.flip_bit(gpu.l2.total_bits - 1)  # an invalid line, too
    gpu.sms[-1].scheduler_cursor = 3  # a stale cursor on an idle SM
    assert plan.fired
    gpu.uarch_injector = None
    gpu.reset()
    fresh = GPU(gv100)

    def arrays(g):
        caches = [g.l2] + [c for sm in g.sms for c in (sm.l1d, sm.l1t)]
        out = [g.mem.data, g.mem.written_end, g.mem.heap_end, g._warp_uid]
        for c in caches:
            out += [c.data, c.tags, c.valid, c.dirty, c.lru, c.fill_done,
                    c._lru_clock, c.stats]
        for sm in g.sms:
            out += [sm.rf._next_uid, sm.rf.allocated_regs,
                    sm.smem._next_uid, sm.smem.allocated_bytes, sm._rr]
        return out

    for got, want in zip(arrays(gpu), arrays(fresh), strict=True):
        if isinstance(want, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


def test_memory_reset_covers_straddling_writebacks():
    mem = GlobalMemory(1 << 16)
    addr = mem.alloc(8)
    mem.write_bytes(addr, np.full(8, 7, dtype=np.uint8))
    line = np.full(512, 0xFF, dtype=np.uint8)  # a corrupted line past the heap
    mem.write_line(addr, line)
    assert mem.written_end == addr + 512 > mem.heap_end
    mem.reset()
    assert np.array_equal(mem.data, GlobalMemory(1 << 16).data)
    assert mem.written_end == 0
