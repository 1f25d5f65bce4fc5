"""Register read/write sets match the executor.

The dead-fault oracle (:mod:`repro.fi.liveness`) decides from
``Instruction.source_registers()`` / ``dest_registers()`` and the guard
mask alone whether an issue reads or overwrites a register lane. This
checks those sets against what the compiled closures actually do, for
every static instruction of the 29 suite kernels and the hardening
schemes' programs: registers outside the sources, and source lanes off
the guard mask, never influence a result; only the destination rows
change, only on guard-mask lanes, and a write replaces the whole word.
"""

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like
from repro.hardening import abft, dmr, tmr
from repro.isa.instruction import PT, RZ, OperandKind
from repro.kernels.registry import kernel_programs
from repro.sim.executor import K_ALU, K_MEM, CompiledKernel
from repro.sim.gpu import GPU
from repro.sim.warp import CTA

CONFIG = quadro_gv100_like()
BUF_BYTES = 4096
SMEM_BYTES = 4096
#: Word-aligned byte offset every valid test address points near.
BASE = 1024


def _programs():
    programs = {p.name: p for p in kernel_programs().values()}
    for p in (tmr.VOTE_PROGRAM, dmr.CMP_PROGRAM, abft.SUM_PROGRAM,
              abft.ROW_PROGRAM, abft.COL_PROGRAM, abft.FIX_PROGRAM):
        programs[p.name] = p
    return [programs[name] for name in sorted(programs)]


PROGRAMS = _programs()


class _Env:
    """One warp of one CTA resident on a fresh device, ready to execute
    single compiled instructions of ``program``."""

    def __init__(self, program):
        self.gpu = GPU(CONFIG)
        self.regs = max(program.num_regs, 1)
        self.buf_addr = self.gpu.malloc(BUF_BYTES).addr
        self.kernel = CompiledKernel(
            program, np.full(256, self.buf_addr + BASE, dtype=np.uint32),
            CONFIG)

    def run(self, pc, regs, preds, gm):
        """Execute instruction ``pc`` from the given register file and
        predicates; returns the registers, predicates, global bytes and
        shared bytes afterwards."""
        gpu = self.gpu
        gpu.reset()
        buf = gpu.malloc(BUF_BYTES)
        assert buf.addr == self.buf_addr
        gpu.mem.write_bytes(buf.addr, np.arange(BUF_BYTES, dtype=np.uint8))
        gpu.kernel = self.kernel
        cta = CTA((0, 0, 0), (1, 1, 1), (32, 1, 1))
        sm = gpu.sms[0]
        sm.host_cta(cta, self.regs, SMEM_BYTES)
        cta.smem.data[:] = np.arange(SMEM_BYTES, dtype=np.uint8)[::-1]
        warp = cta.warps[0]
        warp.bank.regs[:] = regs
        warp.preds[:] = preds
        self.kernel.entries[pc][2](sm, warp, gm)
        out = (warp.bank.regs.copy(), warp.preds.copy(),
               gpu.memcpy_dtoh(buf, np.uint8), cta.smem.data.copy())
        sm.retire_cta(cta)
        return out


def _address_row(instr, buf_addr):
    """Lane addresses (shared offsets for SMEM) that keep the access of
    every lane in bounds, as the address register must hold them."""
    target = (0 if instr.info.is_shared else buf_addr) + BASE
    words = np.arange(32, dtype=np.int64) * 4
    return ((target + words - instr.mem_offset) & 0xFFFFFFFF).astype(
        np.uint32)


@pytest.mark.parametrize("program", PROGRAMS, ids=lambda p: p.name)
def test_read_and_write_sets_match_the_executor(program):
    env = _Env(program)
    rng = np.random.default_rng(len(program))
    shape = (env.regs, 32)
    checked = 0
    for pc, instr in enumerate(program):
        if env.kernel.entries[pc][1] not in (K_ALU, K_MEM):
            continue  # branches, barriers, EXIT, NOP touch no register
        sources = instr.source_registers()
        dests = instr.dest_registers()
        gm = rng.random(32) < 0.6
        gm[rng.integers(32)] = True
        gm[rng.integers(32)] = False
        regs = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
        preds = rng.random((8, 32)) < 0.5
        preds[PT] = True
        base = instr.src_a
        if (instr.info.is_memory and base.kind == OperandKind.REG
                and base.value != RZ):
            regs[base.value] = _address_row(instr, env.buf_addr)
        reg_a, pred_a, mem_a, smem_a = env.run(pc, regs, preds, gm)

        # Re-draw every register the instruction does not read, and every
        # source lane off the guard mask.
        other = regs.copy()
        fresh = rng.integers(0, 2**32, size=shape, dtype=np.uint32)
        keep = np.zeros(shape, dtype=bool)
        for r in sources:
            keep[r] = gm
        other[~keep] = fresh[~keep]
        reg_b, pred_b, mem_b, smem_b = env.run(pc, other, preds, gm)

        written = np.zeros(shape, dtype=bool)
        for r in dests:
            written[r] = gm
        where = f"{program.name}[{pc}] {instr.render()}"
        assert not ((reg_a != regs) & ~written).any(), \
            f"{where} writes outside its destination lanes"
        assert not ((reg_b != other) & ~written).any(), \
            f"{where} writes outside its destination lanes"
        assert np.array_equal(reg_a[written], reg_b[written]), \
            f"{where} reads a register lane outside its sources"
        assert np.array_equal(pred_a, pred_b), \
            f"{where} sets predicates from a non-source register lane"
        assert np.array_equal(mem_a, mem_b), \
            f"{where} stores a non-source register lane"
        assert np.array_equal(smem_a, smem_b), \
            f"{where} stores a non-source register lane to shared memory"
        checked += 1
    assert checked
