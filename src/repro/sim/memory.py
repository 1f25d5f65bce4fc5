"""Simulated device (DRAM) memory with a bump allocator and bounds checking.

Addresses are 32-bit byte addresses into a single flat device address space.
Accesses outside the allocated heap, or not 4-byte aligned, raise
:class:`~repro.errors.IllegalMemoryAccess` — the mechanism by which injected
faults that corrupt pointers/indices become DUE outcomes, mirroring the
"illegal memory access" kernel aborts of real GPUs.

A null guard region at the bottom of the address space ensures that a
zeroed/corrupted pointer faults instead of silently reading address 0.

Every write raises a *write high-water mark*: bytes at or above it are
still zero, so :meth:`GlobalMemory.reset` clears only the written prefix
and the golden-launch replay key (:mod:`repro.sim.replay`) hashes only it.
"""

from __future__ import annotations

import mmap

import numpy as np

from repro.errors import IllegalMemoryAccess, LaunchError

#: Bottom of the allocatable heap; accesses below this always fault.
HEAP_BASE = 4096
#: Allocation alignment (bytes).
ALLOC_ALIGN = 256


class GlobalMemory:
    """Flat device memory: one uint8 array, an allocation watermark and a
    write high-water mark (every byte at or above ``written_end`` is 0)."""

    def __init__(self, size_bytes: int):
        if size_bytes <= HEAP_BASE:
            raise LaunchError(f"device memory too small ({size_bytes} bytes)")
        self.size = size_bytes
        # An anonymous mapping, not np.zeros: its pages cost memory only
        # once touched and go back to the OS when the GPU is freed. A
        # malloc'd block can come from the heap instead (glibc raises its
        # mmap threshold after freeing a block this size), where calloc
        # writes zeros over all of it, so each GPU awaiting garbage
        # collection held its whole backing store resident.
        self.data = np.frombuffer(mmap.mmap(-1, size_bytes), dtype=np.uint8)
        self._next = HEAP_BASE
        self.written_end = 0

    # ------------------------------------------------------------------ #
    # Allocation
    # ------------------------------------------------------------------ #
    def alloc(self, nbytes: int) -> int:
        """Allocate ``nbytes`` and return the base address."""
        if nbytes <= 0:
            raise LaunchError("allocation size must be positive")
        base = self._next
        padded = (nbytes + ALLOC_ALIGN - 1) // ALLOC_ALIGN * ALLOC_ALIGN
        if base + padded > self.size:
            raise LaunchError(
                f"device out of memory: need {padded} bytes at 0x{base:x}, "
                f"capacity {self.size}"
            )
        self._next = base + padded
        return base

    def reset(self) -> None:
        """Free everything (used between independent application runs)."""
        self._next = HEAP_BASE
        self.data[: self.written_end] = 0
        self.written_end = 0

    @property
    def heap_end(self) -> int:
        return self._next

    # ------------------------------------------------------------------ #
    # Validity checking (vectorised over a warp's lane addresses)
    # ------------------------------------------------------------------ #
    def check_word_addresses(self, addrs: np.ndarray) -> None:
        """Validate lane addresses for 4-byte accesses; raise on the first bad one."""
        bad = (addrs < HEAP_BASE) | (addrs + 4 > self._next) | (addrs & 3 != 0)
        if bad.any():
            idx = int(np.argmax(bad))
            addr = int(addrs[idx])
            if addr & 3:
                raise IllegalMemoryAccess(addr, 4, "misaligned")
            raise IllegalMemoryAccess(addr, 4)

    # ------------------------------------------------------------------ #
    # Host-side raw access (bypasses caches; callers flush/invalidate)
    # ------------------------------------------------------------------ #
    def write_bytes(self, addr: int, payload: np.ndarray) -> None:
        payload = np.ascontiguousarray(payload).view(np.uint8).reshape(-1)
        if addr < HEAP_BASE or addr + payload.size > self._next:
            raise IllegalMemoryAccess(addr, payload.size, "host write out of bounds")
        self.data[addr : addr + payload.size] = payload
        self.written_end = max(self.written_end, addr + payload.size)

    def read_bytes(self, addr: int, nbytes: int) -> np.ndarray:
        if addr < HEAP_BASE or addr + nbytes > self._next:
            raise IllegalMemoryAccess(addr, nbytes, "host read out of bounds")
        return self.data[addr : addr + nbytes].copy()

    def read_line(self, line_addr: int, line_bytes: int) -> np.ndarray:
        """Fetch one cache line; out-of-heap tails read as zeros (no fault).

        A line fill may straddle the heap watermark when a buffer ends
        mid-line; the hardware would happily fetch it, so no error here.
        Word-access validity is enforced separately per lane address.
        """
        end = min(line_addr + line_bytes, self.size)
        out = np.zeros(line_bytes, dtype=np.uint8)
        if line_addr < self.size:
            out[: end - line_addr] = self.data[line_addr:end]
        return out

    def write_line(self, line_addr: int, payload: np.ndarray) -> None:
        """Write back one (possibly corrupted) line, clipped to device size.

        The line may straddle the heap watermark, so its whole span (not
        just the heap part) raises the write high-water mark.
        """
        end = min(line_addr + payload.size, self.size)
        if line_addr < self.size:
            self.data[line_addr:end] = payload[: end - line_addr]
            self.written_end = max(self.written_end, end)
