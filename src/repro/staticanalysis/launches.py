"""Concrete launch contexts for the abstract interpreter.

The value-set interpreter (:mod:`repro.staticanalysis.absint`) is symbolic in
``tid``/``ctaid`` but needs the *launch* half of the picture — grid/block
geometry, the kernel-parameter constant bank, declared buffer extents, and
the shared-memory window size — to resolve constant-bank reads and check
out-of-bounds accesses. This module captures those by running each
application once, fault-free, under a recording :class:`DeviceHarness` that
observes every ``launch()`` call *before* parameter encoding (so live
:class:`~repro.sim.gpu.Buffer` objects are still visible and their extents
can be recorded).

A kernel may be launched many times with different geometry/parameters (nw's
wavefronts, pathfinder's pyramid steps); duplicate contexts are collapsed so
analysis cost scales with distinct launch shapes, not launch counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.arch.config import GPUConfig, quadro_gv100_like
from repro.kernels.base import DeviceHarness
from repro.sim.gpu import GPU, Buffer, _encode_param


@dataclass(frozen=True)
class LaunchContext:
    """One distinct (kernel, geometry, parameters) launch shape."""

    kernel: str
    grid: tuple[int, int]
    block: tuple[int, int]
    #: Encoded kernel parameters, one uint32 per c[0x0][slot] word.
    const_bank: tuple[int, ...]
    #: Declared global-buffer extents: (base address, size in bytes).
    buffers: tuple[tuple[int, int], ...] = ()
    smem_bytes: int = 0
    warp_size: int = 32

    @property
    def nctas(self) -> int:
        gx, gy = self.grid
        return gx * gy


class RecordingHarness(DeviceHarness):
    """Pass-through harness that records every launch's context.

    ``on_launch(gpu, program, ctx)``, when given, fires before each launch —
    the soundness tests use it to arm a dynamic-address tracer against the
    abstract interpretation of the same context.
    """

    def __init__(self, warp_size: int = 32, on_launch=None):
        self.contexts: list[LaunchContext] = []
        self._seen: set[LaunchContext] = set()
        self._warp_size = warp_size
        self._on_launch = on_launch

    def launch(self, gpu, program, grid, block, params=(), smem_bytes=0,
               name=None, outputs=()):
        encoded = tuple(_encode_param(p) for p in params)
        bufs = tuple(
            (p.addr, p.nbytes) for p in params if isinstance(p, Buffer)
        )
        ctx = LaunchContext(
            kernel=name or program.name,
            grid=tuple(grid),
            block=tuple(block),
            const_bank=encoded,
            buffers=bufs,
            smem_bytes=smem_bytes,
            warp_size=self._warp_size,
        )
        if ctx not in self._seen:
            self._seen.add(ctx)
            self.contexts.append(ctx)
        if self._on_launch is not None:
            self._on_launch(gpu, program, ctx)
        return super().launch(gpu, program, grid, block, params, smem_bytes,
                              name, outputs)


@dataclass
class _Cache:
    by_app: dict[tuple[str, int], tuple[LaunchContext, ...]] = field(
        default_factory=dict)


_CACHE = _Cache()


def capture_launch_contexts(app, config: GPUConfig | None = None,
                            ) -> tuple[LaunchContext, ...]:
    """All distinct launch contexts of one application (fault-free run)."""
    key = (app.name, app.seed)
    hit = _CACHE.by_app.get(key)
    if hit is not None:
        return hit
    cfg = config or quadro_gv100_like()
    harness = RecordingHarness(warp_size=cfg.warp_size)
    gpu = GPU(cfg)
    app.run(gpu, harness)
    harness.finalize(gpu)
    out = tuple(harness.contexts)
    _CACHE.by_app[key] = out
    return out


def suite_launch_contexts(seed: int = 2024,
                          ) -> dict[tuple[str, str], tuple[LaunchContext, ...]]:
    """Launch contexts for every (app, kernel) pair in the suite."""
    from repro.kernels.registry import all_applications

    out: dict[tuple[str, str], tuple[LaunchContext, ...]] = {}
    for app in all_applications(seed, suite="all"):
        ctxs = capture_launch_contexts(app)
        for kernel in app.kernel_names:
            out[(app.name, kernel)] = tuple(
                c for c in ctxs if c.kernel == kernel)
    return out


def kernel_launch_contexts(app_name: str, kernel: str, seed: int = 2024,
                           ) -> tuple[LaunchContext, ...]:
    """Launch contexts of one kernel (captures the owning app on demand)."""
    from repro.kernels.registry import get_application

    app = get_application(app_name, seed)
    ctxs = capture_launch_contexts(app)
    return tuple(c for c in ctxs if c.kernel == kernel)
