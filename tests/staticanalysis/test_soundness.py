"""Soundness of the abstract interpreter: dynamic ⊆ static.

Every concrete per-lane LD/ST/LDS/STS address observed in a fault-free
simulator trace must be contained in the abstract interpreter's value set
for that instruction under the matching launch context.  This is the
load-bearing property of the whole static race/OOB layer: a containment
failure means the linter could silently miss a real defect.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like
from repro.isa.instruction import RZ, SpecialReg
from repro.kernels.registry import all_applications, get_application
from repro.sim.gpu import GPU, Tracer
from repro.staticanalysis.absint import analyze
from repro.staticanalysis.launches import RecordingHarness

_SYM_SPECIALS = (
    ("tid.x", SpecialReg.TID_X), ("tid.y", SpecialReg.TID_Y),
    ("tid.z", SpecialReg.TID_Z), ("ctaid.x", SpecialReg.CTAID_X),
    ("ctaid.y", SpecialReg.CTAID_Y), ("ctaid.z", SpecialReg.CTAID_Z),
)


class AddressTracer(Tracer):
    """Checks every dynamic lane address against the static value sets.

    ``record`` fires *after* each instruction executes, so a per-warp
    shadow copy of the register bank (updated at the end of each record)
    supplies the pre-execution source values; registers start zeroed, so a
    missing shadow entry means "all zeros".
    """

    def __init__(self):
        self.interp = None
        self._shadow: dict[int, np.ndarray] = {}
        self.checked = 0
        self.failures: list[str] = []

    def arm(self, program, ctx):
        self.interp = analyze(program, ctx)
        self._shadow.clear()

    def record(self, now, cur, instr, warp, gm):
        pre = self._shadow.get(warp.uid)
        if instr.info.is_memory and gm is not None and gm.any() \
                and len(self.failures) < 5:
            src = instr.src_a.value
            specials = warp.specials
            for lane in np.flatnonzero(gm):
                lane = int(lane)
                raw = 0 if src == RZ else (
                    0 if pre is None else int(pre[src, lane]))
                addr = (raw + instr.mem_offset) & 0xFFFFFFFF
                env = {sym: int(specials[sp][lane])
                       for sym, sp in _SYM_SPECIALS}
                self.checked += 1
                if not self.interp.contains(cur, addr, env):
                    self.failures.append(
                        f"{self.interp.program.name}:{cur} lane={lane} "
                        f"addr={addr} env={env}")
        self._shadow[warp.uid] = warp.bank.regs.copy()


def _check_app(app) -> tuple[int, list[str]]:
    tracer = AddressTracer()

    def on_launch(gpu, program, ctx):
        tracer.arm(program, ctx)
        gpu.tracer = tracer

    cfg = quadro_gv100_like()
    harness = RecordingHarness(warp_size=cfg.warp_size, on_launch=on_launch)
    gpu = GPU(cfg)
    app.run(gpu, harness)
    harness.finalize(gpu)
    return tracer.checked, tracer.failures


@pytest.mark.parametrize("app", all_applications(2024), ids=lambda a: a.name)
def test_dynamic_addresses_contained(app):
    checked, failures = _check_app(app)
    assert checked > 0, f"{app.name}: trace produced no memory accesses"
    assert not failures, (
        f"{app.name}: {len(failures)} dynamic address(es) escaped the "
        f"static value sets:\n" + "\n".join(failures))


@settings(max_examples=4, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=2**16),
       name=st.sampled_from(["va", "bfs", "pathfinder"]))
def test_dynamic_addresses_contained_random_seed(seed, name):
    """Containment is seed-independent (data-dependent control included)."""
    checked, failures = _check_app(get_application(name, seed=seed))
    assert checked > 0
    assert not failures, "\n".join(failures)
