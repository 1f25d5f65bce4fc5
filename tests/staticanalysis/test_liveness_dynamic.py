"""Property: static liveness soundly over-approximates the dynamic trace.

Hypothesis generates small programs (straight-line arithmetic, predicated
instructions, forward branches) and runs them through the simulator with a
tracer attached. For every lane we replay its executed-instruction sequence
backwards, computing the *dynamic* live-in set at each executed instruction
— the registers/predicates whose current value that lane still reads later.
May-liveness must contain every dynamically live variable: a miss would mean
the analysis can claim a register "dead" while a fault in it still matters,
which is exactly the error the AVF estimator cannot afford.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arch.config import quadro_gv100_like
from repro.isa import assemble
from repro.sim import GPU
from repro.sim.gpu import Tracer
from repro.staticanalysis import instr_defs, instr_uses, liveness


class LaneTracer(Tracer):
    """Collects ``(instr_index, instr, guard_mask)`` issue events."""

    def __init__(self):
        self.events = []

    def record(self, now, instr_index, instr, warp, gm) -> None:
        self.events.append((instr_index, instr, gm.copy()))


@st.composite
def programs(draw):
    """A small kernel: labels on every line, forward branches only."""
    n = draw(st.integers(min_value=2, max_value=10))
    guards = st.sampled_from(["", "@P0 ", "@!P0 ", "@P1 ", "@!P1 "])
    regs = st.integers(min_value=0, max_value=3)
    lines = []
    for i in range(n):
        guard = draw(guards)
        kind = draw(st.sampled_from(["mov", "iadd", "isetp", "s2r", "bra"]))
        if kind == "mov":
            body = f"MOV R{draw(regs)}, 0x{draw(st.integers(0, 15)):x}"
        elif kind == "iadd":
            body = f"IADD R{draw(regs)}, R{draw(regs)}, R{draw(regs)}"
        elif kind == "isetp":
            op = draw(st.sampled_from(["LT", "GE"]))
            body = (f"ISETP.{op} P{draw(st.integers(0, 1))}, "
                    f"R{draw(regs)}, 0x{draw(st.integers(0, 15)):x}")
        elif kind == "s2r":
            body = f"S2R R{draw(regs)}, SR_TID.X"
        else:
            body = f"BRA L{draw(st.integers(i + 1, n))}"
        lines.append(f"L{i}:")
        lines.append(f"    {guard}{body}")
    lines.append(f"L{n}:")
    lines.append("    EXIT")
    return assemble("\n".join(lines), name="prop_kernel")


@settings(max_examples=40, deadline=None)
@given(programs())
def test_dynamic_live_subset_of_static(program):
    gpu = GPU(quadro_gv100_like())
    tracer = LaneTracer()
    gpu.tracer = tracer
    gpu.launch(program, (1, 1), (32, 1), [])
    static = liveness(program)

    lanes = range(len(tracer.events[0][2])) if tracer.events else ()
    for lane in lanes:
        # The lane's executed instructions, oldest first (single warp, and
        # a guard-false lane neither reads nor writes).
        executed = [(idx, instr) for idx, instr, gm in tracer.events
                    if gm[lane]]
        live: set[int] = set()
        for idx, instr in reversed(executed):
            # This execution surely wrote its dests (guard was true), so
            # the values live *into* it exclude them — then its reads.
            live -= set(instr_defs(instr))
            live |= set(instr_uses(instr))
            missing = live - set(static.live_in[idx])
            assert not missing, (
                f"dynamically live {sorted(missing)} not in static "
                f"live_in[{idx}] for lane {lane}:\n{program.render()}"
            )


@settings(max_examples=40, deadline=None)
@given(programs())
def test_defs_uses_match_trace_effects(program):
    """Executed instructions only touch what instr_defs/instr_uses declare."""
    gpu = GPU(quadro_gv100_like())
    tracer = LaneTracer()
    gpu.tracer = tracer
    gpu.launch(program, (1, 1), (32, 1), [])
    for idx, instr, gm in tracer.events:
        assert set(instr.source_registers()) <= set(instr_uses(instr))
        assert set(instr.dest_registers()) <= set(instr_defs(instr))
