import pytest

from repro.analysis.reuse import (
    RegisterReuseAnalyzer,
    affected_instructions,
    reads_per_write,
)
from repro.arch.config import quadro_gv100_like
from repro.isa import assemble
from repro.kernels import application_names, get_application
from repro.sim import GPU
from repro.sim.access_log import GoldenRecorder


def test_affected_instructions_until_rewrite():
    prog = assemble(
        """
        MOV R1, 0x1      # 0: write R1
        IADD R2, R1, R1  # 1: reads R1
        IADD R3, R1, 0x2 # 2: reads R1
        MOV R1, 0x5      # 3: rewrites R1 (stop)
        IADD R4, R1, R3  # 4: reads the NEW R1 -> not affected
        EXIT
    """
    )
    assert affected_instructions(prog, 0, 1) == [1, 2]


def test_affected_instructions_stop_at_branch():
    prog = assemble(
        """
        MOV R1, 0x1
        BRA end
        IADD R2, R1, R1
    end:
        EXIT
    """
    )
    assert affected_instructions(prog, 0, 1) == []


def test_trace_recorder_counts_reads():
    prog = assemble(
        """
        S2R R0, SR_TID.X
        IADD R1, R0, 0x1
        IADD R2, R1, R1
        IADD R3, R1, 0x2
        SHL R4, R0, 0x2
        IADD R4, R4, c[0x0][0x0]
        ST [R4], R3
        EXIT
    """,
        name="t",
    )
    gpu = GPU(quadro_gv100_like())
    recorder = gpu.tracer = GoldenRecorder()
    out = gpu.malloc(4 * 32)
    gpu.launch(prog, (1, 1), (32, 1), [out])
    counts = reads_per_write(recorder.launches)
    # Instruction 1 writes R1, read by instructions 2 and 3 -> 2 reads.
    assert counts[1] == [2]
    # R4 written by 4 is read by 5 (which rewrites it); 5's value by 6.
    assert counts[4] == [1] and counts[5] == [1]


def test_reads_per_write_skips_guard_false_issues_and_reads_first():
    prog = assemble(
        """
        MOV R1, 0x1         # 0: write R1
        ISETP.LT P0, R1, 0x0  # 1: reads R1, P0 = false on every lane
        @P0 MOV R1, 0x2     # 2: guard-false: neither reads nor writes
        IADD R1, R1, 0x3    # 3: reads the value of 0, then rewrites R1
        IADD R3, R2, 0x1    # 4: reads R2, which nothing wrote
        EXIT
    """,
        name="t",
    )
    gpu = GPU(quadro_gv100_like())
    recorder = gpu.tracer = GoldenRecorder()
    gpu.launch(prog, (1, 1), (64, 1), [])
    # Two warps, keyed per warp: 0's values are read twice (1 and 3);
    # 3's and 4's values are flushed unread at the end, and the read of
    # the never-written R2 counts for no value.
    assert reads_per_write(recorder.launches) == {0: [2, 2], 3: [0, 0],
                                                  4: [0, 0]}


def test_analyzer_over_application():
    analyzer = RegisterReuseAnalyzer(quadro_gv100_like())
    report = analyzer.analyze(get_application("va"))
    assert report.mean_reads_per_write > 0
    assert 0.0 <= report.fraction_multi_read <= 1.0
    assert 0.0 <= report.fraction_dead_write <= 1.0
    assert report.per_instruction


def _per_issue_reference(launches):
    """reads_per_write as one dictionary update per logged issue."""
    last_write, out = {}, {}
    for log in launches:
        for warp, pc, mask in zip(log.warp, log.pc, log.mask):
            if not mask.any():
                continue
            instr = log.program[int(pc)]
            for reg in instr.source_registers():
                if (int(warp), reg) in last_write:
                    last_write[int(warp), reg][1] += 1
            for reg in instr.dest_registers():
                prev = last_write.get((int(warp), reg))
                if prev is not None:
                    out.setdefault(prev[0], []).append(prev[1])
                last_write[int(warp), reg] = [int(pc), 0]
    for pc, reads in last_write.values():
        out.setdefault(pc, []).append(reads)
    return out


@pytest.mark.parametrize("app", application_names("nn"))
def test_counts_match_a_per_issue_reference(app):
    gpu = GPU(quadro_gv100_like())
    recorder = gpu.tracer = GoldenRecorder()
    get_application(app).run(gpu)
    want = _per_issue_reference(recorder.launches)
    assert want
    got = reads_per_write(recorder.launches)
    assert got.keys() == want.keys()
    for pc, counts in want.items():
        assert sorted(got[pc]) == sorted(counts), pc


# Every ReuseReport of the paper suite on quadro_gv100_like(), as the
# per-issue dynamic tracer computed them before the analyzer read the
# golden access log: (mean reads/write, multi-read share, dead-write
# share, per-instruction mean reads).
PINNED = {
    "backprop": (
        1.6625, 0.25, 0.0,
        {0: 5.5, 1: 2.0, 2: 1.5, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.0, 7: 1.0,
         8: 1.0, 9: 1.0, 10: 1.0, 11: 1.0, 12: 1.5, 13: 1.0, 14: 1.5, 15: 9.5,
         16: 1.0, 17: 1.0, 18: 2.5, 19: 2.0, 20: 1.0, 21: 1.0, 22: 1.0,
         23: 1.0, 24: 1.0, 26: 2.0, 27: 3.1666666666666665, 28: 1.0, 29: 1.0,
         30: 2.0, 31: 2.0, 32: 1.0, 33: 1.0, 34: 1.0}),
    "bfs": (
        1.4953886693017129, 0.2318840579710145, 0.0013175230566534915,
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0, 6: 3.0, 7: 1.7916666666666667, 8: 1.0,
         11: 3.0, 12: 1.0, 13: 1.0, 14: 2.4210526315789473, 15: 1.0, 16: 4.0,
         17: 1.0, 18: 1.0, 19: 6.2, 22: 1.0, 23: 1.0, 24: 1.0,
         25: 2.423076923076923, 26: 1.0, 27: 1.0, 29: 1.0, 31: 1.0, 32: 1.0,
         34: 2.6153846153846154}),
    "hotspot": (
        1.3818181818181818, 0.18181818181818182, 0.1,
        {0: 4.0, 1: 4.0, 2: 1.0, 3: 1.0, 4: 2.0, 5: 3.0, 6: 1.0, 7: 3.0,
         8: 1.0, 9: 3.0, 10: 2.5, 11: 8.0, 12: 1.0, 13: 1.0, 14: 1.0, 15: 5.0,
         18: 0.0, 20: 1.0, 21: 0.75, 25: 1.0, 26: 1.0, 27: 1.0, 28: 1.0,
         29: 0.0, 30: 1.0, 31: 1.0, 33: 1.0, 34: 0.75, 35: 1.0, 36: 1.0,
         40: 1.0, 41: 1.0, 42: 1.0, 43: 1.0, 44: 0.0, 46: 1.0, 47: 0.5,
         51: 1.0, 52: 1.0, 53: 0.0, 54: 1.0, 55: 1.0, 57: 1.0, 58: 0.5,
         59: 1.0, 60: 1.0, 64: 1.0, 65: 1.0, 66: 1.0, 67: 2.0, 68: 1.0,
         69: 1.0, 70: 1.0, 71: 1.0, 72: 1.0, 73: 1.0, 74: 1.0, 75: 1.0,
         76: 1.0, 77: 1.0, 78: 1.0, 79: 1.0, 80: 1.0}),
    "kmeans": (
        1.36, 0.10666666666666667, 0.017777777777777778,
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 11.5, 6: 1.5, 7: 1.0, 8: 2.0, 9: 1.0,
         10: 1.8571428571428572, 11: 1.0, 12: 1.0, 13: 1.0, 14: 1.0, 15: 1.0,
         16: 1.0, 17: 1.5625, 18: 1.0, 19: 1.0, 20: 1.0, 21: 1.0, 22: 1.25,
         23: 3.25, 27: 0.6666666666666666, 28: 0.3333333333333333, 29: 5.0,
         32: 1.0, 33: 1.0}),
    "lud": (
        1.677346570397112, 0.22111913357400723, 0.0,
        {0: 23.2, 1: 5.0, 2: 1.6, 3: 1.8, 4: 1.4, 5: 1.4, 6: 2.0, 7: 32.4,
         8: 9.0, 9: 1.5, 10: 1.8421052631578947, 11: 1.0526315789473684,
         12: 1.105263157894737, 13: 1.0, 14: 3.3333333333333335,
         15: 3.263157894736842, 16: 1.3333333333333333, 17: 1.8, 18: 1.0,
         19: 3.0, 20: 1.0, 21: 1.0, 22: 1.5833333333333333, 23: 1.0, 24: 1.0,
         25: 1.0, 26: 1.0, 27: 2.235294117647059, 28: 1.0588235294117647,
         29: 3.909090909090909, 30: 1.0, 31: 2.1666666666666665, 32: 1.0,
         33: 1.0, 34: 1.0344827586206897, 35: 1.2121212121212122,
         36: 1.0689655172413792, 37: 1.7777777777777777, 38: 1.0, 39: 1.0,
         40: 1.0, 41: 2.7260273972602738, 42: 1.0, 43: 1.411764705882353,
         44: 1.411764705882353, 45: 4.32258064516129, 46: 3.0833333333333335,
         47: 1.0, 48: 1.2, 49: 1.6666666666666667, 50: 1.0, 51: 1.0,
         52: 1.5833333333333333, 54: 2.75, 58: 4.0, 59: 3.0, 60: 1.0, 61: 1.0,
         62: 1.0, 63: 1.0, 64: 1.0, 65: 1.0, 66: 1.0, 67: 1.0, 68: 1.0,
         69: 1.0, 70: 2.0, 71: 1.0, 72: 1.0, 74: 3.25, 77: 13.428571428571429,
         81: 4.0, 82: 3.625, 85: 1.0, 86: 1.0, 87: 1.0, 88: 1.0, 89: 1.0,
         90: 1.0, 91: 1.0, 92: 1.0, 93: 1.0, 94: 1.0, 95: 2.0, 96: 1.0,
         97: 1.0, 99: 3.25, 101: 1.0, 102: 1.0, 103: 1.0, 104: 1.0, 105: 1.0,
         106: 1.0, 107: 2.0, 108: 1.0, 109: 1.0, 111: 15.0, 117: 1.0, 118: 1.0,
         119: 1.0, 120: 1.0, 121: 8.0, 122: 8.0, 123: 2.0, 124: 2.0, 125: 1.0,
         126: 1.0, 127: 1.0, 128: 1.0, 130: 2.75, 134: 1.0, 135: 1.0, 136: 1.0,
         137: 1.0, 138: 8.0, 139: 8.0, 140: 2.0, 141: 2.0, 142: 1.0, 143: 1.0,
         144: 1.0, 145: 1.0, 147: 2.75}),
    "nw": (
        1.505703422053232, 0.15779467680608364, 0.0,
        {0: 57.0, 1: 2.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 3.0, 7: 1.0,
         8: 18.0, 9: 1.0, 10: 2.0, 11: 17.0, 12: 1.0, 13: 1.0, 14: 1.0,
         15: 1.0, 16: 10.0, 17: 1.0, 20: 1.0, 21: 1.0, 22: 1.0, 23: 1.0,
         24: 1.0, 26: 1.0, 27: 1.0, 28: 1.0, 29: 1.0, 30: 1.0, 31: 1.0,
         32: 1.0, 33: 1.0, 34: 1.0, 36: 3.0, 37: 1.0, 38: 1.0, 39: 1.0,
         40: 1.0, 41: 1.0, 42: 1.0, 43: 1.0, 44: 1.0, 45: 1.0, 46: 1.0,
         48: 3.625, 52: 3.0, 55: 1.0, 56: 2.0, 57: 2.0, 58: 1.0, 59: 4.0,
         60: 1.0, 61: 1.0, 62: 1.0, 63: 1.0, 64: 1.0, 65: 1.0, 66: 1.0,
         67: 1.0, 68: 1.0, 69: 1.0, 70: 1.0, 71: 1.0, 72: 1.0, 73: 1.0,
         74: 1.0, 77: 3.625, 80: 3.0, 83: 1.0, 84: 2.0, 85: 1.0, 86: 2.0,
         87: 1.0, 88: 4.0, 89: 1.0, 90: 1.0, 91: 1.0, 92: 1.0, 93: 1.0,
         94: 1.0, 95: 1.0, 96: 1.0, 97: 1.0, 98: 1.0, 99: 1.0, 100: 1.0,
         101: 1.0, 102: 1.0, 103: 1.0, 106: 3.5714285714285716, 109: 3.0,
         110: 1.0, 111: 1.0, 112: 1.0, 113: 1.0, 114: 1.0, 115: 1.0, 116: 1.0,
         117: 1.0, 118: 1.0, 120: 3.625}),
    "pathfinder": (
        1.425357873210634, 0.1390593047034765, 0.014314928425357873,
        {0: 8.375, 1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 6.5, 6: 1.0, 7: 1.0,
         8: 2.75, 9: 2.75, 10: 1.0, 11: 1.0, 12: 1.0, 13: 7.25, 16: 2.0,
         17: 1.0, 18: 1.0, 19: 1.0, 20: 1.0, 21: 1.0, 22: 1.0, 23: 1.0,
         24: 1.0, 25: 0.75, 27: 1.0, 28: 1.0, 29: 1.0, 30: 0.75, 32: 1.0,
         33: 1.0, 34: 1.0, 35: 1.0, 36: 1.0, 37: 1.0, 38: 1.0, 39: 1.0,
         40: 1.0, 41: 2.0, 44: 1.0, 47: 1.8571428571428572, 51: 1.0, 52: 1.0,
         58: 1.0, 59: 1.0, 60: 1.0}),
    "scp": (
        1.9565217391304348, 0.2608695652173913, 0.0,
        {0: 9.0, 1: 1.5, 2: 1.0, 3: 1.0, 4: 2.0, 5: 1.0, 6: 1.0, 7: 1.0,
         8: 1.0, 9: 1.0, 10: 10.5, 13: 2.5, 15: 1.0, 16: 1.0, 17: 1.0, 18: 1.0,
         19: 1.0, 22: 3.0833333333333335, 27: 1.0, 28: 1.0, 29: 1.0}),
    "sradv1": (
        1.5053763440860215, 0.20698924731182797, 0.0,
        {0: 2.6, 1: 1.1, 2: 1.0, 3: 2.6, 4: 2.0, 5: 1.0, 6: 2.0, 7: 1.8,
         8: 3.2, 9: 3.1, 10: 2.6666666666666665, 11: 3.3333333333333335,
         12: 1.0, 13: 1.0, 14: 1.5, 15: 1.0, 16: 1.6, 17: 1.0, 18: 1.4,
         19: 1.0, 20: 1.0, 21: 1.0, 22: 1.0, 23: 1.0, 24: 1.0, 25: 1.4,
         26: 1.5, 27: 1.0, 28: 2.5625, 29: 1.0, 30: 1.0, 31: 1.0, 32: 1.0,
         33: 1.8, 34: 1.0, 35: 1.2, 36: 1.0, 37: 1.0, 38: 1.0, 39: 1.0,
         40: 2.0, 41: 1.5, 42: 1.0, 43: 1.0, 44: 1.0, 45: 1.0, 46: 1.0,
         47: 1.0, 48: 2.0, 49: 1.0, 50: 1.0, 51: 1.0, 52: 1.0, 53: 1.0,
         54: 2.0, 55: 1.0, 56: 1.0, 57: 1.0, 58: 1.0, 59: 1.0, 60: 1.0,
         61: 1.0, 62: 1.0, 63: 1.0, 64: 1.0, 65: 2.0, 66: 1.0, 67: 1.0,
         68: 1.0, 69: 1.0, 70: 1.0, 71: 1.0, 72: 1.0, 73: 1.0, 74: 1.0,
         76: 1.0, 78: 1.0, 80: 1.0, 82: 1.0}),
    "sradv2": (
        1.456, 0.221, 0.066,
        {0: 3.5, 1: 3.5, 2: 1.0, 3: 1.0, 4: 3.0, 5: 2.5, 6: 2.0, 7: 2.5,
         8: 1.0, 9: 6.0, 10: 2.125, 11: 7.5, 12: 1.0, 13: 4.0, 16: 0.0,
         17: 1.0, 18: 1.0, 19: 0.875, 20: 0.75, 21: 1.0, 22: 1.0, 23: 1.0,
         24: 1.0, 25: 1.0, 26: 1.0, 27: 0.2, 28: 1.0, 29: 1.0, 30: 0.5,
         31: 0.875, 32: 1.0, 33: 1.0, 34: 0.5, 35: 1.0, 36: 1.0, 37: 1.0,
         38: 1.0, 39: 1.0, 40: 1.0, 41: 0.3333333333333333, 42: 1.0, 43: 1.0,
         44: 0.75, 45: 1.0, 46: 1.0, 47: 1.0, 48: 1.0, 49: 1.0, 50: 0.5,
         51: 1.0, 52: 1.0, 53: 1.0, 54: 0.75, 55: 1.0, 56: 1.0, 57: 1.0,
         58: 2.0, 59: 1.0, 60: 1.0, 61: 1.0, 62: 3.0, 63: 3.0, 64: 3.0,
         65: 3.0, 66: 1.0, 67: 1.0, 68: 1.0, 69: 1.0, 70: 1.0, 71: 1.0,
         72: 1.0, 73: 2.0, 74: 1.0, 75: 1.0, 76: 1.0, 77: 1.0, 78: 1.0,
         79: 2.0, 80: 1.0, 81: 1.0, 82: 1.0, 83: 1.0, 84: 1.0, 85: 1.0,
         86: 1.0, 87: 1.0, 88: 1.0, 89: 1.0, 90: 2.0, 91: 1.0, 92: 1.0,
         93: 1.0, 94: 1.0, 95: 1.0, 96: 1.0, 97: 1.0, 98: 1.0, 99: 1.0,
         101: 1.0, 103: 1.0, 105: 1.0, 107: 1.0}),
    "va": (
        1.2727272727272727, 0.18181818181818182, 0.0,
        {0: 1.0, 1: 1.0, 2: 1.0, 3: 2.0, 6: 3.0, 7: 1.0, 8: 1.0, 9: 1.0,
         10: 1.0, 11: 1.0, 12: 1.0}),
}


@pytest.mark.parametrize("app", application_names("paper"))
def test_reports_match_the_pinned_suite(app):
    report = RegisterReuseAnalyzer(quadro_gv100_like()).analyze(
        get_application(app))
    assert (report.mean_reads_per_write, report.fraction_multi_read,
            report.fraction_dead_write, report.per_instruction) == PINNED[app]
