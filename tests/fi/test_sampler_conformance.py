"""Sampler conformance: fault sites are drawn with the weights the AVF and
SVF estimates assume.

Each test draws many plans from fixed seeds, through the same per-trial
seed streams campaigns use, and compares the observed counts with the
expected ones by Pearson's chi-squared statistic. The critical values are
those of the chi-squared distribution at p = 1e-3 for the test's degrees
of freedom, so a correct sampler fails a test one time in a thousand
seed choices; the seeds here are fixed.
"""

import re

import numpy as np
import pytest

from repro.arch.config import quadro_gv100_like
from repro.arch.structures import Structure
from repro.fi.gpufi import (
    MicroarchFaultPlan,
    _control_sites,
    draw_site,
    plan_microarch_fault,
)
from repro.fi.nvbitfi import plan_software_fault
from repro.kernels import get_application
from repro.kernels.base import DeviceHarness
from repro.sim import GPU
from repro.utils.rng import derive_rng, spawn_seeds

#: Upper 1e-3 quantiles of the chi-squared distribution, by degrees of
#: freedom.
CRITICAL = {3: 16.266, 5: 20.515, 7: 24.322, 11: 31.264, 15: 37.697,
            31: 61.098, 39: 72.055}


def _assert_fits(observed, expected):
    observed = np.asarray(observed, dtype=float).reshape(-1)
    expected = np.asarray(expected, dtype=float).reshape(-1)
    assert observed.sum() == pytest.approx(expected.sum())
    assert expected.min() >= 5, "too few draws per cell for chi-squared"
    stat = float(((observed - expected) ** 2 / expected).sum())
    assert stat < CRITICAL[observed.size - 1], (stat, observed, expected)


def _seeds(tag, count):
    return spawn_seeds(2024, f"conformance:{tag}", count)


# -------------------------------------------------------------- storage

SPACES = np.array([96, 0, 224, 32, 160])  # bits per space, one empty


def test_draw_site_weights_spaces_by_bits_and_is_uniform_within():
    n = 16_000
    draws = np.array([draw_site(derive_rng(seed, "uarch-fire"), SPACES)
                      for seed in _seeds("site", n)])
    index, bit = draws[:, 0], draws[:, 1]
    assert ((bit >= 0) & (bit < SPACES[index])).all()
    hits = np.bincount(index, minlength=SPACES.size)
    assert hits[1] == 0  # the empty space is never hit
    live = SPACES > 0
    _assert_fits(hits[live], n * SPACES[live] / SPACES.sum())
    # Bins of 32 bits tile every space: uniform over all bits, so also
    # uniform over the bits of each space.
    position = np.concatenate(([0], np.cumsum(SPACES)))[index] + bit
    _assert_fits(np.bincount(position // 32, minlength=16),
                 np.full(16, n / 16))


def test_draw_site_without_bits_draws_nothing():
    assert draw_site(derive_rng(1, "uarch-fire"), []) is None
    assert draw_site(derive_rng(1, "uarch-fire"), [0, 0]) is None


UARCH_LAUNCHES = [
    {"index": 0, "cycles": 300},
    {"index": 2, "cycles": 100},
    {"index": 5, "cycles": 600},
    {"index": 6, "cycles": 200},
]


def test_uarch_plans_are_uniform_over_kernel_cycles():
    n = 12_000
    cycles = np.array([rec["cycles"] for rec in UARCH_LAUNCHES])
    offsets = dict(zip((rec["index"] for rec in UARCH_LAUNCHES),
                       np.concatenate(([0], np.cumsum(cycles)))))
    picks = {rec["index"]: 0 for rec in UARCH_LAUNCHES}
    positions = []
    for seed in _seeds("uarch", n):
        plan = plan_microarch_fault(UARCH_LAUNCHES, Structure.RF, seed)
        chosen = next(r for r in UARCH_LAUNCHES
                      if r["index"] == plan.launch_index)
        assert 0 <= plan.cycle < chosen["cycles"]
        picks[plan.launch_index] += 1
        positions.append(offsets[plan.launch_index] + plan.cycle)
    # Launches in proportion to their cycles ...
    _assert_fits(list(picks.values()), n * cycles / cycles.sum())
    # ... and the cycle uniform within the launch: bins of 100 cycles
    # tile every launch.
    _assert_fits(np.bincount(np.array(positions) // 100, minlength=12),
                 np.full(12, n / 12))


# -------------------------------------------------------------- software

SW_LAUNCHES = [
    {"index": 0, "injectable": 120, "injectable_loads": 40},
    {"index": 1, "injectable": 0, "injectable_loads": 0},
    {"index": 3, "injectable": 200, "injectable_loads": 0},
    {"index": 4, "injectable": 80, "injectable_loads": 40},
]


@pytest.mark.parametrize("loads_only", [False, True])
def test_sw_plans_are_uniform_over_candidates_and_bits(loads_only):
    key = "injectable_loads" if loads_only else "injectable"
    counts = {rec["index"]: rec[key] for rec in SW_LAUNCHES}
    offsets = dict(zip(counts, np.concatenate(
        ([0], np.cumsum(list(counts.values()))))))
    total = sum(counts.values())
    candidate_bins = total // 40  # 40 candidates per bin
    n = 400 * candidate_bins * 4
    cells = np.zeros((candidate_bins, 4), dtype=int)
    bits = np.zeros(32, dtype=int)
    for seed in _seeds(f"sw:{loads_only}", n):
        plan = plan_software_fault(SW_LAUNCHES, seed, loads_only=loads_only)
        assert plan.loads_only is loads_only
        assert 0 <= plan.candidate_index < counts[plan.launch_index]
        assert 0 <= plan.bit < 32
        position = offsets[plan.launch_index] + plan.candidate_index
        cells[position // 40, plan.bit // 8] += 1
        bits[plan.bit] += 1
    # Uniform over every (candidate, bit) pair: launches without
    # candidates of the drawn kind are never picked, and bins of 40
    # candidates x 8 bits tile the rest.
    _assert_fits(cells, np.full(cells.shape, n / cells.size))
    _assert_fits(bits, np.full(32, n / 32))


# -------------------------------------------------------------- control

class _Stop(Exception):
    """Ends the capture run once the draws are made."""


class _LiveState:
    """A uarch injector that, at a cycle of launch 0, calls ``probe`` on
    the live GPU and then ends the run."""

    persistent = False

    def __init__(self, cycle, probe):
        self.cycle = cycle
        self.probe = probe
        self.fired = False

    def arm(self, launch_index, kernel_name, gpu):
        return self if launch_index == 0 else None

    def fire(self, gpu):
        self.fired = True
        self.probe(gpu)
        raise _Stop


def _kind(name):
    return re.sub(r"^(sm|warp)\d+\.", "", name)


def test_control_sites_are_drawn_by_declared_bit_width():
    config = quadro_gv100_like()
    n = 8_000
    seen = {}

    def probe(gpu):
        sites = _control_sites(gpu)
        warps = {f"warp{w.uid}": w for w in gpu.resident_warps()
                 if not w.finished}
        assert warps
        cursor_bits = int(config.max_warps_per_sm).bit_length()
        for name, bits, _ in sites:
            owner, _, kind = name.partition(".")
            if owner in warps:
                lanes = warps[owner].pc.size
                want = {"pc": lanes * 32, "upc": 32, "active": lanes,
                        "barrier.wait": 1}[kind]
            else:
                want = {"sched.rr": cursor_bits, "barrier.arrived": 8}[kind]
            assert bits == want, name
        width = {}
        for name, bits, _ in sites:
            width[_kind(name)] = width.get(_kind(name), 0) + bits
        seen["width"] = width
        seen["lanes"] = next(iter(warps.values())).pc.size
        plan = MicroarchFaultPlan(launch_index=0, cycle=0, structure=None,
                                  seed=0, target="control")
        seen["draws"] = [plan._select_control(gpu, derive_rng(
            seed, "uarch-fire"))[1] for seed in _seeds("control", n)]

    gpu = GPU(config)
    gpu.uarch_injector = _LiveState(200, probe)
    with pytest.raises(_Stop):
        get_application("hotspot").run(gpu, DeviceHarness())

    width, lanes = seen["width"], seen["lanes"]
    drawn = [re.match(r"(\S+) bit (\d+) x1$", label).groups()
             for label in seen["draws"]]
    # Every kind of site, each in proportion to its total declared bits.
    kinds = sorted(width)
    assert kinds == ["active", "barrier.arrived", "barrier.wait", "pc",
                     "sched.rr", "upc"]
    total = sum(width.values())
    _assert_fits([sum(_kind(name) == k for name, _ in drawn) for k in kinds],
                 [n * width[k] / total for k in kinds])
    # A per-lane PC draw is uniform over lanes x 32 bits.
    pc_lanes = np.array([int(bit) // 32 for name, bit in drawn
                         if _kind(name) == "pc"])
    groups = lanes // 4
    _assert_fits(np.bincount(pc_lanes // 4, minlength=groups),
                 np.full(groups, pc_lanes.size / groups))
