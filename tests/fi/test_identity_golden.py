"""Golden campaign identities: cache keys, seed tags, trial seeds, journal
meta records and cache payloads, pinned as literals.

Every row names one :class:`CampaignSpec` (by its non-default fields) and
the identity the campaign pipeline gives it: the cache key, the first
three per-trial seeds, and the exact bytes of the journal's leading
``meta`` record (which carries the seed tag). ``PAYLOADS`` additionally
pins the SHA-256 of the cached result payload of a short real run of
every row. The literals were recorded from the pipeline as it stood
before the per-level pipelines were merged into one; a mismatch means a
change re-keyed, re-seeded or re-shaped existing campaigns, which
silently orphans every cache entry and journal. Do not regenerate the
table to make a change pass.

To print the observed table (e.g. to review a deliberate identity
change): ``PYTHONPATH=src python tests/fi/test_identity_golden.py``.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

import repro.fi.campaign as campaign
from repro.errors import ExecutionError
from repro.fi import CampaignSpec, StopRule, profile_app, run_campaign
from repro.store import tag_from_payload

_STOP = {"ci_halfwidth": 0.2, "min_trials": 4}

#: ``(row id, spec fields)``; ``app`` defaults to ``va``, ``seed`` to 7,
#: ``trials`` to 5, ``stop_rule`` is given as :class:`StopRule` fields.
SPECS: list[tuple[str, dict]] = [
    ("uarch-rf", dict(level="uarch", structure="rf")),
    ("uarch-smem", dict(level="uarch", structure="smem")),
    ("uarch-l1d", dict(level="uarch", structure="l1d")),
    ("uarch-l2", dict(level="uarch", structure="l2")),
    ("uarch-rf-v100", dict(level="uarch", structure="rf", config="v100")),
    ("uarch-control", dict(level="uarch", target="control")),
    ("uarch-control-intermittent",
     dict(level="uarch", target="control", fault_model="intermittent")),
    ("uarch-rf-stuck0", dict(level="uarch", structure="rf",
                             fault_model="stuck0")),
    ("uarch-rf-stuck1", dict(level="uarch", structure="rf",
                             fault_model="stuck1")),
    ("uarch-l2-intermittent", dict(level="uarch", structure="l2",
                                   fault_model="intermittent")),
    ("uarch-rf-2bit", dict(level="uarch", structure="rf", num_bits=2)),
    ("uarch-smem-ecc", dict(level="uarch", structure="smem",
                            ecc_protected=True)),
    ("uarch-rf-tmr", dict(level="uarch", structure="rf", harden="tmr")),
    ("uarch-rf-dmr", dict(level="uarch", structure="rf", harden="dmr")),
    ("uarch-rf-abft", dict(level="uarch", structure="rf", harden="abft")),
    ("uarch-rf-range", dict(level="uarch", structure="rf", harden="range")),
    ("uarch-gemm-abft", dict(level="uarch", app="gemm", structure="smem",
                             harden="abft")),
    ("uarch-control-tmr", dict(level="uarch", target="control",
                               harden="tmr")),
    ("uarch-rf-anatomy", dict(level="uarch", structure="rf",
                              sdc_anatomy=True)),
    ("uarch-rf-stop", dict(level="uarch", structure="rf", stop_rule=_STOP)),
    ("uarch-rf-budget", dict(level="uarch", structure="rf", stop_rule=_STOP,
                             budget=9)),
    ("uarch-rf-env-trials", dict(level="uarch", structure="rf",
                                 trials=None)),
    ("uarch-rf-all-axes", dict(level="uarch", structure="rf",
                               fault_model="stuck1", num_bits=2,
                               harden="dmr", sdc_anatomy=True,
                               stop_rule=_STOP, budget=9, seed=3)),
    ("sw", dict(level="sw")),
    ("sw-gv100", dict(level="sw", config="gv100")),
    ("sw-ld", dict(level="sw-ld")),
    ("sw-tmr", dict(level="sw", harden="tmr")),
    ("sw-dmr", dict(level="sw", harden="dmr")),
    ("sw-abft", dict(level="sw", harden="abft")),
    ("sw-range", dict(level="sw", harden="range")),
    ("sw-gemm-abft", dict(level="sw", app="gemm", harden="abft")),
    ("sw-ld-tmr", dict(level="sw-ld", harden="tmr")),
    ("sw-anatomy", dict(level="sw", sdc_anatomy=True)),
    ("sw-stop", dict(level="sw", stop_rule=_STOP)),
    ("sw-budget", dict(level="sw", stop_rule=_STOP, budget=9)),
    ("sw-env-trials", dict(level="sw", trials=None)),
    ("src", dict(level="src")),
    ("src-sticky", dict(level="src-sticky")),
    ("src-anatomy", dict(level="src", sdc_anatomy=True)),
    ("src-sticky-budget", dict(level="src-sticky", stop_rule=_STOP,
                               budget=9)),
    ("src-env-trials", dict(level="src", trials=None, seed=1)),
]

#: row id -> (cache key, first three trial seeds, journal meta line).
GOLDEN: dict[str, tuple[str, list[int], str]] = {
    'uarch-rf': (
        '76f83ce03215ca656db8c13f',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-smem': (
        '747cd6428deb2a75b0a9d27d',
        [5939758409323619796, 1900721605389586391, 353852123464400066],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/smem/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-l1d': (
        'ec3a089bc323e76f5b6653e0',
        [3929286778360789361, 3078582674104421199, 1783463916345627580],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/l1d/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-l2': (
        'a5fbc6b89dba9320e7480358',
        [4301338991100705485, 1583226715644563814, 7790622426836880214],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/l2/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-v100': (
        '3fc3b9b9262a04b05a74fc12',
        [2394642340714578995, 3512791362974037853, 6919430459062581608],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/tesla-v100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-control': (
        '6f1223746417783342f84605',
        [3907914973247068140, 1192348499089476914, 7040635186846822531],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "transient", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/control/quadro-gv100-like/False/transient/control", "target": "control", "trials": 5, "trials_from_env": false}'),
    'uarch-control-intermittent': (
        'f7452d16c3acb715c0f9a1fa',
        [3970472841256089906, 7063848381143586087, 5714076580334463022],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "intermittent", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/control/quadro-gv100-like/False/intermittent/control", "target": "control", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-stuck0': (
        '43381cd7574ac064b5b63381',
        [7168546656421725557, 1895702386068830025, 6164661997183034237],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "stuck0", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/stuck0/storage", "target": "storage", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-stuck1': (
        '5e944aa4aa26e5d1d08ee0ae',
        [4684830297389919304, 2043975817500019657, 7957342411610260060],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "stuck1", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/stuck1/storage", "target": "storage", "trials": 5, "trials_from_env": false}'),
    'uarch-l2-intermittent': (
        '72a95776e6d0f48dbc97bd7f',
        [2765968907855011821, 7850521244924426858, 6940244880536913676],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "intermittent", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/l2/quadro-gv100-like/False/intermittent/storage", "target": "storage", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-2bit': (
        '60f2bf3cff83ef6ec6141d05',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-smem-ecc': (
        '2fb7d749ef997097c7e8e7c6',
        [5939758409323619796, 1900721605389586391, 353852123464400066],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/smem/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-tmr': (
        '31de48ddf0994fcc9626af1e',
        [106244101520765433, 9030197629942408945, 2406171319907238724],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "tmr", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/tmr", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-dmr': (
        '26864657de7174605b975c9e',
        [345091347510768104, 2106024508690818811, 6461151940047497314],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "dmr", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/dmr", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-abft': (
        '3c71209d70126aaf2a7d97ae',
        [1753429561154692202, 271921387036122798, 1131607066720372385],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "abft", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/abft", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-range': (
        'da73acf34db0f762df9b9c9e',
        [2261797785823876464, 2067332732183410903, 1223145823289091659],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "range", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/range", "trials": 5, "trials_from_env": false}'),
    'uarch-gemm-abft': (
        '3ae2ec0d6b17f44166145897',
        [7411699186523614608, 3302956105582403203, 4714303327843732958],
        '{"app": "gemm", "cache_version": 12, "event": "meta", "harden": "abft", "kernel": "gemm_tile", "level": "uarch", "root_seed": 7, "tag": "gemm/gemm_tile/uarch/smem/quadro-gv100-like/False/abft", "trials": 5, "trials_from_env": false}'),
    'uarch-control-tmr': (
        '1c1cac6d976c3ee0f9a0eb86',
        [4331539251568017029, 532753562078244342, 5797207142875748890],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "transient", "harden": "tmr", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/control/quadro-gv100-like/False/transient/control/tmr", "target": "control", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-anatomy': (
        'caf71190a76322356a131cee',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-stop': (
        '54e043653b47054569720282',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'uarch-rf-budget': (
        '0a87274119883795220958df',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 9, "trials_from_env": false}'),
    'uarch-rf-env-trials': (
        'ec84ec4ec828ce1b57858035',
        [1745041924297512503, 1921108064902365591, 4187664543967155244],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "uarch", "root_seed": 7, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False", "trials": 64, "trials_from_env": true}'),
    'uarch-rf-all-axes': (
        '817a8349538121501900e15c',
        [199450024632139155, 1373447277080808714, 647835479232020571],
        '{"app": "va", "cache_version": 12, "event": "meta", "fault_model": "stuck1", "harden": "dmr", "kernel": "va_k1", "level": "uarch", "root_seed": 3, "tag": "va/va_k1/uarch/rf/quadro-gv100-like/False/stuck1/storage/dmr", "target": "storage", "trials": 9, "trials_from_env": false}'),
    'sw': (
        'fd09209eff7050eeb94b4eb2',
        [6137173886143171928, 1102531450067546417, 1984849390214150025],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False", "trials": 5, "trials_from_env": false}'),
    'sw-gv100': (
        'b12fd1540469d83b0c7a57ed',
        [8112403644051951506, 1820229163818378940, 3136386781389898062],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/quadro-gv100-like/False", "trials": 5, "trials_from_env": false}'),
    'sw-ld': (
        '4d35078a16bb6bf3e3c31f21',
        [1520056804295991934, 3388792790082446644, 7954136138045750283],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-ld", "root_seed": 7, "tag": "va/va_k1/sw-ld/tesla-v100-like/False", "trials": 5, "trials_from_env": false}'),
    'sw-tmr': (
        '8b7c7623b288d145413efb2c',
        [3041500883528183347, 1271325205329099873, 8468417419427223634],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "tmr", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False/tmr", "trials": 5, "trials_from_env": false}'),
    'sw-dmr': (
        'ccbcf6dbc26594f501f7c6d9',
        [153508201453422550, 5567127168923958759, 2697330941811484709],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "dmr", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False/dmr", "trials": 5, "trials_from_env": false}'),
    'sw-abft': (
        '0512b073e365597088c202b2',
        [819399256537587108, 2145394675759378388, 5704162352507089226],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "abft", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False/abft", "trials": 5, "trials_from_env": false}'),
    'sw-range': (
        '159260b3eba3512622481f3d',
        [8566650576835517308, 4238656314962146998, 2850771970610045520],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "range", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False/range", "trials": 5, "trials_from_env": false}'),
    'sw-gemm-abft': (
        '24c30a43c71bd82427d99462',
        [6222907121128976010, 7710313425920357440, 3353513054489711807],
        '{"app": "gemm", "cache_version": 12, "event": "meta", "harden": "abft", "kernel": "gemm_tile", "level": "sw", "root_seed": 7, "tag": "gemm/gemm_tile/sw/tesla-v100-like/False/abft", "trials": 5, "trials_from_env": false}'),
    'sw-ld-tmr': (
        '2459dfe5902e6e870d752cc3',
        [3802368749364063779, 351371133891992888, 5793627370521263710],
        '{"app": "va", "cache_version": 12, "event": "meta", "harden": "tmr", "kernel": "va_k1", "level": "sw-ld", "root_seed": 7, "tag": "va/va_k1/sw-ld/tesla-v100-like/False/tmr", "trials": 5, "trials_from_env": false}'),
    'sw-anatomy': (
        '41dfa53e58016672deadfdd1',
        [6137173886143171928, 1102531450067546417, 1984849390214150025],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False", "trials": 5, "trials_from_env": false}'),
    'sw-stop': (
        '2e7db0c7948784b3463a3aea',
        [6137173886143171928, 1102531450067546417, 1984849390214150025],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False", "trials": 5, "trials_from_env": false}'),
    'sw-budget': (
        'f18802bc70861a7fb54e4973',
        [6137173886143171928, 1102531450067546417, 1984849390214150025],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False", "trials": 9, "trials_from_env": false}'),
    'sw-env-trials': (
        '18c312dde9bbe4d029113710',
        [6137173886143171928, 1102531450067546417, 1984849390214150025],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw", "root_seed": 7, "tag": "va/va_k1/sw/tesla-v100-like/False", "trials": 64, "trials_from_env": true}'),
    'src': (
        'f932ee4581eb1b0e038ad231',
        [7331305974213009250, 4549664100343039826, 6824346007364629900],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-src-transient", "root_seed": 7, "tag": "va/va_k1/sw-src-transient/tesla-v100-like", "trials": 5, "trials_from_env": false}'),
    'src-sticky': (
        'cb8f603546f9e798b1641e7c',
        [5670613142414778957, 1097544790614107566, 1053732816248782084],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-src-sticky", "root_seed": 7, "tag": "va/va_k1/sw-src-sticky/tesla-v100-like", "trials": 5, "trials_from_env": false}'),
    'src-anatomy': (
        '0598c52825795443e5a08bff',
        [7331305974213009250, 4549664100343039826, 6824346007364629900],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-src-transient", "root_seed": 7, "tag": "va/va_k1/sw-src-transient/tesla-v100-like", "trials": 5, "trials_from_env": false}'),
    'src-sticky-budget': (
        '37e6d4ce8ef47839fd8be53c',
        [5670613142414778957, 1097544790614107566, 1053732816248782084],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-src-sticky", "root_seed": 7, "tag": "va/va_k1/sw-src-sticky/tesla-v100-like", "trials": 9, "trials_from_env": false}'),
    'src-env-trials': (
        'e1fb66c1297ed94147ce7f7d',
        [5244988662746577483, 7467467665383638708, 7155834389711563723],
        '{"app": "va", "cache_version": 12, "event": "meta", "kernel": "va_k1", "level": "sw-src-transient", "root_seed": 1, "tag": "va/va_k1/sw-src-transient/tesla-v100-like", "trials": 64, "trials_from_env": true}'),
}

#: row id -> SHA-256 of the cached payload of a real 3-trial run.
PAYLOADS: dict[str, str] = {
    'uarch-rf': '3a9f995d77bdd394b201a60f401febea48ae1cfacb774474d89ed78fc59d537a',
    'uarch-smem': '8130d86509e9ee8708ffcbcc0d5cbcf25b93cc973630522a3bd0a61f879c0730',
    'uarch-l1d': 'c3e8ac1df3c73dde333587888a444648439d86a20fec7a1262ad2b90a8eb87b2',
    'uarch-l2': 'b41324b91e56ddd04c514c0003df4c60e955b67ae7de21221a955846a696b637',
    'uarch-rf-v100': 'ef6013fb7102c68924f3051e19a0e31ff9a071a0f627f56afd3ff749bce6f56c',
    'uarch-control': '4fb3d197899b8effa23e9235a174919493cded28da4b6c4f42f843d1a2e8d9e4',
    'uarch-control-intermittent': 'fbad8a080e6043a2c1f6188c9e01c2006afbcd4796e4f036d65af6254115d0da',
    'uarch-rf-stuck0': 'aab2bd941373bacf9f0bc91020c6ef2780da253ee2e88f897bf685e9d34a992b',
    'uarch-rf-stuck1': '42a4343cdee7b6cbf29a910c55bff2eff50b4f59666b1f942f29a7cf425a94bb',
    'uarch-l2-intermittent': 'cfc4405b7a13cb8818e2ac9ac2b54162506e5bb88cd1ccb82dc82268b0021e30',
    'uarch-rf-2bit': '3a9f995d77bdd394b201a60f401febea48ae1cfacb774474d89ed78fc59d537a',
    'uarch-smem-ecc': '8130d86509e9ee8708ffcbcc0d5cbcf25b93cc973630522a3bd0a61f879c0730',
    'uarch-rf-tmr': '6d13ad9ec939b0275791875c071fdda98e6fef5bdb0d7f690aa6cf1735b29298',
    'uarch-rf-dmr': '2598a49f1f171d9e99eea32c5bf87faa547d88ee94083bc14153bdb515b81822',
    'uarch-rf-abft': 'c1696b750fce0bc0794b7c5b7e0b5abefeadb0cf3f8d1ebe29d8500eb0d3f2b8',
    'uarch-rf-range': '58827e61b63a6b574b98fddf46e8d3688c2e635b930682e2d372349122916f2a',
    'uarch-gemm-abft': 'cd1e08205785e61b3dc61f6cc5cbc64ae750424ef501665e8faf362c43c33084',
    'uarch-control-tmr': '5fbb894efa7cd47144a0507581dd1f25d680b25cda0843337143ebbddd48f411',
    'uarch-rf-anatomy': '439db16e27eed668db6ce3546bc368f7e022370b5d5a0a901b91db8f447f9ad4',
    'uarch-rf-stop': '67e46f94e54c9fe9b0349181cf262fd59289bb781801bc8e599062e340dbac5f',
    'uarch-rf-budget': '67e46f94e54c9fe9b0349181cf262fd59289bb781801bc8e599062e340dbac5f',
    'uarch-rf-env-trials': '4f76b2a709825748beea93e45f6de6200c4d3299c5af4059923d726df661ca10',
    'uarch-rf-all-axes': '4d1f56d6d239dca226cab8af03b1399455a7c8eb2b01eb4b5a4d9470163f3a21',
    'sw': 'ad31ab58584d5aba0ae8c7fb8f58ef17c378e25dd9ad563e681f492aca6380f0',
    'sw-gv100': '09190cc18139be2c088d0caf38da8625ce135901a09f0e246e85f00c12042f15',
    'sw-ld': 'a52bb74586ec862d369a3494b85efec7e82624b213b19df0b62a60c3dfc03b9e',
    'sw-tmr': 'fc2b0b178aaf388e35fdab0f92d2b962436fa510f34bb7b0f146deddd012f2c9',
    'sw-dmr': 'e1b56a7ea52785c712eb740d41be3c045312a781814da20f4db03e6ef2893050',
    'sw-abft': '6905d9ed73d3cc1dd68ef7c0e87f5611a66e1158607648c51a46793c01731782',
    'sw-range': '1f346cccbe820f251dae1a42d8223ab1a0361daf033903074ba5e4b84bd7cf2b',
    'sw-gemm-abft': 'd50bf228990cffeb1805fe46bdc11871f59306f16c64250f19f680a5c46cf026',
    'sw-ld-tmr': '0b5a9973e799ecadffcf4a8f6d00c4e3a7090b17a2f311a330e08bc638d14a5f',
    'sw-anatomy': '8df37ce60c619a7c43117435f409a884dd4ebc036ea2fe70ad7531cb74797676',
    'sw-stop': '1735b206e1e78e01b1a084900b1279a25aa33b9fa0e11ca9ce5dcaaa949828b8',
    'sw-budget': '1735b206e1e78e01b1a084900b1279a25aa33b9fa0e11ca9ce5dcaaa949828b8',
    'sw-env-trials': '121d08c9984ac16d0bc4c5192bcdb92d621cb683b228f8ee48749b46a0ad470c',
    'src': '76f51d40623d897d05e2cba0b1b53b933c3686e98ddc4c7fa35dcfcac95a6b54',
    'src-sticky': 'c06f5f2142fd17bec0621b7164de6cfb3c1b7320e1b1828a7b84fc42743a5b40',
    'src-anatomy': '43e1f633abf7ae4e688296970345e265e938e96f49367f08abed92095d41c279',
    'src-sticky-budget': '7180ba9a9522293bd7ae1cc0c7a5b03325ccb3b7cff764fbbbd9a963f27b01fa',
    'src-env-trials': '399836af58b647fd3a44edf925e29a2367b96d945f116fdfca995052338c3cc9',
}


class _Halt(ExecutionError):
    """Raised by the stand-in trial body: escapes trial isolation, so the
    campaign stops right after its journal's meta record is written."""


def _spec(fields: dict, trials: int = 5) -> CampaignSpec:
    fields = dict(fields)
    fields.setdefault("app", "va")
    fields.setdefault("seed", 7)
    fields.setdefault("trials", trials)
    if fields.get("stop_rule") is not None:
        fields["stop_rule"] = StopRule(**fields["stop_rule"])
    return CampaignSpec(**fields)


@functools.lru_cache(maxsize=None)
def _profile(app: str, level: str, config: str | None, harden: str | None):
    from repro.hardening.registry import hardening_scheme
    from repro.kernels import get_application

    return profile_app(get_application(app),
                       campaign._resolve_config(config, level),
                       hardening_scheme(harden) if harden else None)


def observe_identity(fields: dict, cache: Path):
    """(cache key, first three seeds, journal meta line) of one spec,
    without running a trial."""
    spec = _spec(fields)
    seen = {}
    real = campaign.execute_trials

    def capture(**kw):
        seen["key"], seen["seeds"] = kw["key"], kw["seeds"][:3]

        def halt(gpu, trial_seed):
            raise _Halt()

        return real(**{**kw, "trial_fn": halt, "workers": 1})

    campaign.execute_trials = capture
    try:
        run_campaign(spec, profile=_profile(
            spec.app, spec.level, spec.config, spec.harden))
    except _Halt:
        pass
    finally:
        campaign.execute_trials = real
    journal = cache / "journal" / f"{seen['key']}.jsonl"
    meta = journal.read_text().splitlines()[0]
    journal.unlink()
    return seen["key"], seen["seeds"], meta


def observe_payload(fields: dict, cache: Path) -> bytes:
    """The cached payload of a real 3-trial run of one spec."""
    spec = _spec(fields, trials=3)
    if spec.budget is not None:
        spec = spec.derive(budget=3)
    run_campaign(spec, profile=_profile(
        spec.app, spec.level, spec.config, spec.harden))
    (path,) = cache.glob("*.json")
    return path.read_bytes()


@pytest.fixture()
def clean_env(tmp_cache, monkeypatch):
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        if name != "REPRO_CACHE_DIR":
            monkeypatch.delenv(name)
    monkeypatch.setenv("REPRO_STORE", "0")
    return tmp_cache


def test_table_covers_every_row():
    assert set(GOLDEN) == set(PAYLOADS) == {row for row, _ in SPECS}


@pytest.mark.parametrize("row,fields", SPECS, ids=[r for r, _ in SPECS])
def test_identity_matches_golden(clean_env, row, fields):
    key, seeds, meta = observe_identity(fields, clean_env)
    assert (key, seeds, meta) == GOLDEN[row]


@pytest.mark.parametrize("row,fields", SPECS, ids=[r for r, _ in SPECS])
def test_payload_matches_golden(clean_env, row, fields):
    payload = observe_payload(fields, clean_env)
    assert hashlib.sha256(payload).hexdigest() == PAYLOADS[row]
    # The ledger rebuilds the seed tag from the payload alone.
    assert (tag_from_payload(json.loads(payload))
            == json.loads(GOLDEN[row][2])["tag"])


def _print_table() -> None:
    os.environ["REPRO_STORE"] = "0"
    for name in [n for n in os.environ if n.startswith("REPRO_")]:
        if name != "REPRO_STORE":
            del os.environ[name]
    print("GOLDEN: dict[str, tuple[str, list[int], str]] = {")
    for row, fields in SPECS:
        with tempfile.TemporaryDirectory() as d:
            os.environ["REPRO_CACHE_DIR"] = d
            key, seeds, meta = observe_identity(fields, Path(d))
        print(f"    {row!r}: (\n        {key!r},\n        {seeds!r},\n"
              f"        {meta!r}),")
    print("}\n\nPAYLOADS: dict[str, str] = {")
    for row, fields in SPECS:
        with tempfile.TemporaryDirectory() as d:
            os.environ["REPRO_CACHE_DIR"] = d
            digest = hashlib.sha256(
                observe_payload(fields, Path(d))).hexdigest()
        print(f"    {row!r}: {digest!r},")
    print("}")


if __name__ == "__main__":
    sys.exit(_print_table())
