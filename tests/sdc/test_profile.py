"""Corruption profiles: aggregation, rendering, record extraction."""

import json

from repro.locator import read_jsonl as load_journal_records
from repro.sdc import (
    build_profiles,
    records_from_journal,
    records_from_result,
    render_profiles,
)


def _record(site="rf", severity="critical", words=2, extent=4, bits=(0, 9),
            **fp_extra):
    histogram = [0] * 32
    for b in bits:
        histogram[b] += 1
    fingerprint = {
        "corrupted_words": words, "total_words": 64, "corrupted_outputs": 1,
        "extent": extent, "burstiness": words / extent if extent else 0.0,
        "flipped_bits": len(bits), "bit_histogram": histogram,
        "sign_flips": 0, "nans_introduced": 0, "infs_introduced": 0,
        "max_abs_err": 1.5, "max_rel_err": 0.25, "shape_mismatch": False,
    }
    fingerprint.update(fp_extra)
    return {"trial": 0, "site": site, "severity": severity,
            "metric": "m", "score": 0.0, "fingerprint": fingerprint}


def test_build_profiles_groups_and_aggregates():
    records = [
        _record(site="rf", severity="critical", words=2, extent=4),
        _record(site="rf", severity="tolerable", words=6, extent=6,
                nans_introduced=1),
        _record(site="smem", severity="critical", words=1, extent=1),
    ]
    profiles = build_profiles(records, by="site")
    assert set(profiles) == {"rf", "smem"}
    rf = profiles["rf"]
    assert rf.n == 2
    assert rf.critical == 1 and rf.tolerable == 1
    assert rf.mean_corrupted_words == 4.0
    assert rf.max_corrupted_words == 6
    assert rf.mean_extent == 5.0
    assert rf.critical_fraction == 0.5
    assert rf.nan_trials == 1
    assert rf.bit_histogram[0] == 2 and rf.bit_histogram[9] == 2
    assert rf.max_rel_err == 0.25


def test_build_profiles_by_severity():
    records = [_record(severity="critical"), _record(severity="tolerable")]
    profiles = build_profiles(records, by="severity")
    assert set(profiles) == {"critical", "tolerable"}
    assert profiles["critical"].n == 1


def test_bit_sparkline_marks_any_hit():
    profiles = build_profiles([_record(bits=(0,) * 90 + (31,))])
    spark = profiles["rf"].bit_sparkline()
    assert len(spark) == 32
    assert spark[0] == "@"  # the peak bucket
    assert spark[31] != " "  # a single hit must still be visible
    assert spark[15] == " "  # untouched buckets stay blank


def test_render_profiles_table():
    out = render_profiles(build_profiles([_record(), _record(site="l2")]))
    assert "site" in out and "bit positions" in out
    assert "rf" in out and "l2" in out
    assert "2 SDC trial(s): 2 critical, 0 tolerable" in out


def test_render_counts_shape_mismatches():
    out = render_profiles(build_profiles([_record(shape_mismatch=True)]))
    assert "1 with corrupted output shapes" in out


def test_journal_record_extraction(tmp_path):
    path = tmp_path / "j.jsonl"
    trial_plain = {"event": "trial", "trial": 0, "seed": 1,
                   "outcome": "masked", "cycles": 5}
    trial_sdc = {"event": "trial", "trial": 1, "seed": 2, "outcome": "sdc",
                 "cycles": 6, "sdc": {"site": "rf", "severity": "critical"}}
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"event": "meta"}) + "\n")
        f.write(json.dumps(trial_plain) + "\n")
        f.write(json.dumps(trial_sdc) + "\n")
        f.write('{"event": "tri')  # torn tail from a mid-append kill
    records = records_from_journal(load_journal_records(path))
    assert records == [{"trial": 1, "site": "rf", "severity": "critical"}]


def test_result_record_extraction():
    payload = {"sdc_anatomy": {"tolerable": 1, "critical": 0,
                               "records": [{"trial": 3, "site": "alu"}]}}
    assert records_from_result(payload) == [{"trial": 3, "site": "alu"}]
    assert records_from_result({}) == []
    assert records_from_result({"sdc_anatomy": None}) == []
