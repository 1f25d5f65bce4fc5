"""Regression tests: every key-taking command finds the campaign a
``campaign run`` left behind, whether it is named by its cache key or by
a telemetry stream written elsewhere."""

from repro.cli import main
from repro.store import RunLedger, store_path


def _run(*extra):
    args = ["campaign", "run", "va", "--level", "sw", "--trials", "6",
            "--quiet", *extra]
    assert main(args) == 0


def test_report_by_key_after_telemetry_run(capsys, tmp_cache):
    """`campaign run --telemetry` writes the stream `campaign report
    <key>` reads."""
    _run("--telemetry")
    capsys.readouterr()
    key = next(tmp_cache.glob("*.json")).stem
    assert main(["campaign", "report", key]) == 0
    assert "trials committed   6" in capsys.readouterr().out


def test_telemetry_runs_differing_only_in_structure_keep_both_streams(
        capsys, tmp_cache):
    for structure in ("rf", "l1d"):
        assert main(["campaign", "run", "va", "--level", "uarch",
                     "--structure", structure, "--trials", "4",
                     "--telemetry", "--quiet"]) == 0
    capsys.readouterr()
    keys = [p.stem for p in tmp_cache.glob("*.json")]
    assert len(keys) == 2
    assert len(list((tmp_cache / "telemetry").glob("*.jsonl"))) == 2
    for key in keys:
        assert main(["campaign", "report", key]) == 0
        out = capsys.readouterr().out
        assert f"campaign {key}" in out and "trials committed   4" in out


def test_cached_rerun_keeps_the_campaign_stream(capsys, tmp_cache):
    _run("--telemetry")
    stream = next((tmp_cache / "telemetry").glob("*.jsonl"))
    before = stream.read_bytes()
    _run("--telemetry")
    assert stream.read_bytes() == before
    out = capsys.readouterr().out
    assert out.count(f"-> {stream}") == 2  # the re-run points at it too


def test_perf_record_by_stream_path_files_under_cache_key(
        capsys, tmp_cache, tmp_path):
    events = tmp_path / "perf-events.jsonl"
    _run("--events", str(events))
    key = next(tmp_cache.glob("*.json")).stem
    assert main(["perf", "record", "nightly", str(events)]) == 0
    with RunLedger(store_path()) as ledger:
        sources = [p["source"] for p in ledger.perf_samples(key)]
    assert "perf-record" in sources
    capsys.readouterr()
    assert main(["campaign", "show", key]) == 0
    assert "[perf-record]" in capsys.readouterr().out


def _run_named_anatomy_stream(tmp_cache, tmp_path):
    events = tmp_path / "anatomy.jsonl"
    _run("--sdc-anatomy", "--events", str(events))
    return events, next(tmp_cache.glob("*.json")).stem


def test_watch_of_a_named_stream(capsys, tmp_cache, tmp_path):
    events, key = _run_named_anatomy_stream(tmp_cache, tmp_path)
    capsys.readouterr()
    assert main(["campaign", "watch", str(events), "--once"]) == 0
    assert f"watch {key}" in capsys.readouterr().out


def test_sdc_profile_of_a_named_stream(capsys, tmp_cache, tmp_path):
    events, key = _run_named_anatomy_stream(tmp_cache, tmp_path)
    capsys.readouterr()
    assert main(["sdc", "profile", str(events)]) == 0
    assert f"corruption profiles: {key}" in capsys.readouterr().out
