"""The live watch dashboard: read-only journal tailing, frame rendering,
ETA extrapolation, and follow-mode completion."""

import io
import json

from repro.locator import read_jsonl as read_journal_prefix
from repro.store import render_watch_frame, watch
from repro.store.watch import WatchSnapshot, snapshot


def _write_journal(tmp_cache, key, records):
    d = tmp_cache / "journal"
    d.mkdir(parents=True, exist_ok=True)
    path = d / f"{key}.jsonl"
    with open(path, "w", encoding="utf-8") as f:
        for r in records:
            f.write(json.dumps(r) + "\n")
    return path


def _records(n, planned=10, tag="va/va_k1/sw/tesla-v100-like/False"):
    records = [{"event": "meta", "tag": tag, "root_seed": 1,
                "trials": planned}]
    for i in range(n):
        records.append({"event": "trial", "trial": i, "seed": i,
                        "outcome": "masked" if i % 2 else "sdc",
                        "cycles": 100})
    return records


def test_read_journal_prefix_drops_torn_tail_without_compacting(tmp_path):
    path = tmp_path / "j.jsonl"
    path.write_text('{"event": "meta", "tag": "t"}\n{"event": "tri')
    before = path.read_bytes()
    records = read_journal_prefix(path)
    assert records == [{"event": "meta", "tag": "t"}]
    # strictly read-only: the torn tail stays on disk (the campaign's own
    # writer owns compaction; the watcher must never race it)
    assert path.read_bytes() == before


def test_read_journal_prefix_missing_file(tmp_path):
    assert read_journal_prefix(tmp_path / "absent.jsonl") == []


def test_snapshot_in_flight(tmp_cache):
    _write_journal(tmp_cache, "k1", _records(4, planned=10))
    snap = snapshot("k1")
    assert snap.running
    assert snap.committed == 4
    assert snap.planned == 10
    assert snap.tag == "va/va_k1/sw/tesla-v100-like/False"
    assert snap.outcome_counts == {"masked": 2, "sdc": 2}


def test_snapshot_rate_and_eta_from_committed_prefix(tmp_cache):
    _write_journal(tmp_cache, "k1", _records(4, planned=10))
    prev = snapshot("k1", clock=lambda: 100.0)
    _write_journal(tmp_cache, "k1", _records(8, planned=10))
    snap = snapshot("k1", prev=prev, clock=lambda: 102.0)
    assert snap.rate == 2.0  # 4 new commits over 2 s
    assert snap.eta == 1.0  # 2 remaining / 2 per s


def test_snapshot_completed_reads_cached_result(tmp_cache):
    tmp_cache.mkdir(parents=True, exist_ok=True)
    (tmp_cache / "k9.json").write_text(json.dumps({
        "app_name": "va", "kernel": "va_k1", "injector": "sw",
        "trials": 6, "counts": {"masked": 4, "sdc": 2, "timeout": 0,
                                "due": 0, "crash": 0}}))
    snap = snapshot("k9")
    assert not snap.running
    assert snap.committed == 6
    assert snap.outcome_counts == {"masked": 4, "sdc": 2}


def test_snapshot_worker_lanes_from_telemetry(tmp_cache):
    _write_journal(tmp_cache, "k1", _records(2))
    tel = tmp_cache / "telemetry"
    tel.mkdir(parents=True, exist_ok=True)
    with open(tel / "k1.jsonl", "w", encoding="utf-8") as f:
        for worker in (0, 0, 1):
            f.write(json.dumps({"ts": 0.0, "kind": "span", "name": "trial",
                                "dur": 0.5, "worker": worker,
                                "campaign": "k1"}) + "\n")
    snap = snapshot("k1")
    assert snap.workers["w0"]["trials"] == 2
    assert snap.workers["w0"]["busy"] == 1.0
    assert snap.workers["w1"]["trials"] == 1


def test_snapshot_finds_caller_named_event_stream(tmp_cache):
    """`campaign run --events out.jsonl` picks the filename; watching
    that stream finds its campaign through the campaign field."""
    _write_journal(tmp_cache, "k1", _records(1))
    tel = tmp_cache / "telemetry"
    tel.mkdir(parents=True, exist_ok=True)
    with open(tel / "custom-name.jsonl", "w", encoding="utf-8") as f:
        f.write(json.dumps({"ts": 0.0, "kind": "span", "name": "trial",
                            "dur": 0.25, "worker": 3,
                            "campaign": "k1"}) + "\n")
    snap = snapshot(str(tel / "custom-name.jsonl"))
    assert snap.key == "k1" and snap.committed == 1
    assert snap.workers == {"w3": {"trials": 1, "busy": 0.25,
                                   "phase": "trial"}}


def test_render_frame_contents():
    snap = WatchSnapshot(key="k", when=0.0, running=True, tag="va/sw",
                         planned=10, committed=5,
                         outcome_counts={"masked": 4, "sdc": 1},
                         rate=2.5, eta=2.0,
                         workers={"w0": {"trials": 5, "busy": 1.0,
                                         "phase": "trial"}})
    frame = render_watch_frame(snap)
    assert "va/sw" in frame and "[running]" in frame
    assert "5/10" in frame and "50%" in frame
    assert "2.50 trials/s" in frame and "ETA 2s" in frame
    assert "masked 4 (80%)" in frame
    assert "w0" in frame


def test_render_frame_handles_unknown_total():
    frame = render_watch_frame(
        WatchSnapshot(key="k", when=0.0, running=True, committed=0))
    assert "0/?" in frame


def test_watch_follow_until_completion(tmp_cache):
    """Follow mode keeps rendering while the journal exists and exits on
    the frame after it disappears (campaign completed)."""
    path = _write_journal(tmp_cache, "k1", _records(4, planned=10))
    frames = []

    def fake_sleep(_interval):
        frames.append(None)
        if len(frames) == 1:
            _write_journal(tmp_cache, "k1", _records(10, planned=10))
        else:
            path.unlink()  # completion: runner discards the journal

    out = io.StringIO()
    clock = iter(float(i) for i in range(100))
    snap = watch("k1", interval=0.01, out=out,
                 clock=lambda: next(clock), sleep=fake_sleep)
    assert not snap.running
    rendered = out.getvalue()
    assert rendered.count("watch ") == 3
    assert "[completed]" in rendered
    assert len(frames) == 2


def test_watch_once(tmp_cache):
    _write_journal(tmp_cache, "k1", _records(2, planned=4))
    out = io.StringIO()
    snap = watch("k1", once=True, out=out)
    assert snap.running
    assert out.getvalue().count("watch ") == 1
