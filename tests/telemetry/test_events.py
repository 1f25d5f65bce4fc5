"""Telemetry event emitters, spans, sessions, and the JSONL schema."""

import json

from repro.telemetry.events import (
    NULL,
    Telemetry,
    TelemetrySession,
    current_telemetry,
    read_events,
    set_current_telemetry,
    telemetry_dir,
)
from repro.locator import events_path as telemetry_events_path

REQUIRED_KEYS = {"ts", "kind", "name", "campaign", "worker"}


def _collector():
    events = []
    return events, Telemetry(events.append, campaign="test")


# ------------------------------------------------------------------ schema

def test_emit_builds_schema_complete_events():
    events, tel = _collector()
    tel.emit("cache", op="load", hit=True)
    (e,) = events
    assert REQUIRED_KEYS <= set(e)
    assert e["kind"] == "cache"
    assert e["campaign"] == "test"
    assert e["worker"] is None  # parent process
    assert e["op"] == "load" and e["hit"] is True
    assert isinstance(e["ts"], float) and e["ts"] >= 0.0


def test_events_are_json_serializable():
    events, tel = _collector()
    with tel.span("trial", trial=3):
        tel.emit("commit", outcome="SDC", cycles=120)
    for e in events:
        assert json.loads(json.dumps(e)) == e


# ------------------------------------------------------------------- spans

def test_span_emits_duration_and_monotonic_timestamps():
    events, tel = _collector()
    with tel.span("outer"):
        with tel.span("inner"):
            pass
    inner, outer = events  # inner closes (and is emitted) first
    assert inner["name"] == "inner" and outer["name"] == "outer"
    assert inner["dur"] >= 0.0 and outer["dur"] >= 0.0
    # nesting: the outer span starts no later and ends no earlier
    assert outer["ts"] <= inner["ts"]
    assert outer["ts"] + outer["dur"] >= inner["ts"] + inner["dur"]


def test_successive_spans_have_nondecreasing_timestamps():
    events, tel = _collector()
    for i in range(5):
        with tel.span("trial", trial=i):
            pass
    stamps = [e["ts"] for e in events]
    assert stamps == sorted(stamps)
    assert [e["trial"] for e in events] == list(range(5))


def test_child_shares_epoch_and_tags_worker():
    events, tel = _collector()
    buffer = []
    child = tel.child(worker=2, sink=buffer.append)
    assert child.t0 == tel.t0
    child.emit("commit", outcome="MASKED")
    assert buffer[0]["worker"] == 2
    assert buffer[0]["campaign"] == "test"
    tel.ingest(buffer)
    assert events == buffer  # forwarded verbatim


# ---------------------------------------------------------------- disabled

def test_null_telemetry_is_a_complete_no_op():
    assert NULL.enabled is False
    NULL.emit("campaign", phase="begin")  # must not raise
    with NULL.span("trial") as span:
        pass
    # the disabled span is a shared singleton: no per-call allocation
    with NULL.span("other") as other:
        pass
    assert span is other


def test_disabled_telemetry_never_calls_its_sink():
    events = []
    tel = Telemetry(events.append, enabled=False)
    tel.emit("cache", hit=True)
    with tel.span("trial"):
        pass
    tel.ingest([{"kind": "commit"}])
    assert events == []


def test_telemetry_without_sink_is_disabled():
    assert Telemetry(None).enabled is False


def test_current_telemetry_defaults_to_null_and_restores():
    assert current_telemetry() is NULL
    events, tel = _collector()
    previous = set_current_telemetry(tel)
    try:
        assert previous is NULL
        assert current_telemetry() is tel
    finally:
        set_current_telemetry(previous)
    assert current_telemetry() is NULL
    assert set_current_telemetry(None) is NULL  # None installs NULL


# ---------------------------------------------------------------- sessions

def test_session_round_trips_jsonl(tmp_path):
    path = tmp_path / "events.jsonl"
    with TelemetrySession(path) as session:
        tel = session.telemetry("abc123")
        tel.emit("campaign", phase="begin", total=4)
        with tel.span("golden_run"):
            pass
        assert session.events_written == 2
    events = read_events(path)
    assert [e["kind"] for e in events] == ["campaign", "span"]
    assert all(e["campaign"] == "abc123" for e in events)
    for line in path.read_text().splitlines():
        assert REQUIRED_KEYS <= set(json.loads(line))


def test_session_is_lazy_and_truncates_per_run(tmp_path):
    path = tmp_path / "events.jsonl"
    session = TelemetrySession(path)
    assert not path.exists()  # lazy: no file until the first event
    session.close()  # closing an unopened session is fine
    assert not path.exists()

    for run in range(2):
        with TelemetrySession(path) as s:
            s.telemetry("k").emit("campaign", phase="begin", run=run)
    events = read_events(path)
    assert len(events) == 1  # second run truncated the first
    assert events[0]["run"] == 1


def test_read_events_tolerates_torn_tail(tmp_path):
    path = tmp_path / "events.jsonl"
    good = json.dumps({"ts": 0.1, "kind": "commit", "name": "",
                       "campaign": "k", "worker": None})
    path.write_text(good + "\n" + '{"ts": 0.2, "kind": "co')
    events = read_events(path)
    assert len(events) == 1
    assert events[0]["kind"] == "commit"


def test_default_paths_live_under_cache_dir(tmp_cache):
    assert telemetry_dir() == tmp_cache / "telemetry"
    assert telemetry_events_path("deadbeef") == (
        tmp_cache / "telemetry" / "deadbeef.jsonl")


def test_read_events_warns_on_torn_tail(tmp_path, caplog):
    path = tmp_path / "events.jsonl"
    good = json.dumps({"ts": 0.1, "kind": "commit", "name": "",
                       "campaign": "k", "worker": None})
    path.write_text(good + "\n" + '{"ts": 0.2, "kind": "co')
    with caplog.at_level("WARNING", logger="repro.telemetry.events"):
        read_events(path)
    assert "torn record after 1 event(s)" in caplog.text


def test_flush_makes_events_readable_mid_session(tmp_path):
    path = tmp_path / "events.jsonl"
    with TelemetrySession(path) as session:
        session.telemetry("k").emit("campaign", phase="begin")
        session.flush()
        assert len(read_events(path)) == 1  # visible before close
