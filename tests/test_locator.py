"""One campaign locator: keys to artifact paths, targets to keys, and the
one JSONL log reader — plus every key-taking command resolving a target
through it."""

import json

import pytest

from repro.cli import main
from repro.locator import (
    campaign_files,
    events_path,
    journal_path,
    locate,
    read_jsonl,
    result_path,
)
from repro.store import RunLedger, store_path


# ---------------------------------------------------------------- reader

def test_read_jsonl_prefix_ends_at_first_non_object_line(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n[1, 2]\n{"b": 2}\n')
    assert read_jsonl(path) == [{"a": 1}]


def test_read_jsonl_reports_valid_prefix_length_and_never_writes(tmp_path):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b": 2}\n{"c"')
    before = path.read_bytes()
    cuts = []
    assert read_jsonl(path, on_torn=cuts.append) == [{"a": 1}, {"b": 2}]
    assert cuts == [len('{"a": 1}\n{"b": 2}\n')]
    assert path.read_bytes() == before
    cuts.clear()
    path.write_text('{"a": 1}\n')
    read_jsonl(path, on_torn=cuts.append)
    assert cuts == []  # nothing torn, nothing to cut


def test_read_jsonl_warns_on_a_torn_tail_unless_tailing(tmp_path, caplog):
    path = tmp_path / "log.jsonl"
    path.write_text('{"a": 1}\n{"b"')
    with caplog.at_level("WARNING"):
        assert read_jsonl(path, warn=False) == [{"a": 1}]
        assert not caplog.text
        read_jsonl(path, "entry")
    assert "log.jsonl has a torn record after 1 entry(s)" in caplog.text


# --------------------------------------------------------------- locator

def test_campaign_files_live_under_the_cache(tmp_cache):
    files = campaign_files("k1")
    assert files.key == "k1"
    assert files.result == result_path("k1") == tmp_cache / "k1.json"
    assert files.journal == journal_path("k1") == (
        tmp_cache / "journal" / "k1.jsonl")
    assert files.events == events_path("k1") == (
        tmp_cache / "telemetry" / "k1.jsonl")


def test_locate_every_target_form(tmp_cache, tmp_path):
    files = campaign_files("k1")
    assert locate("k1") == files
    for path in (files.result, files.journal, files.events):
        path.parent.mkdir(parents=True, exist_ok=True)
    files.result.write_text("{}")
    files.journal.write_text(json.dumps({"event": "meta"}) + "\n")
    named = tmp_path / "custom.jsonl"
    named.write_text(json.dumps({"ts": 0.0, "kind": "cache", "name": "",
                                 "campaign": "k1", "worker": None}) + "\n")
    assert locate(str(files.result)) == files
    assert locate(str(files.journal)) == files
    # a stream names its campaign in its events, whatever its file name
    assert locate(str(named)) == files._replace(events=named)


def test_locate_fails_loudly(tmp_cache, tmp_path):
    with pytest.raises(LookupError, match="no such file"):
        locate(str(tmp_path / "absent.jsonl"))
    nameless = tmp_path / "nameless.jsonl"
    nameless.write_text(json.dumps({"ts": 0.0, "kind": "span",
                                    "campaign": ""}) + "\n")
    with pytest.raises(LookupError, match="name no campaign"):
        locate(str(nameless))
    other = tmp_path / "other.jsonl"
    other.write_text('{"x": 1}\n')
    with pytest.raises(LookupError, match="not a campaign"):
        locate(str(other))


# ------------------------------------------------- the commands, end to end

def _run(*extra):
    args = ["campaign", "run", "va", "--level", "sw", "--trials", "6",
            "--quiet", *extra]
    assert main(args) == 0


def _printed_key(out: str) -> str:
    return next(line.split()[1] for line in out.splitlines()
                if line.startswith("  key: "))


def test_every_command_resolves_every_target_form(capsys, tmp_cache):
    _run("--telemetry", "--sdc-anatomy")
    key = _printed_key(capsys.readouterr().out)
    files = campaign_files(key)
    assert files.result.is_file() and files.events.is_file()
    # the finished campaign's journal is gone; an in-flight copy of it
    # still names the campaign by its file name
    files.journal.parent.mkdir(parents=True, exist_ok=True)
    files.journal.write_text(json.dumps(
        {"event": "meta", "tag": "va/va_k1/sw", "trials": 6}) + "\n")
    for target in (key, str(files.result), str(files.journal),
                   str(files.events)):
        assert locate(target).key == key
        assert main(["campaign", "report", target]) == 0
        assert f"campaign {key}" in capsys.readouterr().out
        assert main(["campaign", "show", target]) == 0
        assert key in capsys.readouterr().out
        assert main(["campaign", "watch", target, "--once"]) == 0
        assert "[running]" in capsys.readouterr().out
        assert main(["sdc", "profile", target]) == 0
        assert f"corruption profiles: {key}" in capsys.readouterr().out
        assert main(["perf", "record", "b", target]) == 0
        assert main(["perf", "check", target, "--name", "b"]) == 0
        capsys.readouterr()
    with RunLedger(store_path()) as ledger:
        samples = ledger.perf_samples()
    # every sample, the campaign's own and the four recorded, is filed
    # under the one cache key
    assert {s["cache_key"] for s in samples} == {key}
    assert sum(s["source"] == "perf-record" for s in samples) == 4

