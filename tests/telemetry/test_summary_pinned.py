"""``campaign report`` output of a recorded two-worker stream, pinned.

``data/pool_stream.jsonl`` is the telemetry stream of ``campaign run va
--level sw --trials 6 --workers 2``. Its rendered summary and every
:class:`CampaignSummary` field must stay exactly as recorded: perfbench
reads ``worker_busy`` and ``worker_utilization`` off the same summary.
Regenerate the goldens with ``python tests/telemetry/test_summary_pinned.py``
only when the summary is meant to change.
"""

import dataclasses
import json
from pathlib import Path

from repro.telemetry import read_events, render_summary, summarize_events
from repro.telemetry.metrics import Histogram

DATA = Path(__file__).parent / "data"
STREAM = DATA / "pool_stream.jsonl"


def _plain(value):
    if isinstance(value, Histogram):
        return value.snapshot()
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    return value


def _fields(summary) -> dict:
    fields = {f.name: _plain(getattr(summary, f.name))
              for f in dataclasses.fields(summary)}
    # dict order is part of what readers iterate (perfbench sums busy
    # time in worker order), so pin it too
    fields["order"] = {name: list(fields[name]) for name in
                       ("worker_trials", "worker_busy",
                        "worker_utilization")}
    return fields


def _summary():
    return summarize_events(read_events(STREAM))


def test_render_summary_of_recorded_pool_stream_is_pinned():
    expected = (DATA / "pool_stream.summary.txt").read_text(encoding="utf-8")
    assert render_summary(_summary()) + "\n" == expected


def test_summary_fields_of_recorded_pool_stream_are_pinned():
    expected = json.loads(
        (DATA / "pool_stream.fields.json").read_text(encoding="utf-8"))
    assert json.loads(json.dumps(_fields(_summary()))) == expected


if __name__ == "__main__":
    s = _summary()
    (DATA / "pool_stream.summary.txt").write_text(
        render_summary(s) + "\n", encoding="utf-8")
    (DATA / "pool_stream.fields.json").write_text(
        json.dumps(_fields(s), indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
