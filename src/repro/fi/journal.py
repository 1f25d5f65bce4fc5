"""Append-only trial journal: checkpoint/resume for FI campaigns.

Real FI harnesses journal every injection result before moving to the next
one (DrSEUs logs each trial to a database; DAVOS checkpoints every SBFI
phase), so a crashed or preempted campaign never redoes completed work.
This module provides the same guarantee for ``repro`` campaigns:

* Each completed trial is appended as one JSON line to
  ``.repro_cache/journal/<key>.jsonl`` and flushed+fsynced before the next
  trial starts, so at most the in-flight trial is lost to a crash.
* ``load()`` is crash-tolerant: a SIGKILL mid-append leaves a truncated
  final line, which is detected and dropped (the journal file is compacted
  back to its valid prefix so later appends stay well-formed).
* Completed campaigns delete their journal; the final tally lives in the
  regular result cache instead.

Journal records are dicts with an ``event`` field:

* ``{"event": "meta", "tag": t, "root_seed": s, "trials": n, ...}`` —
  written once when the journal is created; identifies the campaign the
  journal belongs to so ``repro.cli campaign status`` can tell a resumable
  journal from a stale one (changed ``REPRO_TRIALS``, seed, or cache
  version) without knowing the campaign's cache key preimage.
* ``{"event": "trial", "trial": i, "seed": s, "outcome": o, "cycles": c}``
  — trial ``i`` completed with outcome ``o`` (a :class:`FaultOutcome`
  value string).
* ``{"event": "crash", "trial": i, "seed": s, "error": r, "traceback": t,
  "retry": bool}`` — an attempt at trial ``i`` raised an unexpected
  exception; diagnostic only, never replayed into tallies.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import NamedTuple

from repro.locator import journal_dir, journal_path, read_jsonl
from repro.log import get_logger

log = get_logger(__name__)


class CampaignJournal:
    """One campaign's append-only JSONL trial log, keyed by its cache key."""

    def __init__(self, key: str, directory: Path | None = None):
        self.key = key
        self.path = journal_path(key, directory)

    def exists(self) -> bool:
        return self.path.exists()

    def load(self) -> list[dict]:
        """Return all valid records, dropping a torn tail if the writer died
        mid-append (the file is cut back to its valid prefix so future
        appends stay valid)."""
        try:
            return read_jsonl(self.path, "journal record", self._compact)
        except OSError as exc:
            log.warning("journal %s unreadable (%s); starting fresh",
                        self.path, exc)
            return []

    def _compact(self, valid_bytes: int) -> None:
        """Truncate the journal to its valid prefix, durably."""
        try:
            with open(self.path, "r+b") as f:
                f.truncate(valid_bytes)
                f.flush()
                os.fsync(f.fileno())
        except OSError as exc:
            log.warning("could not compact journal %s: %s", self.path, exc)

    def append(self, record: dict) -> None:
        """Append one record and force it to disk before returning."""
        self.append_many([record])

    def append_many(self, records: list[dict]) -> None:
        """Append several records with a single flush+fsync.

        Used by the parallel execution pool when a burst of out-of-order
        trial results becomes journalable at once: every record still hits
        the disk before the method returns, but the batch pays for one
        fsync instead of one per record. The file remains a valid prefix
        at every instant (records are written whole lines, in order).
        """
        if not records:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "a", encoding="utf-8") as f:
            for record in records:
                f.write(json.dumps(record, sort_keys=True) + "\n")
            f.flush()
            os.fsync(f.fileno())

    def discard(self) -> None:
        """Delete the journal (campaign finished, or its log is stale)."""
        try:
            self.path.unlink()
        except FileNotFoundError:
            pass
        except OSError as exc:
            log.warning("could not delete journal %s: %s", self.path, exc)


class JournalInfo(NamedTuple):
    """One in-flight campaign journal, as reported by :func:`list_journals`."""

    key: str
    trials: int  # completed trial records
    crashes: int  # crash events (diagnostic)
    meta: dict | None  # the journal's "meta" record, if it has one
    records: list[dict]  # the trial records, for validity checks


def list_journals(directory: Path | None = None) -> list[JournalInfo]:
    """Inspect in-flight campaigns: one :class:`JournalInfo` per journal
    file, sorted by key. (Tuple-compatible with the historical
    ``(key, trials, crashes)`` shape.) Read-only: a journal's own writer
    may be appending to it, so a torn tail is skipped, never cut."""
    d = directory if directory is not None else journal_dir()
    out: list[JournalInfo] = []
    if not d.is_dir():
        return out
    for path in sorted(d.glob("*.jsonl")):
        records = read_jsonl(path, "journal record")
        trials = [r for r in records if r.get("event") == "trial"]
        crashes = sum(1 for r in records if r.get("event") == "crash")
        meta = next((r for r in records if r.get("event") == "meta"), None)
        out.append(JournalInfo(path.stem, len(trials), crashes, meta, trials))
    return out
