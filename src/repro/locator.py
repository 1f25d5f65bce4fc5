"""Where a campaign's artifacts live, and which campaign a target names.

A campaign is reached through its cache key, the way DrSEUs reaches every
artifact of a campaign through one campaign id. Under the cache directory
(``REPRO_CACHE_DIR``, default ``.repro_cache``) a key owns three files:

* ``<key>.json`` — the cached ``CampaignResult`` payload of a finished
  campaign;
* ``journal/<key>.jsonl`` — the trial journal of an in-flight campaign
  (deleted when it finishes);
* ``telemetry/<key>.jsonl`` — its telemetry event stream.

:func:`campaign_files` maps a key to those paths. :func:`locate` maps a
command-line *target* to the key and its files: a target is a key or a
path to any of the three files. A result or journal file is named by its
key; an event stream names its campaign in the ``campaign`` field of its
events, so a stream written elsewhere (``campaign run --events PATH``)
still resolves. The file a target names stands in for its own role.

:func:`read_jsonl` is the one reader of the JSONL logs (journals and
event streams). This module imports nothing of the fault-injection stack,
so telemetry, store and fi can all use it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, NamedTuple

from repro.config import get_settings
from repro.log import get_logger

__all__ = [
    "CampaignFiles", "cache_dir", "campaign_files", "events_path",
    "journal_dir", "journal_path", "locate", "read_jsonl", "result_path",
    "telemetry_dir",
]

log = get_logger(__name__)


def cache_dir() -> Path:
    """Campaign cache location (``REPRO_CACHE_DIR``, default
    ``.repro_cache``)."""
    return get_settings().cache_dir


def journal_dir() -> Path:
    """Where in-flight campaign journals live."""
    return cache_dir() / "journal"


def telemetry_dir() -> Path:
    """Where campaign event streams live."""
    return cache_dir() / "telemetry"


def result_path(key: str) -> Path:
    """The cached result payload of campaign ``key``."""
    return cache_dir() / f"{key}.json"


def journal_path(key: str, directory: Path | None = None) -> Path:
    """The journal of campaign ``key`` (in ``directory`` instead of
    :func:`journal_dir` when given)."""
    return (journal_dir() if directory is None else directory) \
        / f"{key}.jsonl"


def events_path(key: str) -> Path:
    """The telemetry event stream of campaign ``key``."""
    return telemetry_dir() / f"{key}.jsonl"


class CampaignFiles(NamedTuple):
    """One campaign's key and the paths of its artifacts (which need not
    exist)."""

    key: str
    result: Path
    journal: Path
    events: Path


def campaign_files(key: str) -> CampaignFiles:
    """The artifact paths of campaign ``key``."""
    return CampaignFiles(key, result_path(key), journal_path(key),
                         events_path(key))


def locate(target: str | Path | CampaignFiles) -> CampaignFiles:
    """The campaign a command-line target names, and its files.

    ``target`` is a campaign key or a path to a result ``.json``, a
    journal or an event stream; the named file replaces the default path
    of its role. Already located files are returned as they are. Raises
    :class:`LookupError` for a path that does not exist, an event stream
    whose events name no campaign, or a file that is none of the three.
    """
    if isinstance(target, CampaignFiles):
        return target
    path = Path(target)
    if not path.is_file():
        if path.suffix in (".json", ".jsonl") or len(path.parts) > 1:
            raise LookupError(f"no such file: {target}")
        return campaign_files(str(target))
    if path.suffix == ".json":
        return campaign_files(path.stem)._replace(result=path)
    records = read_jsonl(path, warn=False)  # only the first line matters
    first = records[0] if records else {}
    if "kind" in first:  # a telemetry event
        key = first.get("campaign")
        if not key:
            raise LookupError(f"the events in {target} name no campaign")
        return campaign_files(str(key))._replace(events=path)
    if "event" in first:  # a journal record
        return campaign_files(path.stem)._replace(journal=path)
    raise LookupError(f"{target} is not a campaign result, journal or "
                      f"event stream")


def read_jsonl(path: Path | str, what: str = "record",
               on_torn: Callable[[int], None] | None = None, *,
               warn: bool = True) -> list[dict]:
    """The valid prefix of a JSONL log, one dict per line.

    The prefix ends at the first line that is not a JSON object: a writer
    killed (or still writing) mid-line leaves a torn tail, which is
    dropped with a logged warning that counts the kept lines as ``what``.
    A live tail, which expects a half-written last line, passes
    ``warn=False``. A missing file reads as empty. Reading never changes
    the file; the file's single writer may pass ``on_torn``, which is
    called with the byte length of the valid prefix, to cut the tail
    away.
    """
    try:
        raw = Path(path).read_bytes()
    except FileNotFoundError:
        return []
    records: list[dict] = []
    valid_bytes = 0
    for line in raw.splitlines(keepends=True):
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if not isinstance(record, dict):
            if warn:
                log.warning("%s has a torn record after %d %s(s); "
                            "dropping the tail", Path(path).name,
                            len(records), what)
            if on_torn is not None:
                on_torn(valid_bytes)
            break
        records.append(record)
        valid_bytes += len(line)
    return records
