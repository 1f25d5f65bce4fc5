"""Corruption profiles: aggregated SDC anatomy per injection site.

A campaign run with ``CampaignSpec(sdc_anatomy=True)`` attaches one
anatomy record to every SDC trial (see :func:`repro.sdc.analyze_sdc`)::

    {"trial": 17, "site": "rf", "severity": "critical",
     "metric": "exact-output", "score": 0.0, "fingerprint": {...}}

``site`` is the injection target — the hardware structure for
microarchitecture-level campaigns (``rf``, ``smem``, ``l1d``, ...), the
injected instruction class for software-level campaigns (``load``/``alu``),
``src`` for source-level ones. :func:`build_profiles` folds a stream of
such records into per-site (or per-severity, per-metric, ...)
:class:`CorruptionProfile` aggregates and :func:`render_profiles` renders
them as the table ``repro.cli sdc profile`` prints, including a bit-position
density sparkline (LSB on the left).

Records come from either live journals (:func:`records_from_journal` over
the records :func:`repro.locator.read_jsonl` reads) or completed cached
results (:func:`records_from_result`).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.sdc.fingerprint import BIT_BUCKETS

__all__ = [
    "CorruptionProfile", "build_profiles", "records_from_journal",
    "records_from_result", "render_profiles",
]

#: Density ramp for the bit-position sparkline ('.' = few, '@' = peak).
_RAMP = " .:-=+*#%@"


@dataclass
class CorruptionProfile:
    """Running aggregate of anatomy records for one group (site, ...)."""

    group: str
    n: int = 0
    tolerable: int = 0
    critical: int = 0
    corrupted_words: int = 0  # summed over records
    max_corrupted_words: int = 0
    extent: int = 0  # summed
    flipped_bits: int = 0
    bit_histogram: list[int] = field(
        default_factory=lambda: [0] * BIT_BUCKETS)
    nan_trials: int = 0
    inf_trials: int = 0
    sign_flip_trials: int = 0
    shape_mismatches: int = 0
    max_abs_err: float = 0.0
    max_rel_err: float = 0.0

    def add(self, record: dict) -> None:
        self.n += 1
        if record.get("severity") == "tolerable":
            self.tolerable += 1
        else:
            self.critical += 1
        fp = record.get("fingerprint") or {}
        words = int(fp.get("corrupted_words", 0))
        self.corrupted_words += words
        self.max_corrupted_words = max(self.max_corrupted_words, words)
        self.extent += int(fp.get("extent", 0))
        self.flipped_bits += int(fp.get("flipped_bits", 0))
        for b, count in enumerate(fp.get("bit_histogram", ())):
            if b < BIT_BUCKETS:
                self.bit_histogram[b] += int(count)
        if fp.get("nans_introduced"):
            self.nan_trials += 1
        if fp.get("infs_introduced"):
            self.inf_trials += 1
        if fp.get("sign_flips"):
            self.sign_flip_trials += 1
        if fp.get("shape_mismatch"):
            self.shape_mismatches += 1
        self.max_abs_err = max(self.max_abs_err,
                               float(fp.get("max_abs_err", 0.0)))
        self.max_rel_err = max(self.max_rel_err,
                               float(fp.get("max_rel_err", 0.0)))

    @property
    def mean_corrupted_words(self) -> float:
        return self.corrupted_words / self.n if self.n else 0.0

    @property
    def mean_extent(self) -> float:
        return self.extent / self.n if self.n else 0.0

    @property
    def critical_fraction(self) -> float:
        return self.critical / self.n if self.n else 0.0

    def bit_sparkline(self) -> str:
        """32-char density string of the bit-position histogram, LSB first."""
        peak = max(self.bit_histogram) or 1
        top = len(_RAMP) - 1
        return "".join(
            _RAMP[min(top, -(-count * top // peak))]  # ceil: any hit shows
            for count in self.bit_histogram)


def build_profiles(records: list[dict], by: str = "site"
                   ) -> dict[str, CorruptionProfile]:
    """Group anatomy records by a record field (default: injection site)."""
    profiles: dict[str, CorruptionProfile] = {}
    for record in records:
        group = str(record.get(by) or "?")
        profile = profiles.get(group)
        if profile is None:
            profile = profiles[group] = CorruptionProfile(group=group)
        profile.add(record)
    return profiles


def render_profiles(profiles: dict[str, CorruptionProfile],
                    title: str = "corruption profiles",
                    by: str = "site") -> str:
    """The per-group corruption-profile table."""
    from repro.analysis.report import format_table  # deferred: avoids cycle

    rows = []
    for group in sorted(profiles):
        p = profiles[group]
        rows.append([
            group, p.n, p.critical, p.tolerable,
            f"{p.mean_corrupted_words:.1f}/{p.max_corrupted_words}",
            f"{p.mean_extent:.1f}",
            f"{p.nan_trials}/{p.inf_trials}/{p.sign_flip_trials}",
            f"{p.max_rel_err:.3g}",
            p.bit_sparkline(),
        ])
    table = format_table(
        [by, "sdc", "crit", "tol", "words mean/max", "extent",
         "NaN/Inf/sign", "max rel err", "bit positions (LSB..MSB)"],
        rows)
    total = sum(p.n for p in profiles.values())
    critical = sum(p.critical for p in profiles.values())
    mism = sum(p.shape_mismatches for p in profiles.values())
    note = (f"{total} SDC trial(s): {critical} critical, "
            f"{total - critical} tolerable")
    if mism:
        note += f", {mism} with corrupted output shapes"
    return f"== {title} ==\n{table}\n{note}"


def records_from_journal(records: list[dict]) -> list[dict]:
    """Anatomy records out of raw journal records (``sdc`` field of trial
    records, tagged with their trial index)."""
    out: list[dict] = []
    for rec in records:
        if rec.get("event") == "trial" and isinstance(rec.get("sdc"), dict):
            out.append({"trial": rec.get("trial"), **rec["sdc"]})
    return out


def records_from_result(payload: dict) -> list[dict]:
    """Anatomy records out of a cached ``CampaignResult`` payload dict."""
    anatomy = payload.get("sdc_anatomy")
    if not isinstance(anatomy, dict):
        return []
    return list(anatomy.get("records") or [])
