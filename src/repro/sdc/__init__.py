"""SDC anatomy: error-pattern fingerprints, severity classes, profiles.

The campaign engine classifies a trial *SDC* when the outputs differ
bitwise from the golden run — a binary verdict that discards what the
corruption looked like. This package turns every SDC trial into:

* a bounded-size **fingerprint** of the error pattern
  (:mod:`repro.sdc.fingerprint`): corrupted-word count, spatial
  extent/burstiness, bit-position histogram, error magnitude, sign flips,
  NaN/Inf production;
* a **severity verdict** (:mod:`repro.sdc.severity`): TOLERABLE vs
  CRITICAL by the application's own quality metric, defaulting to
  CRITICAL for exact-output apps;
* per-injection-site **corruption profiles** (:mod:`repro.sdc.profile`)
  aggregating fingerprints into the report ``repro.cli sdc profile``
  renders.

Campaigns opt in with ``CampaignSpec(sdc_anatomy=True)``; the engine then
calls :func:`analyze_sdc` on every SDC trial and threads the record
through journals, tallies, cache payloads and telemetry.
"""

from repro.sdc.fingerprint import (
    BIT_BUCKETS,
    SDCFingerprint,
    fingerprint_outputs,
)
from repro.sdc.profile import (
    CorruptionProfile,
    build_profiles,
    records_from_journal,
    records_from_result,
    render_profiles,
)
from repro.sdc.severity import (
    QualityMetric,
    SDCSeverity,
    SeverityVerdict,
    classify_sdc,
    quality_metric,
    quality_metrics,
    register_quality_metric,
    registered_metric,
)

__all__ = [
    "BIT_BUCKETS",
    "CorruptionProfile",
    "QualityMetric",
    "SDCFingerprint",
    "SDCSeverity",
    "SeverityVerdict",
    "analyze_sdc",
    "build_profiles",
    "classify_sdc",
    "fingerprint_outputs",
    "quality_metric",
    "quality_metrics",
    "records_from_journal",
    "records_from_result",
    "register_quality_metric",
    "registered_metric",
    "render_profiles",
]


def analyze_sdc(app_name: str, faulty: dict, golden: dict,
                site: str = "") -> dict:
    """One SDC trial -> the compact journal-ready anatomy record.

    The record is plain JSON-serializable data: the injection ``site``,
    the severity verdict, and the fingerprint dict. Campaign journals
    store it as the trial record's ``sdc`` field; cache payloads collect
    them under ``sdc_anatomy.records``.
    """
    fingerprint = fingerprint_outputs(faulty, golden)
    verdict = classify_sdc(app_name, faulty, golden)
    return {
        "site": site,
        "severity": verdict.severity.value,
        "metric": verdict.metric,
        "score": round(float(verdict.score), 6),
        "fingerprint": fingerprint.to_dict(),
    }
