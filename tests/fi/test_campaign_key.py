"""The exposed campaign key is the key each result is cached under.

``campaign run`` prints :func:`campaign_key` and every key-taking command
looks a campaign up by it, so a cache entry filed under any other key
would be unreachable: a cache identity that disagrees with the computed
key is a P0 bug.
"""

import json

import pytest

from repro.fi import CampaignSpec, StopRule, campaign_key, run_campaign
from repro.locator import result_path

CELLS = {
    "uarch": dict(level="uarch", structure="rf", trials=3),
    "sw": dict(level="sw", trials=3),
    "sw-ld": dict(level="sw-ld", trials=3),
    "src": dict(level="src", trials=3),
    "src-sticky": dict(level="src-sticky", trials=3),
    "harden": dict(level="sw", harden="tmr", trials=2),
    "fault-model-target": dict(level="uarch", fault_model="intermittent",
                               target="control", trials=2),
    "stop-rule-budget": dict(level="uarch", structure="rf",
                             stop_rule=StopRule(ci_halfwidth=0.45,
                                                min_trials=2),
                             budget=4),
    "sdc-anatomy": dict(level="sw", sdc_anatomy=True, trials=3),
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_result_is_cached_under_campaign_key(cell, tmp_cache):
    spec = CampaignSpec(app="va", **CELLS[cell])
    result = run_campaign(spec)
    key = campaign_key(spec)
    assert [p.stem for p in tmp_cache.glob("*.json")] == [key]
    cached = json.loads(result_path(key).read_text())
    assert cached == json.loads(json.dumps(result.to_dict()))


def test_campaign_key_validates_like_run_campaign():
    from repro.errors import ConfigError

    with pytest.raises(ConfigError, match="unknown campaign level"):
        campaign_key(CampaignSpec(level="nope", app="va"))
    with pytest.raises(ConfigError, match="no notion"):
        campaign_key(CampaignSpec(level="sw", app="va",
                                  fault_model="stuck1"))
