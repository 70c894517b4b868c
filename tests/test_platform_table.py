"""The platform table: every platform is registered once, and in full.

``repro.core.mapping.PLATFORMS`` names every hardware platform.  The
scheduler plans through it, the fleet prices nodes through it, and the sweep
axis, the ``platforms`` and ``nodes`` knobs and node mixes take their
vocabulary from it.  A platform that plans but has no price, or that one of
those vocabularies lacks, fails here.
"""

import pytest

from repro.cluster.fleet import HOST_BASE_COST_USD, node_cost_usd
from repro.core import mapping, sweep
from repro.core.scheduler import RecPipeScheduler
from repro.experiments.common import criteo_one_stage, criteo_three_stage, criteo_two_stage
from repro.scenarios.knobs import KNOBS, ScenarioError, parse_mix

TABLE = tuple(mapping.PLATFORMS)

#: Dollars per node, exactly: die area and power plus one host.
NODE_PRICES = {
    "cpu": 27_000.0,
    "gpu": 18_100.0,
    "gpu-cpu": 42_100.0,
    "baseline-accel": 6_057.472,
    "rpaccel": 6_952.20352,
}


def test_the_table_keeps_its_order():
    assert TABLE == ("cpu", "gpu", "gpu-cpu", "baseline-accel", "rpaccel")


@pytest.mark.parametrize("platform", TABLE)
@pytest.mark.parametrize("funnel", [criteo_one_stage, criteo_two_stage, criteo_three_stage])
def test_every_platform_plans_every_funnel_depth(platform, funnel):
    plan = RecPipeScheduler(None).plan_for(funnel(), platform)
    assert plan.stages
    assert 0.0 < plan.unloaded_latency() < float("inf")
    assert 0.0 < plan.throughput_capacity() < float("inf")


def test_unknown_platforms_are_refused_with_the_table_keys():
    with pytest.raises(ValueError, match="rpaccel"):
        RecPipeScheduler(None).plan_for(criteo_one_stage(), "tpu")


def test_every_platform_prices_a_node_at_its_pinned_price():
    assert {platform: node_cost_usd(platform) for platform in TABLE} == NODE_PRICES


def test_a_two_device_node_pays_for_both_devices_and_one_host():
    both = node_cost_usd("cpu") + node_cost_usd("gpu") - HOST_BASE_COST_USD
    assert node_cost_usd("gpu-cpu") == both


def test_every_vocabulary_is_the_table():
    assert sweep.PLATFORMS == TABLE
    assert KNOBS["platforms"].check == TABLE
    assert KNOBS["nodes"].check == TABLE
    assert parse_mix("+".join(TABLE)) == TABLE
    with pytest.raises(ScenarioError, match="unknown platform"):
        parse_mix("tpu")
