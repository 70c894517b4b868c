"""Fixed numbers the fleet layer reads are computed once.

The capacity planner reads every path's bottleneck capacity and every
node's price once per platform mix; a path's capacity and a platform's
price never change, so each is derived once.
"""

from repro.accel.area_power import AreaPowerModel
from repro.cluster import NodeSpec, node_cost_usd
from repro.models.zoo import RM_SMALL
from repro.serving.resources import PipelinePlan
from tests.conftest import make_path


def test_capacity_and_price_are_computed_once(monkeypatch):
    """A path walks its plan once for its capacity, and a platform is priced once."""
    walks, builds = [], []
    walk, build = PipelinePlan.throughput_capacity, AreaPowerModel.rpaccel_breakdown
    monkeypatch.setattr(
        PipelinePlan, "throughput_capacity", lambda plan: walks.append(plan) or walk(plan)
    )
    monkeypatch.setattr(
        AreaPowerModel, "rpaccel_breakdown", lambda model: builds.append(model) or build(model)
    )
    path = make_path("cpu", RM_SMALL, service_ms=2.0, servers=4, quality=90.0)
    assert [path.capacity_qps for _ in range(3)] == [2000.0] * 3
    assert len(walks) == 1
    node_cost_usd.cache_clear()
    nodes = [NodeSpec("n0", "rpaccel", 1), NodeSpec("n1", "rpaccel", 1)]
    assert nodes[0].cost_usd == nodes[1].cost_usd < node_cost_usd("cpu")
    assert len(builds) == 1
