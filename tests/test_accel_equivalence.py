"""The one accelerator stage loop against the two it replaced.

``tests/accel_reference.py`` keeps the baseline accelerator's own
``stage_breakdown`` (with its ``BaselineConfig``) and RPAccel's per-stage
``stage_execution``.  Over 1-3-stage funnels of the six zoo models' reference
costs (and those costs with 8x the embedding storage), non-increasing item
counts, every combination of the four Figure 5 switches, explicit or default
sub-array counts and static-cache splits, the accelerator layer must
reproduce both exactly: every breakdown field, every sub-array count, the
baseline's unloaded latency and every stage resource of both plans compare
with ``==``.
"""

import dataclasses
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.accel import BaselineAccelerator, RPAccel
from repro.models.zoo import NMF_LARGE, NMF_MED, NMF_SMALL, RM_LARGE, RM_MED, RM_SMALL
from tests.accel_reference import ReferenceBaselineAccelerator, ReferenceRPAccel

_REFERENCE_COSTS = [
    spec.reference_cost() for spec in (RM_SMALL, RM_MED, RM_LARGE, NMF_SMALL, NMF_MED, NMF_LARGE)
]
COSTS = _REFERENCE_COSTS + [cost.scaled(8) for cost in _REFERENCE_COSTS]
#: Every on/off combination of (reconfigurable, onchip_filter, lookahead, pipelined).
SWITCHES = list(itertools.product((False, True), repeat=4))


@st.composite
def funnels(draw):
    """Stage costs and non-increasing item counts of a 1-3-stage funnel."""
    num_stages = draw(st.integers(1, 3))
    costs = draw(st.lists(st.sampled_from(COSTS), min_size=num_stages, max_size=num_stages))
    items = draw(st.lists(st.integers(1, 8192), min_size=num_stages, max_size=num_stages))
    return costs, sorted(items, reverse=True)


@st.composite
def mappings(draw):
    """A funnel plus RPAccel's sub-array counts and frontend static-cache share."""
    costs, items = draw(funnels())
    subarrays = draw(
        st.none() | st.lists(st.integers(1, 16), min_size=len(costs), max_size=len(costs))
    )
    fraction = draw(st.none() | st.floats(0.0, 1.0))
    return costs, items, subarrays, fraction


def _executions(executions):
    return [(dataclasses.astuple(e.breakdown), e.num_subarrays) for e in executions]


class TestBaselineAccelerator:
    @settings(max_examples=50, deadline=None)
    @given(funnels())
    def test_matches_its_own_stage_model(self, funnel):
        costs, items = funnel
        accel, reference = BaselineAccelerator(), ReferenceBaselineAccelerator()
        breakdowns = [dataclasses.astuple(b) for b in accel.query_breakdown(costs, items)]
        expected = [dataclasses.astuple(b) for b in reference.query_breakdown(costs, items)]
        assert breakdowns == expected
        assert accel.query_latency(costs, items) == reference.query_latency(costs, items)
        plan, expected = accel.plan_query(costs, items), reference.plan_query(costs, items)
        assert plan.stages == expected.stages
        assert (plan.platform, plan.description) == (expected.platform, expected.description)


class TestRPAccel:
    @pytest.mark.parametrize(
        "reconfigurable, onchip_filter, lookahead, pipelined",
        SWITCHES,
        ids=["".join("+" if on else "-" for on in switches) for switches in SWITCHES],
    )
    @settings(max_examples=10, deadline=None)
    @given(mappings())
    def test_matches_per_stage_execution(
        self, reconfigurable, onchip_filter, lookahead, pipelined, mapping
    ):
        costs, items, subarrays, fraction = mapping
        options = dict(
            subarrays_per_stage=subarrays,
            reconfigurable=reconfigurable,
            onchip_filter=onchip_filter,
            lookahead=lookahead,
            frontend_cache_fraction=fraction,
        )
        accel, reference = RPAccel(), ReferenceRPAccel()
        executions = _executions(accel.query_executions(costs, items, **options))
        assert executions == _executions(reference.query_executions(costs, items, **options))
        plan = accel.plan_query(costs, items, pipelined=pipelined, **options)
        expected = reference.plan_query(costs, items, pipelined=pipelined, **options)
        assert plan.stages == expected.stages
        assert (plan.platform, plan.description) == (expected.platform, expected.description)
