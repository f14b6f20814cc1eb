"""Shared fixtures: platforms and fast Monte-Carlo settings."""

from __future__ import annotations

import numpy as np
import pytest

from repro.platforms.catalog import atlas, coastal, coastal_ssd, hera
from repro.platforms.platform import Platform, default_costs


@pytest.fixture(autouse=True)
def _fresh_campaign_pool():
    """Close the resident campaign pool after each test.

    Its workers are forked copies of the test process: a pool kept from
    an earlier test would miss a later test's monkeypatches.
    """
    yield
    from repro.campaign.pool import _close_campaign_pool

    _close_campaign_pool()


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic generator for unit tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def hera_platform() -> Platform:
    return hera()


@pytest.fixture
def atlas_platform() -> Platform:
    return atlas()


@pytest.fixture(params=["hera", "atlas", "coastal", "coastal_ssd"])
def any_platform(request) -> Platform:
    """Parametrised over the four Table-2 platforms."""
    return {
        "hera": hera,
        "atlas": atlas,
        "coastal": coastal,
        "coastal_ssd": coastal_ssd,
    }[request.param]()


@pytest.fixture
def tiny_platform() -> Platform:
    """A small synthetic platform with exaggerated rates for fast tests.

    MTBF ~ 2000 s against second-scale costs: errors are frequent enough
    that short simulations exercise every code path, while the first-order
    assumptions still roughly hold.
    """
    return Platform(
        name="tiny",
        nodes=4,
        lambda_f=2e-4,
        lambda_s=3e-4,
        costs=default_costs(C_D=20.0, C_M=2.0),
    )


@pytest.fixture
def chunk_sizes():
    """``chunk_sizes(n, workers)``: bucket sizes the planner cuts ``n``
    non-packable points into for ``workers`` workers, largest first."""
    from repro.campaign.planner import DEFAULT_PACK_ROWS, plan_buckets
    from repro.campaign.spec import ScenarioPoint, platform_to_dict

    point = ScenarioPoint(
        mode="optimize", kind="PD", platform=platform_to_dict(hera())
    )

    def sizes(n_points: int, workers: int):
        items = [(str(i), point) for i in range(n_points)]
        return [
            len(b)
            for b in plan_buckets(items, DEFAULT_PACK_ROWS, workers=workers)
        ]

    return sizes
