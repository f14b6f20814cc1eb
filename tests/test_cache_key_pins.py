"""Literal cache-key bytes for one point of each keying branch.

A cache key is the SHA-256 of a canonical JSON payload; every on-disk
cache entry, campaign journal line and job journal line is addressed by
it.  A change to these digests orphans every stored result, so it must
only ever happen on purpose (a schema, semantics or version bump) --
never as a side effect of refactoring how or when the key is computed.
"""

import pytest

from repro.campaign.cache import cache_key
from repro.campaign.spec import ScenarioPoint

#: The Hera platform of the paper's Table 2, spelled out so the pins do
#: not depend on the platform catalog.
HERA = {
    "name": "Hera",
    "nodes": 256,
    "lambda_f": 9.46e-07,
    "lambda_s": 3.38e-06,
    "costs": {"C_D": 300.0, "C_M": 15.4, "R_D": 300.0, "R_M": 15.4,
              "V_star": 15.4, "V": 0.154, "r": 0.8},
}

PINS = [
    (
        "auto",
        dict(mode="simulate", kind="PDMV", n_patterns=20, n_runs=5,
             seed=20160601, labels={"factor": 1}),
        "7a5676603b989dbf17d706a09f36a76cc5c42e16bdb3f8236083022fa7a96fba",
    ),
    (
        "packed",
        dict(mode="simulate", kind="PDM", n_patterns=8, n_runs=4, seed=7,
             engine="packed"),
        "f967e200f6028fa4529dd3838b65fac2a5a29dbf761245c4a909869f34d19f4c",
    ),
    (
        "analytic",
        dict(mode="simulate", kind="PD", engine="analytic"),
        "a185d3f499a55c11682370452f915e0174e2a969116bce42ec3c4d341da3d283",
    ),
    (
        "optimize",
        dict(mode="optimize", kind="PDV*"),
        "6677d178fc4eefd8553c16d110461c2f0907e8ad8d6895d9a65d74cd8fe36739",
    ),
]


@pytest.mark.parametrize(
    "fields, expected", [p[1:] for p in PINS], ids=[p[0] for p in PINS]
)
def test_cache_key_bytes_are_pinned(fields, expected):
    point = ScenarioPoint(platform=dict(HERA), **fields)
    assert cache_key(point) == expected
    # Asking again (and for an equal, separately built point) gives the
    # same bytes.
    assert cache_key(point) == expected
    assert cache_key(ScenarioPoint(platform=dict(HERA), **fields)) == expected
