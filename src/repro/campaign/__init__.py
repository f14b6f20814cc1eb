"""repro.campaign -- declarative scenario campaigns.

The reusable layer the paper's large simulation campaigns (Section 6)
run on: declare a scenario grid once (:class:`CampaignSpec` + the
scenario registry), then execute it with content-addressed caching
(:class:`ResultCache` -- every configuration is simulated at most once
across campaigns), chunked process-parallel fan-out, and an append-only
JSONL journal that makes interrupted campaigns resumable.

Quickstart
----------
>>> from repro.campaign import CampaignSpec, run_campaign
>>> spec = CampaignSpec(
...     name="demo", scenario="family_comparison",
...     params={"platform": "hera", "kinds": ["PD", "PDMV"]},
...     n_patterns=5, n_runs=4, seed=1,
... )
>>> result = run_campaign(spec, n_workers=1)
>>> len(result.records)
2
"""

from repro.campaign.cache import CacheStats, ResultCache, cache_key
from repro.campaign.executor import (
    CampaignResult,
    evaluate_point,
    run_campaign,
)
from repro.campaign.registry import (
    generate_points,
    get_scenario,
    register_scenario,
    scenario_names,
)
from repro.campaign.report import (
    cache_stats_rows,
    journal_records,
    render_cache_stats,
    render_campaign,
    rows_from_records,
    union_columns,
    write_campaign_outputs,
)
from repro.campaign.spec import (
    CampaignSpec,
    ScenarioPoint,
    platform_from_dict,
    platform_to_dict,
)

__all__ = [
    # spec
    "CampaignSpec",
    "ScenarioPoint",
    "platform_to_dict",
    "platform_from_dict",
    # registry
    "register_scenario",
    "scenario_names",
    "get_scenario",
    "generate_points",
    # cache
    "ResultCache",
    "CacheStats",
    "cache_key",
    # executor
    "run_campaign",
    "CampaignResult",
    "evaluate_point",
    # report
    "rows_from_records",
    "union_columns",
    "journal_records",
    "write_campaign_outputs",
    "render_campaign",
    "cache_stats_rows",
    "render_cache_stats",
]
