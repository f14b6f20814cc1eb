"""Named scenario generators.

A generator expands a :class:`~repro.campaign.spec.CampaignSpec` into a
list of :class:`~repro.campaign.spec.ScenarioPoint`.  Generators cover the
paper's experiment shapes -- the platform-catalog campaign (Figure 6),
error-rate sweeps and grids (Figure 9), weak scaling (Figures 7/8),
single-platform family comparisons, the model-level detector
sensitivity sweeps, and the optimiser-in-the-loop analytic families
(``optimal_pattern_surface``, ``firstorder_vs_exact_divergence``) that
run on the vectorised model layer -- and new ones can be registered with
:func:`register_scenario`.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Union,
)

from repro.campaign.spec import (
    CampaignSpec,
    ScenarioPoint,
    platform_from_dict,
    platform_to_dict,
)
from repro.core.builders import PATTERN_ORDER, PatternKind
from repro.platforms.catalog import PLATFORMS, get_platform
from repro.platforms.platform import Platform
from repro.platforms.scaling import weak_scaling_platform

ScenarioGenerator = Callable[[CampaignSpec], List[ScenarioPoint]]

#: Default weak-scaling node counts (Figures 7/8): ``2^8 .. 2^16``, every
#: other power.
DEFAULT_NODE_COUNTS = tuple(2**k for k in range(8, 17, 2))

#: Node count of the Figure-9 error-rate platform.
FIG9_NODES = 100_000

#: Default error-rate factors of the Figure-9 sweeps and grid.
DEFAULT_FACTORS = (0.2, 0.6, 1.0, 1.4, 2.0)

#: Default recall grid of the detector-sensitivity sweep.
DEFAULT_RECALLS = (0.05, 0.1, 0.2, 0.4, 0.6, 0.8, 0.95, 1.0)

#: Default verification-cost grid, as fractions of ``V*``.
DEFAULT_COST_FRACTIONS = (0.001, 0.01, 0.05, 0.1, 0.25, 0.5, 1.0)

_REGISTRY: Dict[str, ScenarioGenerator] = {}


def register_scenario(name: str) -> Callable[[ScenarioGenerator], ScenarioGenerator]:
    """Decorator registering a scenario generator under ``name``."""

    def deco(fn: ScenarioGenerator) -> ScenarioGenerator:
        if name in _REGISTRY:
            raise ValueError(f"scenario {name!r} is already registered")
        _REGISTRY[name] = fn
        return fn

    return deco


def scenario_names() -> List[str]:
    """Registered scenario names, in registration order."""
    return list(_REGISTRY)


def get_scenario(name: str) -> ScenarioGenerator:
    """Look up a registered generator by name."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; available: {', '.join(_REGISTRY)}"
        ) from None


def generate_points(spec: CampaignSpec) -> List[ScenarioPoint]:
    """Expand a spec into scenario points via its registered generator."""
    return get_scenario(spec.scenario)(spec)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

PlatformSpec = Union[str, Mapping[str, Any], Platform]


def resolve_platform_dict(value: PlatformSpec) -> Dict[str, Any]:
    """Coerce a platform reference (catalog name / dict / object) to a dict."""
    if isinstance(value, Platform):
        return platform_to_dict(value)
    if isinstance(value, str):
        return platform_to_dict(get_platform(value))
    return platform_to_dict(platform_from_dict(value))  # validate fields


def _kind_values(params: Mapping[str, Any], default: Sequence) -> List[str]:
    kinds = params.get("kinds")
    if kinds is None:
        return [k.value for k in default]
    return [k if isinstance(k, str) else k.value for k in kinds]


def _simulate_point(
    spec: CampaignSpec,
    kind: str,
    platform: Dict[str, Any],
    labels: Dict[str, Any],
    *,
    engine: Optional[str] = None,
) -> ScenarioPoint:
    """One simulate-mode point with the spec's Monte-Carlo defaults.

    ``engine`` overrides the spec's engine request; the analytic scenario
    generators use it to default their points to the batch model tier.
    """
    return ScenarioPoint(
        mode="simulate",
        kind=kind,
        platform=platform,
        n_patterns=spec.n_patterns,
        n_runs=spec.n_runs,
        seed=spec.seed,
        engine=spec.engine if engine is None else engine,
        labels=labels,
    )


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


@register_scenario("platform_catalog")
def platform_catalog(spec: CampaignSpec) -> List[ScenarioPoint]:
    """The Figure-6 shape: every family on every catalog platform.

    Params: ``platforms`` (catalog names or platform dicts; default the
    four Table-2 platforms), ``kinds`` (default all six families).
    """
    platforms = spec.params.get("platforms")
    if platforms is None:
        platforms = list(PLATFORMS)
    kinds = _kind_values(spec.params, PATTERN_ORDER)
    points: List[ScenarioPoint] = []
    for plat in platforms:
        pdict = resolve_platform_dict(plat)
        for kind in kinds:
            points.append(
                _simulate_point(
                    spec,
                    kind,
                    pdict,
                    {"platform": pdict["name"], "pattern": kind},
                )
            )
    return points


@register_scenario("family_comparison")
def family_comparison(spec: CampaignSpec) -> List[ScenarioPoint]:
    """All requested families on one platform.

    Params: ``platform`` (default ``"hera"``), ``kinds`` (default all six).
    """
    pdict = resolve_platform_dict(spec.params.get("platform", "hera"))
    kinds = _kind_values(spec.params, PATTERN_ORDER)
    return [
        _simulate_point(
            spec, kind, pdict, {"platform": pdict["name"], "pattern": kind}
        )
        for kind in kinds
    ]


@register_scenario("error_rate_sweep")
def error_rate_sweep(spec: CampaignSpec) -> List[ScenarioPoint]:
    """The Figure-9 shape: scale error rates on a weak-scaled platform.

    Params: ``vary`` (``"f"``, ``"s"`` or ``"grid"``; default ``"f"``),
    ``factors`` (default :data:`DEFAULT_FACTORS`), ``nodes`` (default
    :data:`FIG9_NODES`), ``C_D``/``C_M`` (Hera defaults), ``kinds``
    (default ``("PDMV", "PD")``), or an explicit ``platform`` overriding
    the weak-scaled base.
    """
    vary = spec.params.get("vary", "f")
    if vary not in ("f", "s", "grid"):
        raise ValueError(f"vary must be 'f', 's' or 'grid', got {vary!r}")
    factors = tuple(spec.params.get("factors", DEFAULT_FACTORS))
    kinds = _kind_values(
        spec.params, (PatternKind.PDMV, PatternKind.PD)
    )
    if "platform" in spec.params:
        base = platform_from_dict(
            resolve_platform_dict(spec.params["platform"])
        )
    else:
        base = weak_scaling_platform(
            int(spec.params.get("nodes", FIG9_NODES)),
            C_D=float(spec.params.get("C_D", 300.0)),
            C_M=float(spec.params.get("C_M", 15.4)),
        )
    points: List[ScenarioPoint] = []
    if vary == "grid":
        for ff in factors:
            for fs in factors:
                plat = base.scaled_rates(factor_f=ff, factor_s=fs)
                for kind in kinds:
                    points.append(
                        _simulate_point(
                            spec,
                            kind,
                            platform_to_dict(plat),
                            {
                                "factor_f": ff,
                                "factor_s": fs,
                                "pattern": kind,
                            },
                        )
                    )
        return points
    for factor in factors:
        plat = (
            base.scaled_rates(factor_f=factor)
            if vary == "f"
            else base.scaled_rates(factor_s=factor)
        )
        for kind in kinds:
            points.append(
                _simulate_point(
                    spec,
                    kind,
                    platform_to_dict(plat),
                    {
                        "vary": f"lambda_{vary}",
                        "factor": factor,
                        "pattern": kind,
                    },
                )
            )
    return points


@register_scenario("weak_scaling")
def weak_scaling(spec: CampaignSpec) -> List[ScenarioPoint]:
    """The Figure-7/8 shape: sweep the node count at fixed per-node MTBF.

    Params: ``node_counts`` (default :data:`DEFAULT_NODE_COUNTS`),
    ``C_D`` (default 300; Figure 8 uses 90), ``C_M`` (default 15.4),
    ``kinds`` (default ``("PD", "PDMV")``).
    """
    counts = tuple(spec.params.get("node_counts", DEFAULT_NODE_COUNTS))
    C_D = float(spec.params.get("C_D", 300.0))
    C_M = float(spec.params.get("C_M", 15.4))
    kinds = _kind_values(spec.params, (PatternKind.PD, PatternKind.PDMV))
    points: List[ScenarioPoint] = []
    for nodes in counts:
        plat = weak_scaling_platform(int(nodes), C_D=C_D, C_M=C_M)
        for kind in kinds:
            points.append(
                _simulate_point(
                    spec,
                    kind,
                    platform_to_dict(plat),
                    {"nodes": int(nodes), "pattern": kind},
                )
            )
    return points


@register_scenario("recall_sweep")
def recall_sweep(spec: CampaignSpec) -> List[ScenarioPoint]:
    """Model-level sensitivity to the partial-verification recall.

    Params: ``platform`` (default ``"hera"``), ``recalls`` (default
    :data:`DEFAULT_RECALLS`), ``kind`` (default ``"PDMV"``).  Emits one
    ``optimize`` point per recall plus the ``PDM`` and ``PDMV*`` anchors.
    """
    pdict = resolve_platform_dict(spec.params.get("platform", "hera"))
    base = platform_from_dict(pdict)
    recalls = tuple(spec.params.get("recalls", DEFAULT_RECALLS))
    kind = spec.params.get("kind", "PDMV")
    points = [
        ScenarioPoint(
            mode="optimize",
            kind="PDM",
            platform=pdict,
            labels={"role": "anchor_pdm"},
        ),
        ScenarioPoint(
            mode="optimize",
            kind="PDMV*",
            platform=pdict,
            labels={"role": "anchor_star"},
        ),
    ]
    for r in recalls:
        view = base.with_costs(r=r)
        points.append(
            ScenarioPoint(
                mode="optimize",
                kind=kind,
                platform=platform_to_dict(view),
                labels={"role": "sweep", "recall": r},
            )
        )
    return points


#: Default rate-factor grid of the analytic surface scenario.
SURFACE_FACTORS = (0.2, 0.6, 1.0, 1.4, 2.0)

#: Default rate-scale ladder of the divergence-map scenario.
DIVERGENCE_SCALES = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0)


@register_scenario("optimal_pattern_surface")
def optimal_pattern_surface(spec: CampaignSpec) -> List[ScenarioPoint]:
    """Optimiser-in-the-loop overhead surfaces on the analytic tier.

    The Table-1/2 surface shape: re-optimise every family in every cell
    of a ``platform x lambda_f x lambda_s`` grid and record the optimal
    configuration plus its first-order and exact overheads.  Points
    default to ``engine="analytic"`` (the vectorised batch optimiser);
    forcing a Monte-Carlo tier via the spec engine simulates the same
    surface instead.

    Params: ``platforms`` (default the four Table-2 platforms),
    ``kinds`` (default all six families), ``factors_f`` / ``factors_s``
    (rate multipliers, default :data:`SURFACE_FACTORS`).
    """
    platforms = spec.params.get("platforms")
    if platforms is None:
        platforms = list(PLATFORMS)
    kinds = _kind_values(spec.params, PATTERN_ORDER)
    factors_f = tuple(spec.params.get("factors_f", SURFACE_FACTORS))
    factors_s = tuple(spec.params.get("factors_s", SURFACE_FACTORS))
    engine = spec.engine if spec.engine != "auto" else "analytic"
    points: List[ScenarioPoint] = []
    for plat in platforms:
        base = platform_from_dict(resolve_platform_dict(plat))
        for ff in factors_f:
            for fs in factors_s:
                view = base.scaled_rates(factor_f=ff, factor_s=fs)
                pdict = platform_to_dict(view)
                for kind in kinds:
                    points.append(
                        _simulate_point(
                            spec,
                            kind,
                            pdict,
                            {
                                "platform": base.name,
                                "factor_f": ff,
                                "factor_s": fs,
                                "pattern": kind,
                            },
                            engine=engine,
                        )
                    )
    return points


@register_scenario("firstorder_vs_exact_divergence")
def firstorder_vs_exact_divergence(spec: CampaignSpec) -> List[ScenarioPoint]:
    """Figure-7a-style divergence maps: first-order ``H*`` vs exact ``H``.

    Points default to ``engine="analytic"`` (the divergence is a
    model-level quantity); each analytic record carries ``predicted``
    (first-order ``H*``), ``simulated`` (exact overhead of the same
    configuration) and their ``divergence``.  Forcing a Monte-Carlo tier
    via the spec engine cross-checks the same map against sampled
    overheads instead (``predicted``/``simulated`` columns only).

    Params: either ``node_counts`` (weak-scale the Hera-derived platform,
    the literal Figure-7a sweep; ``C_D``/``C_M`` as in ``weak_scaling``)
    or ``platforms`` x ``scales`` (scale each catalog platform's error
    rates up a ladder, default :data:`DIVERGENCE_SCALES` -- the
    across-the-catalog map).  ``kinds`` defaults to ``("PD", "PDMV")``.
    """
    kinds = _kind_values(spec.params, (PatternKind.PD, PatternKind.PDMV))
    engine = spec.engine if spec.engine != "auto" else "analytic"
    points: List[ScenarioPoint] = []
    if spec.params.get("node_counts") is not None:
        counts = tuple(spec.params["node_counts"])
        C_D = float(spec.params.get("C_D", 300.0))
        C_M = float(spec.params.get("C_M", 15.4))
        for nodes in counts:
            plat = weak_scaling_platform(int(nodes), C_D=C_D, C_M=C_M)
            pdict = platform_to_dict(plat)
            for kind in kinds:
                points.append(
                    _simulate_point(
                        spec,
                        kind,
                        pdict,
                        {"nodes": int(nodes), "pattern": kind},
                        engine=engine,
                    )
                )
        return points
    platforms = spec.params.get("platforms")
    if platforms is None:
        platforms = list(PLATFORMS)
    scales = tuple(spec.params.get("scales", DIVERGENCE_SCALES))
    for plat in platforms:
        base = platform_from_dict(resolve_platform_dict(plat))
        for scale in scales:
            view = base.scaled_rates(factor_f=scale, factor_s=scale)
            pdict = platform_to_dict(view)
            for kind in kinds:
                points.append(
                    _simulate_point(
                        spec,
                        kind,
                        pdict,
                        {
                            "platform": base.name,
                            "scale": scale,
                            "pattern": kind,
                        },
                        engine=engine,
                    )
                )
    return points


@register_scenario("verification_cost_sweep")
def verification_cost_sweep(spec: CampaignSpec) -> List[ScenarioPoint]:
    """Model-level sensitivity to the partial-verification cost.

    Params: ``platform`` (default ``"hera"``), ``cost_fractions``
    (fractions of ``V*``; default :data:`DEFAULT_COST_FRACTIONS`),
    ``kind`` (default ``"PDMV"``).
    """
    pdict = resolve_platform_dict(spec.params.get("platform", "hera"))
    base = platform_from_dict(pdict)
    fractions = tuple(
        spec.params.get("cost_fractions", DEFAULT_COST_FRACTIONS)
    )
    kind = spec.params.get("kind", "PDMV")
    points = [
        ScenarioPoint(
            mode="optimize",
            kind="PDMV*",
            platform=pdict,
            labels={"role": "anchor_star"},
        )
    ]
    for frac in fractions:
        if frac <= 0:
            raise ValueError(f"cost fraction must be positive, got {frac}")
        view = base.with_costs(V=frac * base.V_star)
        points.append(
            ScenarioPoint(
                mode="optimize",
                kind=kind,
                platform=platform_to_dict(view),
                labels={"role": "sweep", "V_over_Vstar": frac},
            )
        )
    return points
