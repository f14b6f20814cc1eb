"""Declarative campaign specifications.

A *campaign* is a named set of scenario points produced by a registered
scenario generator from JSON-friendly parameters.  Each
:class:`ScenarioPoint` fully describes one unit of work -- either a
Monte-Carlo simulation of one optimised pattern family on one platform
(``mode="simulate"``, the paper's experimental unit) or a model-only
optimisation (``mode="optimize"``, used by the sensitivity sweeps).

Everything here round-trips through plain dicts/JSON so campaigns can be
stored in files, journaled, hashed for the result cache, and shipped to
worker processes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.core import formulas
from repro.core.builders import PatternKind
from repro.platforms.platform import Platform, ResilienceCosts
from repro.simulation.dispatch import ENGINE_CHOICES

#: Modes a scenario point can run in.
POINT_MODES = ("simulate", "optimize")

_COST_FIELDS = ("C_D", "C_M", "R_D", "R_M", "V_star", "V", "r")


def platform_to_dict(platform: Platform) -> Dict[str, Any]:
    """Serialise a :class:`Platform` to a JSON-friendly dict."""
    return {
        "name": platform.name,
        "nodes": int(platform.nodes),
        "lambda_f": float(platform.lambda_f),
        "lambda_s": float(platform.lambda_s),
        "costs": {f: float(getattr(platform.costs, f)) for f in _COST_FIELDS},
    }


def _platform_token(data: Mapping[str, Any]) -> Tuple[Any, ...]:
    """The hashable form of a platform dict.

    Exactly the values that reach a :class:`Platform`: the name as a
    string, then nodes, rates and the costs in :data:`_COST_FIELDS` order.
    """
    costs = data["costs"]
    return (str(data["name"]), data["nodes"], data["lambda_f"],
            data["lambda_s"], *(costs[f] for f in _COST_FIELDS))


def _platform_from_token(token: Tuple[Any, ...]) -> Platform:
    name, nodes, lambda_f, lambda_s, *costs = token
    return Platform(name, int(nodes), float(lambda_f), float(lambda_s),
                    ResilienceCosts(*map(float, costs)))


def platform_from_dict(data: Mapping[str, Any]) -> Platform:
    """Rebuild a :class:`Platform` from :func:`platform_to_dict` output."""
    return _platform_from_token(_platform_token(data))


_KIND_BY_NAME = {kind.value: kind for kind in PatternKind}


def pattern_kind(value: str) -> PatternKind:
    """Look up a :class:`PatternKind` by its Table-1 name (e.g. ``"PDMV"``)."""
    try:
        return _KIND_BY_NAME[value]
    except (KeyError, TypeError):  # TypeError: an unhashable value
        pass
    raise ValueError(
        f"unknown pattern family {value!r}; "
        f"available: {', '.join(k.value for k in PatternKind)}"
    )


@dataclass(frozen=True)
class Configuration:
    """A (pattern family, platform) pair and its Table-1 optimum.

    The optimum and the simulator's platform view are computed on first
    use and kept; all of it is frozen, so one instance serves every
    point, batch and thread.  Construction rejects a pair without a
    finite optimum (:func:`~repro.core.formulas.check_costs`).
    """

    kind: PatternKind
    platform: Platform

    def __post_init__(self) -> None:
        formulas.check_costs(self.kind, self.platform)

    @cached_property
    def optimal(self) -> formulas.OptimalPattern:
        return formulas.optimal_pattern(self.kind, self.platform)

    @cached_property
    def sim_platform(self) -> Platform:
        return formulas.simulation_costs(self.kind, self.platform)


@lru_cache(maxsize=4096)  # sized like dispatch._config_entropy_cached
def _configuration(kind: str, token: Tuple[Any, ...]) -> Configuration:
    # A failed build raises and is not cached.
    return Configuration(pattern_kind(kind), _platform_from_token(token))


@dataclass(frozen=True)
class ScenarioPoint:
    """One unit of campaign work, fully described by JSON-able values.

    Attributes
    ----------
    mode:
        ``"simulate"`` (optimise + Monte-Carlo) or ``"optimize"``
        (model-only Table-1 optimisation).
    kind:
        Pattern family name (a :class:`PatternKind` value).
    platform:
        Platform description as produced by :func:`platform_to_dict`.
    n_patterns, n_runs, seed:
        Monte-Carlo configuration; ignored in ``optimize`` mode.
    fail_stop_in_operations:
        Whether the simulator draws fail-stop errors during resilience
        operations (the engine default).
    engine:
        Engine tier request (see :mod:`repro.simulation.dispatch`):
        ``"auto"`` (default) dispatches to the fastest covering
        Monte-Carlo tier, ``"fast-pd"``/``"fast"``/``"step"`` force one,
        ``"packed"`` requests the cross-point packed execution strategy
        (:mod:`repro.simulation.packed_engine`; results are
        bit-identical to the fast tier), and ``"analytic"`` evaluates
        the point on the vectorised model layer (:mod:`repro.core.batch`)
        instead of sampling -- the Monte-Carlo configuration is then
        ignored.  ``auto`` and ``packed`` points are grouped into packed
        mega-batches by the campaign executor.  Participates in the
        cache key: rows computed by different engine requests are never
        silently mixed.
    labels:
        Free-form row labels carried verbatim into the result record
        (e.g. ``{"factor_f": 0.6}`` for a sweep point).
    """

    mode: str
    kind: str
    platform: Mapping[str, Any]
    n_patterns: int = 0
    n_runs: int = 0
    seed: Optional[int] = None
    fail_stop_in_operations: bool = True
    engine: str = "auto"
    labels: Mapping[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.mode not in POINT_MODES:
            raise ValueError(
                f"mode must be one of {POINT_MODES}, got {self.mode!r}"
            )
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}"
            )
        pattern_kind(self.kind)  # validate the family name early
        if self.seed is not None:
            # Seeds participate in the JSON cache key, so only plain
            # integers are accepted (NumPy ints are normalised).
            try:
                object.__setattr__(self, "seed", int(self.seed))
            except (TypeError, ValueError):
                raise TypeError(
                    "campaign point seeds must be plain integers "
                    "(they participate in the JSON cache key), got "
                    f"{type(self.seed).__name__}"
                ) from None
        if self.mode == "simulate" and self.engine != "analytic":
            if self.n_patterns <= 0 or self.n_runs <= 0:
                raise ValueError(
                    "simulate points need positive n_patterns and n_runs, "
                    f"got n_patterns={self.n_patterns}, n_runs={self.n_runs}"
                )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict; the canonical form used for hashing."""
        return {
            "mode": self.mode,
            "kind": self.kind,
            "platform": dict(self.platform),
            "n_patterns": int(self.n_patterns),
            "n_runs": int(self.n_runs),
            "seed": self.seed,
            "fail_stop_in_operations": bool(self.fail_stop_in_operations),
            "engine": self.engine,
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioPoint":
        """Rebuild a point from :meth:`to_dict` output."""
        return cls(
            mode=data["mode"],
            kind=data["kind"],
            platform=dict(data["platform"]),
            n_patterns=int(data.get("n_patterns", 0)),
            n_runs=int(data.get("n_runs", 0)),
            seed=data.get("seed"),
            fail_stop_in_operations=bool(
                data.get("fail_stop_in_operations", True)
            ),
            engine=str(data.get("engine", "auto")),
            labels=dict(data.get("labels", {})),
        )

    def build_platform(self) -> Platform:
        """Materialise the platform object for this point."""
        return platform_from_dict(self.platform)

    def build_kind(self) -> PatternKind:
        """Materialise the pattern family for this point."""
        return pattern_kind(self.kind)

    def configuration(self) -> Configuration:
        """This point's family and platform from the process-wide memo.

        Raises like :meth:`build_platform` for an invalid platform.
        """
        return _configuration(self.kind, _platform_token(self.platform))


@dataclass(frozen=True)
class CampaignSpec:
    """A declarative campaign: a scenario generator plus its parameters.

    Attributes
    ----------
    name:
        Campaign name (used in reports and default file names).
    scenario:
        Name of a generator registered in
        :mod:`repro.campaign.registry`.
    params:
        Generator parameters (JSON-friendly).
    n_patterns, n_runs, seed:
        Default Monte-Carlo sizes applied to every ``simulate`` point the
        generator emits (generators may override per point).
    engine:
        Default engine tier request applied to every point the generator
        emits (see :class:`ScenarioPoint`).
    """

    name: str
    scenario: str
    params: Mapping[str, Any] = field(default_factory=dict)
    n_patterns: int = 100
    n_runs: int = 50
    seed: int = 20160523
    engine: str = "auto"

    def __post_init__(self) -> None:
        if self.engine not in ENGINE_CHOICES:
            raise ValueError(
                f"engine must be one of {ENGINE_CHOICES}, got {self.engine!r}"
            )

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dict representation."""
        return {
            "name": self.name,
            "scenario": self.scenario,
            "params": dict(self.params),
            "n_patterns": int(self.n_patterns),
            "n_runs": int(self.n_runs),
            "seed": int(self.seed),
            "engine": self.engine,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "CampaignSpec":
        """Rebuild a spec from :meth:`to_dict` output."""
        known = {"name", "scenario", "params", "n_patterns", "n_runs",
                 "seed", "engine"}
        unknown = set(data) - known
        if unknown:
            raise ValueError(
                f"unknown campaign spec fields: {sorted(unknown)}"
            )
        for required in ("name", "scenario"):
            if required not in data:
                raise ValueError(
                    f"campaign spec missing required field {required!r}"
                )
        return cls(
            name=str(data["name"]),
            scenario=str(data["scenario"]),
            params=dict(data.get("params", {})),
            n_patterns=int(data.get("n_patterns", 100)),
            n_runs=int(data.get("n_runs", 50)),
            seed=int(data.get("seed", 20160523)),
            engine=str(data.get("engine", "auto")),
        )

    def fingerprint(self) -> str:
        """Short content hash of the canonical spec JSON.

        Two submissions of the same campaign (whatever their job ids or
        submitting clients) share a fingerprint, so job listings make
        duplicate work visible at a glance.
        """
        import hashlib

        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]

    @classmethod
    def from_json_file(cls, path: str) -> "CampaignSpec":
        """Load a spec from a JSON file."""
        with open(path) as fh:
            return cls.from_dict(json.load(fh))

    def to_json_file(self, path: str) -> None:
        """Write the spec to a JSON file."""
        from repro.io import write_json

        write_json(self.to_dict(), path)

    def points(self) -> List[ScenarioPoint]:
        """Expand the spec into its scenario points via the registry."""
        from repro.campaign.registry import generate_points

        return generate_points(self)
