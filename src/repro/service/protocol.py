"""The service's JSON request/response schema.

``POST /v1/evaluate`` accepts one scenario point or a batch of them,
in the exact schema of :meth:`ScenarioPoint.to_dict` plus two
conveniences for hand-written queries:

* ``platform`` may be a Table-2 catalog name (``"hera"``) instead of a
  full parameter dict;
* ``mode`` defaults to ``"simulate"``, and simulate requests that omit
  the Monte-Carlo configuration get the same defaults as the
  ``repro simulate`` CLI (100 patterns x 50 runs, seed 20160601) -- a
  minimal ``curl`` body therefore reproduces the CLI's numbers
  bit-for-bit.

The response carries the campaign cache key and the result record for
every requested point, in request order.  Records are exactly what the
campaign executor would journal for the same point (free-form point
``labels`` merged in), so service output is interchangeable with batch
output.  Since protocol 2 a point whose evaluation fails yields a
``{"error": ...}`` record inside a 200 response instead of failing the
whole request with a 500 (the response's ``n_failed`` counts them).

``POST /v1/campaign`` (the jobs API) accepts a full campaign
specification -- ``{"spec": {...CampaignSpec...}, "client": "name"}``
or a bare spec object -- and registers it as a background job; see
:mod:`repro.service.jobs`.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.campaign.spec import (
    CampaignSpec,
    ScenarioPoint,
    platform_to_dict,
)

#: Bumped when the request/response schema changes incompatibly.
#: 2: per-point ``error`` records replaced the all-or-nothing 500 on
#: ``/v1/evaluate``; the jobs endpoints (``/v1/campaign``, ``/v1/jobs``)
#: joined the surface.
#: 3: admission control joined the surface -- ``/v1/evaluate`` may
#: answer ``429`` (with a ``Retry-After`` header and an exact
#: ``retry_after_s`` in the body) or ``503`` when the daemon sheds
#: load; the client identifies itself via the ``X-Repro-Client``
#: header; ``POST /v1/campaign`` accepts an ``idempotency_key`` making
#: resubmission safe.
#: 4: observability joined the surface -- ``/v1/evaluate`` responses
#: carry a ``trace_id`` (echoing ``X-Repro-Trace-Id`` when the client
#: supplied one) and the daemon serves ``GET /metrics`` (Prometheus
#: text) and ``GET /v1/trace[/<id>]`` (recent request span timelines).
#: Additive: protocol-3 clients are unaffected.
PROTOCOL_VERSION = 4

#: Default client identity for job submissions that do not name one;
#: fair-share treats every anonymous submitter as one client.
DEFAULT_CLIENT = "anonymous"

DEFAULT_HOST = "127.0.0.1"
DEFAULT_PORT = 8642

#: Monte-Carlo defaults for simulate requests that omit them; these
#: mirror the ``repro simulate`` CLI so minimal queries match it.
DEFAULT_N_PATTERNS = 100
DEFAULT_N_RUNS = 50
DEFAULT_SEED = 20160601

#: Upper bound on points per request (matches the batch layers' caps).
MAX_POINTS_PER_REQUEST = 4096


class ProtocolError(ValueError):
    """A malformed request; the server answers 400 with the message."""


def point_from_request(data: Any) -> ScenarioPoint:
    """Build a :class:`ScenarioPoint` from one request item.

    Applies the documented conveniences (catalog platform names, CLI
    Monte-Carlo defaults) and validates eagerly -- including the
    platform parameter vector -- so schema mistakes fail the request
    with a message instead of failing the engine batch mid-flight.
    """
    if not isinstance(data, Mapping):
        raise ProtocolError(
            f"each point must be a JSON object, got {type(data).__name__}"
        )
    desc = dict(data)
    platform = desc.get("platform")
    if isinstance(platform, str):
        from repro.platforms.catalog import get_platform

        try:
            desc["platform"] = platform_to_dict(get_platform(platform))
        except KeyError as exc:
            raise ProtocolError(str(exc).strip('"')) from None
    desc.setdefault("mode", "simulate")
    if desc["mode"] == "simulate" and desc.get("engine") != "analytic":
        desc.setdefault("n_patterns", DEFAULT_N_PATTERNS)
        desc.setdefault("n_runs", DEFAULT_N_RUNS)
        desc.setdefault("seed", DEFAULT_SEED)
    try:
        point = ScenarioPoint.from_dict(desc)
        point.configuration()  # validate the platform; memoised if valid
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid scenario point: {exc}") from None
    return point


def parse_evaluate_body(raw: bytes) -> List[ScenarioPoint]:
    """Parse a ``POST /v1/evaluate`` body into scenario points.

    Accepts ``{"points": [...]}``, a bare list of points, or one bare
    point object.
    """
    try:
        data = json.loads(raw.decode("utf-8") if raw else "")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"request body is not valid JSON: {exc}"
        ) from None
    if isinstance(data, Mapping):
        items = data.get("points", [data] if data else [])
    elif isinstance(data, list):
        items = data
    else:
        raise ProtocolError(
            "evaluate request must be a point object, a list of points, "
            'or {"points": [...]}'
        )
    if not isinstance(items, list):
        raise ProtocolError('"points" must be a list of point objects')
    if not items:
        raise ProtocolError("evaluate request contains no points")
    if len(items) > MAX_POINTS_PER_REQUEST:
        raise ProtocolError(
            f"evaluate request has {len(items)} points; the per-request "
            f"cap is {MAX_POINTS_PER_REQUEST} (split the batch)"
        )
    return [point_from_request(item) for item in items]


def evaluate_response(
    keys: Sequence[str],
    records: Sequence[Dict[str, Any]],
    n_failed: int = 0,
    trace_id: Optional[str] = None,
) -> Dict[str, Any]:
    """The ``/v1/evaluate`` response payload."""
    payload = {
        "protocol": PROTOCOL_VERSION,
        "keys": list(keys),
        "records": list(records),
        "n_failed": int(n_failed),
    }
    if trace_id is not None:
        payload["trace_id"] = trace_id
    return payload


def parse_campaign_body(
    raw: bytes,
) -> Tuple[CampaignSpec, str, Optional[str]]:
    """Parse a ``POST /v1/campaign`` body.

    Returns ``(spec, client, idempotency_key)``.  Accepts
    ``{"spec": {...}, "client": "name", "idempotency_key": "..."}`` or
    a bare :meth:`CampaignSpec.to_dict` object (detected by its
    ``scenario`` field).  The spec is validated eagerly -- including
    the scenario name, via
    :func:`repro.campaign.registry.get_scenario` -- so a bad
    submission fails the request instead of failing the job later.
    The optional idempotency key (protocol 3) lets a client retry a
    submission without double-creating the job.
    """
    try:
        data = json.loads(raw.decode("utf-8") if raw else "")
    except (ValueError, UnicodeDecodeError) as exc:
        raise ProtocolError(
            f"request body is not valid JSON: {exc}"
        ) from None
    if not isinstance(data, Mapping):
        raise ProtocolError(
            'campaign request must be {"spec": {...}, "client": ...} '
            "or a bare campaign spec object"
        )
    client: Any = DEFAULT_CLIENT
    idempotency_key: Any = None
    if "spec" in data and "scenario" not in data:
        client = data.get("client", DEFAULT_CLIENT)
        idempotency_key = data.get("idempotency_key")
        spec_data = data["spec"]
        if not isinstance(spec_data, Mapping):
            raise ProtocolError('"spec" must be a campaign spec object')
    else:
        spec_data = data
    if not isinstance(client, str) or not client:
        raise ProtocolError('"client" must be a non-empty string')
    if idempotency_key is not None and (
        not isinstance(idempotency_key, str) or not idempotency_key
    ):
        raise ProtocolError(
            '"idempotency_key" must be a non-empty string when given'
        )
    try:
        spec = CampaignSpec.from_dict(spec_data)
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(f"invalid campaign spec: {exc}") from None
    from repro.campaign.registry import scenario_names

    if spec.scenario not in scenario_names():
        raise ProtocolError(
            f"unknown scenario {spec.scenario!r}; available: "
            f"{', '.join(scenario_names())}"
        )
    return spec, client, idempotency_key
