"""Online evaluation service: a long-lived daemon above the engines.

Every entry point before this package was a batch CLI: each caller paid
full process start-up, cold memo caches and one-shot dispatch.  The
service keeps the hot state resident and turns concurrent requests into
the batch shapes the engines are fastest at:

* :mod:`repro.service.scheduler` -- the micro-batching core.  In-flight
  ``/v1/evaluate`` requests are collected for a short window (or until a
  row budget fills), deduplicated by campaign cache key, and evaluated
  through the same batch paths the campaign executor uses -- analytic
  points per-family on :mod:`repro.core.batch`, simulate points in one
  packed mega-batch -- so identical concurrent queries coalesce to ONE
  computation and results stay **bit-identical** to solo CLI runs.
* :mod:`repro.service.memcache` -- a size-bounded in-memory LRU tier
  above the on-disk :class:`~repro.campaign.cache.ResultCache`.
* :mod:`repro.service.server` -- a stdlib ``asyncio`` HTTP/1.1 server
  exposing ``POST /v1/evaluate``, ``GET /v1/health``, ``GET /v1/stats``.
* :mod:`repro.service.client` -- a blocking stdlib ``http.client``
  client used by ``repro query``.
* :mod:`repro.service.protocol` -- the JSON request/response schema
  (scenario points in, result records out).

Start a daemon with ``repro serve``; query it with ``repro query`` or
plain ``curl``.
"""
