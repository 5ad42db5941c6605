"""Read-only HTTP console over a fleet directory's journal index.

Zero dependencies beyond the stdlib (``http.server``), by design: the
console must run on the same minimal hosts the scanner does.  The
server is strictly read-only: it writes nothing under the fleet
directory.  Each request folds freshly journaled bytes into its
in-memory :class:`~repro.console.index.JournalIndex` (an ``update()``
behind a lock), so an operator watching a live fleet sees epochs
progress in real time.

Every route except ``/healthz`` requires the bearer token, passed as
``Authorization: Bearer <token>`` or ``?token=<token>``; a missing or
wrong token gets a JSON 401.  The token is generated per-deployment
(:func:`generate_token`) and printed once by ``repro serve`` — there
are no accounts, because the console exposes nothing the journals on
disk don't.

Routes::

    /healthz                 liveness (unauthenticated)
    /api/status              the fleet status document
    /api/machines            machine -> latest verdict entry
    /api/machines/<name>     drill-down: verdict history, stored report
                             confidence / degraded layers, escalation
                             and quarantine provenance
    /api/epochs              epoch extents + embedded summaries
    /api/outbreaks           the outbreak timeline
    /api/campaigns           cross-epoch campaign alerts (rotation-
                             tolerant fuzzy fingerprints)
    /api/agents              distributed-mode agent liveness (latest
                             state per scan agent)
    /api/query               filtered verdicts (verdict, machine,
                             identity, epoch_min/max, scanned,
                             escalated, limit)
    /api/index               index stats (cursors, torn lines)
    /api/metrics             MetricsRegistry snapshot, JSON
    /metrics                 the same, Prometheus text format
    /                        HTML dashboard
    /machine/<name>          HTML drill-down
"""

from __future__ import annotations

import json
import logging
import secrets
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, unquote, urlparse

from repro.console import dashboard
from repro.console.index import JournalIndex
from repro.telemetry.metrics import global_metrics

logger = logging.getLogger(__name__)


class ConsoleAuthError(Exception):
    """Raised internally when a request fails token auth."""


def generate_token() -> str:
    """A fresh console bearer token (128 bits, hex)."""
    return secrets.token_hex(16)


def _parse_bool(value: str) -> bool:
    return value.strip().lower() in ("1", "true", "yes", "on")


def machine_drilldown(index: JournalIndex, machine: str) -> Optional[Dict]:
    """Everything the console knows about one machine.

    Verdict history from the machine offset map, the latest full
    journal record by offset fetch, and the stored baseline report's
    confidence/degraded-layer/escalation detail — the three things an
    operator triaging a box actually asks for.
    """
    history = index.machine_history(machine)
    baseline_entry = index.baseline_entry(machine)
    if not history and baseline_entry is None:
        return None
    latest = index.machine_record(history[-1]) if history else None
    baseline: Optional[Dict] = None
    baseline_record = index.baseline_record(machine)
    if baseline_record is not None:
        report = baseline_record.get("report", {})
        confidence = report.get("confidence", {})
        baseline = {
            "baseline_id": baseline_record.get("baseline_id"),
            "disk_generation": baseline_record.get("disk_generation"),
            "scan_seconds": baseline_record.get("scan_seconds"),
            "verdict": report.get("verdict"),
            "mode": report.get("mode"),
            "counts": report.get("counts", {}),
            "confidence": confidence,
            "degraded_layers": sorted(
                layer for layer, level in confidence.items()
                if level != "full"),
            "layer_errors": report.get("layer_errors", {}),
            # Escalation / quarantine provenance rides in ``extra``
            # (who confirmed, which breaker tripped) — pass it through
            # verbatim; the journals are the system of record.
            "provenance": baseline_record.get("extra", {}),
        }
    elif baseline_entry is not None:
        # The store was compacted since the index last folded it: return
        # the thin entry rather than nothing.
        baseline = dict(baseline_entry)
    return {"machine": machine, "history": history,
            "latest": latest, "baseline": baseline}


class ConsoleServer:
    """The console HTTP service, wrapping one :class:`JournalIndex`.

    ``port=0`` binds an ephemeral port (the bound port is on
    ``server.port`` after construction) — tests and the CI smoke run
    use that; ``repro serve`` passes a real one.
    """

    def __init__(self, fleet_dir: str, token: Optional[str] = None,
                 host: str = "127.0.0.1", port: int = 0):
        self.fleet_dir = fleet_dir
        self.token = token if token is not None else generate_token()
        self.index = JournalIndex(fleet_dir)
        self._lock = threading.Lock()
        self._thread: Optional[threading.Thread] = None
        server = self

        class Handler(BaseHTTPRequestHandler):
            def do_GET(self) -> None:  # noqa: N802 (http.server API)
                status, content_type, body = server.handle_request(
                    self.path, self.headers.get("Authorization"))
                payload = body.encode("utf-8")
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(payload)))
                self.end_headers()
                self.wfile.write(payload)

            def log_message(self, fmt: str, *args) -> None:
                logger.debug("console: " + fmt, *args)

        self.httpd = ThreadingHTTPServer((host, port), Handler)
        self.httpd.daemon_threads = True
        self.host, self.port = self.httpd.server_address[:2]

    # -- request handling --------------------------------------------------------

    def handle_request(self, path: str,
                       authorization: Optional[str] = None
                       ) -> Tuple[int, str, str]:
        """Dispatch one GET: ``(status, content_type, body)``.

        Pure with respect to the HTTP layer so tests can drive routes
        without sockets.
        """
        parsed = urlparse(path)
        route = unquote(parsed.path)
        params = {key: values[-1] for key, values
                  in parse_qs(parsed.query).items()}
        if route in ("/healthz", "/api/healthz"):
            return self._json(200, {"ok": True,
                                    "fleet_dir": self.fleet_dir})
        try:
            self._authenticate(authorization, params.get("token"))
        except ConsoleAuthError as exc:
            return self._json(401, {"error": str(exc)})
        try:
            return self._route(route, params)
        except Exception as exc:  # noqa: BLE001 — a broken route must
            # never take the console down with it; the journals remain
            # readable and every other route keeps answering.
            logger.exception("console: %s failed", route)
            return self._json(500, {"error": "%s: %s"
                                    % (type(exc).__name__, exc)})

    def _authenticate(self, authorization: Optional[str],
                      query_token: Optional[str]) -> None:
        presented = query_token
        if authorization:
            scheme, _, value = authorization.partition(" ")
            if scheme.lower() == "bearer" and value.strip():
                presented = value.strip()
        if presented is None:
            raise ConsoleAuthError("missing token")
        if not secrets.compare_digest(presented, self.token):
            raise ConsoleAuthError("bad token")

    def _route(self, route: str, params: Dict[str, str]
               ) -> Tuple[int, str, str]:
        with self._lock:
            self.index.update()
            global_metrics().incr("console.http.requests")
            if route in ("/", "/index.html"):
                return self._html(200, dashboard.render_dashboard(
                    self.index))
            if route.startswith("/machine/"):
                name = route[len("/machine/"):]
                page = dashboard.render_machine(
                    self.index, name, machine_drilldown(self.index, name))
                return self._html(200, page)
            if route == "/api/status":
                return self._json(200, self.index.status())
            if route == "/api/machines":
                return self._json(200, {
                    "machines": self.index.machine_names(),
                    "latest": self.index.latest_verdicts()})
            if route.startswith("/api/machines/"):
                name = route[len("/api/machines/"):]
                detail = machine_drilldown(self.index, name)
                if detail is None:
                    return self._json(404, {"error": "unknown machine",
                                            "machine": name})
                return self._json(200, detail)
            if route == "/api/epochs":
                return self._json(200, {"epochs":
                                        self.index.epoch_extents()})
            if route == "/api/outbreaks":
                return self._json(200, {"outbreaks":
                                        self.index.outbreaks()})
            if route == "/api/campaigns":
                return self._json(200, {"campaigns":
                                        self.index.campaigns()})
            if route == "/api/agents":
                return self._json(200, {"agents": self.index.agents()})
            if route == "/api/query":
                return self._json(200, self._query(params))
            if route == "/api/index":
                return self._json(200, self.index.stats())
            if route == "/api/metrics":
                return self._json(200, global_metrics().snapshot())
            if route == "/metrics":
                return 200, "text/plain; charset=utf-8", \
                    global_metrics().dump_text()
        return self._json(404, {"error": "no such route", "route": route})

    def _query(self, params: Dict[str, str]) -> Dict:
        kwargs: Dict = {}
        for key in ("verdict", "machine", "identity"):
            if key in params:
                kwargs[key] = params[key]
        for key in ("epoch_min", "epoch_max", "limit"):
            if key in params:
                try:
                    kwargs[key] = int(params[key])
                except ValueError as exc:
                    raise ValueError("bad %s: %r"
                                     % (key, params[key])) from exc
        for key in ("scanned", "escalated"):
            if key in params:
                kwargs[key] = _parse_bool(params[key])
        results = self.index.query(**kwargs)
        return {"count": len(results), "filters": kwargs,
                "results": results}

    @staticmethod
    def _json(status: int, payload: Dict) -> Tuple[int, str, str]:
        return status, "application/json", json.dumps(payload,
                                                      sort_keys=True)

    @staticmethod
    def _html(status: int, body: str) -> Tuple[int, str, str]:
        return status, "text/html; charset=utf-8", body

    # -- lifecycle ---------------------------------------------------------------

    @property
    def url(self) -> str:
        return "http://%s:%d" % (self.host, self.port)

    def start(self) -> "ConsoleServer":
        """Serve on a daemon thread; returns self for chaining."""
        self._thread = threading.Thread(target=self.httpd.serve_forever,
                                        name="console-http", daemon=True)
        self._thread.start()
        return self

    def serve_forever(self) -> None:
        self.httpd.serve_forever()

    def stop(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None
