"""The scrape surface: Prometheus text and trace JSON over HTTP.

:class:`MetricsServer` runs a stdlib :class:`http.server.ThreadingHTTPServer`
on a daemon thread next to the tuning service — the operator's window
into a live run, in the spirit of the paper's interactive designer:

* ``GET /metrics`` — the registry in Prometheus text exposition format
  (collectors run at scrape time, so pool and scheduler mirrors are
  exact for the instant of the scrape);
* ``GET /trace``  — the tracer's recent finished spans as JSON
  (``?limit=N`` trims to the last N);
* ``GET /status`` — the host-provided status snapshot (e.g.
  :meth:`TuningService.status`) as JSON, when one was wired in.

``port=0`` binds an ephemeral port (tests); the bound port is on
:attr:`MetricsServer.port` after :meth:`start`.  Registry and tracer
are the process-wide :mod:`repro.obs` state, resolved per request so
``obs.reset()`` takes effect live.
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from urllib.parse import parse_qs, urlparse

__all__ = ["MetricsServer"]

PROMETHEUS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"


class MetricsServer:
    """Serve the telemetry backplane over HTTP from a daemon thread."""

    def __init__(self, host="127.0.0.1", port=0, status_fn=None):
        self.host = host
        self.port = port
        self.status_fn = status_fn
        self._server = None
        self._thread = None

    @property
    def url(self):
        return "http://%s:%d" % (self.host, self.port)

    def start(self):
        """Bind and serve; returns self (``port`` now holds the bound
        port).  Idempotent-safe: starting a started server raises."""
        if self._server is not None:
            raise RuntimeError("MetricsServer already started")
        owner = self

        class Handler(BaseHTTPRequestHandler):
            def log_message(self, fmt, *args):  # quiet: no stderr spam
                pass

            def do_GET(self):
                owner._handle(self)

        self._server = ThreadingHTTPServer((self.host, self.port), Handler)
        self.port = self._server.server_address[1]
        self._thread = threading.Thread(
            target=self._server.serve_forever,
            name="repro-metrics-server",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self):
        if self._server is None:
            return
        self._server.shutdown()
        self._server.server_close()
        self._thread.join(timeout=5.0)
        self._server = None
        self._thread = None

    # ------------------------------------------------------------------
    # Request handling.
    # ------------------------------------------------------------------

    def _handle(self, request):
        from repro import obs

        parsed = urlparse(request.path)
        route = parsed.path.rstrip("/") or "/"
        try:
            if route == "/metrics":
                body = obs.metrics().render_prometheus()
                self._reply(request, 200, PROMETHEUS_CONTENT_TYPE, body)
            elif route == "/trace":
                limit = None
                raw = parse_qs(parsed.query).get("limit")
                if raw:
                    limit = max(1, int(raw[0]))
                body = json.dumps(
                    {"spans": obs.tracer().export(limit=limit)}
                )
                self._reply(request, 200, "application/json", body)
            elif route == "/status" and self.status_fn is not None:
                body = json.dumps(self.status_fn(), default=str)
                self._reply(request, 200, "application/json", body)
            elif route == "/":
                routes = ["/metrics", "/trace"]
                if self.status_fn is not None:
                    routes.append("/status")
                self._reply(request, 200, "text/plain; charset=utf-8",
                            "\n".join(routes) + "\n")
            else:
                self._reply(request, 404, "text/plain; charset=utf-8",
                            "not found\n")
        except Exception as exc:  # a broken scrape must not kill serving
            self._reply(request, 500, "text/plain; charset=utf-8",
                        "error: %s\n" % (exc,))

    @staticmethod
    def _reply(request, code, content_type, body):
        payload = body.encode("utf-8")
        request.send_response(code)
        request.send_header("Content-Type", content_type)
        request.send_header("Content-Length", str(len(payload)))
        request.end_headers()
        request.wfile.write(payload)
