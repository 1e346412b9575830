"""The HTTP shell around :class:`~repro.service.core.SimulationService`.

Stdlib-only (``http.server``): a threading server on a local address,
one handler thread per connection.  Endpoints:

``POST /submit``
    Body: a :class:`~repro.service.jobs.JobRequest` dict.  Response:
    ``{"job_id": ...}`` (400 with an ``error`` body for invalid grids,
    413 — before the body is read — above :data:`MAX_BODY_BYTES`).
``GET /status`` / ``GET /status?job=ID``
    All jobs' progress, or one job's.
``GET /watch?job=ID[&timeout=S]``
    **Streams** the job's event log as JSONL — one ``job`` event, one
    ``shard`` event per cell as it completes (partial results while the
    sweep runs), one terminal ``done`` event — flushing per line.  The
    response carries no Content-Length and closes when the job ends:
    HTTP/1.0 close-delimited framing, which every stdlib client reads
    incrementally.  A malformed or non-finite ``timeout`` is a 400.
``GET /results?job=ID``
    JSONL, one row per shard in cell order: its identity and status
    and, for a completed shard, the stored result dict without
    per-packet samples (lossless otherwise).  A stored result goes out
    as the store's own JSON text, spliced into the row undecoded; rows
    decode equal to :meth:`SimulationService.results`' dicts.
``POST /shutdown``
    Stops the server loop (the CLI owns daemonization; shutdown is an
    endpoint so a smoke test can end a foreground daemon cleanly).
``GET /health``
    ``{"status": "ok", ...}`` liveness probe.
"""

from __future__ import annotations

import json
import math
import signal
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from .. import telemetry
from .core import SimulationService

__all__ = ["ServiceServer", "serve"]

logger = telemetry.get_logger(__name__)

#: Largest ``/submit`` body accepted (a request is a few hundred bytes).
MAX_BODY_BYTES = 1 << 20


class _Handler(BaseHTTPRequestHandler):
    # HTTP/1.0: responses are delimited by connection close, which is
    # what makes the watch stream readable without chunked encoding.
    protocol_version = "HTTP/1.0"
    server_version = "repro-service"

    def log_message(self, format, *args):  # noqa: A002 - stdlib signature
        logger.debug("%s - %s", self.address_string(), format % args)

    # -- plumbing ----------------------------------------------------------

    @property
    def service(self) -> SimulationService:
        return self.server.service  # type: ignore[attr-defined]

    def _send_json(self, payload: dict, code: int = 200) -> None:
        body = json.dumps(payload).encode()
        self.send_response(code)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def _send_error_json(self, code: int, message: str) -> None:
        self._send_json({"error": message}, code=code)

    def _route(self) -> Tuple[str, dict]:
        split = urlsplit(self.path)
        query = {
            name: values[-1]
            for name, values in parse_qs(split.query).items()
        }
        return split.path, query

    # -- verbs -------------------------------------------------------------

    def do_GET(self) -> None:  # noqa: N802 - stdlib signature
        path, query = self._route()
        try:
            if path == "/health":
                self._send_json({
                    "status": "ok",
                    "store": str(self.service.store.root),
                })
            elif path == "/status":
                self._send_json(self.service.status(query.get("job")))
            elif path == "/watch":
                self._stream_watch(query)
            elif path == "/results":
                self._stream_results(query)
            else:
                self._send_error_json(404, f"unknown path {path!r}")
        except ValueError as exc:  # unknown job, bad arguments
            self._send_error_json(404, str(exc))
        except BrokenPipeError:  # client went away mid-stream
            pass

    def do_POST(self) -> None:  # noqa: N802 - stdlib signature
        path, _ = self._route()
        if path == "/submit":
            try:
                length = int(self.headers.get("Content-Length") or 0)
                if length < 0:  # read(-1) would wait for the client to close
                    raise ValueError("negative Content-Length")
                if length > MAX_BODY_BYTES:
                    self._send_error_json(
                        413, f"request body over {MAX_BODY_BYTES} bytes"
                    )
                    return
                request = json.loads(self.rfile.read(length) or b"{}")
                job_id = self.service.submit(request)
            except (ValueError, KeyError, TypeError) as exc:
                self._send_error_json(400, str(exc))
                return
            self._send_json({"job_id": job_id})
        elif path == "/shutdown":
            self._send_json({"status": "stopping"})
            # shutdown() must not run on this handler thread's server
            # loop; hand it to a throwaway thread and return.
            threading.Thread(
                target=self.server.shutdown, daemon=True
            ).start()
        else:
            self._send_error_json(404, f"unknown path {path!r}")

    # -- streams -----------------------------------------------------------

    def _start_stream(self) -> None:
        self.send_response(200)
        self.send_header("Content-Type", "application/x-ndjson")
        self.end_headers()

    def _stream_watch(self, query: dict) -> None:
        job_id = query.get("job")
        if not job_id:
            raise ValueError("watch requires ?job=ID")
        timeout = None
        if "timeout" in query:
            try:
                timeout = float(query["timeout"])
            except ValueError:
                timeout = math.nan
            if not math.isfinite(timeout):
                self._send_error_json(
                    400, f"timeout must be finite seconds: {query['timeout']!r}"
                )
                return
        self.service.status(job_id)  # validate before committing a 200
        self._start_stream()
        for event in self.service.events(
            job_id, follow=True, timeout=timeout
        ):
            self.wfile.write((json.dumps(event) + "\n").encode())
            self.wfile.flush()

    def _stream_results(self, query: dict) -> None:
        job_id = query.get("job")
        if not job_id:
            raise ValueError("results requires ?job=ID")
        self.service.status(job_id)
        self._start_stream()
        for entry, result in self.service._result_rows(job_id):
            if isinstance(result, str):
                # The stored text goes out as read: splice it in as the
                # envelope's last member instead of decoding it.
                line = f'{json.dumps(entry)[:-1]}, "result": {result}}}'
            else:
                if result is not None:
                    entry["result"] = result
                line = json.dumps(entry)
            self.wfile.write((line + "\n").encode())
            self.wfile.flush()


class ServiceServer:
    """A running daemon: HTTP server + service, started/stopped together.

    ``port=0`` binds an ephemeral port (tests); the bound address is
    ``server.address`` after construction.
    """

    def __init__(
        self,
        service: SimulationService,
        host: str = "127.0.0.1",
        port: int = 8753,
    ) -> None:
        self.service = service
        self.httpd = ThreadingHTTPServer((host, port), _Handler)
        self.httpd.daemon_threads = True
        self.httpd.service = service  # type: ignore[attr-defined]
        self.address = (
            f"http://{self.httpd.server_address[0]}"
            f":{self.httpd.server_address[1]}"
        )
        self._thread: Optional[threading.Thread] = None

    def serve_forever(self) -> None:
        """Run in the calling thread until /shutdown, KeyboardInterrupt or
        (on the main thread) SIGTERM; each stops the worker pool."""
        restore = None
        if threading.current_thread() is threading.main_thread():
            # SIGTERM's default action would end the process without the
            # ``finally`` below, orphaning the pool's workers.
            restore = signal.signal(signal.SIGTERM, _interrupt)
        self.service.start()
        try:
            self.httpd.serve_forever(poll_interval=0.2)
        except KeyboardInterrupt:
            pass
        finally:
            if restore is not None:
                signal.signal(signal.SIGTERM, restore)
            self.close()

    def start_background(self) -> "ServiceServer":
        """Run the server loop on a background thread (tests, notebooks)."""
        self.service.start()
        self._thread = threading.Thread(
            target=self.httpd.serve_forever,
            kwargs={"poll_interval": 0.2},
            daemon=True,
        )
        self._thread.start()
        return self

    def close(self) -> None:
        self.httpd.shutdown()
        self.httpd.server_close()
        self.service.stop()
        if self._thread is not None:
            self._thread.join(timeout=5.0)

    def __enter__(self) -> "ServiceServer":
        return self.start_background()

    def __exit__(self, *exc) -> None:
        self.close()


def _interrupt(signum, frame) -> None:
    """Leave the server loop as a KeyboardInterrupt does."""
    raise KeyboardInterrupt


def serve(
    store,
    host: str = "127.0.0.1",
    port: int = 8753,
    workers: int = 2,
) -> ServiceServer:
    """Build a daemon (service + HTTP server) ready to run.

    The CLI calls ``serve(...).serve_forever()``; tests use the returned
    server as a context manager for a background instance.
    """
    service = SimulationService(store, workers=workers)
    return ServiceServer(service, host=host, port=port)
