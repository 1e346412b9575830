"""Stdlib HTTP client for the simulation service daemon.

``urllib``-based (no dependencies), mirroring the daemon's endpoints:
``submit`` returns a job id, ``status`` a progress dict, ``watch`` and
``results`` *generators* over the streamed JSONL lines — a watch yields
each shard event as the daemon flushes it, which is what makes
``repro watch`` live rather than poll-and-print.
"""

from __future__ import annotations

import json
from typing import Dict, Iterator, Optional, Union
from urllib.error import HTTPError, URLError
from urllib.request import Request, urlopen

from .jobs import JobRequest

__all__ = ["DEFAULT_URL", "ServiceClient", "ServiceError"]

#: Where `repro serve` listens by default.
DEFAULT_URL = "http://127.0.0.1:8753"


class ServiceError(RuntimeError):
    """A daemon-side rejection or an unreachable daemon."""


class ServiceClient:
    """Talk to a running ``repro serve`` daemon at ``url``."""

    def __init__(self, url: str = DEFAULT_URL, timeout: float = 10.0) -> None:
        self.url = url.rstrip("/")
        self.timeout = timeout

    # -- plumbing ----------------------------------------------------------

    def _open(self, path: str, body: Optional[Dict] = None,
              timeout: Optional[float] = None):
        data = None if body is None else json.dumps(body).encode()
        request = Request(
            self.url + path,
            data=data,
            headers={"Content-Type": "application/json"} if data else {},
            method="POST" if data is not None else "GET",
        )
        try:
            return urlopen(
                request,
                timeout=self.timeout if timeout is None else timeout,
            )
        except HTTPError as exc:
            try:
                detail = json.loads(exc.read()).get("error", "")
            except ValueError:
                detail = ""
            raise ServiceError(
                f"{path}: HTTP {exc.code}"
                + (f" — {detail}" if detail else "")
            ) from None
        except URLError as exc:
            raise ServiceError(
                f"no service at {self.url} ({exc.reason}); "
                f"start one with `repro serve`"
            ) from None

    def _json(self, path: str, body: Optional[Dict] = None) -> Dict:
        with self._open(path, body) as response:
            return json.loads(response.read())

    def _jsonl(
        self, path: str, timeout: Optional[float] = None
    ) -> Iterator[Dict]:
        with self._open(path, timeout=timeout) as response:
            for line in response:
                line = line.strip()
                if line:
                    yield json.loads(line)

    # -- endpoints ---------------------------------------------------------

    def health(self) -> Dict:
        return self._json("/health")

    def submit(self, request: Union[JobRequest, Dict]) -> str:
        """Submit a sweep request; returns its job id."""
        if isinstance(request, JobRequest):
            request = request.to_dict()
        return self._json("/submit", body=request)["job_id"]

    def status(self, job_id: Optional[str] = None) -> Dict:
        path = "/status" + (f"?job={job_id}" if job_id else "")
        return self._json(path)

    def watch(
        self, job_id: str, timeout: Optional[float] = None
    ) -> Iterator[Dict]:
        """Stream a job's events live until its terminal ``done`` event.

        ``timeout`` bounds the total watch (daemon-side); the socket
        itself never times out between events while the daemon is alive.
        """
        path = f"/watch?job={job_id}"
        if timeout is not None:
            path += f"&timeout={timeout}"
        # The stream lives as long as the job; disable the client-side
        # socket timeout and let the daemon's close end the iteration.
        return self._jsonl(path, timeout=max(self.timeout, timeout or 0.0)
                           if timeout is not None else 86_400.0)

    def results(self, job_id: str) -> Iterator[Dict]:
        """Stream a job's per-shard result rows, in cell order.

        Each row is what
        :meth:`~repro.service.core.SimulationService.results` yields for
        the shard (the daemon sends stored results undecoded; this
        decodes each line once): identity, status, and for a completed
        shard the stored result dict without per-packet samples.
        """
        return self._jsonl(f"/results?job={job_id}")

    def shutdown(self) -> Dict:
        return self._json("/shutdown", body={})
