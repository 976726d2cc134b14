"""Loopback completion service for the ``remote_edit`` workload.

It speaks the ``RemoteBackend`` contract (POST ``{"prompt", "seed", ...}``,
reply ``{"text": ...}``) and answers with ``atomic_ops.mock_complete`` after a
fixed delay, so dialogues match a mock-backend run byte for byte. At most
``WORKERS`` requests are served at once, as a backend with that many workers
would. About 5% of requests get a 503: those with an even seed whose prompt
hashes into a fixed bucket. A retry carries seed + 1, which is odd, so every
op succeeds on its second attempt and the counts repeat exactly for a seed.

Keep-alive (HTTP/1.1) and TCP_NODELAY matter: without them each call waits
~40 ms on a delayed ACK, and the stub is what gets measured.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

from dialogforge.atomic_ops import mock_complete

DELAY_S = 0.003
WORKERS = 2
FAIL_BUCKET = 26  # first prompt-hash byte below this (26/256 ~ 10%) fails on even seeds


def fails(prompt: str, seed: int) -> bool:
    return seed % 2 == 0 and hashlib.sha256(prompt.encode("utf-8")).digest()[0] < FAIL_BUCKET


class _Handler(BaseHTTPRequestHandler):
    protocol_version = "HTTP/1.1"
    disable_nagle_algorithm = True

    def do_POST(self) -> None:  # noqa: N802 - name fixed by BaseHTTPRequestHandler
        body = self.rfile.read(int(self.headers.get("Content-Length", 0)))
        status, payload = self.server.stub.answer(body)
        data = json.dumps(payload).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def log_message(self, format: str, *args) -> None:  # noqa: A002 - base signature
        pass


class StubBackend:
    """Threaded HTTP stub on 127.0.0.1; ``close`` stops it and joins its threads."""

    def __init__(self) -> None:
        self._slots = threading.BoundedSemaphore(WORKERS)
        self._lock = threading.Lock()
        self._failed: set[tuple[str, int]] = set()
        self.requests = self.errors = self.retries = self.bad = 0
        self._server = ThreadingHTTPServer(("127.0.0.1", 0), _Handler)
        self._server.stub = self
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        kwargs={"poll_interval": 0.05}, daemon=True)
        self._thread.start()

    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/complete"

    def counts(self) -> dict[str, int]:
        with self._lock:
            return {"requests": self.requests, "errors": self.errors,
                    "retries": self.retries, "bad": self.bad}

    def answer(self, body: bytes) -> tuple[int, dict]:
        with self._slots:
            time.sleep(DELAY_S)
            try:
                req = json.loads(body)
                prompt, seed = req["prompt"], int(req["seed"])
                text = mock_complete(prompt, seed)
            except (ValueError, KeyError, TypeError) as err:
                with self._lock:
                    self.requests += 1
                    self.bad += 1
                return 400, {"error": str(err)}
            failing = fails(prompt, seed)
            with self._lock:
                self.requests += 1
                if (prompt, seed - 1) in self._failed:
                    self.retries += 1
                if failing:
                    self.errors += 1
                    self._failed.add((prompt, seed))
            if failing:
                return 503, {"error": "unavailable"}
            return 200, {"text": text}

    def close(self) -> None:
        self._server.shutdown()
        self._server.server_close()
        self._thread.join()
