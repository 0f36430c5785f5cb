"""Line-delimited JSON prediction protocol over a child process.

Requests are single lines ``{"id": n, "rows": [[...], ...]}``; the model
answers ``{"id": n, "predictions": [...]}`` with one prediction per row.
Responses may arrive in any order and are matched by id.  Any malformed
line, length mismatch, non-finite prediction, timeout, or mid-stream exit
raises ModelProtocolError with an excerpt of the offending payload; noise on
stdout never crashes the host.
"""

from __future__ import annotations

import json
import math
import queue
import subprocess
import threading
import time
from typing import Sequence

import numpy as np

from ..errors import ConfigError, ModelProtocolError

MAX_BATCH_ROWS = 2_000
HANDSHAKE_ID = 0
# The longest single wait on the response queue.  A longer timeout waits in
# slices: one lock wait beyond threading.TIMEOUT_MAX (about 9e9 s) overflows.
MAX_WAIT_S = 3600.0


def _excerpt(text: str, limit: int = 200) -> str:
    text = text.strip()
    return text if len(text) <= limit else text[:limit] + "..."


class ExternalModel:
    """Predictor backed by an external command speaking the JSON protocol.

    Satisfies the predictor contract; one process is shared by all callers,
    serialized through an internal lock with ids demultiplexing responses.
    A call sends its rows in requests of at most ``MAX_BATCH_ROWS``.
    """

    def __init__(self, command: str | Sequence[str], timeout: float = 60.0):
        if not (math.isfinite(timeout) and timeout > 0):
            raise ConfigError(
                f"model timeout must be a finite number of seconds > 0, got {timeout}"
            )
        self.timeout = timeout
        self._lock = threading.Lock()
        self._next_id = HANDSHAKE_ID + 1
        self._stash: dict[int, list] = {}
        try:
            self._proc = subprocess.Popen(
                command,
                shell=isinstance(command, str),
                stdin=subprocess.PIPE,
                stdout=subprocess.PIPE,
                stderr=subprocess.DEVNULL,
                text=True,
                encoding="utf-8",
                errors="replace",
                bufsize=1,
            )
        except OSError as exc:
            raise ModelProtocolError(f"cannot start model command: {exc}") from exc
        self._lines: queue.Queue[str | None] = queue.Queue()
        self._reader = threading.Thread(target=self._read_loop, daemon=True)
        self._reader.start()
        # Handshake: an empty request must get an empty answer (checked in _receive).
        self._send(HANDSHAKE_ID, [])
        self._receive(HANDSHAKE_ID, 0)

    def _read_loop(self) -> None:
        try:
            for line in self._proc.stdout:
                self._lines.put(line)
        except ValueError:
            pass
        finally:
            self._lines.put(None)

    def _send(self, request_id: int, rows: list) -> None:
        message = json.dumps({"id": request_id, "rows": rows})
        try:
            self._proc.stdin.write(message + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ModelProtocolError(
                f"model process closed its input (exit code {self._proc.poll()})"
            ) from exc

    def _receive(self, request_id: int, n_rows: int) -> list:
        deadline = time.monotonic() + self.timeout
        while True:
            if request_id in self._stash:
                preds = self._stash.pop(request_id)
                break
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise ModelProtocolError(
                    f"model timed out after {self.timeout:.0f} s waiting for id {request_id}"
                )
            try:
                line = self._lines.get(timeout=min(remaining, MAX_WAIT_S))
            except queue.Empty:
                continue
            if line is None:
                raise ModelProtocolError(
                    f"model process exited mid-stream (exit code {self._proc.poll()})"
                )
            if not line.strip():
                continue
            try:
                payload = json.loads(line)
            except json.JSONDecodeError:
                raise ModelProtocolError(
                    f"malformed response line: {_excerpt(line)!r}"
                ) from None
            if not isinstance(payload, dict) or "id" not in payload:
                raise ModelProtocolError(f"response missing id: {_excerpt(line)!r}")
            if "predictions" not in payload or not isinstance(
                payload["predictions"], list
            ):
                raise ModelProtocolError(
                    f"response missing predictions array: {_excerpt(line)!r}"
                )
            try:
                response_id = int(payload["id"])
            except (TypeError, ValueError):
                raise ModelProtocolError(
                    f"non-integer response id: {_excerpt(line)!r}"
                ) from None
            self._stash[response_id] = payload["predictions"]
        if len(preds) != n_rows:
            raise ModelProtocolError(
                f"id {request_id}: got {len(preds)} predictions for {n_rows} rows"
            )
        try:
            values = [float(p) for p in preds]
        except (TypeError, ValueError):
            raise ModelProtocolError(
                f"id {request_id}: non-numeric prediction in {_excerpt(str(preds))!r}"
            ) from None
        if not all(map(math.isfinite, values)):
            raise ModelProtocolError(
                f"id {request_id}: non-finite prediction in {_excerpt(str(preds))!r}"
            )
        return values

    def __call__(self, x: np.ndarray) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, float))
        out = np.empty(len(x))
        with self._lock:
            # Pipeline all batches, then collect; ids route the responses.
            spans = []
            for start in range(0, len(x), MAX_BATCH_ROWS):
                stop = min(start + MAX_BATCH_ROWS, len(x))
                request_id = self._next_id
                self._next_id += 1
                self._send(request_id, x[start:stop].tolist())
                spans.append((request_id, start, stop))
            for request_id, start, stop in spans:
                out[start:stop] = self._receive(request_id, stop - start)
        return out

    def close(self) -> None:
        try:
            if self._proc.stdin:
                self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=5)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            self._proc.wait()

    def __enter__(self) -> "ExternalModel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

