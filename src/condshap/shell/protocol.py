"""Line-delimited JSON prediction protocol over a child process.

Requests are single lines ``{"id": n, "rows": [[...], ...]}``; the model
answers ``{"id": n, "predictions": [...]}`` with one prediction per row.
Responses may arrive in any order and are matched by id.  Any malformed
line, id that is not a JSON integer, id that was never requested or is
answered twice, prediction that is not a finite JSON number, length
mismatch, timeout, or mid-stream exit raises
ModelProtocolError with an excerpt of the offending payload; noise on stdout
never crashes the host.

A request line is byte for byte what ``json.dumps({"id": n, "rows":
rows.tolist()})`` writes for the float64 rows.  The host writes it from a
table of the texts of values it has sent, keyed by bit pattern and bounded
at 65,536 values (2 MiB), so a value that repeats (a training value or an
x* value spliced into many rows) is formatted once; only values not in the
table are formatted by ``json.dumps``.
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
# Entries of RequestEncoder's value-text table: an 8-byte key and a 24-byte
# text each, so at most 2 MiB.  A table that new values would overflow is
# emptied first.
MAX_TABLE_VALUES = 2 ** 16
# Bytes of the longest float64 text, e.g. "-2.2250738585072014e-308".
TEXT_WIDTH = 24
# Table entries written at once when new values enter it (512 KiB of them).
MERGE_BLOCK = 2 ** 14
HANDSHAKE_ID = 0
# The longest single wait on the response queue.  A longer timeout waits in
# slices: one lock wait beyond threading.TIMEOUT_MAX (about 9e9 s) overflows.
MAX_WAIT_S = 3600.0


def _excerpt(text: str, limit: int = 200) -> str:
    text = text.strip()
    return text if len(text) <= limit else text[:limit] + "..."


class RequestEncoder:
    """Writes request lines from a table of value texts keyed by bit pattern.

    The table holds sorted int64 keys (the float64 bit patterns, so ``0.0``
    and ``-0.0`` stay apart) and their ``json.dumps`` texts, at most
    ``MAX_TABLE_VALUES`` of them.  A request looks up its distinct values in
    it; the misses are formatted by ``json.dumps`` once and added.
    """

    def __init__(self):
        # Allocated once; a page becomes resident when the table first reaches it.
        self._keys = np.empty(MAX_TABLE_VALUES, np.int64)
        self._texts = np.empty(MAX_TABLE_VALUES, f"S{TEXT_WIDTH}")
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def line(self, request_id: int, rows: np.ndarray) -> str:
        """``json.dumps({"id": request_id, "rows": rows.tolist()})`` of float64 rows."""
        rows = np.ascontiguousarray(rows, float)
        if rows.size == 0:
            return json.dumps({"id": request_id, "rows": rows.tolist()})
        n_rows, n_cols = rows.shape
        keys, inverse = np.unique(rows.view(np.int64), return_inverse=True)
        texts = self._lookup(keys)[inverse]
        # One cell per value: its NUL-padded text, then ", " within a row or
        # "], [" after its last value; the NULs are dropped before decoding.
        cells = np.zeros((n_rows, n_cols, TEXT_WIDTH + 4), np.uint8)
        cells[:, :, :TEXT_WIDTH] = texts.view(np.uint8).reshape(n_rows, n_cols, TEXT_WIDTH)
        cells[:, :-1, TEXT_WIDTH:TEXT_WIDTH + 2] = np.frombuffer(b", ", np.uint8)
        cells[:, -1, TEXT_WIDTH:] = np.frombuffer(b"], [", np.uint8)
        cells[-1, -1, TEXT_WIDTH + 1:] = 0
        body = cells[cells != 0].tobytes().decode("ascii")
        return f'{{"id": {request_id}, "rows": [[{body}]}}'

    def _lookup(self, keys: np.ndarray) -> np.ndarray:
        """The texts of the sorted distinct ``keys``; misses enter the table."""
        table = self._keys[:self._size]
        at = np.searchsorted(table, keys)
        found = at < len(table)
        found[found] = table[at[found]] == keys[found]
        texts = np.zeros(len(keys), self._texts.dtype)
        texts[found] = self._texts[at[found]]
        if found.all():
            return texts
        missed = ~found
        # json.dumps's own float text, NaN and Infinity included.
        new_texts = np.array(json.dumps(keys[missed].view(float).tolist())[1:-1].split(", "),
                             self._texts.dtype)
        texts[missed] = new_texts
        self._insert(keys[missed], new_texts)
        return texts

    def _insert(self, keys: np.ndarray, texts: np.ndarray) -> None:
        """Merge sorted ``keys``, none of them in the table, into it in place.

        A table they would overflow is emptied first.  The merged table is
        written a block at a time from the top down: a block's old entries
        are copied out before it is written, and the entries of every lower
        block lie below it, so no temporary is larger than a block.
        """
        capacity = len(self._keys)
        if self._size + len(keys) > capacity:
            self._size = 0
            keys, texts = keys[:capacity], texts[:capacity]
        total = self._size + len(keys)
        new_at = np.searchsorted(self._keys[:self._size], keys) + np.arange(len(keys))
        for stop in range(total, int(new_at[0]), -MERGE_BLOCK):
            start = max(stop - MERGE_BLOCK, int(new_at[0]))
            # New entries i0:i1 land in [start, stop); old entries fill the rest.
            i0, i1 = np.searchsorted(new_at, (start, stop))
            is_new = np.zeros(stop - start, bool)
            is_new[new_at[i0:i1] - start] = True
            for table, new in ((self._keys, keys), (self._texts, texts)):
                old = table[start - i0:stop - i1].copy()
                block = table[start:stop]
                block[is_new] = new[i0:i1]
                block[~is_new] = old
        self._size = total


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
        # Ids sent and not yet answered; an answer to any other id is an error.
        self._pending: set[int] = set()
        self._stash: dict[int, list] = {}
        self._encoder = RequestEncoder()
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
        try:
            self._send(HANDSHAKE_ID, np.empty((0, 0)))
            self._receive(HANDSHAKE_ID, 0)
        except ModelProtocolError:
            # No caller will ever hold this object to close it.
            self._proc.kill()
            self.close()
            raise

    def _read_loop(self) -> None:
        try:
            for line in self._proc.stdout:
                self._lines.put(line)
        except ValueError:
            pass
        finally:
            self._lines.put(None)

    def _send(self, request_id: int, rows: np.ndarray) -> None:
        message = self._encoder.line(request_id, rows)
        try:
            self._proc.stdin.write(message + "\n")
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ModelProtocolError(
                f"model process closed its input (exit code {self._proc.poll()})"
            ) from exc
        self._pending.add(request_id)

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
            except ValueError:  # JSONDecodeError, or an integer past Python's digit limit
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
            response_id = payload["id"]
            if type(response_id) is not int:  # not a JSON integer (a bool is no id either)
                raise ModelProtocolError(
                    f"non-integer response id {_excerpt(repr(response_id))}: {_excerpt(line)!r}"
                )
            if response_id not in self._pending:
                raise ModelProtocolError(
                    f"response id {_excerpt(repr(response_id))} was never requested "
                    f"or is already answered: {_excerpt(line)!r}"
                )
            self._pending.remove(response_id)
            self._stash[response_id] = payload["predictions"]
        if len(preds) != n_rows:
            raise ModelProtocolError(
                f"id {request_id}: got {len(preds)} predictions for {n_rows} rows"
            )
        # JSON numbers parse to int or float; a string or a bool is not one.
        if not set(map(type, preds)) <= {int, float}:
            raise ModelProtocolError(
                f"id {request_id}: non-numeric prediction in {_excerpt(str(preds))!r}"
            )
        try:
            values = [float(p) for p in preds]
            finite = all(map(math.isfinite, values))
        except OverflowError:  # an integer beyond the float range
            finite = False
        if not finite:
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
                self._send(request_id, x[start:stop])
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

