"""A small blocking client for the transformation server.

Used by the test suite, the benchmark harness, and the CLI's
``apply --remote`` mode.  One TCP connection, JSON lines out, JSON
lines back; no dependencies beyond the standard library.

Error mapping: a response's ``error.type`` is the server-side exception
class name.  Types that exist in :mod:`repro.errors` are re-raised as
*that* class with the server's message — ``client.transform`` on an
out-of-domain document raises the byte-identical
:class:`~repro.errors.UndefinedTransductionError` the local ``api.run``
would.  Unknown types raise :class:`~repro.errors.RemoteError`.
"""

from __future__ import annotations

import json
import socket
from typing import Dict, List, Optional, Union

from repro import errors as _errors
from repro.errors import RemoteError, ReproError, ServiceError


def error_from_payload(payload: Dict) -> ReproError:
    """Rebuild the library exception a server error payload describes."""
    type_name = str(payload.get("type", "unknown"))
    message = str(payload.get("message", ""))
    candidate = getattr(_errors, type_name, None)
    if isinstance(candidate, type) and issubclass(candidate, ReproError):
        return candidate(message)
    return RemoteError(f"{type_name}: {message}" if message else type_name)


class ServerClient:
    """Blocking JSON-lines client; use as a context manager.

    >>> with ServerClient(host, port) as client:       # doctest: +SKIP
    ...     client.transform("flip", "root(a(#, #), #)")
    'root(#, a(#, #))'
    """

    def __init__(self, host: str, port: int, timeout: float = 120.0):
        self.host = host
        self.port = port
        self.timeout = timeout
        self._sock: Optional[socket.socket] = None
        self._file = None
        self._request_id = 0

    # -- transport ------------------------------------------------------

    def _connect(self) -> None:
        if self._sock is not None:
            return
        self._sock = socket.create_connection(
            (self.host, self.port), timeout=self.timeout
        )
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._file = self._sock.makefile("rwb")

    def _send(self, payload: Dict) -> int:
        self._connect()
        self._request_id += 1
        payload = {"id": self._request_id, **payload}
        try:
            self._file.write(
                json.dumps(payload, ensure_ascii=False).encode() + b"\n"
            )
            self._file.flush()
        except (socket.timeout, OSError) as error:
            self.close()
            raise ServiceError(
                f"send to {self.host}:{self.port} failed ({error}); "
                f"connection closed, the next request will reconnect"
            ) from None
        return self._request_id

    def _read_response(self, expect_id: Optional[int] = None) -> Dict:
        """Read one response line; never leave a stale response behind.

        A ``socket.timeout`` mid-read tears the connection down: the
        server will still eventually write the response for the
        timed-out request, and reusing the socket would hand that stale
        line to the *next* request.  For the same reason a response
        carrying the wrong ``id`` (only checked when the server sent
        one — protocol-level rejections of unparseable lines carry
        none) poisons the connection and is fatal.
        """
        try:
            line = self._file.readline()
        except socket.timeout:
            self.close()
            raise ServiceError(
                f"request to {self.host}:{self.port} timed out after "
                f"{self.timeout}s; connection closed to discard the "
                f"stale response, the next request will reconnect"
            ) from None
        if not line:
            self.close()
            raise ServiceError(
                f"server {self.host}:{self.port} closed the connection"
            )
        response = json.loads(line)
        response_id = response.get("id")
        if (
            expect_id is not None
            and response_id is not None
            and response_id != expect_id
        ):
            self.close()
            raise ServiceError(
                f"response id {response_id} does not match request id "
                f"{expect_id}; connection closed, the next request will "
                f"reconnect"
            )
        return response

    def _request(self, payload: Dict) -> Dict:
        """One round trip; raises on a protocol-level error response."""
        request_id = self._send(payload)
        response = self._read_response(expect_id=request_id)
        if not response.get("ok", False):
            raise error_from_payload(response.get("error", {}))
        return response

    # -- document plane -------------------------------------------------

    def transform(self, model: str, document: str) -> str:
        """Transform one document; raises the server's exact error."""
        return self._request(
            {"op": "transform", "model": model, "document": document}
        )["document"]

    def transform_packed(self, model: str, document: str, decode: bool = True):
        """Transform with a flat-DAG response (transducer models only).

        With ``decode=True`` the postorder records are re-interned into
        the same :class:`~repro.trees.tree.Tree` the local engine would
        return; ``decode=False`` hands back the raw payload dict (the
        throughput benchmark measures the wire, not the client's
        decoder).
        """
        response = self._request(
            {
                "op": "transform",
                "model": model,
                "document": document,
                "format": "packed",
            }
        )
        packed = response["packed"]
        if not decode:
            return packed
        from repro.serve.shard import decode_forest

        records = tuple(tuple(record) for record in packed["records"])
        return decode_forest((records, (packed["root"],)))[0]

    def transform_traced(self, model: str, document: str):
        """Transform one document and return ``(output, trace)``.

        ``trace`` is the server-side span tree of this exact request
        (decode → queue/batch.assemble → dispatch/execute → encode) as
        a plain dict; feed it to
        :func:`repro.obs.trace.render_trace_dict` for the human
        rendering.  Raises the server's exact error on failure, like
        :meth:`transform`.
        """
        response = self._request(
            {
                "op": "transform",
                "model": model,
                "document": document,
                "trace": True,
            }
        )
        return response["document"], response.get("trace")

    def try_transform(
        self, model: str, document: str
    ) -> Union[str, ReproError]:
        """Like :meth:`transform`, but failures come back as values."""
        request_id = self._send(
            {"op": "transform", "model": model, "document": document}
        )
        response = self._read_response(expect_id=request_id)
        if response.get("ok", False):
            return response["document"]
        return error_from_payload(response.get("error", {}))

    def transform_stream(
        self, model: str, stream: Union[str, bytes]
    ) -> List[Union[str, ReproError]]:
        """Ship an XML batch stream; per-document outcomes in order.

        ``stream`` is the raw bytes of one XML document whose root
        element wraps the batch members.  A stream-level failure (parse
        error, unknown model) raises; per-document failures are
        returned in place.
        """
        if isinstance(stream, str):
            stream = stream.encode("utf-8")
        request_id = self._send(
            {
                "op": "transform_stream",
                "model": model,
                "content_length": len(stream),
            }
        )
        try:
            self._file.write(stream)
            self._file.flush()
        except (socket.timeout, OSError) as error:
            self.close()
            raise ServiceError(
                f"stream body send to {self.host}:{self.port} failed "
                f"({error}); connection closed, the next request will "
                f"reconnect"
            ) from None
        outcomes: List[Union[str, ReproError]] = []
        while True:
            response = self._read_response(expect_id=request_id)
            if response.get("done"):
                error = response.get("error")
                if error is not None:
                    raise error_from_payload(error)
                return outcomes
            if response.get("ok", False):
                outcomes.append(response["document"])
            else:
                outcomes.append(
                    error_from_payload(response.get("error", {}))
                )

    # -- admin plane ----------------------------------------------------

    def health(self) -> Dict:
        return self._request({"op": "health"})

    def stats(self) -> Dict:
        return self._request({"op": "stats"})["stats"]

    def models(self) -> List[Dict]:
        return self._request({"op": "models"})["models"]

    def metrics(self) -> Dict:
        """The structured metrics snapshot: counters, gauges, histograms."""
        return self._request({"op": "metrics"})["metrics"]

    def metrics_text(self) -> str:
        """The Prometheus text exposition of the server's metrics."""
        return self._request({"op": "metrics"})["text"]

    def profile(self, model: Optional[str] = None) -> Dict[str, Dict]:
        """Engine profiler snapshots, keyed by model.

        Each snapshot carries sweep counts and seconds, per-rule hit
        counts (hottest first) and per-height timings.  Models whose
        engines never built are omitted; pass ``model`` to ask about one
        specifically.
        """
        payload: Dict = {"op": "profile"}
        if model is not None:
            payload["model"] = model
        return self._request(payload)["profiles"]

    def reload(self) -> Dict[str, List[str]]:
        return self._request({"op": "reload"})["reload"]

    def shutdown(self) -> None:
        """Ask the server to stop gracefully."""
        self._request({"op": "shutdown"})

    # -- lifecycle ------------------------------------------------------

    def close(self) -> None:
        if self._file is not None:
            try:
                self._file.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            self._file = None
        if self._sock is not None:
            try:
                self._sock.close()
            except OSError:  # pragma: no cover - teardown best effort
                pass
            self._sock = None

    def __enter__(self) -> "ServerClient":
        return self

    def __exit__(self, *_exc) -> None:
        self.close()
