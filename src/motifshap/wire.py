"""The wire protocol, by which a black box in another process is queried.

Client and server exchange one JSON object per line over the server's
stdin and stdout. The client opens with {"hello": "motif-shap/1"}
(PROTOCOL_HELLO), and the server replies {"ready": true}. Each request,
{"id": <int>, "n": <int>, "edges": [[u, v, w], ...]}, lists every edge of
a graph over nodes 0..n-1 once, with its weight, 1.0 for an unweighted
edge. The server answers every request, in request order, with
{"id": <the request's id>, "p": <number in [0, 1]>}. The client keeps up
to WINDOW requests in flight before it reads a reply, so a server that
answers each line in order and flushes each reply needs nothing more.

Any deviation raises; there is no silent default. The client,
ExternalBlackBox, raises TransportError when the child cannot start or
exits, a write fails, a reply is not a JSON object, its id is not the
oldest unanswered request's, its p is not a number in [0, 1], or a write
or a read outlasts the timeout. The server, serve, raises InputFormatError
on a bad handshake or request and UniverseMismatchError on a request over
another universe.
"""

from __future__ import annotations

import json
import math
import os
import re
import select
import subprocess
import sys
import time
from bisect import bisect_left
from collections import deque
from typing import IO, Sequence

import numpy as np

from .blackbox import BlackBox
from .errors import ConfigurationError, InputFormatError, ParameterError, TransportError
from .files import _edge_fragments
from .graphs import Graph, _as_int, _is_real, _pack_pairs, _weighted_graph, pair_index, unpack_edges

PROTOCOL_HELLO = "motif-shap/1"


def _request_line(rid: int, g: Graph) -> bytes:
    """The request for g under id rid, newline included, as json.dumps
    writes it with separators (",", ":"): keys in that order and edges in
    ascending (u, v), which is pair_index order, so they come straight from
    the edge bits. Only weights other than 1.0 are formatted, as json does."""
    frags = _edge_fragments(g.n, ",1.0")
    idx = np.flatnonzero(unpack_edges(g.edge_bits, g.n)).tolist()
    parts = [frags[i] for i in idx]
    for (u, v), w in (g.weights or {}).items():
        parts[bisect_left(idx, pair_index(u, v, g.n))] = f"[{u},{v},{float(w)!r}]"
    return f'{{"id":{rid},"n":{g.n},"edges":[{",".join(parts)}]}}\n'.encode("ascii")


#: Digits of n and of each node id in a canonical request, so that n * n
#: and each pair index fit an int64; its id has at most 18, far from the
#: digit limit of int()
_ID_DIGITS = 9
_CANONICAL_HEAD = re.compile(
    rb'\{"id":(0|[1-9][0-9]{0,17}),"n":(0|[1-9][0-9]{0,%d}),"edges":\[' % (_ID_DIGITS - 1))
#: The least node id of each digit count without a leading zero
_LEAST_ID = np.array([0] + [10 ** i for i in range(1, _ID_DIGITS)], np.int64)
#: JSON numbers without a sign, joined by ","
_NUMBER = rb"(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
_CANONICAL_WEIGHTS = re.compile(_NUMBER + rb"(?:," + _NUMBER + rb")*")
_ONE_ENDING = int.from_bytes(b"1.0]", "little")
_NUMBER_BYTES = b"0123456789.eE+-"


def _decode_request(line: str) -> tuple[int, int, np.ndarray, np.ndarray, dict | None] | None:
    """The inverse of _request_line: (id, n, u, v, weights) of a line in
    the form it writes, or None for any other line. u and v are int64
    arrays of the node ids; weights maps (u, v) to each weight other than
    1.0, or is None when there are none.

    The line must hold nothing a JSON reader would refuse or read another
    way: integers without a sign or a leading zero, u < v < n with the pairs
    in strictly ascending (u, v) order, so no pair is listed twice, and each
    weight a JSON number without a sign in [0, 1]. So the graph is the one
    the JSON path builds, and a line that breaks any rule, valid or not, is
    left to that path and its errors. Never raises. Node ids are read with
    numpy over the line's bytes, and only the weights other than the
    literal 1.0 are read with float."""
    try:
        raw = line.encode("ascii")
    except UnicodeEncodeError:
        return None
    head = _CANONICAL_HEAD.match(raw)
    if head is None or not raw.endswith(b"]}"):
        return None
    rid, n = int(head[1]), int(head[2])
    body = raw[head.end():-2]  # [u,v,w],[u,v,w],...
    if not body:
        return rid, n, np.zeros(0, np.int64), np.zeros(0, np.int64), None
    # without its numbers, the body is "[,,]" once per edge, joined by ","
    skeleton = body.translate(None, _NUMBER_BYTES) + b","
    k = len(skeleton) // 5
    if skeleton != b"[,,]," * k:
        return None
    # positions below index the line. Row r is "[" u "," v "," w "]", ended
    # by its third comma (the last row by the list's "]") and followed by
    # row r + 1; the head holds two commas. A number that stands before a
    # "[" or after a "]" lies inside an id or a weight as read here, and
    # fails its check
    b = np.frombuffer(raw, np.uint8)
    comma = np.append(np.flatnonzero(b == ord(","))[2:], len(raw) - 2).reshape(k, 3)
    first, second, closing = comma[:, 0], comma[:, 1], comma[:, 2] - 1
    # node ids: digits only, 1 to _ID_DIGITS of them, no leading zero
    ends = np.concatenate((first, second))
    lengths = ends - np.concatenate(([head.end()], comma[:-1, 2] + 1, first)) - 1
    width = int(lengths.max())
    if lengths.min() < 1 or width > _ID_DIGITS:
        return None
    # row j of window holds the (width - j)-th last byte of each id, as a
    # digit value (other bytes wrap to 10 and above), or 0 before the id
    window = (b - np.uint8(ord("0")))[ends - np.arange(width, 0, -1)[:, None]]
    window *= np.arange(width, 0, -1)[:, None] <= lengths
    if np.any(window > 9):
        return None
    ids = window[0].astype(np.int64)
    for row in window[1:]:
        ids = ids * 10 + row
    if np.any(ids < _LEAST_ID[lengths - 1]):  # a leading zero
        return None
    u, v = ids[:k], ids[k:]
    # u < v < n, so u * n + v orders the pairs as (u, v) does
    if np.any(u >= v) or v.max() >= n or np.any(np.diff(u * n + v) <= 0):
        return None
    # weights: the literal 1.0 is read as it is, the rest with float; the
    # four bytes that end row r, read as one integer, are "1.0]" or not
    ending = np.ndarray(len(raw) - 3, "<u4", raw, strides=(1,))[closing - 3]
    rest = np.flatnonzero((ending != _ONE_ENDING) | (second != closing - 4))
    tokens = [raw[i:j] for i, j in zip((second[rest] + 1).tolist(), closing[rest].tolist())]
    if tokens and _CANONICAL_WEIGHTS.fullmatch(b",".join(tokens)) is None:
        return None
    values = list(map(float, tokens))
    if values and not 0.0 <= min(values) <= max(values) <= 1.0:
        return None
    weights = {pair: w for pair, w in zip(zip(u[rest].tolist(), v[rest].tolist()), values)
               if w != 1.0}
    return rid, n, u, v, weights or None


#: Requests the wire client keeps in flight within one evaluate_batch call,
#: so that encoding, the pipe and the served model overlap.
WINDOW = 4


class ExternalBlackBox(BlackBox):
    """Client for a classifier that speaks the wire protocol in a child
    process, started from command. Within evaluate_batch up to WINDOW
    requests are in flight: evaluate(g) sends g first if it is not sent
    yet, then the batch's next graphs until WINDOW are unanswered, then
    reads g's reply. A standalone evaluate(g) keeps one request in flight.
    The timeout, a positive finite number of seconds, bounds each write and
    each read. A timeout, or an error that leaves requests unanswered, ends
    the child, so no late reply is read as the answer to a later request.
    """

    def __init__(self, command: Sequence[str], timeout: float = 30.0):
        if not command:
            raise ConfigurationError("external black-box command is empty")
        if not (_is_real(timeout) and timeout > 0 and math.isfinite(timeout)):
            raise ConfigurationError(f"timeout must be positive and finite, got {timeout}")
        self.command = list(command)
        self.timeout = float(timeout)
        self._next_id = 0
        self._in_flight = 0
        self._queue: deque[Graph] = deque()
        self._rxbuf = bytearray()
        try:
            self._proc = subprocess.Popen(
                self.command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                bufsize=0)
        except OSError as exc:
            raise TransportError(f"cannot start {self.command[0]}: {exc}") from exc
        try:
            os.set_blocking(self._proc.stdin.fileno(), False)
            hello = json.dumps({"hello": PROTOCOL_HELLO}, separators=(",", ":")) + "\n"
            self._send(hello.encode("ascii"))
            reply = self._recv()
            if reply.get("ready") is not True:
                raise TransportError(f"bad handshake reply: {reply!r}")
        except BaseException:
            self.close()
            raise

    def _kill(self) -> None:
        self._proc.kill()
        self._proc.wait()

    def _wait_ready(self, fd: int, deadline: float, write: bool) -> bool:
        """Wait until fd is writable (or readable) or the deadline passes;
        past the deadline the child is ended and TransportError raised."""
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            # a late reply would be read as the answer to the next
            # request, so the child cannot be reused: end it now
            self._kill()
            raise TransportError(
                f"external black-box timed out after {self.timeout}s")
        fds = ([], [fd]) if write else ([fd], [])
        return any(select.select(*fds, [], remaining)[:2])

    def _send(self, line: bytes) -> None:
        deadline = time.monotonic() + self.timeout
        view = memoryview(line)
        try:
            fd = self._proc.stdin.fileno()
            while view:
                try:
                    view = view[os.write(fd, view):]
                except BlockingIOError:
                    self._wait_ready(fd, deadline, write=True)
        except (OSError, ValueError) as exc:
            # part of the line may be written: the stream is lost
            self._kill()
            raise TransportError(f"write to external black-box failed: {exc}") from exc

    def _recv(self) -> dict:
        deadline = time.monotonic() + self.timeout
        fd = self._proc.stdout.fileno()
        while b"\n" not in self._rxbuf:
            if not self._wait_ready(fd, deadline, write=False):
                continue
            chunk = os.read(fd, 65536)
            if not chunk:
                raise TransportError("external black-box closed its output")
            self._rxbuf.extend(chunk)
        line, _, rest = bytes(self._rxbuf).partition(b"\n")
        self._rxbuf = bytearray(rest)
        try:
            obj = json.loads(line.decode("utf-8"))
        except ValueError as exc:  # not UTF-8, not JSON, or an integer past int()'s digit limit
            raise TransportError(f"malformed reply line: {line!r}") from exc
        if not isinstance(obj, dict):
            raise TransportError(f"reply is not a JSON object: {obj!r}")
        return obj

    def _send_request(self, g: Graph) -> None:
        self._send(_request_line(self._next_id, g))
        self._next_id += 1
        self._in_flight += 1

    def evaluate(self, g: Graph) -> float:
        if self._proc.poll() is not None:
            raise TransportError(
                f"external black-box exited with code {self._proc.returncode}")
        if not self._in_flight:
            # g is unsent: it is the head of the batch's queue, or standalone
            if self._queue and self._queue[0] is g:
                self._queue.popleft()
            self._send_request(g)
        while self._in_flight < WINDOW and self._queue:
            self._send_request(self._queue.popleft())
        rid = self._next_id - self._in_flight
        self._in_flight -= 1
        reply = self._recv()
        if type(reply.get("id")) is not int or reply["id"] != rid:  # 1.0 and true are no ids
            raise TransportError(
                f"reply id {reply.get('id')!r} does not match request {rid}")
        p = reply.get("p")
        if not isinstance(p, (int, float)) or isinstance(p, bool):
            raise TransportError(f"reply probability is not a number: {p!r}")
        if not 0 <= p <= 1:  # NaN too; before float(), which a large integer overflows
            raise TransportError(f"reply probability {p} outside [0, 1]")
        return float(p)

    def evaluate_batch(self, graphs: Sequence[Graph]) -> list[float]:
        # evaluate is called once per graph, in order, so a subclass that
        # counts queries there sees each one; it sends the queued graphs
        # ahead of their turn
        self._queue.extend(graphs)
        try:
            return [self.evaluate(g) for g in graphs]
        finally:
            self._queue.clear()
            if self._in_flight:
                # unanswered requests would be read as later answers
                self._in_flight = 0
                self._kill()

    def close(self) -> None:
        proc = getattr(self, "_proc", None)
        if proc is None:
            return
        try:
            if proc.stdin:
                proc.stdin.close()
        except OSError:
            pass
        try:
            proc.wait(timeout=5.0)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()


#: What decoding a malformed request raises (JSONDecodeError is a ValueError)
_BAD_REQUEST = (LookupError, TypeError, ValueError, OverflowError, ParameterError)


def serve(bb: BlackBox, stdin: IO[str] | None = None,
          stdout: IO[str] | None = None) -> None:
    """Answer the wire protocol's requests with bb until end of input.

    Each request is checked in three steps. A line that is not JSON, a
    missing id or n, an id that is not an integer, or an n that is negative
    or not an integer raises InputFormatError. Then an n other than the
    black box's declared universe raises UniverseMismatchError, as evaluate
    would, before any edge is decoded, so a huge n costs nothing n-sized.
    Then the edges are read as the Graph constructor reads edges and
    weights: a missing edge list, an edge that does not list exactly three
    entries, a self-loop, a node outside [0, n), or a weight that is not a
    number in [0, 1] raises InputFormatError. The CLI maps these to the
    usage and format-error exit codes instead of answering garbage.

    A line in the form the client writes is read by _decode_request,
    without json.loads. Every other line, and every such line that breaks
    one of its rules, goes through json.loads and the steps above, which
    alone raise. So both paths accept the same requests, build the same
    graphs and raise the same errors."""
    stdin = stdin if stdin is not None else sys.stdin
    stdout = stdout if stdout is not None else sys.stdout

    def reply(obj: dict) -> None:
        stdout.write(json.dumps(obj, separators=(",", ":")) + "\n")
        stdout.flush()

    first = stdin.readline()
    if not first:
        return
    try:
        hello = json.loads(first)
        if hello.get("hello") != PROTOCOL_HELLO:
            raise ValueError(f"unexpected handshake {hello!r}")
    except (json.JSONDecodeError, AttributeError, ValueError) as exc:
        raise InputFormatError(f"bad handshake: {exc}") from exc
    reply({"ready": True})

    for line in filter(None, map(str.strip, stdin)):
        canonical = _decode_request(line)
        if canonical is not None:
            rid, n, u, v, weights = canonical
            bb.check_universe(n)
            g = Graph._trusted(n, _pack_pairs(u, v, n), weights)
        else:
            try:
                req = json.loads(line)
                rid, n = _as_int(req["id"], "request id"), _as_int(req["n"], "node count")
                if n < 0:
                    raise ParameterError("node count must be nonnegative")
            except _BAD_REQUEST as exc:
                raise InputFormatError(f"bad request: {exc}") from exc
            bb.check_universe(n)
            try:
                g = _weighted_graph(n, req["edges"])
            except _BAD_REQUEST as exc:
                raise InputFormatError(f"bad request: {exc}") from exc
        reply({"id": rid, "p": bb.evaluate(g)})
