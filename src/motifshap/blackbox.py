"""Black-box classifiers: B maps a graph over the shared node universe to
a class-1 probability in [0, 1].

Two built-in surrogates are provided. GroundTruthScorer scores a graph by
how much of each planted motif it contains and is the deterministic
stand-in for a trained model on synthetic benchmarks. LinearSurrogate is
a logistic model over node-pair features trained by full-batch gradient
descent. ExternalBlackBox adapts any real classifier reachable as a
child process speaking a line-delimited JSON protocol; serve() is the
matching server side.

All black boxes read edges through Graph.weight, so a missing edge
counts 0, an unweighted present edge counts 1, and weighted graphs (as
produced by average masking) need no special handling.
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
from dataclasses import dataclass
from typing import IO, Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    DegenerateTrainingError,
    InputFormatError,
    ParameterError,
    TransportError,
    UniverseMismatchError,
)
from .graphs import (
    Graph,
    LabeledDataset,
    Motif,
    _as_int,
    _edge_fragments,
    _pack_pairs,
    _weighted_graph,
    pack_edges,
    pair_index,
    unpack_edges,
    weight_vector,
)

PROTOCOL_HELLO = "motif-shap/1"


def sigmoid(x: float) -> float:
    # piecewise form avoids overflow in exp for large |x|
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class BlackBox:
    """Base contract: deterministic evaluate(g) in [0,1] plus a batch
    entry point the lattice engine calls with deduplicated graphs. Every
    black box is a context manager whose exit calls close(), which frees
    what it holds: nothing here, the child process of ExternalBlackBox.

    n is the node count of the universe the black box is defined over, or
    None when it declares none. check_universe refuses a graph over
    another universe; the built-in black boxes call it in evaluate, and
    serve calls it on a request's n before it decodes any edge. A black
    box that declares no universe, such as a wrapper, is handed the
    decoded graph and checks it in its own evaluate."""

    n: int | None = None
    kind = "black box"  # names the black box in a mismatch message

    def check_universe(self, n: int) -> None:
        if self.n is not None and n != self.n:
            raise UniverseMismatchError(f"graph over {n} nodes, {self.kind} over {self.n}")

    def evaluate(self, g: Graph) -> float:
        raise NotImplementedError

    def evaluate_batch(self, graphs: Sequence[Graph]) -> list[float]:
        return [self.evaluate(g) for g in graphs]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GroundTruthScorer(BlackBox):
    """Scores a graph by signed, importance-weighted motif overlap.

    overlap_k is the mean edge weight of motif k's edges in the graph,
    so 1 when fully present and 0 when fully absent. The raw score sums
    class_sign_k * (2*overlap_k - 1) * u_k and is squashed through a
    logistic with steepness beta. On an unweighted graph the overlap is a
    popcount of the graph's edge bits against the motif's; on a weighted
    graph its sum is math.fsum, correctly rounded, so equal motifs score
    equally whatever order their edge sets iterate in.
    """

    kind = "scorer"

    def __init__(self, n: int, motifs: Sequence[Motif],
                 importances: Sequence[float], beta: float = 2.0):
        if len(importances) != len(motifs):
            raise ConfigurationError("one importance per motif required")
        if not (beta > 0 and math.isfinite(beta)):
            raise ConfigurationError(f"steepness beta must be positive and finite, got {beta}")
        for m in motifs:
            if m.class_sign is None:
                raise ConfigurationError(f"motif {m.id} has no class sign")
        for u in importances:
            if not (u >= 0 and math.isfinite(u)):
                raise ConfigurationError(f"importances must be nonnegative and finite, got {u}")
        self.n = n
        self.motifs = tuple(motifs)
        self.importances = tuple(float(u) for u in importances)
        self.beta = float(beta)
        self._motif_bits = tuple(pack_edges(m.edges, n) for m in self.motifs)

    def evaluate(self, g: Graph) -> float:
        self.check_universe(g.n)
        raw = 0.0
        for m, bits, u in zip(self.motifs, self._motif_bits, self.importances):
            if g.weights is None:
                overlap = (g.edge_bits & bits).bit_count() / len(m.edges)
            else:
                overlap = math.fsum(g.weight(e) for e in m.edges) / len(m.edges)
            raw += m.class_sign * (2.0 * overlap - 1.0) * u
        return sigmoid(self.beta * raw)


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the linear surrogate. The optimizer is
    full-batch with zero initialization, so training uses no randomness
    and needs no seed."""

    learning_rate: float = 0.5
    epochs: int = 300

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 0:
            raise ConfigurationError(
                f"epochs must be a nonnegative integer, got {epochs!r}")


class LinearSurrogate(BlackBox):
    """Logistic model over the n*(n-1)/2 node-pair weight features."""

    kind = "surrogate"

    def __init__(self, n: int, weights: np.ndarray, bias: float,
                 config: TrainConfig | None = None,
                 train_accuracy: float | None = None):
        dim = n * (n - 1) // 2
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (dim,):
            raise ConfigurationError(
                f"weight vector must have length {dim}, got {weights.shape}")
        self.n = n
        self.weights = weights
        self.bias = float(bias)
        self.config = config
        self.train_accuracy = train_accuracy

    def evaluate(self, g: Graph) -> float:
        self.check_universe(g.n)
        z = float(self.weights @ _feature_matrix((g,), self.n)[0]) + self.bias
        return sigmoid(z)


def _feature_matrix(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """One row per graph: its weight_vector over the n-node universe."""
    return np.array([weight_vector(g) for g in graphs]).reshape(len(graphs), n * (n - 1) // 2)


def train_linear_surrogate(d: LabeledDataset,
                           config: TrainConfig | None = None) -> LinearSurrogate:
    """Fit the logistic surrogate by full-batch gradient descent on the
    cross-entropy loss. Deterministic: zero initialization, fixed epoch
    count, no sampling."""
    config = config or TrainConfig()
    if len(d) == 0:
        raise DegenerateTrainingError("cannot train on an empty dataset")
    labels = np.asarray(d.labels, dtype=np.float64)
    if labels.min() == labels.max():
        raise DegenerateTrainingError("training data contains a single class")
    x = _feature_matrix(d.graphs, d.n)
    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    lr = config.learning_rate
    m = float(len(d))
    for _ in range(config.epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        err = p - labels
        w -= lr * (x.T @ err) / m
        b -= lr * float(err.sum()) / m
    z = x @ w + b
    acc = float(np.mean((z > 0).astype(np.float64) == labels))
    return LinearSurrogate(d.n, w, b, config, acc)


def accuracy(bb: BlackBox, d: LabeledDataset) -> float:
    """Fraction of graphs whose thresholded prediction matches the label."""
    if len(d) == 0:
        raise DegenerateTrainingError("accuracy over an empty dataset")
    hits = 0
    for g, lab in zip(d.graphs, d.labels):
        hits += int((bb.evaluate(g) > 0.5) == (lab == 1))
    return hits / len(d)


# --- external process client and server --------------------------------


def _request_line(rid: int, g: Graph) -> bytes:
    """The request for g, byte for byte json.dumps({"id": rid, "n": g.n,
    "edges": [[u, v, g.weight((u, v))] for (u, v) in sorted(g.edges)]},
    separators=(",", ":")) plus a newline. Ascending (u, v) is pair_index
    order, so the edges come straight from the edge bits; only the listed
    weights, none of them 1.0, are formatted, as json formats floats."""
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
    """The inverse of _request_line: (id, n, u, v, weights) of a request line
    in the canonical form {"id":<int>,"n":<int>,"edges":[[u,v,w],...]}, with
    no whitespace and the keys in that order, or None for any other line.
    u and v are int64 arrays of the node ids; weights maps (u, v) to each
    weight other than 1.0, or is None when there are none.

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
    """Client for a classifier running as a child process.

    Protocol (one JSON object per line, over the child's stdin/stdout):
    the client opens with {"hello": "motif-shap/1"} and expects
    {"ready": true}; each query {"id", "n", "edges": [[u, v, w], ...]}
    lists every edge once, in ascending (u, v) with u < v, with weight
    1.0 for an unweighted edge, and is answered by {"id", "p"} with
    matching id and p in [0, 1], in request order. Within evaluate_batch
    up to WINDOW requests are in flight: evaluate(g) sends g first if it
    is not sent yet, then the batch's next graphs until WINDOW are
    unanswered, then reads g's reply. A standalone evaluate(g) keeps one
    request in flight. The timeout, a positive finite number of seconds,
    bounds each write and each read. Any deviation (process exit,
    malformed reply, id mismatch, out-of-range p, timeout) raises
    TransportError; there are no silent fallbacks. A timeout, or an error
    that leaves requests unanswered, ends the child, so no late reply is
    read as the answer to a later request.
    """

    def __init__(self, command: Sequence[str], timeout: float = 30.0):
        if not command:
            raise ConfigurationError("external black-box command is empty")
        if not (timeout > 0 and math.isfinite(timeout)):
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
    """Run the server side of the wire protocol until end of input.

    Replies in request order. Each request is checked in three steps. A
    line that is not JSON, a missing id or n, an id that is not an
    integer, or an n that is negative or not an integer raises
    InputFormatError. Then an n other than the black box's declared
    universe raises UniverseMismatchError, as evaluate would, before any
    edge is decoded, so a huge n costs nothing n-sized. Then the edges
    are read as the Graph constructor reads edges and weights: a missing
    edge list, an edge that does not list exactly three entries, a
    self-loop, a node outside [0, n), or a weight that is not a number in
    [0, 1] raises InputFormatError. The CLI maps these to the usage and
    format-error exit codes instead of answering garbage.

    The line the client writes, {"id":<int>,"n":<int>,"edges":[[u,v,w],...]}
    with no whitespace and its pairs in ascending order, is read by a strict
    decoder, _decode_request, without json.loads. Every other line, and every
    such line that breaks one of its rules, goes through json.loads and the
    steps above, which alone raise. So both paths accept the same requests,
    build the same graphs and raise the same errors."""
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
