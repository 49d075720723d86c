"""JSON file formats: their readers, writers and digests, and the parse cache.

Dataset:      {"n": int, "graphs": [{"label": 0|1, "edges": [[u,v], ...]}, ...],
               "injections": [[+1|-1|0, ...], ...]?}
Motifs:       {"n": int, "motifs": [{"id": int, "class": 0|1?, "edges": [[u,v], ...]}, ...]}
Graph:        {"n": int, "edges": [[u,v], ...]}
Correlation:  {"n_m": int, "entries": [[i, j, c], ...]}

Serializers sort edge lists by (u, v) so parse -> serialize round-trips
byte-identically. They build the text from fragments, byte for byte what
json.dumps(doc, separators=(",", ":")) gives for the same document.

A dataset file in the exact text save_dataset writes, dataset_to_json's
text with or without one trailing newline, is read by a strict reader
with numpy over its bytes, without json.loads on its graphs. Any other
text, valid or not, and any canonical-looking text that breaks one of the
reader's rules, goes through json.loads, which alone raises, so both paths
build the same dataset and raise the same errors.

Every file is read as bytes once. The sha256 of the bytes last read from
or written to each path is kept for manifests (last_digest), and the
validated result of load_dataset and load_motifs is cached by (kind,
digest), so reading the same bytes again, under any path, parses nothing.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import tempfile
import threading
from collections import OrderedDict
from functools import lru_cache
from typing import Mapping, Sequence

import numpy as np

from .errors import InputFormatError, ParameterError, UniverseMismatchError
from .graphs import (
    Edge, Graph, LabeledDataset, Motif, _as_int, _pack_pairs, all_pairs, unpack_edges,
)

#: Parsed files the cache keeps, least recently used dropped first.
PARSE_CACHE_ENTRIES = 4

_parsed: OrderedDict[tuple[str, str], object] = OrderedDict()
_parsed_lock = threading.Lock()
_digests: dict[str, str] = {}


def _read_bytes(path: str | os.PathLike) -> tuple[bytes, str]:
    """The file's bytes and their digest, which is recorded for last_digest."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    digest = _digests[os.fspath(path)] = hashlib.sha256(data).hexdigest()
    return data, digest


def _decode_json(path: str | os.PathLike, data: bytes) -> object:
    # strict UTF-8 to str first: json.loads on bytes would also take UTF-16,
    # UTF-32 and a leading byte-order mark, which it rejects in a str
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"{path}: not UTF-8: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past int()'s digit limit
        raise InputFormatError(f"{path}: invalid JSON: {exc}") from exc


def _read_json(path: str | os.PathLike) -> object:
    return _decode_json(path, _read_bytes(path)[0])


def last_digest(path: str | os.PathLike) -> str:
    """Hex sha256 of the bytes this process last read from path with a
    loader, or wrote there with atomic_write_text."""
    return _digests[os.fspath(path)]


def _remember(key: tuple[str, str], value: object) -> None:
    with _parsed_lock:
        _parsed[key] = value
        _parsed.move_to_end(key)
        while len(_parsed) > PARSE_CACHE_ENTRIES:
            _parsed.popitem(last=False)


def _cached_load(path: str | os.PathLike, kind: str, parse) -> object:
    """parse(path, bytes) of the file's bytes, or the cached result of an
    earlier successful parse of the same bytes."""
    data, digest = _read_bytes(path)
    key = (kind, digest)
    with _parsed_lock:
        value = _parsed.get(key)
        if value is not None:
            _parsed.move_to_end(key)
    if value is None:
        value = parse(path, data)
        _remember(key, value)
    return value


def atomic_write_text(path: str | os.PathLike, text: str) -> None:
    """Write text to path atomically (UTF-8 in a temp file in the same
    directory, then rename), and record the digest of the bytes written.
    A path that cannot be written raises ParameterError, and no temp file
    is left behind."""
    path = os.fspath(path)
    data = text.encode("utf-8")
    directory = os.path.dirname(path) or "."
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix=".json")
        try:
            with os.fdopen(fd, "wb") as fh:
                fh.write(data)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise ParameterError(f"cannot write {path}: {exc}") from exc
    _digests[path] = hashlib.sha256(data).hexdigest()


def load_dataset(path: str | os.PathLike) -> LabeledDataset:
    """Load a dataset file. The result is shared by every load of the same
    bytes in this process, occurrence index included."""
    return _cached_load(path, "dataset", _parse_dataset)


#: What reading a malformed dataset raises
_MALFORMED_DATASET = (KeyError, TypeError, ValueError, IndexError, ParameterError)


def _parse_dataset(path: str | os.PathLike, data: bytes) -> LabeledDataset:
    dataset = _read_canonical_dataset(data)
    return dataset if dataset is not None else _parse_dataset_json(path, data)


def _parse_dataset_json(path: str | os.PathLike, data: bytes) -> LabeledDataset:
    doc = _decode_json(path, data)
    try:
        n = _as_int(doc["n"], "node count")
        graphs = []
        labels = []
        for entry in doc["graphs"]:
            labels.append(entry["label"])
            graphs.append(Graph(n, entry["edges"]))
        return LabeledDataset(n, tuple(graphs), tuple(labels), doc.get("injections"))
    except _MALFORMED_DATASET as exc:
        raise InputFormatError(f"{path}: malformed dataset: {exc}") from exc
    except MemoryError as exc:
        raise _too_large(path, n) from exc


def _too_large(path: str | os.PathLike, n: int) -> InputFormatError:
    """The error for a universe whose node-pair flags numpy cannot allocate."""
    return InputFormatError(
        f"{path}: n = {n} is too large: its {n * (n - 1) // 2} node pairs do not fit in memory")


#: Digits of n, a node id or a label in a canonical text, so that n * n and
#: each pair index fit an int64
_ID_DIGITS = 9


def _scan_ids(b: np.ndarray, ends: np.ndarray, lengths: np.ndarray) -> np.ndarray | None:
    """The integers written b[end - length:end] for each end and length, as
    int64, where b is a text's bytes as uint8 and each end lies at least
    _ID_DIGITS bytes into it; None when one of them is empty, longer than
    _ID_DIGITS, has a leading zero or holds a byte other than an ASCII
    digit. The canonical readers of dataset files and wire requests share
    it."""
    if not len(ends):
        return np.zeros(0, np.int64)
    width = int(lengths.max())
    if lengths.min() < 1 or width > _ID_DIGITS:
        return None
    # row j of window holds the (width - j)-th last byte of each integer,
    # as a digit value (other bytes wrap to 10 and above), or 0 before it
    back = np.arange(width, 0, -1)[:, None]
    window = b[ends - back]
    window -= np.uint8(ord("0"))
    window *= back <= lengths
    if np.any(window > 9):
        return None
    ids = window[0].astype(np.int64)
    for row in window[1:]:
        ids = ids * 10 + row
    if np.any((b[ends - lengths] == ord("0")) & (lengths > 1)):  # a leading zero
        return None
    return ids


_DATASET_HEAD = re.compile(rb'\{"n":(0|[1-9][0-9]{0,%d}),"graphs":\[' % (_ID_DIGITS - 1))
_INJECTIONS_KEY = b'],"injections":'
_GRAPH_HEAD = b'{"label":,"edges":['
_DIGITS = b"0123456789"
#: The bytes before and after a number in a graph list, as one big-endian
#: uint16: a label, the u of an edge, its v
_LABEL, _U, _V = (int.from_bytes(pair, "big") for pair in (b":,", b"[,", b",]"))


def _read_canonical_dataset(data: bytes) -> LabeledDataset | None:
    """The dataset of data when it is dataset_to_json's text, with or
    without one trailing newline, or None for any other text. Never raises.

    Without its digits, the graph list must be the skeleton its graphs'
    edge counts imply, and every digit must belong to a label or a node id:
    integers without a sign or a leading zero, u < v < n with the pairs of
    each graph in strictly ascending (u, v) order. So each graph is the one
    the JSON path builds, and a text that breaks any rule, valid or not, is
    left to that path and its errors. Only the injection rows, a short
    tail of brackets, commas, signs and digits, are read with json.loads,
    and LabeledDataset checks labels and rows: when it raises, so does the
    JSON path, and the reader returns None."""
    raw = data[:-1] if data.endswith(b"\n") else data
    head = _DATASET_HEAD.match(raw)
    if head is None or not raw.endswith(b"}"):
        return None
    n, start = int(head[1]), head.end()
    cut = raw.find(_INJECTIONS_KEY, start)
    if cut < 0:
        cut, injections = len(raw) - 2, None
        if raw[cut] != ord("]"):
            return None
    else:
        rows = raw[cut + len(_INJECTIONS_KEY):-1]
        if rows.translate(None, b"[],-" + _DIGITS):
            return None
        try:
            injections = json.loads(rows)
        except (ValueError, RecursionError):  # RecursionError: nested too deep
            return None
    # the graph list without its digits
    skeleton = raw[start:cut].translate(None, _DIGITS)
    sizes = [piece.count(b"[,]") for piece in skeleton.split(_GRAPH_HEAD)[1:]]
    if skeleton != b",".join([_GRAPH_HEAD + b",".join([b"[,]"] * k) + b"]}" for k in sizes]):
        return None
    # each number is a maximal run of digits, and the two bytes around it
    # say what it is; the list's own "[" and "]" bound the first and last
    b = np.frombuffer(raw, np.uint8)
    digit = b[start - 1:cut + 1] - np.uint8(ord("0")) <= 9
    first = np.flatnonzero(digit[:-1] < digit[1:])
    ends = np.flatnonzero(digit[:-1] > digit[1:])
    lengths = ends - first
    first += start
    ends += start
    kind = b[first - 1].astype(np.uint16) << 8 | b[ends]
    del digit, first
    # a label and two node ids per edge, and no other digit: one stray
    # between two edges, as in "],9[", leaves the skeleton as it is
    if (len(ends) != len(sizes) + 2 * sum(sizes)
            or not np.all((kind == _LABEL) | (kind == _U) | (kind == _V))):
        return None
    values = _scan_ids(b, ends, lengths)
    if values is None:
        return None
    label = kind == _LABEL
    labels = values[label]
    u, v = values[~label].reshape(-1, 2).T
    bounds = np.cumsum([0] + sizes)  # each graph's first edge, then the end
    if len(u):
        # u < v < n, so u * n + v orders the pairs of a graph as (u, v) does
        rising = np.diff(u * n + v) > 0
        rising[bounds[(bounds > 0) & (bounds < len(u))] - 1] = True  # a new graph
        if np.any(u >= v) or v.max() >= n or not rising.all():
            return None
    bounds = bounds.tolist()
    try:
        # a universe too large to pack raises MemoryError on either path
        graphs = tuple(Graph._trusted(n, _pack_pairs(u[a:z], v[a:z], n))
                       for a, z in zip(bounds, bounds[1:]))
        return LabeledDataset(n, graphs, tuple(labels.tolist()), injections)
    except (MemoryError, *_MALFORMED_DATASET):
        return None


@lru_cache(maxsize=8)
def _edge_fragments(n: int, tail: str = "") -> tuple[str, ...]:
    """Fragment "[u,v<tail>]" of every node pair of an n-node universe, in
    pair_index order: "[u,v]" in files, "[u,v,1.0]" on the wire."""
    return tuple(f"[{u},{v}{tail}]" for u, v in all_pairs(n))


@lru_cache(maxsize=8)
def _edge_fragment_map(n: int) -> dict[Edge, str]:
    """Fragment "[u,v]" of every node pair (u, v) of an n-node universe."""
    return dict(zip(all_pairs(n), _edge_fragments(n)))


def dataset_to_json(d: LabeledDataset) -> str:
    """The dataset file text, without weights."""
    frags = _edge_fragments(d.n)

    def edges(g: Graph) -> str:
        idx = np.flatnonzero(unpack_edges(g.edge_bits, d.n)).tolist()
        return ",".join([frags[i] for i in idx])

    graphs = ",".join(f'{{"label":{lab},"edges":[{edges(g)}]}}'
                      for g, lab in zip(d.graphs, d.labels))
    text = f'{{"n":{d.n},"graphs":[{graphs}]'
    if d.injections is not None:
        rows = ",".join(f"[{','.join(map(str, row))}]" for row in d.injections)
        text += f',"injections":[{rows}]'
    return text + "}"


def save_dataset(d: LabeledDataset, path: str | os.PathLike) -> None:
    atomic_write_text(path, dataset_to_json(d) + "\n")


def _motif_from_entry(n: int, entry: Mapping) -> Motif:
    cls = entry.get("class")
    if cls is not None and _as_int(cls, "motif class") not in (0, 1):
        raise ParameterError(f"motif class {cls} is not 0 or 1")
    m = Motif(_as_int(entry["id"], "motif id"), entry["edges"],
              None if cls is None else 2 * cls - 1)
    if m.max_node() >= n:
        e = min(e for e in m.edges if e[1] >= n)
        raise UniverseMismatchError(f"edge {e} outside node universe [0, {n})")
    return m


def load_motifs(path: str | os.PathLike) -> tuple[int, list[Motif]]:
    """Load a motif file; returns (n, motifs), the list fresh on every call."""
    n, motifs = _cached_load(path, "motifs", _parse_motifs)
    return n, list(motifs)


def _parse_motifs(path: str | os.PathLike, data: bytes) -> tuple[int, tuple[Motif, ...]]:
    doc = _decode_json(path, data)
    try:
        n = _as_int(doc["n"], "node count")
        if n < 0:
            raise ParameterError("node count must be nonnegative")
        return n, tuple(_motif_from_entry(n, entry) for entry in doc["motifs"])
    except (AttributeError, KeyError, TypeError, ValueError, IndexError,
            ParameterError) as exc:
        raise InputFormatError(f"{path}: malformed motif file: {exc}") from exc


def remember_motifs(path: str | os.PathLike, n: int, motifs: Sequence[Motif]) -> None:
    """Cache (n, motifs) as the parse of the bytes this process last wrote
    to path, which must be motifs_to_json(n, motifs, ...): a motif file
    round-trips exactly (the reader ignores "cs"), so a later load_motifs
    of those bytes returns these motifs without parsing them."""
    _remember(("motifs", last_digest(path)), (n, tuple(motifs)))


def motifs_to_json(n: int, motifs: Sequence[Motif],
                   cs_scores: Sequence[float] | None = None) -> str:
    """The motif file text of motifs over nodes 0..n-1; each motif gets its
    "cs" score when given."""
    frags = _edge_fragment_map(n)
    entries = []
    for i, m in enumerate(motifs):
        cls = "" if m.class_sign is None else f'"class":{1 if m.class_sign > 0 else 0},'
        edges = ",".join([frags[e] for e in m.sorted_edges()])
        cs = "" if cs_scores is None else f',"cs":{json.dumps(cs_scores[i])}'
        entries.append(f'{{"id":{m.id},{cls}"edges":[{edges}]{cs}}}')
    return f'{{"n":{n},"motifs":[{",".join(entries)}]}}'


def save_motifs(n: int, motifs: Sequence[Motif], path: str | os.PathLike,
                cs_scores: Sequence[float] | None = None) -> None:
    atomic_write_text(path, motifs_to_json(n, motifs, cs_scores) + "\n")


def load_graph_file(path: str | os.PathLike) -> Graph:
    doc = _read_json(path)
    try:
        n = _as_int(doc["n"], "node count")
        return Graph(n, doc["edges"])
    except (KeyError, TypeError, ValueError, IndexError, ParameterError) as exc:
        raise InputFormatError(f"{path}: malformed graph file: {exc}") from exc
    except MemoryError as exc:
        raise _too_large(path, n) from exc


def load_correlation(spec: str, n_m: int) -> tuple[tuple[float, ...], ...] | None:
    """Correlation matrix from a JSON file of sparse symmetric entries,
    or None for the identity."""
    if spec == "identity":
        return None
    doc = _read_json(spec)
    try:
        file_n_m = _as_int(doc["n_m"], "n_m")
        entries = []
        for item in doc["entries"]:
            if type(item) is not list or len(item) != 3:
                raise ValueError(f"correlation entry {item!r} does not list exactly three items")
            i, j = _as_int(item[0], "entry index"), _as_int(item[1], "entry index")
            if type(item[2]) not in (int, float):  # so not a bool or a string
                raise ValueError(f"correlation {item[2]!r} is not a number")
            c = float(item[2])
            if not 0 <= i < file_n_m or not 0 <= j < file_n_m:
                raise ValueError(f"entry ({i}, {j}) out of range")
            if not 0.0 <= c <= 1.0:
                raise ValueError(f"correlation {c} outside [0, 1]")
            entries.append((i, j, c))
    except (KeyError, TypeError, ValueError, IndexError, OverflowError, ParameterError) as exc:
        raise InputFormatError(f"{spec}: malformed correlation file: {exc}") from exc
    # before the n_m x n_m matrix exists, which a large n_m cannot afford
    if file_n_m != n_m:
        raise ParameterError(
            f"correlation file covers {file_n_m} motifs, expected {n_m}")
    mat = [[0.0] * n_m for _ in range(n_m)]
    for i, j, c in entries:
        mat[i][j] = mat[j][i] = c
    for i in range(n_m):
        mat[i][i] = 1.0
    return tuple(tuple(row) for row in mat)
