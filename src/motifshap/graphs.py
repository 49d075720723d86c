"""Graph, motif and dataset model over a fixed node universe.

Every graph in a dataset is defined over the same node set 0..n-1, so a
node index means the same entity in every graph and subgraph matching
reduces to comparing edge identities. The n*(n-1)/2 node pairs have one
fixed enumeration, pair_index, which is ascending (u, v) with u < v. A
graph holds its edge set as one integer, edge_bits, whose bit i is set
when the pair with pair_index i is an edge: masks are integer AND-NOT,
XOR and OR, and intersections and unions are popcounts. The frozenset of
(u, v) tuples is derived from the bits only when it is read. A graph
lists only its weights other than 1.0, so 1.0 means unweighted.

Edge rows have one reader, _node_pairs, which checks them in one numpy
pass, and [u, v, w] rows one weight rule, _weighted_graph. Every Graph
built from outside data goes through them: the constructor's edges and
weights, file edges, which are exactly [u, v], and wire request edges,
which are exactly [u, v, w]. The one exception is the wire client's own
request line, which wire._decode_request reads by stricter rules.

Motifs stay frozensets of canonical (u, v) tuples. The Motif constructor
is their one validator; the file reader checks only what a file adds, and
the miner, whose sets are canonical and connected by construction, skips
it with Motif._trusted. Motif node ids, node counts, labels, injection
entries and motif ids all pass one integer check, _as_int.

Edge support has one source: each dataset's occurrence index, built once
on first use, maps every edge to an integer whose bit j is set when graph
j contains it, alongside one such bitset per label. The graphs containing
an edge set are the AND chain of its edges' bitsets
(LabeledDataset.occurrence_bits), so support, edge frequency, mining and
cross-support are popcounts of that chain.

This module does no I/O: the file formats, with their readers, writers
and digests, live in files.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import (
    EmptyDatasetError,
    ParameterError,
    UniverseMismatchError,
)

Edge = tuple[int, int]


def _as_int(x: object, what: str) -> int:
    """x as an int when it is a Python or numpy integer; anything else,
    such as 1.0, "1" or True, raises ParameterError."""
    if type(x) is int or isinstance(x, np.integer):
        return int(x)
    raise ParameterError(f"{what} must be an integer, got {x!r}")


def canonical_edge(u: int, v: int) -> Edge:
    """Return (min, max); self-loops are rejected."""
    if u == v:
        raise ParameterError(f"self-loop on node {u} is not a valid edge")
    return (u, v) if u < v else (v, u)


def pair_index(u: int, v: int, n: int) -> int:
    """Index of canonical pair (u, v), u < v, in the fixed enumeration
    of all n*(n-1)/2 node pairs (row-major upper triangle)."""
    return u * n - (u * (u + 1)) // 2 + (v - u - 1)


@lru_cache(maxsize=8)
def all_pairs(n: int) -> tuple[Edge, ...]:
    """All canonical node pairs of an n-node universe, in pair_index order."""
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def pack_flags(flags: np.ndarray) -> int:
    """0/1 flags as one integer, bit i set when flags[i] is nonzero."""
    return int.from_bytes(np.packbits(flags, bitorder="little").tobytes(), "little")


def _node_pairs(rows: Iterable[Sequence], n: int,
                width: int = 2) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Columns of edge rows of exactly width entries, validated in one numpy
    pass (the first bad edge raises ParameterError): the smaller and larger
    node id of each row as int64 arrays, in row order, and the columns from
    the third on."""
    if n < 0:
        raise ParameterError("node count must be nonnegative")
    try:
        rows = rows if isinstance(rows, Sequence) else list(rows)
        cols = list(zip(*rows, strict=True)) if len(rows) else [()] * width
    except (TypeError, ValueError) as exc:  # a row that is no sequence, or of another length
        raise ParameterError(f"every edge must list exactly {width} entries: {exc}") from exc
    if len(cols) != width:
        raise ParameterError(f"every edge must list exactly {width} entries")
    u, v = np.asarray(cols[0]), np.asarray(cols[1])
    # numpy reads a column of ints and bools as ints, so look for bools
    if len(rows) and (u.dtype.kind not in "iu" or v.dtype.kind not in "iu"
                      or bool in map(type, cols[0] + cols[1])):
        raise ParameterError("node ids must be integers")
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    bad = (lo == hi) | (lo < 0) | (hi >= n)
    if bad.any():
        i = int(np.argmax(bad))
        e = canonical_edge(int(lo[i]), int(hi[i]))  # raises on a self-loop
        raise UniverseMismatchError(f"edge {e} outside node universe [0, {n})")
    return lo.astype(np.int64), hi.astype(np.int64), tuple(cols[2:])


def _pack_pairs(lo: np.ndarray, hi: np.ndarray, n: int) -> int:
    flags = np.zeros(n * (n - 1) // 2, dtype=np.uint8)
    flags[pair_index(lo, hi, n)] = 1
    return pack_flags(flags)


def pack_edges(edges: Iterable[Sequence[int]], n: int) -> int:
    """Validated edges packed into one integer, bit i set for the pair
    with pair_index i."""
    lo, hi, _ = _node_pairs(edges, n)
    return _pack_pairs(lo, hi, n)


def _weighted_graph(n: int, rows: Iterable[Sequence]) -> "Graph":
    """Graph over n nodes of [u, v, w] rows, as a wire request lists its
    edges and as the Graph constructor reads its weights: node ids as
    _node_pairs reads them, each w a number, not a bool, in [0, 1]. A pair
    listed twice takes its last weight, and only weights other than 1.0
    are kept."""
    lo, hi, (col,) = _node_pairs(rows, n, width=3)
    w = np.asarray(col)
    # numpy reads a column of numbers and bools as numbers, so look for bools
    if (w.shape != lo.shape or w.dtype.kind not in "fiu" or bool in map(type, col)
            or not np.all((w >= 0.0) & (w <= 1.0))):
        raise ParameterError("every edge weight must be a number in [0, 1]")
    w = w.astype(np.float64)
    # the last listing of each pair: first occurrence in the reversed list
    _, last = np.unique(pair_index(lo, hi, n)[::-1], return_index=True)
    last = len(w) - 1 - last
    last = last[w[last] != 1.0]
    weights = dict(zip(zip(lo[last].tolist(), hi[last].tolist()), w[last].tolist()))
    return Graph._trusted(n, _pack_pairs(lo, hi, n), weights or None)


def unpack_edges(bits: int, n: int) -> np.ndarray:
    """Inverse of pack_edges: one uint8 0/1 per node pair of an n-node
    universe, in pair_index order."""
    dim = n * (n - 1) // 2
    packed = np.frombuffer(bits.to_bytes((dim + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=dim, bitorder="little")


@dataclass(frozen=True, init=False)
class Graph:
    """Simple undirected graph on nodes 0..n-1, optionally edge-weighted.

    The edge set is edge_bits (bit i set: the pair with pair_index i is an
    edge); edges and sorted_edges() are derived from it. weights maps the
    edges whose weight is not 1.0, as (u, v) tuples with u < v, to values
    in [0, 1], and is None when there are none. The constructor reads its
    weights as [u, v, w] rows, as a wire request's edges are read: each w
    must be a number, not a bool, in [0, 1], on a listed edge. It drops
    the 1.0 entries, so listing every weight as 1.0 gives the unweighted
    graph. Instances are immutable.
    """

    n: int
    edge_bits: int
    weights: Mapping[Edge, float] | None = None

    def __init__(self, n: int, edges: Iterable[Sequence[int]],
                 weights: Mapping[Sequence[int], float] | None = None):
        bits = pack_edges(edges, n)
        if weights is not None:
            weighted = _weighted_graph(n, ((*e, x) for e, x in weights.items()))
            if stray := weighted.edge_bits & ~bits:
                e = Graph._trusted(n, stray).sorted_edges()[0]
                raise ParameterError(f"weighted edge {e} is not listed in the edge set")
            weights = weighted.weights
        self.__dict__.update(n=n, edge_bits=bits, weights=weights)

    def __hash__(self) -> int:
        # agrees with ==, which compares weights as dicts, whatever their order
        return hash((self.n, self.edge_bits, frozenset((self.weights or {}).items())))

    @classmethod
    def _trusted(cls, n: int, edge_bits: int,
                 weights: dict[Edge, float] | None = None) -> "Graph":
        """Graph from valid parts, unchecked: edge_bits packed, and weights
        in [0, 1) on edges only, or None."""
        g = object.__new__(cls)
        g.__dict__.update(n=n, edge_bits=edge_bits, weights=weights)
        return g

    def sorted_edges(self) -> list[Edge]:
        """The edges in ascending (u, v) order, which is pair_index order."""
        pairs = all_pairs(self.n)
        return [pairs[i] for i in np.flatnonzero(unpack_edges(self.edge_bits, self.n)).tolist()]

    @cached_property
    def edges(self) -> frozenset[Edge]:
        """The edge set as canonical (u, v) tuples, u < v."""
        return frozenset(self.sorted_edges())

    def weight(self, e: Edge) -> float:
        """Weight of edge e: listed weight, 1.0 for an unweighted edge, 0.0
        for an absent edge or a key that is no (u, v) pair with u < v."""
        u, v = e
        if not (0 <= u < v < self.n and self.edge_bits >> pair_index(u, v, self.n) & 1):
            return 0.0
        return (self.weights or {}).get((u, v), 1.0)


def weight_vector(g: Graph) -> np.ndarray:
    """g.weight of every node pair of its universe, in pair_index order."""
    x = unpack_edges(g.edge_bits, g.n).astype(np.float64)
    for (u, v), w in (g.weights or {}).items():
        x[pair_index(u, v, g.n)] = w
    return x


def is_connected(edges: Iterable[Edge]) -> bool:
    """True iff the graph induced by the edges on their incident nodes has
    exactly one connected component. The empty edge set is not connected
    (a motif must be nonempty)."""
    edges = list(edges)
    if not edges:
        return False
    parent: dict[int, int] = {}

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in edges:
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
    roots = {find(x) for x in parent}
    return len(roots) == 1


@dataclass(frozen=True)
class Motif:
    """Connected, nonempty edge set over the shared node universe.

    ``class_sign`` is +1 for a motif predictive of class 1, -1 for class 0,
    or None when no class is associated. The constructor takes any
    iterable of node pairs, rejects an entry that is not a pair,
    self-loops and node ids that are not nonnegative integers, stores
    (u, v) with u < v and checks connectivity, so downstream code may
    assume all of it.
    """

    id: int
    edges: frozenset[Edge]
    class_sign: int | None = None

    def __post_init__(self):
        edges = set()
        for e in self.edges:
            try:
                u, v = e
            except (TypeError, ValueError):
                raise ParameterError(f"motif {self.id}: edge {e!r} is not a pair") from None
            if type(u) is not int or type(v) is not int:
                u, v = _as_int(u, "node id"), _as_int(v, "node id")
            u, v = canonical_edge(u, v)
            if u < 0:
                raise ParameterError(f"motif {self.id}: node ids must be nonnegative")
            edges.add((u, v))
        object.__setattr__(self, "edges", frozenset(edges))
        if not edges:
            raise ParameterError(f"motif {self.id}: edge set must be nonempty")
        if not is_connected(edges):
            raise ParameterError(f"motif {self.id}: edge set must be connected")
        if self.class_sign not in (None, -1, 1):
            raise ParameterError(f"motif {self.id}: class_sign must be -1, +1 or None")

    @classmethod
    def _trusted(cls, id: int, edges: frozenset[Edge],
                 class_sign: int | None = None) -> "Motif":
        """Motif of a nonempty, connected frozenset of canonical edges
        that the program built itself, skipping __post_init__."""
        m = object.__new__(cls)
        m.__dict__.update(id=id, edges=edges, class_sign=class_sign)
        return m

    def max_node(self) -> int:
        return max(v for _, v in self.edges)

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


@dataclass(frozen=True)
class InjectionRecord:
    """Ground-truth injection matrix: entry (j, k) is +1 when motif k was
    added to graph j, -1 when removed, 0 when left untouched."""

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        mat = tuple(tuple(_as_int(x, "injection entry") for x in row)
                    for row in self.matrix)
        widths = {len(row) for row in mat}
        if len(widths) > 1:
            raise ParameterError("injection matrix must be rectangular")
        for row in mat:
            for x in row:
                if x not in (-1, 0, 1):
                    raise ParameterError(f"injection entry {x} not in {{-1, 0, +1}}")
        object.__setattr__(self, "matrix", mat)

    @classmethod
    def _trusted(cls, matrix: tuple[tuple[int, ...], ...]) -> "InjectionRecord":
        """Record of a matrix that is already valid (as validated by
        LabeledDataset), skipping __post_init__."""
        rec = object.__new__(cls)
        rec.__dict__["matrix"] = matrix
        return rec

    @property
    def n_graphs(self) -> int:
        return len(self.matrix)

    @property
    def n_motifs(self) -> int:
        return len(self.matrix[0]) if self.matrix else 0

    def rates(self) -> tuple[float, ...]:
        """Empirical fraction of graphs each motif perturbed (added or
        removed); with identity correlation this tracks rho."""
        if not self.matrix:
            return ()
        total = len(self.matrix)
        return tuple(
            sum(1 for row in self.matrix if row[k] != 0) / total
            for k in range(self.n_motifs)
        )


@dataclass(frozen=True)
class LabeledDataset:
    """Graphs over one node universe with binary labels and an optional
    injection matrix I (validated as an InjectionRecord), where I[i][k]
    is +1/-1/0 for motif k having been added to / removed from / left
    untouched in graph i."""

    n: int
    graphs: tuple[Graph, ...]
    labels: tuple[int, ...]
    injections: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        if self.n < 0:
            raise ParameterError("node count must be nonnegative")
        object.__setattr__(self, "graphs", tuple(self.graphs))
        object.__setattr__(self, "labels", tuple(_as_int(x, "label") for x in self.labels))
        if len(self.graphs) != len(self.labels):
            raise ParameterError("graphs and labels must have equal length")
        for g in self.graphs:
            if g.n != self.n:
                raise UniverseMismatchError(
                    f"graph over {g.n} nodes in a dataset over {self.n}")
        for lab in self.labels:
            if lab not in (0, 1):
                raise ParameterError(f"label {lab} is not binary")
        if self.injections is not None:
            inj = InjectionRecord(self.injections).matrix
            if len(inj) != len(self.graphs):
                raise ParameterError("injection record must have one row per graph")
            object.__setattr__(self, "injections", inj)

    def __len__(self) -> int:
        return len(self.graphs)

    def label_indices(self, label: int) -> tuple[int, ...]:
        return tuple(i for i, lab in enumerate(self.labels) if lab == label)

    @cached_property
    def edge_index(self) -> dict[Edge, int]:
        """Occurrence bitset per edge: bit j is set when graph j contains
        the edge. Edges absent from every graph have no entry."""
        flags = np.array([unpack_edges(g.edge_bits, self.n) for g in self.graphs],
                         np.uint8).reshape(len(self.graphs), self.n * (self.n - 1) // 2)
        columns = np.packbits(flags, axis=0, bitorder="little").T.copy()
        pairs = all_pairs(self.n)
        return {pairs[i]: int.from_bytes(columns[i].tobytes(), "little")
                for i in np.flatnonzero(flags.any(axis=0)).tolist()}

    @cached_property
    def label_bits(self) -> dict[int | None, int]:
        """Bitset of the graphs of each label; None selects every graph."""
        bits = {None: (1 << len(self.graphs)) - 1, 0: 0, 1: 0}
        for j, lab in enumerate(self.labels):
            bits[lab] |= 1 << j
        return bits

    def occurrence_bits(self, edges: Iterable[Edge], label: int | None = None) -> int:
        """Bitset of the graphs (of one label, when given) containing
        every one of the canonical edges: the AND chain of their
        occurrence bitsets. The empty edge set selects every graph."""
        acc = self.label_bits.get(label, 0)
        index = self.edge_index
        for e in edges:
            acc &= index.get(e, 0)
            if not acc:
                break
        return acc


def jaccard_distance(a: Graph, b: Graph) -> float:
    """1 - |Ea n Eb| / |Ea u Eb|; two empty graphs are at distance 0."""
    if a.n != b.n:
        raise UniverseMismatchError(f"graphs over {a.n} and {b.n} nodes")
    union = (a.edge_bits | b.edge_bits).bit_count()
    if union == 0:
        return 0.0
    inter = (a.edge_bits & b.edge_bits).bit_count()
    return 1.0 - inter / union


def edge_set_jaccard(a: frozenset[Edge], b: frozenset[Edge]) -> float:
    """Jaccard distance between two raw edge sets (used on motifs)."""
    if not a and not b:
        return 0.0
    return 1.0 - len(a & b) / len(a | b)


def edge_frequency(d: LabeledDataset, e: Edge) -> float:
    """Fraction of the dataset's graphs containing edge e."""
    if len(d) == 0:
        raise EmptyDatasetError("edge frequency over an empty dataset")
    return d.occurrence_bits((canonical_edge(*e),)).bit_count() / len(d)


def support(m: Iterable[Edge], d: LabeledDataset, label_filter: int | None = None) -> int:
    """Number of graphs (optionally restricted to one label) whose edge set
    contains every edge of m. The empty set is supported by all graphs."""
    lo, hi, _ = _node_pairs(m, d.n)
    return d.occurrence_bits(zip(lo.tolist(), hi.tolist()), label_filter).bit_count()
