"""Masking strategies: build the graph variant in which a set of motifs
is hidden from the black box.

A coalition is described by U, the union of the masked motifs' edge sets.
Three strategies are provided:

* remove:  delete every union edge from the input graph.
* toggle:  flip the presence of every union edge (XOR).
* average: keep all union edges present but weighted by their frequency
  in a background dataset; edges outside the union keep the input
  graph's own weight.

Remove and toggle emit unweighted graphs. Average emits a weighted graph
and therefore requires a black box that accepts edge weights; like every
Graph, it lists only its weights other than 1.0.

A strategy is only its kind and, for average, its background dataset.
Every subset of one motif list is masked in one graph through
MaskTables, which mask() also uses. A subset is a bitmask over the
motifs (bit i set: motif i masked). MaskTables reads W, the union of all
the motifs' edges, once, in pair_index order, and records for each edge
its bit, its key bit and, for average, its background frequency. Each
motif's edges fold into one value per table family; the motifs are cut
into chunks of CHUNK, and each chunk has a table, built by doubling, of
one entry per subset of its motifs: the union's edge bits, the union's
key bits and, for average, the union's background frequencies other
than 1.0. A subset's entry is the join of one entry per chunk. Tables
belong to one graph and one motif list; nothing is kept across them.

Masks are walked in blocks (blocks()): a block is a run of ascending
masks that share high = mask >> CHUNK, so they differ only in the low
chunk. The join of the high chunks' entries is taken once per block
(high_key, and block for the graphs), and each mask of the block adds
one entry of the low chunk's table. key(mask) and graph(mask) are that
walk over the block of one mask.

Every masked graph equals g outside W, and on W it depends only on U,
and only on U's edges where masking changes something: all of W for
toggle, W's edges of g for remove, and for average the edges of W other
than those of g whose weight equals their background frequency (an
absent edge always counts, as masking makes it present, even at weight
0.0). The key is U restricted to those relevant edges, in dense W
coordinates (bit k: the k-th edge of W in pair_index order), so it has
at most sum(|motif|) bits whatever n is, and two subsets have equal keys
exactly when their masked graphs are equal. The masked graph itself is
an integer operation on the edge bits, built only when asked for:
AND-NOT (remove), XOR (toggle) or OR (average) with U's bits, without
re-validation.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from operator import or_
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigurationError, UniverseMismatchError
from .graphs import Graph, LabeledDataset, Motif, edge_frequency, pair_index

#: Motifs per table chunk. Each chunk's tables have 2^CHUNK entries, so a
#: lattice's tables hold about 2^CHUNK / CHUNK = 4 full-width unions per motif.
CHUNK = 4
_LOW = (1 << CHUNK) - 1


@dataclass(frozen=True)
class MaskingStrategy:
    """One of the three masking rules, constructed via the factories
    remove(), toggle() and average(background)."""

    kind: str
    background: LabeledDataset | None = None

    @classmethod
    def remove(cls) -> "MaskingStrategy":
        return cls("remove")

    @classmethod
    def toggle(cls) -> "MaskingStrategy":
        return cls("toggle")

    @classmethod
    def average(cls, background: LabeledDataset) -> "MaskingStrategy":
        return cls("average", background)

    def __post_init__(self):
        if self.kind not in ("remove", "toggle", "average"):
            raise ConfigurationError(f"unknown masking strategy {self.kind!r}")
        if self.kind == "average" and self.background is None:
            raise ConfigurationError("average masking needs a background dataset")
        if self.kind == "average" and len(self.background) == 0:
            raise ConfigurationError("average masking needs a nonempty background dataset")

    def mask(self, g: Graph, motifs: Iterable[Motif]) -> Graph:
        """Graph presented to the black box when the given motifs are
        masked in g. An empty motif collection returns an unweighted g
        itself."""
        motifs = tuple(motifs)
        return MaskTables(self, g, motifs).graph((1 << len(motifs)) - 1)


def _doubled(items: list, empty, join) -> list:
    """Entry s is the join of the items whose bit is set in s."""
    table = [empty]
    for x in items:
        table += [join(t, x) for t in table]
    return table


def _merged(a: dict, b: dict) -> dict:
    return {**a, **b}


def blocks(masks: np.ndarray) -> Iterator[tuple[int, Sequence[int]]]:
    """(high, lows) for each run of the ascending masks that share
    high = mask >> CHUNK; lows are the run's masks & (2^CHUNK - 1)."""
    highs = masks >> CHUNK
    starts = [0, *(np.flatnonzero(highs[1:] != highs[:-1]) + 1).tolist()]
    highs = highs[starts].tolist()
    if len(masks) == len(starts) << CHUNK:
        # every run holds all 2^CHUNK low chunks, as in a full lattice
        return zip(highs, itertools.repeat(range(1 << CHUNK)))
    lows = (masks & _LOW).tolist()
    ends = starts[1:] + [len(masks)]
    return ((high, lows[a:b]) for high, a, b in zip(highs, starts, ends))


class MaskTables:
    """Lookup tables that mask every subset of one motif list in one graph,
    built from one pass over W (see the module docstring).

    key(mask) identifies the masked graph of a subset and graph(mask)
    builds it; equal keys mean equal graphs.
    """

    def __init__(self, strategy: MaskingStrategy, g: Graph, motifs: Sequence[Motif]):
        n, kind = g.n, strategy.kind
        if kind == "average" and strategy.background.n != n:
            raise UniverseMismatchError(
                f"background over {strategy.background.n} nodes, graph over {n}")
        for m in motifs:
            if m.max_node() >= n:
                raise UniverseMismatchError(f"motif {m.id} exceeds the node universe [0, {n})")
        weights = g.weights or {}
        # edge k of W: its bit, key bit k when masking it changes the graph,
        # and for average its background frequency
        bit, key_bit, freq = {}, {}, {}
        for k, e in enumerate(sorted(set().union(*(m.edges for m in motifs)))):
            b = bit[e] = 1 << pair_index(*e, n)
            changes = kind == "toggle" or g.edge_bits & b
            if kind == "average":
                f = freq[e] = edge_frequency(strategy.background, e)
                changes = not changes or weights.get(e, 1.0) != f
            key_bit[e] = 1 << k if changes else 0
        self._g, self._kind = g, kind
        # one chunk even without motifs, so that mask 0 has a table entry
        chunks = range(0, max(len(motifs), 1), CHUNK)

        def tables(items, empty, join):
            return [_doubled(items[c:c + CHUNK], empty, join) for c in chunks]

        bits = [sum(bit[e] for e in m.edges) for m in motifs]
        keys = [sum(key_bit[e] for e in m.edges) for m in motifs]
        #: key bits of each subset of the low chunk's motifs
        self.low_keys, *self._high_keys = tables(keys, 0, or_)
        self._low_unions, *self._high_unions = tables(bits, 0, or_)
        if kind == "average":
            freqs = [{e: freq[e] for e in m.edges if freq[e] != 1.0} for m in motifs]
            self._low_freqs, *self._high_freqs = tables(freqs, {}, _merged)
            # g's weights off W always stay; those on W give way to U's frequencies
            self._off_w = {e: x for e, x in weights.items() if e not in bit}
            self._on_w = [(e, x, bit[e]) for e, x in weights.items() if e in bit]

    def high_key(self, high: int) -> int:
        """The key bits of the high chunks' motifs in every mask of the
        block high; a mask's key is this OR low_keys[mask & (2^CHUNK - 1)]."""
        key = 0
        for table in self._high_keys:
            key |= table[high & _LOW]
            high >>= CHUNK
        return key

    def block(self, high: int) -> Callable[[int], Graph]:
        """The masked graph of the subset high << CHUNK | low, as a
        function of low."""
        g, kind, lows = self._g, self._kind, self._low_unions
        high_union, rest = 0, high
        for table in self._high_unions:
            high_union |= table[rest & _LOW]
            rest >>= CHUNK
        if kind == "average":
            low_freqs, high_freqs, rest = self._low_freqs, [], high
            for table in self._high_freqs:
                high_freqs.append(table[rest & _LOW])
                rest >>= CHUNK

        def graph(low: int) -> Graph:
            union = high_union | lows[low]
            if not union and g.weights is None:
                return g
            if kind == "remove":
                return Graph._trusted(g.n, g.edge_bits & ~union)
            if kind == "toggle":
                return Graph._trusted(g.n, g.edge_bits ^ union)
            # average: union edges are present at their background frequency
            # (possibly 0.0); other edges keep the weight they have in g
            weights = dict(self._off_w)
            weights.update((e, x) for e, x, b in self._on_w if not union & b)
            weights.update(low_freqs[low])
            for entry in high_freqs:
                weights.update(entry)
            return Graph._trusted(g.n, g.edge_bits | union, weights or None)

        return graph

    def key(self, mask: int) -> int:
        """U & relevant in dense W coordinates for the subset mask."""
        return self.high_key(mask >> CHUNK) | self.low_keys[mask & _LOW]

    def graph(self, mask: int) -> Graph:
        """g with the motifs of the subset mask masked."""
        return self.block(mask >> CHUNK)(mask & _LOW)
