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

The masks of a lattice are walked in runs of ascending masks that share
high = mask >> CHUNK, so they differ only in the low chunk. distinct()
joins the high chunks' key entries once per run, then numbers each
mask's graph, in order of first occurrence, by one low-table lookup, one
OR and one dict probe. graphs() joins the high chunks' unions (and, for
average, frequencies) again only when mask >> CHUNK changes, so the
ascending first masks that distinct() returns cost one join per run.
"""

from __future__ import annotations

import itertools
from array import array
from dataclasses import dataclass
from operator import or_
from typing import Iterable, Sequence

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
        return MaskTables(self, g, motifs).graphs([(1 << len(motifs)) - 1])[0]


def _doubled(items: list, empty, join) -> list:
    """Entry s is the join of the items whose bit is set in s."""
    table = [empty]
    for x in items:
        table += [join(t, x) for t in table]
    return table


def _merged(a: dict, b: dict) -> dict:
    return {**a, **b}


class MaskTables:
    """Lookup tables that mask every subset of one motif list in one graph,
    built from one pass over W (see the module docstring).

    distinct(masks) numbers the masked graphs of a lattice's masks by
    their keys, and graphs(masks) builds them.
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
        # one table per chunk and family; the first chunk's is the low table
        self._keys = tables(keys, 0, or_)
        self._unions = tables(bits, 0, or_)
        if kind == "average":
            freqs = [{e: freq[e] for e in m.edges if freq[e] != 1.0} for m in motifs]
            self._freqs = tables(freqs, {}, _merged)
            # g's weights off W always stay; those on W give way to U's frequencies
            self._off_w = {e: x for e, x in weights.items() if e not in bit}
            self._on_w = [(e, x, bit[e]) for e, x in weights.items() if e in bit]

    def distinct(self, masks: np.ndarray) -> tuple[np.ndarray, Sequence[int]]:
        """(slots, firsts) for the ascending masks, an int64 array (object
        for 64 or more motifs): slots[j] numbers the masked graph of
        masks[j] among the distinct ones, in order of first occurrence,
        and firsts[q] is the first mask whose graph is the q-th distinct
        one."""
        highs = masks >> CHUNK
        starts = [0, *(np.flatnonzero(highs[1:] != highs[:-1]) + 1).tolist()]
        highs = highs[starts].tolist()
        if len(masks) == len(starts) << CHUNK:
            # every run holds all 2^CHUNK low chunks, as in a full lattice
            runs = zip(highs, itertools.repeat(range(1 << CHUNK)))
        else:
            all_lows = (masks & _LOW).tolist()
            ends = starts[1:] + [len(masks)]
            runs = ((high, all_lows[a:b]) for high, a, b in zip(highs, starts, ends))
        low_table, *high_tables = self._keys
        slot_by_key: dict[int, int] = {}
        # an array keeps no int object per distinct graph; masks past int64
        # (64 or more motifs) are Python ints, and go in a list
        firsts = [] if masks.dtype == object else array("q")
        slots = array("q")
        probe, record = slot_by_key.get, slots.append
        for high, run_lows in runs:
            run_key, rest = 0, high
            for table in high_tables:
                run_key |= table[rest & _LOW]
                rest >>= CHUNK
            for low in run_lows:
                key = run_key | low_table[low]
                slot = probe(key)
                if slot is None:
                    slot = slot_by_key[key] = len(firsts)
                    firsts.append(high << CHUNK | low)
                record(slot)
        return np.frombuffer(slots, dtype=np.int64), firsts

    def graphs(self, masks: Iterable[int]) -> list[Graph]:
        """g with the motifs of each mask masked, in the order given."""
        g, kind = self._g, self._kind
        low_unions, *high_unions = self._unions
        if kind == "average":
            low_freqs, *high_freq_tables = self._freqs
        out, last = [], None
        for mask in masks:
            high, low = mask >> CHUNK, mask & _LOW
            if high != last:
                last, high_union, rest = high, 0, high
                for table in high_unions:
                    high_union |= table[rest & _LOW]
                    rest >>= CHUNK
                if kind == "average":
                    high_freqs, rest = [], high
                    for table in high_freq_tables:
                        high_freqs.append(table[rest & _LOW])
                        rest >>= CHUNK
            union = high_union | low_unions[low]
            if not union and g.weights is None:
                masked = g
            elif kind == "remove":
                masked = Graph._trusted(g.n, g.edge_bits & ~union)
            elif kind == "toggle":
                masked = Graph._trusted(g.n, g.edge_bits ^ union)
            else:
                # average: union edges are present at their background
                # frequency (possibly 0.0); other edges keep their weight in g
                weights = dict(self._off_w)
                weights.update((e, x) for e, x, b in self._on_w if not union & b)
                weights.update(low_freqs[low])
                for entry in high_freqs:
                    weights.update(entry)
                masked = Graph._trusted(g.n, g.edge_bits | union, weights or None)
            out.append(masked)
        return out
