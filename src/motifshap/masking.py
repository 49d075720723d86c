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

Every subset of one motif list is masked in one graph through
MaskTables, which mask() also uses. A subset is a bitmask over the
motifs (bit i set: motif i masked). The motifs are cut into chunks of
CHUNK, and each chunk has a table, built by doubling, of one entry per
subset of its motifs: the union's edge bits, the union's key bits and,
for average, the union's background frequencies other than 1.0. A
subset's union is the OR of one entry per chunk. Each motif's edge bits
and frequencies are computed once per strategy, and the key tables only
when a key is first asked for, so a single mask() builds none.

Every masked graph equals g outside W, the union of all the motifs' edges,
and on W it depends only on U, and only on U's edges where masking
changes something: all of W for toggle, W's edges of g for remove, and
for average the edges of W other than those of g whose weight equals
their background frequency (an absent edge always counts, as masking
makes it present, even at weight 0.0). The key is U restricted to those
relevant edges, in dense W coordinates (bit k: the k-th edge of W in
pair_index order), so it has at most sum(|motif|) bits whatever n is,
and two subsets have equal keys exactly when their masked graphs are
equal. The masked graph itself is an integer operation on the edge
bits, built only when asked for: AND-NOT (remove), XOR (toggle) or OR
(average) with U's bits, without re-validation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, reduce
from operator import or_
from typing import Iterable, Sequence

from .errors import ConfigurationError, UniverseMismatchError
from .graphs import Edge, Graph, LabeledDataset, Motif, edge_frequency, pack_edges, pair_index

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
    _bits_cache: dict = field(default_factory=dict, compare=False, repr=False)

    @classmethod
    def remove(cls) -> "MaskingStrategy":
        return cls("remove")

    @classmethod
    def toggle(cls) -> "MaskingStrategy":
        return cls("toggle")

    @classmethod
    def average(cls, background: LabeledDataset) -> "MaskingStrategy":
        if len(background) == 0:
            raise ConfigurationError("average masking needs a nonempty background dataset")
        return cls("average", background)

    def __post_init__(self):
        if self.kind not in ("remove", "toggle", "average"):
            raise ConfigurationError(f"unknown masking strategy {self.kind!r}")
        if self.kind == "average" and self.background is None:
            raise ConfigurationError("average masking needs a background dataset")

    def _motif_bits(self, m: Motif, n: int) -> tuple[int, dict]:
        """m's edge bits over n nodes and, for average, its edge frequencies other than 1.0."""
        # keyed by the edge set, whose hash the frozenset caches, not by the
        # Motif, whose dataclass hash is recomputed on every lookup
        entry = self._bits_cache.get((m.edges, n))
        if entry is None:
            freqs = {e: f for e in m.edges if self.kind == "average"
                     and (f := edge_frequency(self.background, e)) != 1.0}
            entry = self._bits_cache[m.edges, n] = pack_edges(m.edges, n), freqs
        return entry

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


class MaskTables:
    """Lookup tables that mask every subset of one motif list in one graph.

    key(mask) identifies the masked graph of a subset and graph(mask)
    builds it; equal keys mean equal graphs (see the module docstring).
    """

    def __init__(self, strategy: MaskingStrategy, g: Graph, motifs: Sequence[Motif]):
        n, kind = g.n, strategy.kind
        if kind == "average" and strategy.background.n != n:
            raise UniverseMismatchError(
                f"background over {strategy.background.n} nodes, graph over {n}")
        entries = [strategy._motif_bits(m, n) for m in motifs]  # checks the universe
        bits = [b for b, _ in entries]
        self._g, self._kind, self._motifs, self._entries = g, kind, motifs, entries
        chunks = range(0, len(motifs), CHUNK)
        self._unions = [_doubled(bits[c:c + CHUNK], 0, or_) for c in chunks]
        if kind == "average":
            self._freqs = [_doubled([f for _, f in entries[c:c + CHUNK]], {}, _merged)
                           for c in chunks]
            # g's weights off W always stay; those on W give way to U's frequencies
            w_bits = reduce(or_, bits, 0)
            self._off_w: dict[Edge, float] = {}
            self._on_w: list[tuple[Edge, float, int]] = []
            for e, x in (g.weights or {}).items():
                b = 1 << pair_index(*e, n)
                if w_bits & b:
                    self._on_w.append((e, x, b))
                else:
                    self._off_w[e] = x

    @cached_property
    def _keys(self) -> list[list[int]]:
        """Per chunk, the key of every subset of its motifs."""
        g, n, motifs = self._g, self._g.n, self._motifs
        w_edges = sorted(set().union(*(m.edges for m in motifs)))
        if self._kind == "toggle":
            flags = [True] * len(w_edges)
        else:
            flags = [g.edge_bits >> pair_index(u, v, n) & 1 for u, v in w_edges]
            if self._kind == "average":
                freq = {e: f for _, freqs in self._entries for e, f in freqs.items()}
                flags = [not present or g.weight(e) != freq.get(e, 1.0)
                         for e, present in zip(w_edges, flags)]
        # edge k of W is key bit k when masking it changes the graph
        key_bit = {e: 1 << k if f else 0 for k, (e, f) in enumerate(zip(w_edges, flags))}
        keys = [sum(key_bit[e] for e in m.edges) for m in motifs]
        return [_doubled(keys[c:c + CHUNK], 0, or_) for c in range(0, len(motifs), CHUNK)]

    def key(self, mask: int) -> int:
        """U & relevant in dense W coordinates for the subset mask."""
        k = 0
        for table in self._keys:
            k |= table[mask & _LOW]
            mask >>= CHUNK
        return k

    def graph(self, mask: int) -> Graph:
        """g with the motifs of the subset mask masked."""
        g = self._g
        union, rest = 0, mask
        for table in self._unions:
            union |= table[rest & _LOW]
            rest >>= CHUNK
        if not union and g.weights is None:
            return g
        if self._kind == "remove":
            return Graph._trusted(g.n, g.edge_bits & ~union)
        if self._kind == "toggle":
            return Graph._trusted(g.n, g.edge_bits ^ union)
        # average: union edges are present at their background frequency
        # (possibly 0.0); other edges keep the weight they have in g
        weights = dict(self._off_w)
        weights.update((e, x) for e, x, b in self._on_w if not union & b)
        for table in self._freqs:
            weights.update(table[mask & _LOW])
            mask >>= CHUNK
        return Graph._trusted(g.n, g.edge_bits | union, weights or None)
