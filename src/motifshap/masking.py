"""Masking strategies: build the graph variant in which a set of motifs
is hidden from the black box.

A coalition is described by the union of the masked motifs' edge sets.
Three strategies are provided:

* remove:  delete every union edge from the input graph.
* toggle:  flip the presence of every union edge (XOR).
* average: keep all union edges present but weighted by their frequency
  in a background dataset; edges outside the union keep the input
  graph's own weight.

Remove and toggle emit unweighted graphs. Average emits a weighted graph
and therefore requires a black box that accepts edge weights; like every
Graph, it lists only its weights other than 1.0.

Masked graphs are built from the already valid input graph and motifs
without re-validation, as integer operations on the edge bits: AND-NOT
(remove), XOR (toggle) or OR (average) with the union's bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .errors import ConfigurationError, UniverseMismatchError
from .graphs import Graph, LabeledDataset, Motif, edge_frequency, pack_edges, pair_index


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
        masked in g. An empty motif collection returns g itself for the
        unweighted strategies."""
        motifs = tuple(motifs)
        if self.kind == "average" and self.background.n != g.n:
            raise UniverseMismatchError(
                f"background over {self.background.n} nodes, graph over {g.n}")
        union_bits, weights = 0, {}
        for m in motifs:
            bits, freqs = self._motif_bits(m, g.n)
            union_bits |= bits
            weights.update(freqs)

        if self.kind != "average":
            if not motifs and g.weights is None:
                return g
            if self.kind == "remove":
                return Graph._trusted(g.n, g.edge_bits & ~union_bits)
            return Graph._trusted(g.n, g.edge_bits ^ union_bits)

        # average: union edges are present at their background frequency
        # (possibly 0.0); other edges keep the weight they have in g
        weights.update((e, w) for e, w in (g.weights or {}).items()
                       if not union_bits >> pair_index(*e, g.n) & 1)
        return Graph._trusted(g.n, g.edge_bits | union_bits, weights or None)
