"""Frequent-motif mining and cross-support ranking.

Mining enumerates frequent connected edge sets as ESU (Wernicke, 2006)
enumerates connected vertex sets, over the partner graph: the frequent
edges, two of them joined when they share a node and form a frequent
twoplet. Two edges of a frequent set that share a node are a frequent
twoplet, so the set is connected in the partner graph, and ESU reaches
each such set exactly once: from its least edge, the root, a set grows by
the edges left in its extension list, and each edge it takes adds its
partners that are greater than the root and neither in the set nor
adjacent to it. Each set carries its occurrence bitset (one integer bit
per graph, from LabeledDataset.occurrence_bits), so a candidate's support
is the popcount of its parent's bitset ANDed with the new edge's. A candidate below the threshold is
dropped with its branch; its supersets have no more support, so no
frequent set is lost.

Ranking scores each motif by its cross-support, the absolute log2 ratio
of smoothed per-class supports, then greedily selects motifs that are
large enough and far enough (edge-set Jaccard distance) from everything
already selected.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

from .errors import ParameterError
from .graphs import Edge, LabeledDataset, Motif, _as_int, _is_real, edge_set_jaccard


@dataclass(frozen=True)
class MinerConfig:
    support_threshold: int
    max_size: int
    label: int | None = None

    def __post_init__(self):
        if _as_int(self.support_threshold, "support threshold") < 1:
            raise ParameterError("support threshold must be >= 1")
        if _as_int(self.max_size, "max motif size") < 2:
            raise ParameterError("max motif size must be >= 2 edges")
        if self.label is not None and _as_int(self.label, "label filter") not in (0, 1):
            raise ParameterError("label filter must be 0, 1 or omitted")


@dataclass(frozen=True)
class RankerConfig:
    """Selection parameters: dt is the minimum Jaccard distance between
    any two selected motifs, st the minimum edge count, k the output
    size. Defaults follow the miner's intended desk scale (diversity
    0.85, at least 3 edges, top 10)."""

    dt: float = 0.85
    st: int = 3
    k: int = 10

    def __post_init__(self):
        if not _is_real(self.dt):
            raise ParameterError(f"distance threshold must be a number, got {self.dt!r}")
        if not 0.0 <= self.dt <= 1.0:
            raise ParameterError("distance threshold must lie in [0, 1]")
        if _as_int(self.st, "size threshold") < 1:
            raise ParameterError("size threshold must be >= 1")
        if _as_int(self.k, "selection size") < 1:
            raise ParameterError("selection size must be >= 1")


def mine(d: LabeledDataset, cfg: MinerConfig) -> list[Motif]:
    """All connected edge sets of 2..max_size edges supported by at least
    support_threshold graphs (optionally of one label). Output is
    canonically ordered (size, then edge list) with sequential ids."""
    population = d.label_bits[cfg.label].bit_count()
    if cfg.support_threshold > population:
        raise ParameterError(
            f"support threshold {cfg.support_threshold} exceeds the "
            f"{population} graphs available")

    s = cfg.support_threshold
    occ = {e: d.occurrence_bits((e,), cfg.label) for e in d.edge_index}
    occ = {e: bits for e, bits in occ.items() if bits.bit_count() >= s}

    # two edges share at most one node, so each pair is met once here
    by_node: dict[int, list[Edge]] = {}
    for e in occ:
        by_node.setdefault(e[0], []).append(e)
        by_node.setdefault(e[1], []).append(e)
    partners: dict[Edge, set[Edge]] = {e: set() for e in occ}
    for incident in by_node.values():
        for e1, e2 in combinations(incident, 2):
            if (occ[e1] & occ[e2]).bit_count() >= s:
                partners[e1].add(e2)
                partners[e2].add(e1)

    mined: list[frozenset[Edge]] = []
    for root, bits in occ.items():
        # a set, its bitset, its extension list, and the set with its neighbours
        stack = [(frozenset((root,)), bits, [f for f in partners[root] if f > root],
                  partners[root] | {root})]
        while stack:
            m, bits, ext, near = stack.pop()
            for i, f in enumerate(ext):
                grown = bits & occ[f]
                if grown.bit_count() >= s:
                    m_f = m | {f}
                    mined.append(m_f)
                    if len(m_f) < cfg.max_size:
                        stack.append((m_f, grown,
                                      ext[i + 1:] + [x for x in partners[f] - near if x > root],
                                      near | partners[f]))

    out = sorted(mined, key=lambda es: (len(es), sorted(es)))
    return [Motif._trusted(i, es) for i, es in enumerate(out)]


def cross_support(m: Motif, d: LabeledDataset) -> float:
    """|log2((supp0 + 1) / (supp1 + 1))| with per-class supports; high
    values mean the motif discriminates the classes."""
    zeros, ones = d.label_bits[0], d.label_bits[1]
    if not zeros or not ones:
        raise ParameterError("cross-support needs graphs of both classes")
    containing = d.occurrence_bits(m.edges)
    supp0 = (containing & zeros).bit_count()
    supp1 = (containing & ones).bit_count()
    return abs(math.log2((supp0 + 1) / (supp1 + 1)))


def rank_and_select(motifs: Sequence[Motif], d: LabeledDataset,
                    cfg: RankerConfig | None = None) -> list[Motif]:
    """Greedy diverse selection of the top-k motifs by cross-support.

    Candidates are visited in descending cross-support order (ties: more
    edges first, then lexicographic edge list) and accepted when they
    have at least st edges and keep Jaccard distance >= dt from every
    motif already accepted. May return fewer than k."""
    if not motifs:
        raise ParameterError("no motifs to rank")
    cfg = cfg or RankerConfig()
    ranked = sorted(
        motifs,
        key=lambda m: (-cross_support(m, d), -len(m.edges), sorted(m.edges)))
    selected: list[Motif] = []
    for m in ranked:
        if len(selected) >= cfg.k:
            break
        if len(m.edges) < cfg.st:
            continue
        if all(edge_set_jaccard(m.edges, a.edges) >= cfg.dt for a in selected):
            selected.append(m)
    return selected
