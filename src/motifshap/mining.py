"""Frequent-motif mining and cross-support ranking.

Mining grows connected frequent edge sets level by level from frequent
twoplets (two edges sharing a node): a motif of size goal is the union
of an already-mined motif with a twoplet that shares at least one node
with it. Support counting is the hot path: every candidate's support is
the popcount of an AND chain over the dataset's occurrence index
(LabeledDataset.occurrence_bits), one integer bit per graph.

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
from .graphs import Edge, LabeledDataset, Motif, edge_set_jaccard


@dataclass(frozen=True)
class MinerConfig:
    support_threshold: int
    max_size: int
    label: int | None = None

    def __post_init__(self):
        if self.support_threshold < 1:
            raise ParameterError("support threshold must be >= 1")
        if self.max_size < 2:
            raise ParameterError("max motif size must be >= 2 edges")
        if self.label not in (None, 0, 1):
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
        if not 0.0 <= self.dt <= 1.0:
            raise ParameterError("distance threshold must lie in [0, 1]")
        if self.st < 1:
            raise ParameterError("size threshold must be >= 1")
        if self.k < 1:
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

    s, label = cfg.support_threshold, cfg.label
    frequent_edges = sorted(
        e for e in d.edge_index if d.occurrence_bits((e,), label).bit_count() >= s)

    # frequent twoplets: connected pairs of frequent edges
    by_node: dict[int, list[Edge]] = {}
    for e in frequent_edges:
        by_node.setdefault(e[0], []).append(e)
        by_node.setdefault(e[1], []).append(e)
    twoplets: list[frozenset[Edge]] = []
    seen: set[frozenset[Edge]] = set()
    for _, incident in sorted(by_node.items()):
        for e1, e2 in combinations(incident, 2):
            pair = frozenset((e1, e2))
            if pair in seen:
                continue
            seen.add(pair)
            if d.occurrence_bits(pair, label).bit_count() >= s:
                twoplets.append(pair)

    mined: set[frozenset[Edge]] = set(twoplets)
    level: list[frozenset[Edge]] = list(twoplets)
    prev_level: list[frozenset[Edge]] = []
    for goal in range(3, cfg.max_size + 1):
        # candidates: union of a motif from the last two levels with a
        # node-sharing twoplet, landing exactly on the goal size
        nxt: set[frozenset[Edge]] = set()
        for parents, gap in ((level, 1), (prev_level, 2)):
            for m in parents:
                nodes = {v for e in m for v in e}
                for t in twoplets:
                    if not any(v in nodes for e in t for v in e):
                        continue
                    u = m | t
                    if len(u) != len(m) + gap:
                        continue
                    if u in mined or u in nxt:
                        continue
                    if d.occurrence_bits(u, label).bit_count() >= s:
                        nxt.add(u)
        mined |= nxt
        prev_level = level
        level = sorted(nxt, key=sorted)
        if not level and not prev_level:
            break

    out = sorted(mined, key=lambda es: (len(es), sorted(es)))
    return [Motif(i, es) for i, es in enumerate(out)]


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
