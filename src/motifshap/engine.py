"""Exact and depth-limited Shapley explanation scores over the coalition
lattice of masked motif sets.

For a graph g, black box B, motifs M and masking strategy, the score of
motif i is

    xi_i = sum over masked sets S subseteq M\\{i} of
           weight(|S|) * (B(G_S) - B(G_{S u {i}}))

where G_S is g with the motifs in S masked. Exact computation evaluates
all 2^|M| coalitions once each; the depth-d approximation keeps only the
terms whose masked sets lie within distance d of the fully-masked
lattice node (|S| >= |M| - d) and at d = |M| reproduces the exact result
bit for bit.

Coalitions whose masked graphs are identical are merged into one query.
evaluate_lattice keys each coalition by lookups in its MaskTables
(masking.py), an int of at most sum(|motif|) bits that is equal for two
coalitions exactly when their masked graphs are. It walks the ascending
masks in blocks that share mask >> masking.CHUNK: the block's high key
is looked up once, so each coalition costs one low-table lookup, one OR
and one dict probe. A masked graph is built only for a key not seen
before, so the black box sees the distinct graphs in first-occurrence
order, in batches of BATCH_SIZE.

Each score is one math.fsum over its marginal terms. fsum is correctly
rounded, so the result does not depend on the order of the terms or of
the evaluations.
"""

from __future__ import annotations

import itertools
import math
from array import array
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .blackbox import BATCH_SIZE, BlackBox
from .errors import (
    ConfigurationError,
    LatticeTooLargeError,
    ParameterError,
    UniverseMismatchError,
)
from .graphs import Graph, Motif, _as_int
from .masking import MaskingStrategy, MaskTables, blocks

#: Largest motif set exact_explain will enumerate (2^20 coalitions).
DEFAULT_EXACT_LIMIT = 20


@dataclass(frozen=True)
class WeightingScheme:
    """Coalition weight as a function of masked-set size.

    classic        s!*(m-s-1)!/m!      the Shapley kernel; the only
                                       variant with the efficiency and
                                       [-1,1] range guarantees
    paper-inverse  1/((m+1)*C(m+1,s))  inverse-binomial variant
    paper-direct   C(m+1,s)            direct-binomial variant
    """

    variant: str

    _KNOWN = ("classic", "paper-inverse", "paper-direct")

    def __post_init__(self):
        if self.variant not in self._KNOWN:
            raise ConfigurationError(f"unknown weighting variant {self.variant!r}")

    @classmethod
    def classic(cls) -> "WeightingScheme":
        return cls("classic")

    @classmethod
    def paper_inverse(cls) -> "WeightingScheme":
        return cls("paper-inverse")

    @classmethod
    def paper_direct(cls) -> "WeightingScheme":
        return cls("paper-direct")

    def weight(self, masked_size: int, n_motifs: int) -> float:
        """Weight of a marginal term whose masked set (excluding the
        motif being scored) has the given size; 0 <= masked_size < n_motifs."""
        s, m = masked_size, n_motifs
        if not 0 <= s < m:
            raise ParameterError(f"masked-set size {s} out of range for {m} motifs")
        if self.variant == "classic":
            return math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)
        if self.variant == "paper-inverse":
            return 1.0 / ((m + 1) * math.comb(m + 1, s))
        return float(math.comb(m + 1, s))


@dataclass(frozen=True)
class CoalitionLattice:
    """Black-box values of the evaluated coalitions. masks holds the
    masked-set bitmasks, each once, in ascending order (bit i set = motif
    i masked); values[j] is the value of masks[j] and slots[j] the
    distinct query it was merged into."""

    n_motifs: int
    masks: np.ndarray
    values: np.ndarray
    slots: np.ndarray

    @property
    def query_count(self) -> int:
        # slots are dense, 0..q-1, so counting them needs no sort
        return int(np.count_nonzero(np.bincount(self.slots)))

    def at_least(self, min_size: int) -> "CoalitionLattice":
        """The coalitions with at least min_size masked motifs."""
        keep = _popcounts(self.masks, self.n_motifs) >= min_size
        return CoalitionLattice(self.n_motifs, self.masks[keep],
                                self.values[keep], self.slots[keep])


@dataclass(frozen=True)
class Explanation:
    """Scores for one graph. depth is the integer approximation depth or
    the string "exact"; query_count is the number of distinct black-box
    evaluations actually made (content-duplicate coalitions are merged)."""

    graph_id: int
    motif_ids: tuple[int, ...]
    scores: tuple[float, ...]
    strategy: str
    weighting: str
    depth: int | str
    query_count: int

    def by_motif(self) -> dict[int, float]:
        return dict(zip(self.motif_ids, self.scores))


def query_budget(n_motifs: int, depth: int | str) -> int:
    """Distinct coalition evaluations needed: 2^n for exact, otherwise
    sum_{k=0..d} C(n, k) counting from the fully-masked node."""
    m = _as_int(n_motifs, "motif count")
    if m < 0:
        raise ParameterError("motif count must be nonnegative")
    if depth == "exact":
        return 2 ** m
    d = _as_int(depth, "depth")
    if d < 0:
        raise ParameterError("depth must be nonnegative")
    return sum(math.comb(m, k) for k in range(min(d, m) + 1))


def check_request(n: int, motifs: Sequence[Motif], depths: Sequence[int] = (),
                  exact_limit: int | None = None) -> list[int]:
    """The depths as ints. Raise unless the request has motifs with unique
    ids inside the n-node universe and each depth an integer in [1, |M|];
    exact_limit, an integer given when the full lattice is needed, bounds
    |M| (LatticeTooLargeError)."""
    if not motifs:
        raise ParameterError("at least one motif is required")
    ids = [mot.id for mot in motifs]
    if len(set(ids)) != len(ids):
        raise ParameterError(f"duplicate motif ids: {sorted(ids)}")
    for mot in motifs:
        if mot.max_node() >= n:
            raise UniverseMismatchError(
                f"motif {mot.id} exceeds the graph's node universe [0, {n})")
    m = len(motifs)
    depths = [_as_int(d, "depth") for d in depths]
    for d in depths:
        if not 1 <= d <= m:
            raise ParameterError(f"depth must be in [1, {m}], got {d}")
    if exact_limit is not None and m > _as_int(exact_limit, "exact limit"):
        raise LatticeTooLargeError(
            f"{m} motifs means 2^{m} coalitions, above the limit of "
            f"{exact_limit}; use approx_explain with a depth bound")
    return depths


def evaluate_lattice(g: Graph, bb: BlackBox, motifs: Sequence[Motif],
                     strategy: MaskingStrategy,
                     masks: Sequence[int]) -> CoalitionLattice:
    """Evaluate the black box on the given masked-set bitmasks (ascending),
    merging coalitions whose masked graphs are identical. The masks are
    walked block by block (masking.blocks): a block's high key is looked
    up once, and its graphs' high union only when the block first meets
    a key not seen before. Distinct graphs go to bb.evaluate_batch in
    first-occurrence order, in batches of BATCH_SIZE as they are found."""
    m = len(motifs)
    # int64 holds the masks of up to 63 motifs; beyond that, Python ints
    masks = np.asarray(masks, dtype=np.int64 if m < 64 else object)
    tables = MaskTables(strategy, g, motifs)
    low_keys = tables.low_keys
    slot_by_key: dict[int, int] = {}
    slots = array("q")
    slot_values: list[float] = []
    pending: list[Graph] = []
    probe, record = slot_by_key.get, slots.append
    for high, lows in blocks(masks):
        high_key, graph_of = tables.high_key(high), None
        for low in lows:
            key = high_key | low_keys[low]
            slot = probe(key)
            if slot is None:
                slot = slot_by_key[key] = len(slot_by_key)
                graph_of = graph_of or tables.block(high)
                pending.append(graph_of(low))
                if len(pending) == BATCH_SIZE:
                    slot_values += bb.evaluate_batch(pending)
                    pending = []
            record(slot)
    if pending:
        slot_values += bb.evaluate_batch(pending)
    slot_of = np.frombuffer(slots, dtype=np.int64)
    return CoalitionLattice(
        n_motifs=m,
        masks=masks,
        values=np.asarray(slot_values, dtype=np.float64)[slot_of],
        slots=slot_of,
    )


#: Set bits of each byte value
_BYTE_BITS = np.array([b.bit_count() for b in range(256)], dtype=np.int64)


def _popcounts(masks: np.ndarray, m: int) -> np.ndarray:
    """Set bits of each of the masks of m motifs."""
    if masks.dtype == object:
        return np.array([x.bit_count() for x in masks.tolist()], dtype=np.int64)
    sizes = np.zeros(len(masks), dtype=np.int64)
    for shift in range(0, m, 8):
        sizes += _BYTE_BITS[(masks >> shift) & 0xFF]
    return sizes


def _masks_at_least(m: int, min_size: int) -> Sequence[int]:
    """Bitmasks of all subsets of m motifs with size >= min_size, in
    ascending integer order; all 2^m of them as an int64 array."""
    if min_size <= 0:
        return np.arange(1 << m, dtype=np.int64)
    masks = []
    for size in range(min_size, m + 1):
        for combo in itertools.combinations(range(m), size):
            masks.append(sum(1 << i for i in combo))
    masks.sort()
    return masks


def _scores(lattice: CoalitionLattice, weighting: WeightingScheme) -> list[float]:
    """Score of each motif i: fsum over the lattice's masks S without i of
    weight(|S|) * (B(G_S) - B(G_{S u {i}})). S u {i} must be in the lattice,
    which holds for every mask set closed under adding motifs."""
    m = lattice.n_motifs
    masks, values = lattice.masks, lattice.values
    table = np.array([weighting.weight(s, m) for s in range(m)], dtype=np.float64)
    sizes = _popcounts(masks, m)
    # a full lattice holds every mask, so masks[j] == j
    full = len(masks) == 1 << m
    scores = []
    for i in range(m):
        bit = 1 << i
        if full:
            # in each run of 2^(i+1) masks, the first half lacks motif i
            # and the second half adds it to the first, mask by mask
            pairs = values.reshape(-1, 2, bit)
            terms = table[sizes.reshape(-1, 2, bit)[:, 0]] * (pairs[:, 0] - pairs[:, 1])
        else:
            lo = np.flatnonzero((masks & bit) == 0)
            hi = np.searchsorted(masks, masks[lo] | bit)
            terms = table[sizes[lo]] * (values[lo] - values[hi])
        scores.append(math.fsum(terms.ravel().tolist()))
    return scores


def _explanation(lattice: CoalitionLattice, motifs: Sequence[Motif],
                 strategy: MaskingStrategy, weighting: WeightingScheme,
                 depth_label: int | str, graph_id: int) -> Explanation:
    return Explanation(
        graph_id=graph_id,
        motif_ids=tuple(mot.id for mot in motifs),
        scores=tuple(_scores(lattice, weighting)),
        strategy=strategy.kind,
        weighting=weighting.variant,
        depth=depth_label,
        query_count=lattice.query_count,
    )


def exact_explain(g: Graph, bb: BlackBox, motifs: Sequence[Motif],
                  strategy: MaskingStrategy,
                  weighting: WeightingScheme | None = None,
                  graph_id: int = 0,
                  exact_limit: int = DEFAULT_EXACT_LIMIT) -> Explanation:
    """Exact scores over the full coalition lattice (2^|M| coalitions)."""
    return explain_depths(g, bb, motifs, strategy, weighting, graph_id=graph_id,
                          exact_limit=exact_limit)[0]


def approx_explain(g: Graph, bb: BlackBox, motifs: Sequence[Motif],
                   strategy: MaskingStrategy,
                   weighting: WeightingScheme | None = None,
                   depth: int = 1,
                   graph_id: int = 0,
                   normalize: bool = False) -> Explanation:
    """Depth-limited scores: only marginal terms for masked sets within
    distance ``depth`` of the fully-masked coalition are summed. At
    depth = |M| the result equals exact_explain bit for bit."""
    (depth,) = check_request(g.n, motifs, [depth])
    weighting = weighting or WeightingScheme.classic()
    m = len(motifs)
    lattice = evaluate_lattice(g, bb, motifs, strategy, _masks_at_least(m, m - depth))
    ex = _explanation(lattice, motifs, strategy, weighting, depth, graph_id)
    if normalize and depth < m:
        # rescale so the truncated scores reproduce the exact-efficiency
        # gap B(G_empty) - B(G_allmasked); needs one extra evaluation for
        # the unmasked coalition
        extra = evaluate_lattice(g, bb, motifs, strategy, [0])
        gap = float(extra.values[0]) - float(lattice.values[-1])
        total = math.fsum(ex.scores)
        scores = ex.scores
        if total != 0.0:
            scores = tuple(x * gap / total for x in scores)
        ex = replace(ex, scores=scores, query_count=ex.query_count + extra.query_count)
    return ex


def explain_depths(g: Graph, bb: BlackBox, motifs: Sequence[Motif],
                   strategy: MaskingStrategy,
                   weighting: WeightingScheme | None = None,
                   depths: Sequence[int] = (),
                   graph_id: int = 0,
                   exact_limit: int = DEFAULT_EXACT_LIMIT,
                   ) -> tuple[Explanation, dict[int, Explanation]]:
    """Exact scores and the depth-limited scores at each of depths, all
    from one evaluation of the full lattice (2^|M| coalitions). Each
    depth's explanation equals approx_explain's without normalize."""
    depths = check_request(g.n, motifs, depths, exact_limit)
    m = len(motifs)
    weighting = weighting or WeightingScheme.classic()
    lattice = evaluate_lattice(g, bb, motifs, strategy, _masks_at_least(m, 0))
    exact = _explanation(lattice, motifs, strategy, weighting, "exact", graph_id)
    return exact, {d: _explanation(lattice.at_least(m - d), motifs, strategy,
                                   weighting, d, graph_id) for d in depths}
