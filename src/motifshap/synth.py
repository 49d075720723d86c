"""Synthetic benchmark generator: labelled Erdős–Rényi graphs with
controlled motif injection and a ground-truth record of what was done.

Each graph j starts as ER(n, d_g) and gets label j mod 2. For every
motif k (in ascending k), a fixed uniform draw matrix R decides whether
the motif perturbs the graph: when row k of the correlation matrix C
satisfies C_k . R_j <= rho_k, motif k's edges are all added if the graph
and motif parities agree (j mod 2 == k mod 2) and all removed otherwise.
The injection record I stores +1 / -1 / 0 per (graph, motif).

Randomness comes from numpy's counter-based Philox generator with
documented stream splitting, so outputs are reproducible bit for bit
across platforms: SeedSequence(seed) spawns three children used for, in
order, the R matrix, the per-graph ER substreams, and motif sampling.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ParameterError
from .graphs import (Edge, Graph, InjectionRecord, LabeledDataset, Motif, _as_int, pack_edges,
                     pack_flags)


def _philox(seq: np.random.SeedSequence) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(seq))


@dataclass(frozen=True)
class SynthConfig:
    """Generator parameters. motif_spec is either an explicit motif
    sequence or a (count, edges_per_motif) pair to be sampled; rho gives
    each motif's injection probability; C correlates injections across
    motifs (identity = independent)."""

    n: int
    n_graphs: int
    density: float
    motif_spec: tuple[int, int] | Sequence[Motif]
    rho: tuple[float, ...]
    correlation: tuple[tuple[float, ...], ...] | None = None
    seed: int = 0

    def __post_init__(self):
        if _as_int(self.n, "node count") < 2:
            raise ParameterError("need at least 2 nodes")
        if _as_int(self.n_graphs, "graph count") <= 0:
            raise ParameterError("graph count must be positive")
        if self.n_graphs % 2 != 0:
            raise ParameterError(
                "graph count must be even so classes are balanced")
        if not 0.0 < self.density < 1.0:
            raise ParameterError("density must lie in (0, 1)")
        if _as_int(self.seed, "seed") < 0:
            raise ParameterError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "rho", tuple(float(r) for r in self.rho))
        for r in self.rho:
            if not 0.0 <= r <= 1.0:
                raise ParameterError(f"rho entry {r} outside [0, 1]")
        n_m = self.n_motifs
        if len(self.rho) != n_m:
            raise ParameterError(
                f"rho has {len(self.rho)} entries for {n_m} motifs")
        if self.correlation is not None:
            c = tuple(tuple(float(x) for x in row) for row in self.correlation)
            if len(c) != n_m or any(len(row) != n_m for row in c):
                raise ParameterError(f"correlation matrix must be {n_m}x{n_m}")
            for i, row in enumerate(c):
                for j, x in enumerate(row):
                    if not 0.0 <= x <= 1.0:
                        raise ParameterError(f"correlation entry {x} outside [0, 1]")
                    if i == j and x != 1.0:
                        raise ParameterError("correlation diagonal must be 1")
            object.__setattr__(self, "correlation", c)

    def _sampled(self) -> tuple[int, int] | None:
        """motif_spec as ints when it is a (count, edges_per_motif) pair of
        Python or numpy integers, else None; a bool in the pair, Python's
        or numpy's, raises ParameterError."""
        spec = self.motif_spec
        if isinstance(spec, tuple) and len(spec) == 2 and all(
                isinstance(x, (int, np.integer, np.bool_)) for x in spec):
            return _as_int(spec[0], "motif count"), _as_int(spec[1], "edge count")
        return None

    @property
    def n_motifs(self) -> int:
        sampled = self._sampled()
        return sampled[0] if sampled else len(self.motif_spec)

    def correlation_array(self) -> np.ndarray:
        if self.correlation is None:
            return np.eye(self.n_motifs)
        return np.asarray(self.correlation, dtype=np.float64)


def _er_bits(n: int, density: float, rng: np.random.Generator) -> int:
    """Edge bits of an ER draw, one uniform per pair in pair_index order."""
    return pack_flags(rng.random(n * (n - 1) // 2) < density)


def erdos_renyi(n: int, density: float, rng: np.random.Generator) -> Graph:
    """ER graph: each of the n(n-1)/2 pairs drawn independently with the
    given probability, consuming exactly one uniform per pair."""
    if not 0.0 < density < 1.0:
        raise ParameterError("density must lie in (0, 1)")
    return Graph._trusted(n, _er_bits(n, density, rng))


def sample_motifs(n: int, n_motifs: int, edges_per_motif: int,
                  seed: int | np.random.Generator = 0,
                  disjoint: bool = True) -> tuple[Motif, ...]:
    """Sample connected motifs of a fixed edge count by random edge
    expansion. In the default disjoint mode each motif lives on its own
    block of edges_per_motif + 1 nodes, so motifs share no nodes; class
    signs alternate with index (even index -> class 0 -> sign -1)."""
    n, n_motifs = _as_int(n, "node count"), _as_int(n_motifs, "motif count")
    edges_per_motif = _as_int(edges_per_motif, "edge count")
    if n_motifs <= 0 or edges_per_motif <= 0:
        raise ParameterError("motif count and edge count must be positive")
    if isinstance(seed, np.random.Generator):
        rng = seed
    elif _as_int(seed, "seed") < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    else:
        rng = _philox(np.random.SeedSequence(seed))
    block = edges_per_motif + 1
    if disjoint:
        if n_motifs * block > n:
            raise ParameterError(
                f"{n_motifs} disjoint motifs of {edges_per_motif} edges need "
                f"{n_motifs * block} nodes, universe has {n}")
        order = [int(x) for x in rng.permutation(n)]
        pools = [order[k * block:(k + 1) * block] for k in range(n_motifs)]
    else:
        pairs = max(n, 0) * (n - 1) // 2
        if edges_per_motif > pairs:
            raise ParameterError(
                f"a motif of {edges_per_motif} edges does not fit the {pairs} "
                f"node pairs of a {n}-node universe")
        pools = [list(range(n)) for _ in range(n_motifs)]

    motifs = []
    for k, pool in enumerate(pools):
        if not disjoint:
            start = pool[int(rng.integers(len(pool)))]
        else:
            start = pool[0]
        members = [start]
        member_set = {start}
        edges: set[Edge] = set()
        while len(edges) < edges_per_motif:
            candidates = []
            for u in members:
                for v in pool:
                    if v == u:
                        continue
                    e = (u, v) if u < v else (v, u)
                    if e not in edges:
                        candidates.append((e, v))
            candidates.sort()
            e, v = candidates[int(rng.integers(len(candidates)))]
            edges.add(e)
            if v not in member_set:
                member_set.add(v)
                members.append(v)
        motifs.append(Motif(k, frozenset(edges), 1 if k % 2 == 1 else -1))
    return tuple(motifs)


def generate(cfg: SynthConfig) -> tuple[LabeledDataset, InjectionRecord, tuple[Motif, ...]]:
    """Run the injection process; returns the labelled dataset (with the
    injection matrix embedded), the injection record, and the motifs
    used (sampled here when cfg.motif_spec is a (count, edges) pair)."""
    seq = np.random.SeedSequence(cfg.seed)
    seq_r, seq_er, seq_motifs = seq.spawn(3)

    sampled = cfg._sampled()
    if sampled:
        motifs = sample_motifs(cfg.n, *sampled, _philox(seq_motifs))
    else:
        motifs = tuple(cfg.motif_spec)
    n_m = len(motifs)
    motif_bits = [pack_edges(m.edges, cfg.n) for m in motifs]

    r_matrix = _philox(seq_r).random((cfg.n_graphs, n_m)) if n_m else \
        np.zeros((cfg.n_graphs, 0))
    corr = cfg.correlation_array()

    er_streams = seq_er.spawn(cfg.n_graphs)
    graphs = []
    labels = []
    injections = []
    for j in range(cfg.n_graphs):
        label = j % 2
        bits = _er_bits(cfg.n, cfg.density, _philox(er_streams[j]))
        row = []
        for k in range(n_m):
            if float(corr[k] @ r_matrix[j]) <= cfg.rho[k]:
                if j % 2 == k % 2:
                    bits |= motif_bits[k]
                    row.append(1)
                else:
                    bits &= ~motif_bits[k]
                    row.append(-1)
            else:
                row.append(0)
        graphs.append(Graph._trusted(cfg.n, bits))
        labels.append(label)
        injections.append(tuple(row))

    dataset = LabeledDataset(cfg.n, tuple(graphs), tuple(labels), tuple(injections))
    return dataset, InjectionRecord._trusted(dataset.injections), motifs
