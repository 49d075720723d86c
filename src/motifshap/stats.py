"""Evaluation statistics: class separability via a two-sample KS test on
Jaccard distances, expected explanation scores from the injection
record, rank correlations, and global motif rankings.

The KS p-value uses the asymptotic Kolmogorov distribution with the
standard effective-sample-size correction; pearson and spearman are
computed directly (fractional average ranks for ties) and refuse
zero-variance inputs instead of returning 0, so degenerate experiments
surface as errors.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations
from typing import Sequence

import numpy as np

from .engine import Explanation
from .errors import ParameterError, UndefinedCorrelationError
from .graphs import LabeledDataset, Motif, _as_int, jaccard_distance
from .synth import InjectionRecord


@dataclass(frozen=True)
class SeparabilityReport:
    ks_statistic: float
    p_value: float
    n_intra: int
    n_inter: int


@dataclass(frozen=True)
class ExpectedScoreTable:
    """Ground-truth target scores: entry (i, j) is the injection sign of
    motif j in graph i times the motif's class direction times rho_j."""

    matrix: tuple[tuple[float, ...], ...]

    def flatten(self) -> list[float]:
        return [x for row in self.matrix for x in row]


def kolmogorov_sf(lam: float) -> float:
    """Asymptotic KS survival function Q(lam) = 2 sum_{k>=1} (-1)^(k-1)
    exp(-2 k^2 lam^2), clipped to [0, 1]."""
    if lam < 1e-8:
        return 1.0
    total = 0.0
    sign = 1.0
    # the series needs on the order of 1/lam terms before the exponential
    # tail kicks in, so iterate until the term underflows the sum
    for k in range(1, 200_000):
        term = 2.0 * math.exp(-2.0 * k * k * lam * lam)
        total += sign * term
        sign = -sign
        if term < 1e-17:
            break
    return min(1.0, max(0.0, total))


def ks_2sample(x: Sequence[float], y: Sequence[float]) -> tuple[float, float]:
    """Two-sample KS statistic D = sup |F_x - F_y| and its asymptotic
    p-value with the effective-sample-size correction."""
    n1, n2 = len(x), len(y)
    if n1 == 0 or n2 == 0:
        raise ParameterError("KS test needs two nonempty samples")
    xs, ys = sorted(x), sorted(y)
    i = j = 0
    d = 0.0
    while i < n1 and j < n2:
        v = xs[i] if xs[i] <= ys[j] else ys[j]
        while i < n1 and xs[i] == v:
            i += 1
        while j < n2 and ys[j] == v:
            j += 1
        d = max(d, abs(i / n1 - j / n2))
    ne = n1 * n2 / (n1 + n2)
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    return d, kolmogorov_sf(lam)


def separability(d: LabeledDataset, max_pairs: int | None = None,
                 seed: int = 0) -> SeparabilityReport:
    """KS separation between intra-class and inter-class pairwise Jaccard
    distance distributions. max_pairs, when set, subsamples each
    distance sample to that size (seeded, without replacement)."""
    if _as_int(seed, "seed") < 0:
        raise ParameterError(f"seed must be nonnegative, got {seed}")
    if max_pairs is not None and _as_int(max_pairs, "max_pairs") < 1:
        raise ParameterError("max_pairs must be >= 1")
    zeros = d.label_indices(0)
    ones = d.label_indices(1)
    if len(zeros) < 2 or len(ones) < 2:
        raise ParameterError("separability needs at least 2 graphs per class")
    intra = []
    inter = []
    for i, j in combinations(range(len(d)), 2):
        dist = jaccard_distance(d.graphs[i], d.graphs[j])
        if d.labels[i] == d.labels[j]:
            intra.append(dist)
        else:
            inter.append(dist)
    if max_pairs is not None:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
        if len(intra) > max_pairs:
            idx = rng.choice(len(intra), size=max_pairs, replace=False)
            intra = [intra[int(t)] for t in sorted(idx)]
        if len(inter) > max_pairs:
            idx = rng.choice(len(inter), size=max_pairs, replace=False)
            inter = [inter[int(t)] for t in sorted(idx)]
    stat, p = ks_2sample(intra, inter)
    return SeparabilityReport(stat, p, len(intra), len(inter))


def expected_scores(inj: InjectionRecord, motifs: Sequence[Motif],
                    rho: Sequence[float]) -> ExpectedScoreTable:
    """Target table I(i, j) * class_direction(j) * rho(j); class
    direction is +1 for class-1 motifs and -1 for class-0."""
    n_m = inj.n_motifs
    if len(motifs) != n_m or len(rho) != n_m:
        raise ParameterError(
            f"injection record covers {n_m} motifs, got {len(motifs)} motifs "
            f"and {len(rho)} rho entries")
    signs = []
    for m in motifs:
        if m.class_sign is None:
            raise ParameterError(f"motif {m.id} has no class sign")
        signs.append(m.class_sign)
    rows = []
    for row in inj.matrix:
        rows.append(tuple(row[j] * signs[j] * float(rho[j]) for j in range(n_m)))
    return ExpectedScoreTable(tuple(rows))


def _rankdata(values: Sequence[float]) -> list[float]:
    """1-based fractional ranks; tied values share the average of the
    positions they occupy."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        avg = (i + j) / 2 + 1.0
        for t in range(i, j + 1):
            ranks[order[t]] = avg
        i = j + 1
    return ranks


def pearson(x: Sequence[float], y: Sequence[float]) -> float:
    if len(x) != len(y):
        raise ParameterError("samples must have equal length")
    n = len(x)
    if n < 2:
        raise ParameterError("correlation needs at least 2 points")
    mx = math.fsum(x) / n
    my = math.fsum(y) / n
    cov = math.fsum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = math.fsum((a - mx) ** 2 for a in x)
    vy = math.fsum((b - my) ** 2 for b in y)
    if vx == 0.0 or vy == 0.0:
        raise UndefinedCorrelationError(
            "correlation undefined for a zero-variance sample")
    r = cov / math.sqrt(vx * vy)
    return min(1.0, max(-1.0, r))


def spearman(x: Sequence[float], y: Sequence[float]) -> float:
    if len(x) != len(y):
        raise ParameterError("samples must have equal length")
    return pearson(_rankdata(x), _rankdata(y))


def global_ranking(explanations: Sequence[Explanation]) -> list[tuple[int, float]]:
    """Mean absolute score per motif across explanations, sorted
    descending (ties by motif id). All explanations must cover the same
    motif set."""
    if not explanations:
        raise ParameterError("no explanations to aggregate")
    ids = explanations[0].motif_ids
    for ex in explanations:
        if ex.motif_ids != ids:
            raise ParameterError("explanations cover different motif sets")
    means = []
    for pos, motif_id in enumerate(ids):
        mean = math.fsum(abs(ex.scores[pos]) for ex in explanations) / len(explanations)
        means.append((motif_id, mean))
    means.sort(key=lambda t: (-t[1], t[0]))
    return means
