"""Computations made apart from motifshap, and the checks that compare the
program's outputs with them.

Edges are (u, v) tuples with u < v and edge sets are plain Python sets;
nothing here calls into motifshap, so a fault in the program cannot hide
in its own reference. Every check returns a list of error messages,
empty when the output passes.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from typing import Callable, Iterable, Sequence

import numpy as np

TOL = 1e-12


# --- Shapley scores -----------------------------------------------------


def shapley_weight(s: int, m: int) -> float:
    return math.factorial(s) * math.factorial(m - s - 1) / math.factorial(m)


def shapley_reference(value: Callable[[frozenset], float], m: int,
                      depth: int) -> tuple[list[float], int]:
    """Depth-limited Shapley scores of m players: for player i, the sum
    over masked sets S of the other players with |S| >= m - depth of
    w(|S|) * (value(S) - value(S + i)). depth = m gives exact scores.
    Returns the scores and the number of distinct sets valued."""
    cache: dict[frozenset, float] = {}

    def v(s: frozenset) -> float:
        if s not in cache:
            cache[s] = value(s)
        return cache[s]

    scores = []
    for i in range(m):
        others = [j for j in range(m) if j != i]
        terms = []
        for size in range(max(m - depth, 0), m):
            w = shapley_weight(size, m)
            for subset in itertools.combinations(others, size):
                s = frozenset(subset)
                terms.append(w * (v(s) - v(s | {i})))
        scores.append(math.fsum(terms))
    return scores, len(cache)


def union_of(motif_edges: Sequence[set], members: Iterable[int]) -> set:
    out: set = set()
    for j in members:
        out |= motif_edges[j]
    return out


def average_masked(g_edges: set, union: set, freq: dict) -> dict:
    """Edge weights of g with the union edges set to their background
    frequency; g is unweighted, so its other edges weigh 1."""
    weights = {e: 1.0 for e in g_edges}
    for e in union:
        weights[e] = freq.get(e, 0.0)
    return weights


def edge_frequencies(graphs: Sequence[set]) -> dict:
    counts = Counter(e for g in graphs for e in g)
    return {e: c / len(graphs) for e, c in counts.items()}


def logistic(z: float) -> float:
    if z >= 0:
        return 1.0 / (1.0 + math.exp(-z))
    t = math.exp(z)
    return t / (1.0 + t)


def linear_model_value(weights: dict, w_by_pair: dict, bias: float) -> float:
    """Logistic model over node-pair features: w_by_pair maps each edge to
    its coefficient, weights maps present edges to their weight."""
    return logistic(math.fsum(w_by_pair[e] * x for e, x in weights.items()) + bias)


def pair_coefficients(n: int, coef: Sequence[float]) -> dict:
    """Coefficient per node pair, pairs in row-major upper-triangle order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if len(pairs) != len(coef):
        raise ValueError(f"{len(coef)} coefficients for {len(pairs)} pairs")
    return dict(zip(pairs, (float(c) for c in coef)))


# --- checks on explanations --------------------------------------------


def check_exact(scores: Sequence[float], query_count: int, kind: str,
                g_edges: set, motif_edges: Sequence[set],
                importances: Sequence[float],
                value: Callable[[set], float]) -> list[str]:
    """Efficiency, query count and dummy checks of one exact explanation
    under toggle or remove masking; value(edges) is B on that edge set."""
    errors = []
    union = union_of(motif_edges, range(len(motif_edges)))
    all_masked = g_edges ^ union if kind == "toggle" else g_edges - union
    gap = value(g_edges) - value(all_masked)
    total = math.fsum(scores)
    if not abs(total - gap) <= TOL:
        errors.append(f"efficiency: sum of scores {total!r} vs gap {gap!r}")
    touched = sum(1 for e in motif_edges if e & g_edges)
    want = 2 ** len(motif_edges) if kind == "toggle" else 2 ** touched
    if query_count != want:
        errors.append(f"{kind} made {query_count} queries, expected {want}")
    for i, (edges, u) in enumerate(zip(motif_edges, importances)):
        dummy = u == 0.0 or (kind == "remove" and not edges & g_edges)
        if dummy and scores[i] != 0.0:
            errors.append(f"dummy motif {i} scored {scores[i]!r}, not 0.0")
    return errors


def check_kernel(scores: Sequence[float], query_count: int, counted: int,
                 m: int, in_process: Sequence[float] | None,
                 reference: Sequence[float] | None) -> list[str]:
    """Depth-2 checks: the query count, bit-identity with the in-process
    explanation and agreement with the reference formula (the last two
    only where given)."""
    errors = []
    want = 1 + m + m * (m - 1) // 2
    if counted != want or query_count != want:
        errors.append(f"depth 2 at m={m}: {counted} queries sent, "
                      f"{query_count} reported, expected {want}")
    if in_process is not None and list(scores) != list(in_process):
        errors.append("wire scores differ from the in-process scores")
    if reference is not None:
        if len(scores) != len(reference):
            errors.append(f"{len(scores)} scores, reference has {len(reference)}")
        else:
            worst = max(abs(a - b) for a, b in zip(scores, reference))
            if not worst <= TOL:
                errors.append(f"scores differ from the depth-2 reference by {worst!r}")
    return errors


# --- checks on discovery outputs ---------------------------------------


def connected(edges: Iterable[tuple]) -> bool:
    edges = list(edges)
    if not edges:
        return False
    adj: dict[int, set] = {}
    for u, v in edges:
        adj.setdefault(u, set()).add(v)
        adj.setdefault(v, set()).add(u)
    start = next(iter(adj))
    seen = {start}
    stack = [start]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == len(adj)


def support_at_least(edges: frozenset, graphs: Sequence[set], s: int) -> bool:
    count = 0
    for g in graphs:
        if edges <= g:
            count += 1
            if count >= s:
                return True
    return False


def check_mined(mined: Sequence[frozenset], graphs: Sequence[set], support: int,
                min_size: int, max_size: int, planted: frozenset) -> list[str]:
    """Each mined motif is connected, has min_size..max_size edges and the
    support; every connected subset of the planted motif in that size
    range is mined."""
    errors = []
    if len(set(mined)) != len(mined):
        errors.append("mined motifs contain duplicates")
    for es in mined:
        if not min_size <= len(es) <= max_size:
            errors.append(f"mined motif of {len(es)} edges: {sorted(es)}")
        elif not connected(es):
            errors.append(f"mined motif is not connected: {sorted(es)}")
        elif not support_at_least(es, graphs, support):
            errors.append(f"mined motif below support {support}: {sorted(es)}")
        if len(errors) > 20:
            break
    mined_set = set(mined)
    for size in range(min_size, max_size + 1):
        for subset in itertools.combinations(sorted(planted), size):
            if connected(subset) and frozenset(subset) not in mined_set:
                errors.append(f"planted subset not mined: {list(subset)}")
                return errors
    return errors


def cross_support(edges: frozenset, graphs: Sequence[set], labels: Sequence[int]) -> float:
    s0 = sum(1 for g, lab in zip(graphs, labels) if lab == 0 and edges <= g)
    s1 = sum(1 for g, lab in zip(graphs, labels) if lab == 1 and edges <= g)
    return abs(math.log2((s0 + 1) / (s1 + 1)))


def check_selected(selected: Sequence[tuple[frozenset, float]], graphs: Sequence[set],
                   labels: Sequence[int], dt: float, st: int, k: int) -> list[str]:
    """Selected (edges, cs) pairs keep size, count and pairwise distance
    limits, and each cs is the recomputed cross-support."""
    errors = []
    if not 1 <= len(selected) <= k:
        errors.append(f"{len(selected)} motifs selected, limit {k}")
    for es, cs in selected:
        if len(es) < st:
            errors.append(f"selected motif of {len(es)} edges, minimum {st}")
        want = cross_support(es, graphs, labels)
        if cs != want:
            errors.append(f"cs {cs!r} for {sorted(es)}, recomputed {want!r}")
    for (a, _), (b, _) in itertools.combinations(selected, 2):
        dist = 1.0 - len(a & b) / len(a | b)
        if dist < dt:
            errors.append(f"selected motifs at Jaccard distance {dist} < {dt}")
    return errors


def jaccard_samples(graphs: Sequence[set], labels: Sequence[int]) -> tuple[np.ndarray, np.ndarray]:
    """Intra- and inter-class pairwise Jaccard distances, computed on a
    graph-by-edge incidence matrix."""
    columns = {e: c for c, e in enumerate(sorted(set().union(*graphs)))}
    x = np.zeros((len(graphs), len(columns)), dtype=np.int64)
    for i, g in enumerate(graphs):
        x[i, [columns[e] for e in g]] = 1
    inter = x @ x.T
    sizes = x.sum(axis=1)
    union = sizes[:, None] + sizes[None, :] - inter
    dist = 1.0 - inter / np.where(union == 0, 1, union)
    i, j = np.triu_indices(len(graphs), k=1)
    lab = np.asarray(labels)
    same = lab[i] == lab[j]
    return dist[i[same], j[same]], dist[i[~same], j[~same]]


def check_separability(report: dict, graphs: Sequence[set], labels: Sequence[int]) -> list[str]:
    from scipy.stats import ks_2samp

    intra, inter = jaccard_samples(graphs, labels)
    errors = []
    if (report["n_intra"], report["n_inter"]) != (len(intra), len(inter)):
        errors.append(f"pairs {report['n_intra']}/{report['n_inter']}, "
                      f"recomputed {len(intra)}/{len(inter)}")
    want = float(ks_2samp(intra, inter).statistic)
    if not abs(report["ks_statistic"] - want) <= TOL:
        errors.append(f"KS statistic {report['ks_statistic']!r}, scipy {want!r}")
    return errors


def check_expected(matrix: Sequence[Sequence[float]], injections: Sequence[Sequence[int]],
                   classes: Sequence[int], rho: Sequence[float]) -> list[str]:
    """Each entry is injection x class sign (+1 for class 1, -1 for
    class 0) x rho."""
    signs = [1 if c == 1 else -1 for c in classes]
    want = [[inj * s * r for inj, s, r in zip(row, signs, rho)] for row in injections]
    if [list(row) for row in matrix] != want:
        return ["expected-score table differs from injection x sign x rho"]
    return []
