"""Shared helpers for the test suite: seeded random graphs and motifs.

All randomness goes through numpy's Philox generator so every test is
reproducible bit for bit; tests loop over explicit seed ranges instead
of drawing from ambient entropy.
"""

from __future__ import annotations

import math
import os
import pathlib
from collections import OrderedDict
from fractions import Fraction

import numpy as np
import pytest

from motifshap import (
    Graph,
    MaskingStrategy,
    Motif,
    erdos_renyi,
    files,
    load_dataset,
    load_motifs,
)
from motifshap.masking import MaskTables

#: The small hand-written input of the golden-output tests
GOLDEN = pathlib.Path(__file__).parent / "golden"


def philox(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))


def random_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    return erdos_renyi(n, density, rng)


def random_weighted_graph(n: int, density: float, rng: np.random.Generator) -> Graph:
    g = erdos_renyi(n, density, rng)
    weights = {e: float(w) for e, w in zip(g.sorted_edges(), rng.random(len(g.edges)))}
    return Graph(n, g.edges, weights)


def golden_average_lattice() -> list[Graph]:
    """Every masked graph of one average lattice over the golden motifs,
    in coalition order, over a weighted graph whose weights lie on motif
    edges and off them."""
    d = load_dataset(GOLDEN / "data.json")
    _, motifs = load_motifs(GOLDEN / "motifs.json")
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 9), (5, 6), (10, 11), (10, 12), (21, 22)]
    weights = {(1, 2): 0.25, (2, 3): 0.5, (4, 9): 0.75, (5, 6): 0.3, (10, 11): 0.125}
    tables = MaskTables(MaskingStrategy.average(d), Graph(30, edges, weights), motifs)
    return [tables.graph(s) for s in range(1 << len(motifs))]


def random_connected_motif(motif_id: int, n: int, n_edges: int,
                           rng: np.random.Generator,
                           class_sign: int | None = None) -> Motif:
    """Grow a connected motif by random expansion anywhere in the node
    universe (motifs may overlap each other and the graph)."""
    start = int(rng.integers(n))
    members = [start]
    member_set = {start}
    edges = set()
    while len(edges) < n_edges:
        u = members[int(rng.integers(len(members)))]
        v = int(rng.integers(n))
        if v == u:
            continue
        e = (u, v) if u < v else (v, u)
        if e in edges:
            continue
        edges.add(e)
        if v not in member_set:
            member_set.add(v)
            members.append(v)
    return Motif(motif_id, frozenset(edges), class_sign)


def random_motif_set(n: int, count: int, n_edges: int,
                     rng: np.random.Generator) -> list[Motif]:
    signs = [-1, 1]
    return [random_connected_motif(i, n, n_edges, rng, signs[i % 2])
            for i in range(count)]


@pytest.fixture()
def parses(monkeypatch):
    """Start from an empty parse cache and log every uncached parse of a
    dataset or motif file as (kind, path) in the returned list."""
    monkeypatch.setattr(files, "_parsed", OrderedDict())
    log = []
    for kind, name in (("dataset", "_parse_dataset"), ("motifs", "_parse_motifs")):
        def logged(path, data, parse=getattr(files, name), kind=kind):
            log.append((kind, os.fspath(path)))
            return parse(path, data)
        monkeypatch.setattr(files, name, logged)
    return log


def scan_support(d, edges, label=None) -> int:
    """Support of a set of canonical edges by a plain subset scan over the
    dataset's graphs, apart from the occurrence index the library counts
    with, so miner and index are not checked against themselves."""
    edges = frozenset(edges)
    return sum(1 for g, lab in zip(d.graphs, d.labels)
               if (label is None or lab == label) and edges <= g.edges)


def _uniform_sum_cdf(weights, t) -> float:
    """P(sum_i w_i U_i <= t) for independent U_i ~ Uniform(0, 1) and
    weights w_i >= 0. Over the d positive weights this is the
    inclusion-exclusion sum over the corners of the box,
    sum_S (-1)^|S| (t - w_S)_+^d / (d! prod w), evaluated in exact
    rationals so the alternating terms cannot cancel away precision."""
    w = [Fraction(x) for x in weights if x > 0]
    t = Fraction(t)
    d = len(w)
    total = Fraction(0)
    for corner in range(1 << d):
        s = sum((w[i] for i in range(d) if corner >> i & 1), Fraction(0))
        if s < t:
            total += (-1) ** corner.bit_count() * (t - s) ** d
    return float(total / (math.factorial(d) * math.prod(w)))


def injection_marginals(rho, correlation) -> tuple[float, ...]:
    """Exact per-motif injection rate of the synthetic generator, which
    injects motif k into graph j when C_k . R_j <= rho_k for R uniform:
    the marginal P(C_k . R <= rho_k). Equals rho under identity
    correlation; off-diagonal mass lowers it."""
    return tuple(_uniform_sum_cdf(row, r) for row, r in zip(correlation, rho))
