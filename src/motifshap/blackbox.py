"""Black-box classifiers: B maps a graph over the shared node universe to
a class-1 probability in [0, 1].

Two built-in surrogates are provided. GroundTruthScorer scores a graph by
how much of each planted motif it contains and is the deterministic
stand-in for a trained model on synthetic benchmarks. LinearSurrogate is
a logistic model over node-pair features trained by full-batch gradient
descent. A real classifier in another process is queried through the
wire protocol (wire.ExternalBlackBox), and wire.serve serves a black box
over it.

Every black box reads an edge as Graph.weight defines it: 0 when
missing, 1 when present and unweighted, else its weight, so weighted
graphs (as produced by average masking) need no special handling. The
surrogate reads each graph's weight_vector. The scorer reads a whole
batch's edge bits in one numpy pass, and Graph.weights only for its
weighted graphs; it sums each graph's terms in motif order, so a batch
and single calls score alike (see GroundTruthScorer).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigurationError, DegenerateTrainingError, UniverseMismatchError
from .graphs import Graph, LabeledDataset, Motif, pair_index, weight_vector

#: Most graphs sent to a black box in one evaluate_batch call, by the engine
#: and by accuracy, so a lattice holds at most this many masked graphs at once.
BATCH_SIZE = 256


def sigmoid(x: float) -> float:
    # piecewise form avoids overflow in exp for large |x|
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    z = math.exp(x)
    return z / (1.0 + z)


class BlackBox:
    """Base contract: deterministic evaluate(g) in [0,1] plus a batch
    entry point the lattice engine calls with deduplicated graphs. Every
    black box is a context manager whose exit calls close(), which frees
    what it holds: nothing here, the child process of ExternalBlackBox.

    n is the node count of the universe the black box is defined over, or
    None when it declares none. check_universe refuses a graph over
    another universe; the built-in black boxes call it in evaluate, and
    serve calls it on a request's n before it decodes any edge. A black
    box that declares no universe, such as a wrapper, is handed the
    decoded graph and checks it in its own evaluate."""

    n: int | None = None
    kind = "black box"  # names the black box in a mismatch message

    def check_universe(self, n: int) -> None:
        if self.n is not None and n != self.n:
            raise UniverseMismatchError(f"graph over {n} nodes, {self.kind} over {self.n}")

    def evaluate(self, g: Graph) -> float:
        raise NotImplementedError

    def evaluate_batch(self, graphs: Sequence[Graph]) -> list[float]:
        return [self.evaluate(g) for g in graphs]

    def close(self) -> None:
        pass

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


class GroundTruthScorer(BlackBox):
    """Scores a graph by signed, importance-weighted motif overlap.

    overlap_k is the mean edge weight of motif k's edges in the graph,
    so 1 when fully present and 0 when fully absent. The raw score sums
    class_sign_k * (2*overlap_k - 1) * u_k over the motifs in order and
    is squashed through a logistic with steepness beta.

    A batch is scored in one numpy pass: the graphs' edge bits become one
    byte row each, the motifs' edge bits are gathered from the rows and
    counted per motif. On a weighted graph a motif's overlap is instead
    the math.fsum of its edge weights, correctly rounded, so equal motifs
    score equally whatever order their edges are listed in. The terms are
    summed left to right, as a loop over the motifs would sum them, and
    evaluate(g) is evaluate_batch([g])[0], so a single call and a batch
    agree bit for bit.
    """

    kind = "scorer"

    def __init__(self, n: int, motifs: Sequence[Motif],
                 importances: Sequence[float], beta: float = 2.0):
        if len(importances) != len(motifs):
            raise ConfigurationError("one importance per motif required")
        if not (beta > 0 and math.isfinite(beta)):
            raise ConfigurationError(f"steepness beta must be positive and finite, got {beta}")
        for m in motifs:
            if m.class_sign is None:
                raise ConfigurationError(f"motif {m.id} has no class sign")
            if m.max_node() >= n:
                raise UniverseMismatchError(f"motif {m.id} reaches node {m.max_node()}, "
                                            f"outside node universe [0, {n})")
        for u in importances:
            if not (u >= 0 and math.isfinite(u)):
                raise ConfigurationError(f"importances must be nonnegative and finite, got {u}")
        self.n = n
        self.motifs = tuple(motifs)
        self.importances = tuple(float(u) for u in importances)
        self.beta = float(beta)
        # every motif's edges in one row, in pair_index order: motif k
        # spans columns starts[k] to starts[k] + sizes[k]
        self._edges = [e for m in self.motifs for e in m.sorted_edges()]
        pos = np.array([pair_index(u, v, n) for u, v in self._edges], dtype=np.int64)
        self._byte, self._shift = pos >> 3, (pos & 7).astype(np.uint8)
        self._sizes = np.array([len(m.edges) for m in self.motifs], dtype=np.int64)
        self._starts = np.cumsum(self._sizes) - self._sizes
        self._spans = [(a, a + size) for a, size in zip(self._starts.tolist(), self._sizes.tolist())]
        # a +-1 sign moves onto u exactly
        self._coefs = np.array([m.class_sign * u for m, u in zip(self.motifs, self.importances)],
                               dtype=np.float64)
        self._nbytes = (n * (n - 1) // 2 + 7) // 8

    def evaluate(self, g: Graph) -> float:
        return self.evaluate_batch([g])[0]

    def evaluate_batch(self, graphs: Sequence[Graph]) -> list[float]:
        for g in graphs:
            self.check_universe(g.n)
        if not self.motifs:
            return [sigmoid(0.0)] * len(graphs)  # no terms: the raw score is 0
        nbytes = self._nbytes
        rows = np.frombuffer(b"".join(g.edge_bits.to_bytes(nbytes, "little") for g in graphs),
                             dtype=np.uint8).reshape(len(graphs), nbytes)
        present = (rows[:, self._byte] >> self._shift) & 1
        # an int64 count, since a uint8 sum wraps past 255 edges
        sums = np.add.reduceat(present, self._starts, axis=1, dtype=np.int64).astype(np.float64)
        for i, g in enumerate(graphs):
            if g.weights is not None:
                w = [g.weights.get(e, 1.0) if bit else 0.0
                     for e, bit in zip(self._edges, present[i].tolist())]
                sums[i] = [math.fsum(w[a:b]) for a, b in self._spans]
        terms = (2.0 * (sums / self._sizes) - 1.0) * self._coefs
        # cumsum adds the terms left to right, where sum would add them pairwise
        raw = np.cumsum(terms, axis=1)[:, -1]
        return [sigmoid(self.beta * x) for x in raw.tolist()]


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters for the linear surrogate. The optimizer is
    full-batch with zero initialization, so training uses no randomness
    and needs no seed."""

    learning_rate: float = 0.5
    epochs: int = 300

    def __post_init__(self):
        if not (self.learning_rate > 0 and math.isfinite(self.learning_rate)):
            raise ConfigurationError(
                f"learning rate must be positive and finite, got {self.learning_rate}")
        epochs = self.epochs
        if isinstance(epochs, bool) or not isinstance(epochs, (int, np.integer)) or epochs < 0:
            raise ConfigurationError(
                f"epochs must be a nonnegative integer, got {epochs!r}")


class LinearSurrogate(BlackBox):
    """Logistic model over the n*(n-1)/2 node-pair weight features."""

    kind = "surrogate"

    def __init__(self, n: int, weights: np.ndarray, bias: float,
                 config: TrainConfig | None = None,
                 train_accuracy: float | None = None):
        dim = n * (n - 1) // 2
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (dim,):
            raise ConfigurationError(
                f"weight vector must have length {dim}, got {weights.shape}")
        self.n = n
        self.weights = weights
        self.bias = float(bias)
        self.config = config
        self.train_accuracy = train_accuracy

    def evaluate(self, g: Graph) -> float:
        self.check_universe(g.n)
        z = float(self.weights @ _feature_matrix((g,), self.n)[0]) + self.bias
        return sigmoid(z)


def _feature_matrix(graphs: Sequence[Graph], n: int) -> np.ndarray:
    """One row per graph: its weight_vector over the n-node universe."""
    return np.array([weight_vector(g) for g in graphs]).reshape(len(graphs), n * (n - 1) // 2)


def train_linear_surrogate(d: LabeledDataset,
                           config: TrainConfig | None = None) -> LinearSurrogate:
    """Fit the logistic surrogate by full-batch gradient descent on the
    cross-entropy loss. Deterministic: zero initialization, fixed epoch
    count, no sampling."""
    config = config or TrainConfig()
    if len(d) == 0:
        raise DegenerateTrainingError("cannot train on an empty dataset")
    labels = np.asarray(d.labels, dtype=np.float64)
    if labels.min() == labels.max():
        raise DegenerateTrainingError("training data contains a single class")
    x = _feature_matrix(d.graphs, d.n)
    w = np.zeros(x.shape[1], dtype=np.float64)
    b = 0.0
    lr = config.learning_rate
    m = float(len(d))
    for _ in range(config.epochs):
        z = x @ w + b
        p = 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
        err = p - labels
        w -= lr * (x.T @ err) / m
        b -= lr * float(err.sum()) / m
    z = x @ w + b
    acc = float(np.mean((z > 0).astype(np.float64) == labels))
    return LinearSurrogate(d.n, w, b, config, acc)


def accuracy(bb: BlackBox, d: LabeledDataset) -> float:
    """Fraction of graphs whose thresholded prediction matches the label,
    scored by evaluate_batch in slices of at most BATCH_SIZE graphs."""
    if len(d) == 0:
        raise DegenerateTrainingError("accuracy over an empty dataset")
    hits = 0
    for i in range(0, len(d), BATCH_SIZE):
        scores = bb.evaluate_batch(d.graphs[i:i + BATCH_SIZE])
        hits += sum(int((p > 0.5) == (lab == 1))
                    for p, lab in zip(scores, d.labels[i:i + BATCH_SIZE]))
    return hits / len(d)
