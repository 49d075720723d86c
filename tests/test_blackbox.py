import hashlib
import math

import numpy as np
import pytest

from motifshap import (
    ConfigurationError,
    DegenerateTrainingError,
    Graph,
    GroundTruthScorer,
    LabeledDataset,
    LinearSurrogate,
    MaskingStrategy,
    Motif,
    SynthConfig,
    TrainConfig,
    UniverseMismatchError,
    accuracy,
    exact_explain,
    generate,
    load_motifs,
    save_motifs,
    train_linear_surrogate,
)
from motifshap.blackbox import _feature_matrix, sigmoid
from motifshap.graphs import pair_index

from conftest import (
    philox,
    random_connected_motif,
    random_graph,
    random_motif_set,
    random_weighted_graph,
)

TRIANGLE = Motif(0, frozenset({(0, 1), (1, 2), (0, 2)}), 1)


def test_sigmoid_at_zero():
    assert sigmoid(0.0) == 0.5


def test_scorer_neutral_when_overlap_is_half():
    # a single 2-edge motif with exactly one edge present: overlap 0.5
    m = Motif(0, frozenset({(0, 1), (1, 2)}), 1)
    bb = GroundTruthScorer(4, [m], [1.0])
    assert bb.evaluate(Graph(4, [(0, 1)])) == 0.5


def test_scorer_fully_present_and_absent_motif():
    bb = GroundTruthScorer(4, [TRIANGLE], [1.0], beta=2.0)
    present = bb.evaluate(Graph(4, [(0, 1), (1, 2), (0, 2)]))
    absent = bb.evaluate(Graph(4, []))
    assert present == pytest.approx(1.0 / (1.0 + math.exp(-2.0)), abs=1e-12)
    assert absent == pytest.approx(1.0 - present, abs=1e-12)


def test_scorer_zero_importances_always_half():
    bb = GroundTruthScorer(6, random_motif_set(6, 2, 2, philox(3)), [0.0, 0.0])
    for seed in range(10):
        assert bb.evaluate(random_graph(6, 0.4, philox(seed))) == 0.5


def test_scorer_monotone_in_positive_motif_overlap():
    bb = GroundTruthScorer(4, [TRIANGLE], [0.7], beta=3.0)
    edges = frozenset({(0, 1), (1, 2), (0, 2)})
    previous = -1.0
    for w in (0.0, 0.2, 0.5, 0.8, 1.0):
        g = Graph(4, edges, {e: w for e in edges})
        value = bb.evaluate(g)
        assert value >= previous
        previous = value


def test_scorer_output_in_unit_interval():
    rng = philox(42)
    motifs = random_motif_set(10, 3, 3, rng)
    bb = GroundTruthScorer(10, motifs, [2.0, 0.5, 1.5], beta=5.0)
    for seed in range(30):
        g = random_weighted_graph(10, 0.4, philox(seed))
        assert 0.0 <= bb.evaluate(g) <= 1.0


def test_scorer_validation():
    with pytest.raises(ConfigurationError):
        GroundTruthScorer(4, [TRIANGLE], [1.0, 2.0])
    with pytest.raises(ConfigurationError):
        GroundTruthScorer(4, [TRIANGLE], [-1.0])
    with pytest.raises(ConfigurationError):
        GroundTruthScorer(4, [TRIANGLE], [1.0], beta=0.0)
    for bad in (math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="importances"):
            GroundTruthScorer(4, [TRIANGLE], [bad])
        with pytest.raises(ConfigurationError, match="beta"):
            GroundTruthScorer(4, [TRIANGLE], [1.0], beta=bad)
    with pytest.raises(ConfigurationError):
        GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}))], [1.0])
    with pytest.raises(UniverseMismatchError):
        GroundTruthScorer(2, [TRIANGLE], [1.0])
    bb = GroundTruthScorer(4, [TRIANGLE], [1.0])
    with pytest.raises(UniverseMismatchError):
        bb.evaluate(Graph(5, []))


def test_scorer_equal_motifs_score_equally(tmp_path):
    # the weighted overlap must not depend on the order in which a
    # motif's edge frozenset iterates, which follows how it was built:
    # from reordered edges, or read back from a motif file
    n = 24
    path = tmp_path / "motifs.json"
    for seed in range(20):
        rng = philox(900 + seed)
        motifs = random_motif_set(n, 3, int(rng.integers(10, 40)), rng)
        save_motifs(n, motifs, path)
        twins = [load_motifs(path)[1]]
        for _ in range(4):
            orders = [rng.permutation(len(m.edges)) for m in motifs]
            twins.append([Motif(m.id, [m.sorted_edges()[i] for i in order], m.class_sign)
                          for m, order in zip(motifs, orders)])
        background = LabeledDataset(n, tuple(random_graph(n, 0.3, rng) for _ in range(7)),
                                    (0, 1) * 3 + (0,))
        graphs = [random_weighted_graph(n, 0.9, rng),
                  MaskingStrategy.average(background).mask(random_graph(n, 0.3, rng), motifs)]
        for k, m in enumerate(motifs):
            assert all(twin[k] == m for twin in twins)
            scorers = [GroundTruthScorer(n, [x], [1.0]) for x in (m, *(t[k] for t in twins))]
            for g in graphs:
                values = [bb.evaluate(g) for bb in scorers]
                assert values[1:] == values[:1] * len(twins)


class RecordingScorer(GroundTruthScorer):
    """GroundTruthScorer that keeps every value its batches return."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.values = []

    def evaluate_batch(self, graphs):
        values = super().evaluate_batch(graphs)
        self.values += values
        return values


def _digest(values) -> str:
    return hashlib.sha256(np.asarray(values, dtype=np.float64).tobytes()).hexdigest()


def test_scorer_values_are_pinned_on_exact_lattices():
    # the benchmark's exact-lattice shape: n = 100, density 0.18, 12
    # disjoint 7-edge motifs, every toggle and remove coalition
    cfg = SynthConfig(n=100, n_graphs=4, density=0.18, motif_spec=(12, 7),
                      rho=tuple(k / 11 for k in range(12)), seed=2601)
    dataset, _, motifs = generate(cfg)
    bb = RecordingScorer(100, motifs, cfg.rho)
    for g in dataset.graphs[:3]:
        for strategy in (MaskingStrategy.toggle(), MaskingStrategy.remove()):
            exact_explain(g, bb, motifs, strategy)
    assert len(bb.values) == 13088
    assert _digest(bb.values) == (
        "703bec375597111e587d7239cd473024977eb422fd637a3d9b7d94b694b7dfca")


def test_scorer_values_are_pinned_on_weighted_average_lattices():
    # weighted inputs, and average masking, which weights masked motif edges
    # by their background frequency
    cfg = SynthConfig(n=40, n_graphs=8, density=0.2, motif_spec=(6, 4),
                      rho=(0.5,) * 6, seed=2602)
    dataset, _, motifs = generate(cfg)
    bb = RecordingScorer(40, motifs, [0.1, 0.3, 0.5, 0.7, 0.9, 1.1])
    average = MaskingStrategy.average(dataset)
    for seed in range(3):
        exact_explain(random_weighted_graph(40, 0.3, philox(2603 + seed)), bb, motifs, average)
    assert len(bb.values) == 192
    assert _digest(bb.values) == (
        "441b1d47ec75785f0d24275dd0ed906b9677df3699a3dc9e8d98f9cb099189de")


def _edge_split_dataset(n_graphs: int = 20) -> LabeledDataset:
    # class decided by the presence of edge (0, 1) alone
    graphs = []
    labels = []
    for i in range(n_graphs):
        rng = philox(7000 + i)
        g = random_graph(6, 0.3, rng)
        label = i % 2
        edges = set(g.edges)
        if label:
            edges.add((0, 1))
        else:
            edges.discard((0, 1))
        graphs.append(Graph(6, frozenset(edges)))
        labels.append(label)
    return LabeledDataset(6, tuple(graphs), tuple(labels))


def test_surrogate_zero_epochs_predicts_half():
    d = _edge_split_dataset()
    bb = train_linear_surrogate(d, TrainConfig(epochs=0))
    assert all(float(w) == 0.0 for w in bb.weights)
    assert bb.bias == 0.0
    for g in d.graphs:
        assert bb.evaluate(g) == 0.5


def test_surrogate_separates_linearly_separable_data():
    d = _edge_split_dataset()
    bb = train_linear_surrogate(d, TrainConfig(learning_rate=0.5, epochs=300))
    assert bb.train_accuracy == 1.0
    assert accuracy(bb, d) == 1.0


def test_surrogate_training_is_deterministic():
    d = _edge_split_dataset()
    a = train_linear_surrogate(d, TrainConfig())
    b = train_linear_surrogate(d, TrainConfig())
    assert np.array_equal(a.weights, b.weights)
    assert a.bias == b.bias
    g = random_graph(6, 0.5, philox(1))
    assert a.evaluate(g) == b.evaluate(g)


def test_surrogate_output_in_unit_interval():
    d = _edge_split_dataset()
    bb = train_linear_surrogate(d)
    for seed in range(20):
        g = random_weighted_graph(6, 0.5, philox(seed))
        assert 0.0 <= bb.evaluate(g) <= 1.0


def test_surrogate_rejects_single_class_data():
    g = Graph(3, [(0, 1)])
    with pytest.raises(DegenerateTrainingError):
        train_linear_surrogate(LabeledDataset(3, (g, g), (1, 1)))
    with pytest.raises(DegenerateTrainingError):
        train_linear_surrogate(LabeledDataset(3, (), ()))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_train_config_rejects_a_non_finite_learning_rate(bad):
    with pytest.raises(ConfigurationError, match="learning rate"):
        TrainConfig(learning_rate=bad)


@pytest.mark.parametrize("bad", [0.0, -1.0, -0.5, -0.0])
def test_train_config_rejects_a_learning_rate_that_is_not_positive(bad):
    with pytest.raises(ConfigurationError, match="learning rate must be positive"):
        TrainConfig(learning_rate=bad)


@pytest.mark.parametrize("bad", [-3, -1, 1.5, 300.0, True, "3", None])
def test_train_config_rejects_epochs_that_are_not_a_nonnegative_integer(bad):
    with pytest.raises(ConfigurationError, match="epochs must be a nonnegative integer"):
        TrainConfig(epochs=bad)


def test_train_config_takes_zero_and_numpy_integer_epochs():
    assert TrainConfig(epochs=0).epochs == 0
    assert TrainConfig(epochs=np.int64(5)).epochs == 5


def test_surrogate_weight_vector_dimension_checked():
    with pytest.raises(ConfigurationError):
        LinearSurrogate(5, np.zeros(3), 0.0)
    with pytest.raises(UniverseMismatchError):
        LinearSurrogate(3, np.zeros(3), 0.0).evaluate(Graph(4, []))


def test_accuracy_empty_dataset_rejected():
    bb = LinearSurrogate(3, np.zeros(3), 0.0)
    with pytest.raises(DegenerateTrainingError):
        accuracy(bb, LabeledDataset(3, (), ()))


def test_accuracy_scores_the_dataset_in_batches():
    sizes = []

    class Recording(GroundTruthScorer):
        def evaluate_batch(self, graphs):
            sizes.append(len(graphs))
            return super().evaluate_batch(graphs)

    rng = philox(27)
    graphs = tuple(random_graph(6, 0.5, rng) for _ in range(600))
    labels = tuple(int(x) for x in rng.integers(2, size=600))
    d = LabeledDataset(6, graphs, labels)
    bb = Recording(6, [TRIANGLE], [1.0])
    acc = accuracy(bb, d)
    assert sizes == [256, 256, 88]
    hits = sum(int((bb.evaluate(g) > 0.5) == (lab == 1)) for g, lab in zip(graphs, labels))
    assert acc == hits / 600 and 0.0 < acc < 1.0


def test_surrogate_generalizes_to_held_out_graphs():
    """Trained on 150 synthetic graphs, the surrogate must classify at
    least 75% of the remaining 50 correctly."""
    cfg = SynthConfig(n=100, n_graphs=200, density=0.2, motif_spec=(6, 10),
                      rho=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), seed=0)
    dataset, _, _ = generate(cfg)
    train = LabeledDataset(100, dataset.graphs[:150], dataset.labels[:150])
    held_out = LabeledDataset(100, dataset.graphs[150:], dataset.labels[150:])
    bb = train_linear_surrogate(train)
    assert accuracy(bb, held_out) >= 0.75


def test_feature_matrix_matches_per_edge_reference():
    n = 9
    plain = random_graph(n, 0.4, philox(3))
    listed = plain.sorted_edges()
    graphs = [
        plain,
        Graph(n, plain.edges, {listed[0]: 0.25, listed[3]: 1.0}),
        Graph(n, plain.edges, {listed[1]: 0.0}),
        random_weighted_graph(n, 0.4, philox(4)),
        Graph(n, frozenset()),
    ]
    x = _feature_matrix(graphs, n)
    for row, g in zip(x, graphs):
        expected = np.zeros(n * (n - 1) // 2)
        for u, v in g.edges:
            expected[pair_index(u, v, n)] = g.weight((u, v))
        assert np.array_equal(row, expected)


def reference_score(bb: GroundTruthScorer, g: Graph) -> float:
    """The scorer's rule as a per-graph loop over Graph.weight: a motif's
    overlap is the fsum of its edge weights over its size, and the terms
    are summed in motif order."""
    raw = 0.0
    for m, u in zip(bb.motifs, bb.importances):
        overlap = math.fsum(g.weight(e) for e in m.edges) / len(m.edges)
        raw += (2.0 * overlap - 1.0) * (m.class_sign * u)
    return sigmoid(bb.beta * raw)


def test_scorer_without_motifs_scores_half():
    bb = GroundTruthScorer(5, [], [])
    graphs = [Graph(5, []), random_graph(5, 0.6, philox(1)), random_weighted_graph(5, 0.6, philox(2))]
    assert bb.evaluate_batch(graphs) == [0.5] * 3
    assert [bb.evaluate(g) for g in graphs] == [0.5] * 3


def test_scorer_answers_an_empty_batch_with_no_values():
    assert GroundTruthScorer(4, [TRIANGLE], [1.0]).evaluate_batch([]) == []
    assert GroundTruthScorer(4, [], []).evaluate_batch([]) == []


def test_scorer_counts_a_motif_of_more_than_255_edges():
    # an 8-bit count of the motif's 300 edges would wrap to 44
    n = 40
    big = random_connected_motif(0, n, 300, philox(5), class_sign=1)
    bb = GroundTruthScorer(n, [big], [0.8])
    edges = big.sorted_edges()
    full, most = Graph(n, edges), Graph(n, edges[:290])
    assert bb.evaluate(full) == sigmoid(2.0 * 0.8)
    assert bb.evaluate_batch([full, most]) == [reference_score(bb, full),
                                               reference_score(bb, most)]
    weighted = Graph(n, edges, {e: 0.5 for e in edges[:150]})
    assert bb.evaluate(weighted) == reference_score(bb, weighted) == sigmoid(2.0 * 0.8 * 0.5)


def test_scorer_batch_refuses_another_universe_before_scoring_any_graph(monkeypatch):
    import motifshap.blackbox

    bb = GroundTruthScorer(8, random_motif_set(8, 2, 3, philox(4)), [1.0, 0.5])
    scored = []
    monkeypatch.setattr(motifshap.blackbox, "sigmoid", lambda x: scored.append(x) or 0.5)
    good = [random_graph(8, 0.5, philox(s)) for s in range(3)]
    # a smaller universe packs into fewer bytes, a larger one into more
    for n in (7, 9, 30):
        with pytest.raises(UniverseMismatchError):
            bb.evaluate_batch(good + [random_graph(n, 0.5, philox(n))])
    assert scored == []


def test_scorer_over_two_nodes():
    bb = GroundTruthScorer(2, [Motif(0, frozenset({(0, 1)}), -1)], [1.5])
    graphs = [Graph(2, [(0, 1)]), Graph(2, []), Graph(2, [(0, 1)], {(0, 1): 0.25})]
    assert bb.evaluate_batch(graphs) == [sigmoid(-3.0), sigmoid(3.0), sigmoid(1.5)]
    assert [bb.evaluate(g) for g in graphs] == [sigmoid(-3.0), sigmoid(3.0), sigmoid(1.5)]


def test_scorer_batch_mixes_weighted_and_unweighted_graphs():
    n = 12
    rng = philox(31)
    bb = GroundTruthScorer(n, random_motif_set(n, 4, 5, rng), [0.4, 1.0, 0.0, 2.5], beta=1.5)
    graphs = [random_graph(n, 0.5, rng) if i % 3 else random_weighted_graph(n, 0.5, rng)
              for i in range(9)]
    assert bb.evaluate_batch(graphs) == [reference_score(bb, g) for g in graphs]
    assert bb.evaluate_batch(graphs[::-1]) == [reference_score(bb, g) for g in graphs[::-1]]


def test_evaluate_batch_matches_elementwise():
    bb = GroundTruthScorer(8, random_motif_set(8, 2, 2, philox(9)), [1.0, 0.5])
    graphs = [random_graph(8, 0.3, philox(s)) for s in range(8)]
    assert bb.evaluate_batch(graphs) == [bb.evaluate(g) for g in graphs]
    # seeded sweeps of weighted and unweighted graphs, masked and not,
    # against single calls and the reference loop
    for seed in range(12):
        rng = philox(2610 + seed)
        n = int(rng.integers(4, 41))
        count = int(rng.integers(1, 7))
        motifs = random_motif_set(n, count, int(rng.integers(1, min(12, n * (n - 1) // 2) + 1)), rng)
        importances = [float(x) for x in rng.random(count) * 2.0]
        bb = GroundTruthScorer(n, motifs, importances, beta=float(rng.uniform(0.5, 4.0)))
        background = LabeledDataset(n, tuple(random_graph(n, 0.4, rng) for _ in range(6)),
                                    (0, 1) * 3)
        graphs = [random_graph(n, float(rng.uniform(0.1, 0.9)), rng) for _ in range(4)]
        graphs += [random_weighted_graph(n, float(rng.uniform(0.1, 0.9)), rng) for _ in range(4)]
        for strategy in (MaskingStrategy.remove(), MaskingStrategy.toggle(),
                         MaskingStrategy.average(background)):
            graphs.append(strategy.mask(graphs[0], motifs[::2]))
            graphs.append(strategy.mask(graphs[4], motifs[1::2]))
        values = bb.evaluate_batch(graphs)
        assert values == [bb.evaluate(g) for g in graphs]
        assert values == [reference_score(bb, g) for g in graphs]
