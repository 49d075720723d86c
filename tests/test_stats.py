import math

import numpy as np
import pytest
import scipy.special
import scipy.stats

from motifshap import (
    Explanation,
    Graph,
    GroundTruthScorer,
    InjectionRecord,
    LabeledDataset,
    MaskingStrategy,
    Motif,
    ParameterError,
    SynthConfig,
    UndefinedCorrelationError,
    exact_explain,
    expected_scores,
    generate,
    global_ranking,
    ks_2sample,
    pearson,
    separability,
    spearman,
)
from motifshap.stats import kolmogorov_sf

from conftest import philox


def test_kolmogorov_sf_against_scipy():
    for lam in (0.01, 0.3, 0.5, 0.8, 1.0, 1.36, 2.0, 3.0):
        assert kolmogorov_sf(lam) == pytest.approx(
            float(scipy.special.kolmogorov(lam)), abs=1e-12)
    assert kolmogorov_sf(0.0) == 1.0
    assert kolmogorov_sf(-1.0) == 1.0
    assert kolmogorov_sf(10.0) == pytest.approx(0.0, abs=1e-12)


def test_ks_statistic_against_scipy():
    for seed in range(20):
        rng = philox(seed)
        x = list(rng.normal(0, 1, int(rng.integers(5, 40))))
        y = list(rng.normal(0.3, 1.2, int(rng.integers(5, 40))))
        d, _ = ks_2sample(x, y)
        ref = scipy.stats.ks_2samp(x, y, method="asymp")
        assert d == pytest.approx(float(ref.statistic), abs=1e-12)


def test_ks_statistic_with_ties():
    x = [0.0, 0.0, 1.0, 1.0]
    y = [0.0, 1.0, 1.0, 1.0]
    d, _ = ks_2sample(x, y)
    ref = scipy.stats.ks_2samp(x, y, method="asymp")
    assert d == pytest.approx(float(ref.statistic), abs=1e-12)


def test_ks_identical_and_disjoint_samples():
    d, p = ks_2sample([1.0, 2.0, 3.0], [1.0, 2.0, 3.0])
    assert d == 0.0
    assert p == 1.0
    d, p = ks_2sample([0.0] * 20, [1.0] * 20)
    assert d == 1.0
    assert p < 1e-4


def test_ks_needs_nonempty_samples():
    with pytest.raises(ParameterError):
        ks_2sample([], [1.0])


def test_ks_p_value_formula_pinned():
    # p must equal Q((sqrt(ne) + 0.12 + 0.11/sqrt(ne)) * D)
    x = [0.1, 0.4, 0.45, 0.7]
    y = [0.2, 0.5, 0.8, 0.9, 0.95]
    d, p = ks_2sample(x, y)
    ne = 4 * 5 / 9
    lam = (math.sqrt(ne) + 0.12 + 0.11 / math.sqrt(ne)) * d
    assert p == pytest.approx(kolmogorov_sf(lam), abs=1e-15)


def test_ks_invariant_under_monotone_transform():
    for seed in range(10):
        rng = philox(500 + seed)
        x = list(rng.random(25))
        y = list(rng.random(30) ** 2)
        d1, _ = ks_2sample(x, y)
        f = lambda t: t ** 3 + 2.0  # strictly increasing
        d2, _ = ks_2sample([f(v) for v in x], [f(v) for v in y])
        assert d1 == pytest.approx(d2, abs=1e-12)


def _two_class_dataset(class0, class1, n=6):
    graphs = tuple(Graph(n, e) for e in class0 + class1)
    labels = tuple([0] * len(class0) + [1] * len(class1))
    return LabeledDataset(n, graphs, labels)


def test_separability_all_identical_graphs():
    shapes = [[(0, 1), (1, 2)]] * 3
    report = separability(_two_class_dataset(shapes, shapes))
    assert report.ks_statistic == 0.0
    assert report.p_value == 1.0
    assert report.n_intra == 6   # 3 pairs within each class
    assert report.n_inter == 9


def test_separability_duplicated_classes_not_separable():
    # class 1 graphs are copies of class 0 graphs: beyond the diagonal
    # zero distances the two distributions coincide, so D stays small
    # and the test cannot reject
    rng = philox(77)
    shapes = []
    pool = [(u, v) for u in range(6) for v in range(u + 1, 6)]
    for _ in range(12):
        shapes.append([e for e in pool if rng.random() < 0.5])
    d = _two_class_dataset(shapes, shapes)
    report = separability(d)
    assert report.ks_statistic <= 0.12
    assert report.p_value > 0.5


def test_separability_fully_separated_classes():
    a = [[(0, 1), (1, 2)]] * 3
    b = [[(3, 4), (4, 5)]] * 3
    report = separability(_two_class_dataset(a, b))
    # intra distances all 0, inter all 1
    assert report.ks_statistic == 1.0


def test_separability_needs_two_graphs_per_class():
    d = _two_class_dataset([[(0, 1)]], [[(1, 2)], [(2, 3)]])
    with pytest.raises(ParameterError):
        separability(d)


def test_separability_subsampling_is_seeded():
    rng = philox(42)
    class0 = [[e for e in [(0, 1), (1, 2), (2, 3), (3, 4)] if rng.random() < 0.6]
              for _ in range(8)]
    class1 = [[e for e in [(0, 2), (1, 3), (2, 4), (0, 4)] if rng.random() < 0.6]
              for _ in range(8)]
    d = _two_class_dataset(class0, class1)
    r1 = separability(d, max_pairs=20, seed=5)
    r2 = separability(d, max_pairs=20, seed=5)
    assert r1 == r2
    assert r1.n_intra == 20 and r1.n_inter == 20
    with pytest.raises(ParameterError):
        separability(d, max_pairs=0)
    for max_pairs in (None, 20):
        with pytest.raises(ParameterError, match="seed"):
            separability(d, max_pairs=max_pairs, seed=-1)


def test_separability_max_pairs_must_be_an_integer():
    d = _two_class_dataset([[(0, 1)], [(1, 2)], [(0, 2)]], [[(2, 3)], [(3, 4)], [(2, 4)]])
    for bad in (True, False, 1.5, 3.0, "3"):
        with pytest.raises(ParameterError, match="max_pairs must be an integer"):
            separability(d, max_pairs=bad)
    assert separability(d, max_pairs=np.int64(2)) == separability(d, max_pairs=2)


def _motifs_with_signs():
    return [Motif(0, frozenset({(0, 1)}), -1), Motif(1, frozenset({(1, 2)}), 1)]


def test_expected_scores_products():
    inj = InjectionRecord(((0, 1), (-1, 0), (1, -1)))
    table = expected_scores(inj, _motifs_with_signs(), (0.4, 0.6))
    assert table.matrix == (
        (0.0, 0.6),
        (0.4, 0.0),      # removal of a class-0 motif: (-1) * (-1) * 0.4
        (-0.4, -0.6),
    )
    assert table.flatten() == [0.0, 0.6, 0.4, 0.0, -0.4, -0.6]
    for row, inj_row in zip(table.matrix, inj.matrix):
        for value, mark in zip(row, inj_row):
            assert -1.0 <= value <= 1.0
            assert (value == 0.0) == (mark == 0)


def test_expected_scores_validation():
    inj = InjectionRecord(((0, 1),))
    with pytest.raises(ParameterError):
        expected_scores(inj, _motifs_with_signs(), (0.4,))
    with pytest.raises(ParameterError):
        expected_scores(inj, [Motif(0, frozenset({(0, 1)}))] * 2, (0.4, 0.6))


def test_pearson_examples():
    x = [1.0, 2.0, 3.0, 4.0]
    assert pearson(x, [2 * v + 1 for v in x]) == pytest.approx(1.0)
    assert pearson(x, [-v for v in x]) == pytest.approx(-1.0)
    assert pearson(x, [1.0, 3.0, 2.0, 4.0]) == pytest.approx(0.8)


def test_pearson_against_scipy():
    for seed in range(20):
        rng = philox(700 + seed)
        n = int(rng.integers(3, 50))
        x = list(rng.normal(0, 1, n))
        y = list(0.5 * np.array(x) + rng.normal(0, 1, n))
        assert pearson(x, y) == pytest.approx(
            float(scipy.stats.pearsonr(x, y).statistic), abs=1e-12)


def test_pearson_errors():
    with pytest.raises(UndefinedCorrelationError):
        pearson([1.0, 1.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ParameterError):
        pearson([1.0], [1.0])
    with pytest.raises(ParameterError):
        pearson([1.0, 2.0], [1.0])


def test_spearman_examples():
    x = [1.0, 2.0, 3.0]
    assert spearman(x, [math.exp(v) for v in x]) == pytest.approx(1.0)
    assert spearman(x, list(reversed(x))) == pytest.approx(-1.0)
    assert spearman(x, [1.0, 3.0, 2.0]) == pytest.approx(0.5)


def test_spearman_with_ties_against_scipy():
    for seed in range(20):
        rng = philox(800 + seed)
        n = int(rng.integers(4, 40))
        # quantize to force ties
        x = [round(float(v), 1) for v in rng.normal(0, 1, n)]
        y = [round(float(v), 1) for v in rng.normal(0, 1, n)]
        if len(set(x)) < 2 or len(set(y)) < 2:
            continue
        assert spearman(x, y) == pytest.approx(
            float(scipy.stats.spearmanr(x, y).statistic), abs=1e-12)


def test_spearman_invariant_under_increasing_transform():
    for seed in range(10):
        rng = philox(900 + seed)
        x = list(rng.random(20))
        y = list(rng.random(20))
        f = lambda t: 3.0 * t ** 3 + t
        assert spearman(x, y) == pytest.approx(
            spearman([f(v) for v in x], y), abs=1e-12)


def _explanation(graph_id, scores, ids=(0, 1)):
    return Explanation(graph_id, tuple(ids), tuple(scores),
                       "toggle", "classic", "exact", 4)


def test_global_ranking_single_explanation():
    ex = _explanation(0, (0.3, -0.5))
    assert global_ranking([ex]) == [(1, 0.5), (0, 0.3)]


def test_global_ranking_mean_absolute():
    ranking = global_ranking([
        _explanation(0, (0.2, 0.1)),
        _explanation(1, (-0.4, 0.1)),
        _explanation(2, (0.0, 0.1)),
    ])
    assert ranking == [(0, pytest.approx(0.2)), (1, pytest.approx(0.1))]


def test_global_ranking_tie_breaks_by_motif_id():
    ranking = global_ranking([_explanation(0, (0.1, -0.1), ids=(5, 2))])
    assert ranking == [(2, pytest.approx(0.1)), (5, pytest.approx(0.1))]


def test_global_ranking_validation():
    with pytest.raises(ParameterError):
        global_ranking([])
    with pytest.raises(ParameterError):
        global_ranking([_explanation(0, (0.1, 0.2), ids=(0, 1)),
                        _explanation(1, (0.1, 0.2), ids=(0, 2))])


def test_expected_scores_rank_correlate_with_exact_scores():
    """On a synthetic dataset the injection-derived expected scores and
    the exact scores of the matching ground-truth scorer must agree in
    rank (flattened over graphs and motifs) at 0.8 or better."""
    rho = (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)
    cfg = SynthConfig(n=100, n_graphs=60, density=0.2, motif_spec=(6, 10),
                      rho=rho, seed=5)
    dataset, record, motifs = generate(cfg)
    bb = GroundTruthScorer(100, motifs, importances=rho, beta=1.0)
    strategy = MaskingStrategy.toggle()
    table = expected_scores(record, motifs, rho)
    xi, flat = [], []
    for j, g in enumerate(dataset.graphs):
        xi.extend(exact_explain(g, bb, motifs, strategy).scores)
        flat.extend(table.matrix[j])
    assert spearman(xi, flat) >= 0.8
