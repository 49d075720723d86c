"""The benchmark's own checks: each accepts the program's true output on a
small instance and rejects a deliberately perturbed one, and the
independent Shapley reference agrees with the engine."""

import json
import os

import pytest

from motifshap import (
    Graph,
    GroundTruthScorer,
    InjectionRecord,
    MaskingStrategy,
    MinerConfig,
    RankerConfig,
    SynthConfig,
    approx_explain,
    cross_support,
    exact_explain,
    expected_scores,
    generate,
    mine,
    rank_and_select,
    sample_motifs,
    separability,
    train_linear_surrogate,
)

import reference as ref
from conftest import BENCH
from run import END_TO_END, PER_LAYER

N = 16
IMPORTANCE = (0.0, 0.5, 0.7, 1.0)


def nudged(values, i=1, by=1e-9):
    out = list(values)
    out[i] += by
    return out


@pytest.fixture(scope="module")
def tiny():
    """Four disjoint 3-edge motifs; g holds motifs 1 and 2, one edge of
    motif 3 and nothing of motif 0 (a dummy under both rules)."""
    motifs = sample_motifs(N, 4, 3, seed=5)
    m3 = sorted(motifs[3].edges)
    edges = set(motifs[1].edges) | set(motifs[2].edges) | {m3[0]}
    g = Graph(N, frozenset(edges))
    return g, motifs, GroundTruthScorer(N, motifs, IMPORTANCE)


@pytest.fixture(scope="module")
def trained():
    cfg = SynthConfig(n=N, n_graphs=20, density=0.3, motif_spec=(4, 3),
                      rho=(0.5,) * 4, seed=2)
    dataset, _, motifs = generate(cfg)
    return dataset, motifs, train_linear_surrogate(dataset)


def scorer_value(scorer, g, motifs, kind):
    motif_edges = [set(m.edges) for m in motifs]

    def value(masked):
        union = ref.union_of(motif_edges, masked)
        edges = set(g.edges) ^ union if kind == "toggle" else set(g.edges) - union
        return scorer.evaluate(Graph(N, frozenset(edges)))
    return value


def surrogate_value(model, g, dataset, motifs):
    freq = ref.edge_frequencies([set(h.edges) for h in dataset.graphs])
    coef = ref.pair_coefficients(N, model.weights)
    motif_edges = [set(m.edges) for m in motifs]

    def value(masked):
        weights = ref.average_masked(set(g.edges), ref.union_of(motif_edges, masked), freq)
        return ref.linear_model_value(weights, coef, model.bias)
    return value


@pytest.mark.parametrize("kind", ["toggle", "remove"])
def test_reference_at_full_depth_equals_exact_explain(tiny, kind):
    g, motifs, scorer = tiny
    ex = exact_explain(g, scorer, motifs, MaskingStrategy(kind))
    scores, valued = ref.shapley_reference(scorer_value(scorer, g, motifs, kind), 4, 4)
    assert valued == 16
    assert max(abs(a - b) for a, b in zip(scores, ex.scores)) <= ref.TOL


@pytest.mark.parametrize("depth", [2, 4])
def test_reference_matches_engine_on_average_masking(trained, depth):
    dataset, motifs, model = trained
    g = dataset.graphs[3]
    ex = approx_explain(g, model, motifs, MaskingStrategy.average(dataset), depth=depth)
    scores, valued = ref.shapley_reference(surrogate_value(model, g, dataset, motifs), 4, depth)
    assert valued == ex.query_count
    assert max(abs(a - b) for a, b in zip(scores, ex.scores)) <= ref.TOL


@pytest.mark.parametrize("kind", ["toggle", "remove"])
def test_check_exact_accepts_truth_and_rejects_perturbations(tiny, kind):
    g, motifs, scorer = tiny
    ex = exact_explain(g, scorer, motifs, MaskingStrategy(kind))
    motif_edges = [set(m.edges) for m in motifs]

    def value(edges):
        return scorer.evaluate(Graph(N, frozenset(edges)))

    def check(scores, queries):
        return ref.check_exact(scores, queries, kind, set(g.edges), motif_edges,
                               IMPORTANCE, value)

    assert check(ex.scores, ex.query_count) == []
    assert ex.query_count == (16 if kind == "toggle" else 8)
    assert check(nudged(ex.scores), ex.query_count)
    assert check(ex.scores, ex.query_count + 1)
    assert check(ex.scores, ex.query_count // 2)
    dummy = nudged(ex.scores, i=0, by=1e-9)
    dummy[1] -= 1e-9  # keeps the sum: only the dummy rule can catch it
    assert any("dummy" in e for e in check(dummy, ex.query_count))


def test_check_kernel_accepts_truth_and_rejects_perturbations(trained):
    dataset, motifs, model = trained
    g = dataset.graphs[0]
    ex = approx_explain(g, model, motifs, MaskingStrategy.average(dataset), depth=2)
    scores, _ = ref.shapley_reference(surrogate_value(model, g, dataset, motifs), 4, 2)
    want = 1 + 4 + 6
    assert ref.check_kernel(ex.scores, ex.query_count, want, 4, ex.scores, scores) == []
    assert ref.check_kernel(nudged(ex.scores), ex.query_count, want, 4, ex.scores, scores)
    assert ref.check_kernel(nudged(ex.scores), ex.query_count, want, 4, None, scores)
    assert ref.check_kernel(ex.scores, ex.query_count, want - 1, 4, None, None)
    assert ref.check_kernel(ex.scores, ex.query_count + 1, want, 4, None, None)


@pytest.fixture(scope="module")
def discovery():
    cfg = SynthConfig(n=24, n_graphs=40, density=0.1, motif_spec=(2, 4),
                      rho=(0.5, 1.0), seed=3)
    dataset, record, motifs = generate(cfg)
    graphs = [set(g.edges) for g in dataset.graphs]
    return dataset, record, motifs, graphs


def test_check_mined_rejects_dropped_and_bad_motifs(discovery):
    dataset, _, motifs, graphs = discovery
    mined = [m.edges for m in mine(dataset, MinerConfig(support_threshold=8, max_size=4))]
    planted = motifs[1].edges
    assert ref.check_mined(mined, graphs, 8, 2, 4, planted) == []
    in_planted = [i for i, es in enumerate(mined) if es <= planted]
    dropped = mined[:in_planted[0]] + mined[in_planted[0] + 1:]
    assert ref.check_mined(dropped, graphs, 8, 2, 4, planted)
    edges = sorted(set().union(*graphs))
    rare = next(frozenset((a, b)) for a in edges for b in edges
                if a < b and set(a) & set(b) and sum((a in g and b in g) for g in graphs) < 8)
    split = next(frozenset((edges[0], b)) for b in edges if not set(edges[0]) & set(b))
    assert ref.check_mined(mined + [rare], graphs, 8, 2, 4, planted)
    assert ref.check_mined(mined + [split], graphs, 8, 2, 4, planted)
    assert ref.check_mined(mined + [mined[0]], graphs, 8, 2, 4, planted)


def test_check_selected_rejects_perturbations(discovery):
    dataset, _, _, graphs = discovery
    motifs = mine(dataset, MinerConfig(support_threshold=8, max_size=4))
    cfg = RankerConfig(dt=0.5, st=3, k=3)
    chosen = rank_and_select(motifs, dataset, cfg)
    selected = [(m.edges, cross_support(m, dataset)) for m in chosen]
    labels = list(dataset.labels)
    assert ref.check_selected(selected, graphs, labels, 0.5, 3, 3) == []
    bad = [(selected[0][0], selected[0][1] + 1e-9)] + selected[1:]
    assert ref.check_selected(bad, graphs, labels, 0.5, 3, 3)
    assert ref.check_selected(selected, graphs, labels, 0.5, 3, len(selected) - 1)
    assert ref.check_selected(selected + [selected[0]], graphs, labels, 0.5, 3, 10)


def test_check_separability_rejects_perturbations(discovery):
    dataset, _, _, graphs = discovery
    rep = separability(dataset)
    doc = {"ks_statistic": rep.ks_statistic, "n_intra": rep.n_intra, "n_inter": rep.n_inter}
    labels = list(dataset.labels)
    assert (rep.n_intra, rep.n_inter) == (380, 400)
    assert ref.check_separability(doc, graphs, labels) == []
    assert ref.check_separability(dict(doc, ks_statistic=rep.ks_statistic + 1e-9), graphs, labels)
    assert ref.check_separability(dict(doc, n_intra=rep.n_intra - 1), graphs, labels)


def test_check_expected_rejects_perturbations(discovery):
    dataset, record, motifs, _ = discovery
    rho = (0.5, 1.0)
    table = expected_scores(InjectionRecord(dataset.injections), motifs, rho)
    matrix = [list(row) for row in table.matrix]
    classes = [1 if m.class_sign == 1 else 0 for m in motifs]
    assert ref.check_expected(matrix, record.matrix, classes, rho) == []
    hit = next(i for i, row in enumerate(matrix) if row[1] != 0.0)
    matrix[hit][1] += 1e-9
    assert ref.check_expected(matrix, record.matrix, classes, rho)


def test_benchmark_json_lists_the_metrics_the_runner_prints():
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json"), encoding="utf-8") as fh:
        doc = json.load(fh)
    assert {m["name"]: m["unit"] for m in doc["end_to_end"]} == END_TO_END
    assert {m["name"]: m["unit"] for m in doc["per_layer"]} == PER_LAYER
