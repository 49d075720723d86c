import itertools
import math

import numpy as np
import pytest

from motifshap import engine
from motifshap.wire import _request_line
from motifshap import (
    ConfigurationError,
    Graph,
    GroundTruthScorer,
    LabeledDataset,
    LatticeTooLargeError,
    LinearSurrogate,
    MaskingStrategy,
    Motif,
    ParameterError,
    UniverseMismatchError,
    WeightingScheme,
    approx_explain,
    exact_explain,
    explain_depths,
    query_budget,
)

from conftest import (
    philox,
    random_graph,
    random_motif_set,
    random_weighted_graph,
    scan_support,
)



class CountingScorer(GroundTruthScorer):
    """GroundTruthScorer that counts the graphs it scores, single calls
    included, since evaluate goes through evaluate_batch."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.calls = 0

    def evaluate_batch(self, graphs):
        self.calls += len(graphs)
        return super().evaluate_batch(graphs)


def small_oracle(g, bb, motifs, strategy):
    """Permutation-definition Shapley values: average marginal
    contribution of un-masking each motif over all |M|! orderings.
    Independent of the lattice engine's summation."""
    m = len(motifs)
    full = (1 << m) - 1
    cache = {}

    def value(unmasked_bits):
        # game value: black box on the graph with the complement masked
        masked_bits = full & ~unmasked_bits
        if masked_bits not in cache:
            subset = [motifs[i] for i in range(m) if masked_bits >> i & 1]
            cache[masked_bits] = bb.evaluate(strategy.mask(g, subset))
        return cache[masked_bits]

    totals = [0.0] * m
    for order in itertools.permutations(range(m)):
        unmasked = 0
        prev = value(0)
        for i in order:
            unmasked |= 1 << i
            nxt = value(unmasked)
            totals[i] += nxt - prev
            prev = nxt
    return [t / math.factorial(m) for t in totals]


def test_classic_weights_sum_to_one_over_coalitions():
    for m in range(1, 9):
        w = WeightingScheme.classic()
        total = sum(math.comb(m - 1, s) * w.weight(s, m) for s in range(m))
        assert total == pytest.approx(1.0, abs=1e-12)


def test_classic_weight_symmetry():
    w = WeightingScheme.classic()
    for m in range(2, 9):
        for s in range(m):
            assert w.weight(s, m) == pytest.approx(w.weight(m - 1 - s, m))


def test_paper_inverse_weights():
    w = WeightingScheme.paper_inverse()
    # m = 3: 1/((m+1) * C(m+1, s))
    assert w.weight(0, 3) == pytest.approx(1 / 4)
    assert w.weight(1, 3) == pytest.approx(1 / 16)
    assert w.weight(2, 3) == pytest.approx(1 / 24)


def test_paper_direct_weights():
    w = WeightingScheme.paper_direct()
    assert w.weight(0, 3) == 1.0
    assert w.weight(1, 3) == 4.0
    assert w.weight(2, 3) == 6.0


def test_weighting_validation():
    with pytest.raises(ConfigurationError):
        WeightingScheme("other")
    with pytest.raises(ParameterError):
        WeightingScheme.classic().weight(3, 3)


def test_query_budget_examples():
    assert query_budget(8, "exact") == 256
    assert query_budget(8, 1) == 9
    assert query_budget(5, 2) == 16
    assert query_budget(4, 4) == 16
    assert query_budget(4, 7) == 16  # depth capped at |M|
    with pytest.raises(ParameterError, match="motif count"):
        query_budget(-1, 1)
    with pytest.raises(ParameterError, match="depth"):
        query_budget(3, -1)
    # check_request refuses these depths, and so does the budget
    for bad in (1.5, True, "2"):
        with pytest.raises(ParameterError, match="depth must be an integer"):
            query_budget(6, bad)
        with pytest.raises(ParameterError, match="motif count must be an integer"):
            query_budget(bad, "exact")
    # a numpy count is read as a Python int, which does not wrap
    assert query_budget(np.int64(70), "exact") == 2 ** 70


def _instance(seed, n=12, n_motifs=3, motif_edges=3):
    rng = philox(seed)
    g = random_graph(n, 0.3, rng)
    motifs = random_motif_set(n, n_motifs, motif_edges, rng)
    u = [float(x) for x in rng.uniform(0.2, 1.0, n_motifs)]
    bb = GroundTruthScorer(n, motifs, u)
    return g, bb, motifs


def test_single_motif_score_is_masking_gap():
    g, bb, motifs = _instance(5, n_motifs=1)
    strat = MaskingStrategy.toggle()
    ex = exact_explain(g, bb, motifs[:1], strat)
    gap = bb.evaluate(g) - bb.evaluate(strat.mask(g, motifs[:1]))
    assert ex.scores[0] == pytest.approx(gap, abs=1e-15)


def test_dummy_motif_gets_exactly_zero():
    # black box only reads motif 0's edges; motifs 1 and 2 are dummies
    motifs = [
        Motif(0, frozenset({(0, 1), (1, 2), (2, 3)}), 1),
        Motif(1, frozenset({(4, 5), (5, 6)}), -1),
        Motif(2, frozenset({(8, 9), (9, 10)}), 1),
    ]
    bb = GroundTruthScorer(12, motifs[:1], [0.8])
    g = random_graph(12, 0.4, philox(12))
    ex = exact_explain(g, bb, motifs, MaskingStrategy.remove())
    assert ex.scores[1] == 0.0
    assert ex.scores[2] == 0.0
    assert ex.scores[0] != 0.0


def test_symmetric_motifs_get_equal_scores():
    # two structurally identical, disjoint motifs with equal importances
    m0 = Motif(0, frozenset({(0, 1), (1, 2)}), 1)
    m1 = Motif(1, frozenset({(3, 4), (4, 5)}), 1)
    bb = GroundTruthScorer(6, [m0, m1], [0.6, 0.6])
    g = Graph(6, [(0, 1), (1, 2), (3, 4), (4, 5)])
    ex = exact_explain(g, bb, [m0, m1], MaskingStrategy.remove())
    assert ex.scores[0] == pytest.approx(ex.scores[1], abs=1e-9)


def test_exact_matches_permutation_oracle():
    for seed in range(15):
        for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
            g, bb, motifs = _instance(100 + seed)
            ex = exact_explain(g, bb, motifs, strat)
            oracle = small_oracle(g, bb, motifs, strat)
            for got, want in zip(ex.scores, oracle):
                assert got == pytest.approx(want, abs=1e-9)


def test_efficiency_and_range_all_strategies():
    from motifshap import LabeledDataset

    for seed in range(10):
        rng = philox(200 + seed)
        g, bb, motifs = _instance(300 + seed)
        background = LabeledDataset(
            12, tuple(random_graph(12, 0.3, rng) for _ in range(6)),
            (0, 1, 0, 1, 0, 1))
        strategies = [MaskingStrategy.remove(), MaskingStrategy.toggle(),
                      MaskingStrategy.average(background)]
        for strat in strategies:
            ex = exact_explain(g, bb, motifs, strat)
            total = sum(ex.scores)
            gap = bb.evaluate(strat.mask(g, [])) - bb.evaluate(strat.mask(g, motifs))
            assert total == pytest.approx(gap, abs=1e-9)
            assert abs(total) <= 1.0 + 1e-12
            assert all(abs(x) <= 1.0 + 1e-12 for x in ex.scores)


def test_efficiency_holds_for_surrogate_blackbox():
    rng = philox(77)
    weights = rng.normal(0, 1, 12 * 11 // 2)
    bb = LinearSurrogate(12, weights, float(rng.normal()))
    g = random_graph(12, 0.4, philox(78))
    motifs = random_motif_set(12, 3, 3, philox(79))
    strat = MaskingStrategy.toggle()
    ex = exact_explain(g, bb, motifs, strat)
    gap = bb.evaluate(g) - bb.evaluate(strat.mask(g, motifs))
    assert sum(ex.scores) == pytest.approx(gap, abs=1e-9)


def test_depth_one_classic_closed_form():
    g, bb, motifs = _instance(31, n_motifs=4)
    strat = MaskingStrategy.toggle()
    ex = approx_explain(g, bb, motifs, strat, depth=1)
    m = len(motifs)
    b_full = bb.evaluate(strat.mask(g, motifs))
    for i, motif in enumerate(motifs):
        others = [x for j, x in enumerate(motifs) if j != i]
        want = (bb.evaluate(strat.mask(g, others)) - b_full) / m
        assert ex.scores[i] == pytest.approx(want, abs=1e-12)


def test_full_depth_reproduces_exact_bit_for_bit():
    for seed in range(8):
        g, bb, motifs = _instance(400 + seed, n_motifs=4)
        for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
            exact = exact_explain(g, bb, motifs, strat)
            approx = approx_explain(g, bb, motifs, strat, depth=len(motifs))
            assert approx.scores == exact.scores


def test_depth_bounds_enforced():
    g, bb, motifs = _instance(50)
    strat = MaskingStrategy.remove()
    with pytest.raises(ParameterError):
        approx_explain(g, bb, motifs, strat, depth=0)
    with pytest.raises(ParameterError):
        approx_explain(g, bb, motifs, strat, depth=4)


def test_engine_input_validation():
    g, bb, motifs = _instance(51)
    strat = MaskingStrategy.remove()
    with pytest.raises(ParameterError):
        exact_explain(g, bb, [], strat)
    dup = [motifs[0], Motif(motifs[0].id, motifs[1].edges)]
    with pytest.raises(ParameterError):
        exact_explain(g, bb, dup, strat)
    far = Motif(99, frozenset({(20, 21)}))
    with pytest.raises(UniverseMismatchError):
        exact_explain(g, bb, list(motifs) + [far], strat)


def test_exact_limit_guardrail():
    n = 50
    motifs = [Motif(i, frozenset({(2 * i, 2 * i + 1)}), 1) for i in range(21)]
    bb = GroundTruthScorer(n, motifs, [1.0] * 21)
    g = random_graph(n, 0.2, philox(8))
    with pytest.raises(LatticeTooLargeError):
        exact_explain(g, bb, motifs, MaskingStrategy.remove())
    # raising the limit lifts the guardrail (do not run it: too big);
    # a lower limit tightens it
    with pytest.raises(LatticeTooLargeError):
        exact_explain(g, bb, motifs[:5], MaskingStrategy.remove(), exact_limit=4)


def test_every_entry_point_refuses_a_bad_request_before_its_first_query():
    g, scorer, motifs = _instance(52)
    bb = CountingScorer(g.n, motifs, scorer.importances)
    strat = MaskingStrategy.remove()
    dup = [motifs[0], Motif(motifs[0].id, motifs[1].edges)]
    far = list(motifs) + [Motif(99, frozenset({(20, 21)}))]
    for bad, error in [([], ParameterError), (dup, ParameterError),
                       (far, UniverseMismatchError)]:
        with pytest.raises(error):
            engine.check_request(g.n, bad)
        with pytest.raises(error):
            exact_explain(g, bb, bad, strat)
        with pytest.raises(error):
            approx_explain(g, bb, bad, strat, depth=1)
        with pytest.raises(error):
            explain_depths(g, bb, bad, strat, depths=[1])
    for depth in (0, 4):
        with pytest.raises(ParameterError, match=rf"depth must be in \[1, 3\], got {depth}"):
            explain_depths(g, bb, motifs, strat, depths=[1, depth])
    for depth in (1.5, True, 2.0, "2"):
        with pytest.raises(ParameterError, match="depth must be an integer"):
            engine.check_request(g.n, motifs, [depth])
        with pytest.raises(ParameterError, match="depth must be an integer"):
            approx_explain(g, bb, motifs, strat, depth=depth)
        with pytest.raises(ParameterError, match="depth must be an integer"):
            explain_depths(g, bb, motifs, strat, depths=[depth, 1])
    for limit in (3.0, True, "3"):
        with pytest.raises(ParameterError, match="exact limit must be an integer"):
            exact_explain(g, bb, motifs, strat, exact_limit=limit)
    with pytest.raises(LatticeTooLargeError):
        explain_depths(g, bb, motifs, strat, depths=[1], exact_limit=2)
    assert engine.check_request(g.n, motifs, [1, np.int64(3)], exact_limit=3) == [1, 3]
    assert bb.calls == 0


def test_a_numpy_depth_is_recorded_as_an_int():
    g, bb, motifs = _instance(53)
    strat = MaskingStrategy.toggle()
    ex = approx_explain(g, bb, motifs, strat, depth=np.int64(2))
    assert type(ex.depth) is int and ex == approx_explain(g, bb, motifs, strat, depth=2)
    _, by_depth = explain_depths(g, bb, motifs, strat, depths=[np.int64(1)])
    assert [type(d) for d in by_depth] == [int] and type(by_depth[1].depth) is int


def test_query_counts_match_budget_with_distinct_coalitions():
    # node-disjoint motifs + toggle => every coalition graph distinct
    n = 20
    motifs = [Motif(i, frozenset({(2 * i, 2 * i + 1)}), 1 if i % 2 else -1)
              for i in range(6)]
    g = random_graph(n, 0.3, philox(90))
    strat = MaskingStrategy.toggle()
    bb = CountingScorer(n, motifs, [0.5] * 6)
    exact_explain(g, bb, motifs, strat)
    assert bb.calls == query_budget(6, "exact") == 64
    for depth in (1, 2, 3):
        bb.calls = 0
        approx_explain(g, bb, motifs, strat, depth=depth)
        assert bb.calls == query_budget(6, depth)


def test_duplicate_coalition_graphs_are_merged():
    # remove masking with motifs entirely absent from g: every coalition
    # graph is g itself, so one black-box call suffices
    n = 10
    g = Graph(n, [(8, 9)])
    motifs = [Motif(i, frozenset({(2 * i, 2 * i + 1)}), 1) for i in range(3)]
    bb = CountingScorer(n, motifs, [1.0] * 3)
    ex = exact_explain(g, bb, motifs, MaskingStrategy.remove())
    assert bb.calls == 1
    assert ex.query_count == 1
    assert all(x == 0.0 for x in ex.scores)


def test_normalized_approx_sums_to_exact_gap():
    g, bb, motifs = _instance(61, n_motifs=5)
    strat = MaskingStrategy.toggle()
    ex = approx_explain(g, bb, motifs, strat, depth=2, normalize=True)
    gap = bb.evaluate(strat.mask(g, [])) - bb.evaluate(strat.mask(g, motifs))
    assert sum(ex.scores) == pytest.approx(gap, abs=1e-9)
    # one extra query for the unmasked coalition
    assert ex.query_count == query_budget(5, 2) + 1


def test_explanation_metadata():
    g, bb, motifs = _instance(81)
    ex = exact_explain(g, bb, motifs, MaskingStrategy.remove(), graph_id=7)
    assert ex.graph_id == 7
    assert ex.depth == "exact"
    assert ex.strategy == "remove"
    assert ex.weighting == "classic"
    assert ex.motif_ids == tuple(m.id for m in motifs)
    assert ex.by_motif() == dict(zip(ex.motif_ids, ex.scores))
    ap = approx_explain(g, bb, motifs, MaskingStrategy.remove(), depth=2)
    assert ap.depth == 2


def reference_explain(g, bb, motifs, kind, background, weighting, depth, normalize):
    """The engine spelled out without its shortcuts: every masked graph is
    built by the validating Graph constructor, duplicates are merged by
    (edge set, sorted weights), and each score is one fsum over the terms
    in coalition order. Returns (scores, query_count)."""
    m = len(motifs)

    def masked(subset):
        union = set().union(*(mot.edges for mot in subset))
        if kind == "remove":
            return Graph(g.n, g.edges - union)
        if kind == "toggle":
            return Graph(g.n, g.edges ^ union)
        edges = set(g.edges) | union
        weights = {e: scan_support(background, [e]) / len(background) if e in union
                   else g.weight(e)
                   for e in edges}
        return Graph(g.n, frozenset(edges), weights)

    masks = [mask for mask in range(1 << m) if mask.bit_count() >= m - depth]
    by_key, values = {}, {}
    for mask in masks:
        h = masked([motifs[i] for i in range(m) if mask >> i & 1])
        key = (h.edges, None if h.weights is None else tuple(sorted(h.weights.items())))
        if key not in by_key:
            by_key[key] = bb.evaluate(h)
        values[mask] = by_key[key]
    query_count = len(by_key)
    scores = []
    for i in range(m):
        bit = 1 << i
        terms = [weighting.weight(mask.bit_count(), m) * (values[mask] - values[mask | bit])
                 for mask in masks if not mask & bit]
        scores.append(math.fsum(terms))
    if normalize and depth < m:
        gap = bb.evaluate(masked([])) - values[(1 << m) - 1]
        query_count += 1
        total = math.fsum(scores)
        if total != 0.0:
            scores = [x * gap / total for x in scores]
    return tuple(scores), query_count


def test_engine_is_bit_identical_to_reference(monkeypatch):
    # small batches, so most lattices cross several batch boundaries
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    n, m = 12, 4
    rng = philox(500)
    motifs = random_motif_set(n, m, 3, rng)
    scorer = GroundTruthScorer(n, motifs, [0.9, 0.2, 0.6, 0.4])
    surrogate = LinearSurrogate(n, rng.normal(0, 1, n * (n - 1) // 2), 0.1)
    background = LabeledDataset(
        n, tuple(random_graph(n, 0.3, rng) for _ in range(5)), (0, 1, 0, 1, 0))
    plain = random_graph(n, 0.4, rng)
    # motif 0 absent from this graph: remove merges coalitions that
    # differ only in motif 0
    sparse = Graph(n, plain.edges - motifs[0].edges)
    graphs = [plain, sparse, random_weighted_graph(n, 0.4, rng)]
    weightings = [WeightingScheme.classic(), WeightingScheme.paper_inverse(),
                  WeightingScheme.paper_direct()]
    strategies = [MaskingStrategy.remove(), MaskingStrategy.toggle(),
                  MaskingStrategy.average(background)]
    merged = False
    for g, bb, strat, w in itertools.product(graphs, (scorer, surrogate),
                                             strategies, weightings):
        bg = strat.background
        ex = exact_explain(g, bb, motifs, strat, w)
        want = reference_explain(g, bb, motifs, strat.kind, bg, w, m, False)
        assert (ex.scores, ex.query_count) == want
        merged |= ex.query_count < 2 ** m
        for depth, normalize in itertools.product(range(1, m + 1), (False, True)):
            ap = approx_explain(g, bb, motifs, strat, w, depth=depth, normalize=normalize)
            want = reference_explain(g, bb, motifs, strat.kind, bg, w, depth, normalize)
            assert (ap.scores, ap.query_count) == want
    assert merged


def assert_matches_reference(g, bb, motifs, strat):
    """Every weighting, exact and at every depth with and without
    normalize, equals reference_explain in scores and query count."""
    m = len(motifs)
    for w in (WeightingScheme.classic(), WeightingScheme.paper_inverse(),
              WeightingScheme.paper_direct()):
        ex = exact_explain(g, bb, motifs, strat, w)
        want = reference_explain(g, bb, motifs, strat.kind, strat.background, w, m, False)
        assert (ex.scores, ex.query_count) == want
        for depth, normalize in itertools.product(range(1, m + 1), (False, True)):
            ap = approx_explain(g, bb, motifs, strat, w, depth=depth, normalize=normalize)
            want = reference_explain(g, bb, motifs, strat.kind, strat.background, w,
                                     depth, normalize)
            assert (ap.scores, ap.query_count) == want


# Background over 8 nodes with edge frequencies (0, 1): 0.5, (1, 2): 0.25,
# (2, 3): 1.0, (5, 6): 0.75, and (4, 5), (6, 7): 0.0.
KEY_BACKGROUND = LabeledDataset(8, (
    Graph(8, [(0, 1), (1, 2), (2, 3), (5, 6)]),
    Graph(8, [(0, 1), (2, 3), (5, 6)]),
    Graph(8, [(2, 3), (5, 6), (3, 4)]),
    Graph(8, [(2, 3)]),
), (0, 1, 0, 1))


def _key_blackboxes(motifs):
    """The scorer, which reads only motif edges, and a surrogate, which
    reads the weight of every node pair."""
    n = 8
    signed = [Motif(mot.id, mot.edges, 1 if i % 2 else -1) for i, mot in enumerate(motifs)]
    scorer = GroundTruthScorer(n, signed, [(0.9, 0.3, 0.6, 0.45, 0.8)[i % 5]
                                           for i in range(len(motifs))])
    rng = philox(700)
    surrogate = LinearSurrogate(n, rng.normal(0, 1, n * (n - 1) // 2), -0.2)
    return scorer, surrogate


def _three_chunk_instance():
    """9 overlapping 2-edge motifs over KEY_BACKGROUND's 8 nodes, so the
    lattice spans three chunks of masking.CHUNK motifs (4 + 4 + 1), and a
    graph whose edges weigh 1.0 or a quarter, which meets the background
    frequencies on some edges."""
    rng = philox(800)
    motifs = random_motif_set(8, 9, 2, rng)
    plain = random_graph(8, 0.5, rng)
    quarters = (0.0, 0.25, 0.5, 0.75, 1.0)
    picks = rng.integers(0, len(quarters), len(plain.edges)).tolist()
    g = Graph(8, plain.edges, {e: quarters[i] for e, i in zip(plain.sorted_edges(), picks)})
    return g, motifs


def test_three_chunks_of_overlapping_motifs_match_the_reference(monkeypatch):
    # every depth below 9 starts its masks mid-block, at 2^(9 - depth) - 1;
    # the surrogate reads every node pair, so a wrong graph shows in its
    # value. average's graphs at this instance are compared one by one in
    # test_blackbox_sees_the_references_first_occurrence_sequence
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    g, motifs = _three_chunk_instance()
    _, surrogate = _key_blackboxes(motifs)
    for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
        assert_matches_reference(g, surrogate, motifs, strat)
        assert exact_explain(g, surrogate, motifs, strat).query_count < 2 ** len(motifs)


def test_average_merges_coalitions_only_where_weights_equal_frequencies(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    # motif 0's edge (0, 1) and motif 1's (2, 3) weigh exactly their
    # background frequency in g, so masking them changes nothing; (4, 5) is
    # absent from g at frequency 0.0, and masking makes it present at 0.0
    g = Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
              {(0, 1): 0.5, (1, 2): 0.7, (3, 4): 0.9, (5, 6): 0.3})
    strat = MaskingStrategy.average(KEY_BACKGROUND)
    motifs = [Motif(0, frozenset({(0, 1)})), Motif(1, frozenset({(2, 3)})),
              Motif(2, frozenset({(4, 5)})), Motif(3, frozenset({(1, 2), (2, 3)})),
              Motif(4, frozenset({(5, 6), (6, 7)}))]
    for bb in _key_blackboxes(motifs):
        assert_matches_reference(g, bb, motifs, strat)
    scorer, _ = _key_blackboxes(motifs)
    # motifs 0 and 1 are dummies: 2^3 distinct graphs
    assert exact_explain(g, scorer, motifs, strat).query_count == 8
    # the absent edge at frequency 0.0 still splits: masking motif 2 alone
    # changes the graph
    assert exact_explain(g, scorer, motifs[2:3], strat).query_count == 2


def test_toggle_merges_identical_and_overlapping_motifs(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    g = Graph(8, [(0, 1), (1, 2), (4, 5), (6, 7)])
    path = frozenset({(0, 1), (1, 2)})
    motifs = [Motif(0, path), Motif(1, path), Motif(2, frozenset({(1, 2), (2, 3)})),
              Motif(3, frozenset({(2, 3)})), Motif(4, frozenset({(5, 6)}))]
    for bb in _key_blackboxes(motifs):
        assert_matches_reference(g, bb, motifs, MaskingStrategy.toggle())
    scorer, _ = _key_blackboxes(motifs)
    # motif unions over W = {01, 12, 23, 56}: {01, 12} and {23} combine
    # into 5 distinct sets ({}, P, {23}, P+{23}, {12, 23}), times 2 for
    # motif 4, against 32 coalitions
    assert exact_explain(g, scorer, motifs, MaskingStrategy.toggle()).query_count == 10


def test_remove_and_toggle_of_a_weighted_input_drop_its_weights(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    g = Graph(8, [(0, 1), (1, 2), (3, 4), (6, 7)], {(0, 1): 0.2, (3, 4): 0.6})
    motifs = [Motif(0, frozenset({(0, 1), (1, 2)})), Motif(1, frozenset({(4, 5)})),
              Motif(2, frozenset({(5, 6)}))]
    for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
        for bb in _key_blackboxes(motifs):
            assert_matches_reference(g, bb, motifs, strat)
    # under remove, motifs 1 and 2 are absent from g: two distinct graphs,
    # and the empty coalition's is g without its weights
    _, surrogate = _key_blackboxes(motifs)
    ex = exact_explain(g, surrogate, motifs, MaskingStrategy.remove())
    assert ex.query_count == 2
    unweighted = Graph(8, g.edges)
    assert ex.scores[0] == pytest.approx(
        surrogate.evaluate(unweighted) - surrogate.evaluate(Graph(8, [(3, 4), (6, 7)])))
    assert surrogate.evaluate(unweighted) != surrogate.evaluate(g)


def test_blackbox_sees_the_references_first_occurrence_sequence(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)

    class Recording(LinearSurrogate):
        def __init__(self, inner, sent):
            super().__init__(inner.n, inner.weights, inner.bias)
            self.sent = sent

        def evaluate(self, g):
            self.sent.append(g)
            return super().evaluate(g)

        def evaluate_batch(self, graphs):
            self.sent.extend(graphs)
            return [LinearSurrogate.evaluate(self, h) for h in graphs]

    five = (Graph(8, [(0, 1), (1, 2), (2, 3), (3, 4), (5, 6)],
                  {(0, 1): 0.5, (1, 2): 0.7, (3, 4): 0.9, (5, 6): 0.3}),
            [Motif(0, frozenset({(0, 1)})), Motif(1, frozenset({(2, 3)})),
             Motif(2, frozenset({(4, 5)})), Motif(3, frozenset({(1, 2), (2, 3)})),
             Motif(4, frozenset({(5, 6), (6, 7)}))])
    w = WeightingScheme.classic()
    # the second instance spans three chunks; depth 3 starts mid-block
    for (g, motifs), depths in ((five, (2, 5)), (_three_chunk_instance(), (3, 9))):
        _, surrogate = _key_blackboxes(motifs)
        for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle(),
                      MaskingStrategy.average(KEY_BACKGROUND)):
            for depth in depths:
                got, want = [], []
                approx_explain(g, Recording(surrogate, got), motifs, strat, w, depth=depth)
                reference_explain(g, Recording(surrogate, want), motifs, strat.kind,
                                  strat.background, w, depth, False)
                assert got == want
                assert ([_request_line(0, h) for h in got]
                        == [_request_line(0, h) for h in want])


def test_lattice_is_evaluated_in_bounded_batches(monkeypatch):
    monkeypatch.setattr(engine, "BATCH_SIZE", 5)
    sizes = []

    class Recording(GroundTruthScorer):
        def evaluate_batch(self, graphs):
            sizes.append(len(graphs))
            return super().evaluate_batch(graphs)

    g, bb, motifs = _instance(95, n_motifs=4)
    rec = Recording(bb.n, bb.motifs, bb.importances)
    ex = exact_explain(g, rec, motifs, MaskingStrategy.toggle())
    assert sizes == [5, 5, 5, 1]
    assert ex == exact_explain(g, bb, motifs, MaskingStrategy.toggle())


def test_depth_one_beyond_63_motifs():
    # masks of 64 or more motifs do not fit an int64
    n, m = 140, 65
    motifs = [Motif(i, frozenset({(2 * i, 2 * i + 1)}), 1 if i % 2 else -1)
              for i in range(m)]
    g = random_graph(n, 0.3, philox(97))
    bb = GroundTruthScorer(n, motifs, [0.5] * m)
    strat = MaskingStrategy.toggle()
    ex = approx_explain(g, bb, motifs, strat, depth=1)
    assert ex.query_count == m + 1
    b_full = bb.evaluate(strat.mask(g, motifs))
    for i in (0, 1, 63, 64):
        others = [x for j, x in enumerate(motifs) if j != i]
        want = (bb.evaluate(strat.mask(g, others)) - b_full) / m
        assert ex.scores[i] == pytest.approx(want, abs=1e-15)


def test_scorer_popcount_equals_unit_weights():
    # a Graph drops weights of 1.0, so the weighted branch is reached by
    # weighting one edge outside every motif: each motif's edges still
    # weigh 1.0 or 0.0
    for seed in range(10):
        g, bb, motifs = _instance(600 + seed)
        on_motifs = set().union(*(m.edges for m in motifs))
        for h in (g, *(strat.mask(g, motifs[:2]) for strat in
                       (MaskingStrategy.remove(), MaskingStrategy.toggle()))):
            weighted = Graph(h.n, h.edges, {min(h.edges - on_motifs): 0.5})
            assert weighted.weights is not None
            assert bb.evaluate(h) == bb.evaluate(weighted)


def test_explain_depths_reuses_the_exact_lattice():
    n = 20
    motifs = [Motif(i, frozenset({(2 * i, 2 * i + 1)}), 1 if i % 2 else -1)
              for i in range(5)]
    g = random_graph(n, 0.3, philox(91))
    bb = CountingScorer(n, motifs, [0.3, 0.5, 0.7, 0.2, 0.9])
    for strat in (MaskingStrategy.toggle(), MaskingStrategy.remove()):
        bb.calls = 0
        exact, by_depth = explain_depths(g, bb, motifs, strat, depths=[1, 3, 5])
        calls = bb.calls
        assert exact == exact_explain(g, bb, motifs, strat)
        assert calls == exact.query_count
        for d in (1, 3, 5):
            assert by_depth[d] == approx_explain(g, bb, motifs, strat, depth=d)
    with pytest.raises(ParameterError):
        explain_depths(g, bb, motifs, strat, depths=[6])
