from collections import defaultdict
from itertools import combinations

import numpy as np
import pytest

from motifshap import (
    ConfigurationError,
    Graph,
    LabeledDataset,
    MaskingStrategy,
    Motif,
    UniverseMismatchError,
)
from motifshap.graphs import edge_frequency
from motifshap.masking import MaskTables

from conftest import philox, random_graph, random_motif_set, random_weighted_graph


G = Graph(6, [(0, 1), (1, 2), (2, 3), (4, 5)])
PATH = Motif(0, frozenset({(0, 1), (1, 2)}))
STAR = Motif(1, frozenset({(2, 3), (3, 4)}))


def test_remove_deletes_union_edges():
    out = MaskingStrategy.remove().mask(G, [PATH, STAR])
    assert out.edges == frozenset({(4, 5)})
    assert out.weights is None


def test_remove_of_absent_edges_is_noop():
    out = MaskingStrategy.remove().mask(G, [Motif(9, frozenset({(0, 5)}))])
    assert out.edges == G.edges


def test_toggle_flips_presence():
    # (0,1),(1,2) present -> dropped; (2,4) absent -> appears
    m = Motif(0, frozenset({(0, 1), (1, 2), (2, 4)}))
    out = MaskingStrategy.toggle().mask(G, [m])
    assert out.edges == frozenset({(2, 3), (4, 5), (2, 4)})
    assert out.weights is None


def test_empty_motif_collection_returns_input_for_unweighted():
    for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
        assert strat.mask(G, []) is G


def test_weighted_input_comes_out_unweighted():
    g = Graph(4, frozenset({(0, 1), (1, 2)}), {(0, 1): 0.5})
    for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle()):
        out = strat.mask(g, [Motif(0, frozenset({(1, 2)}))])
        assert out.weights is None
        out_empty = strat.mask(g, [])
        assert out_empty.weights is None
        assert out_empty.edges == g.edges


def test_motif_beyond_universe_rejected():
    small = Graph(3, [(0, 1)])
    background = LabeledDataset(3, (small, Graph(3, [(1, 2)])), (0, 1))
    for strat in (MaskingStrategy.remove(), MaskingStrategy.toggle(),
                  MaskingStrategy.average(background)):
        with pytest.raises(UniverseMismatchError):
            strat.mask(small, [Motif(0, frozenset({(2, 3)}))])


def test_toggle_involution_seeded():
    strat = MaskingStrategy.toggle()
    for seed in range(50):
        rng = philox(seed)
        g = random_graph(12, 0.3, rng)
        motifs = random_motif_set(12, 3, 3, rng)
        once = strat.mask(g, motifs)
        twice = strat.mask(once, motifs)
        assert twice.edges == g.edges


def test_remove_idempotence_seeded():
    strat = MaskingStrategy.remove()
    for seed in range(50):
        rng = philox(1000 + seed)
        g = random_graph(12, 0.3, rng)
        motifs = random_motif_set(12, 3, 3, rng)
        once = strat.mask(g, motifs)
        twice = strat.mask(once, motifs)
        assert twice.edges == once.edges


def _background() -> LabeledDataset:
    graphs = (
        Graph(6, [(0, 1), (1, 2)]),
        Graph(6, [(0, 1)]),
        Graph(6, [(0, 1), (2, 3)]),
        Graph(6, [(4, 5)]),
    )
    return LabeledDataset(6, graphs, (0, 0, 1, 1))


def test_average_uses_background_frequencies():
    """Union edges stay present at their background frequency, even when
    the frequency is zero; everything else keeps the input weight."""
    strat = MaskingStrategy.average(_background())
    m = Motif(0, frozenset({(0, 1), (1, 2), (0, 5)}))
    out = strat.mask(G, [m])
    assert out.weights is not None
    # frequencies over the 4 background graphs: (0,1) in 3, (1,2) in 1,
    # (0,5) in none
    assert out.weight((0, 1)) == pytest.approx(0.75)
    assert out.weight((1, 2)) == pytest.approx(0.25)
    assert out.weight((0, 5)) == 0.0
    assert (0, 5) in out.edges
    # outside the union: untouched
    assert out.weight((2, 3)) == 1.0
    assert out.weight((4, 5)) == 1.0
    assert out.weight((3, 4)) == 0.0


def test_average_preserves_outside_weights():
    g = Graph(6, frozenset({(0, 1), (2, 3)}), {(2, 3): 0.4})
    strat = MaskingStrategy.average(_background())
    out = strat.mask(g, [Motif(0, frozenset({(0, 1)}))])
    assert out.weight((2, 3)) == 0.4
    assert out.weight((0, 1)) == pytest.approx(0.75)


def test_average_empty_coalition_keeps_weights():
    strat = MaskingStrategy.average(_background())
    out = strat.mask(G, [])
    assert out.edges == G.edges
    for e in G.edges:
        assert out.weight(e) == 1.0


def test_average_lists_only_weights_other_than_one():
    """The output's weights are the union edges' background frequencies
    other than 1.0 and the input's own weights off the union; an input
    weight on a union edge whose frequency is 1.0 disappears."""
    background = LabeledDataset(6, (
        Graph(6, [(0, 1), (1, 2)]),
        Graph(6, [(0, 1)]),
        Graph(6, [(0, 1), (2, 3)]),
        Graph(6, [(0, 1), (4, 5)]),
    ), (0, 0, 1, 1))
    strat = MaskingStrategy.average(background)
    g = Graph(6, G.edges, {(0, 1): 0.3, (1, 2): 0.6, (2, 3): 0.4})
    out = strat.mask(g, [Motif(0, frozenset({(0, 1), (1, 2), (0, 5)}))])
    assert out.weights == {(1, 2): 0.25, (0, 5): 0.0, (2, 3): 0.4}
    assert out.edges == G.edges | {(0, 5)}
    assert out.weight((0, 1)) == 1.0
    # every weight of the output is 1.0: it equals the unweighted graph
    out = strat.mask(G, [Motif(1, frozenset({(0, 1)}))])
    assert out.weights is None
    assert out == G


@pytest.mark.parametrize("build, detail", [
    (lambda: MaskingStrategy.average(LabeledDataset(4, (), ())), "a nonempty background"),
    (lambda: MaskingStrategy("average", LabeledDataset(5, (), ())), "a nonempty background"),
    (lambda: MaskingStrategy("average"), "a background"),
], ids=["factory-empty", "direct-empty", "direct-none"])
def test_average_needs_nonempty_background(build, detail):
    with pytest.raises(ConfigurationError, match=f"average masking needs {detail} dataset"):
        build()


def test_average_background_universe_must_match():
    strat = MaskingStrategy.average(_background())
    with pytest.raises(UniverseMismatchError):
        strat.mask(Graph(5, [(0, 1)]), [Motif(0, frozenset({(0, 1)}))])


def test_average_outside_edges_bit_identical_seeded():
    strat = MaskingStrategy.average(_background())
    for seed in range(20):
        rng = philox(2000 + seed)
        g = random_weighted_graph(6, 0.4, rng)
        motifs = random_motif_set(6, 2, 2, rng)
        union = set()
        for m in motifs:
            union |= m.edges
        out = strat.mask(g, motifs)
        for e in g.edges | union:
            if e in union:
                continue
            assert out.weight(e) == g.weight(e)


def test_unknown_strategy_kind_rejected():
    with pytest.raises(ConfigurationError):
        MaskingStrategy("erase")


def _partition(labels) -> set[frozenset[int]]:
    """The indices of labels grouped by equal label."""
    groups = defaultdict(set)
    for i, x in enumerate(labels):
        groups[x].add(i)
    return {frozenset(group) for group in groups.values()}


def test_equal_keys_exactly_when_masked_graphs_are_equal_seeded():
    """The invariant deduplication rests on: two subsets of one motif list
    have equal keys exactly when their masked graphs are equal, under
    every kind, for unweighted and weighted inputs and overlapping motifs,
    with one remove and one toggle strategy serving two universes."""
    rng = philox(3000)
    # weights in quarters meet the frequencies over 4 background graphs
    quarters = (0.0, 0.25, 0.5, 0.75)
    averages = {n: MaskingStrategy.average(LabeledDataset(
        n, tuple(random_graph(n, 0.5, rng) for _ in range(4)), (0, 0, 1, 1)))
        for n in (6, 7)}
    shared = (MaskingStrategy.remove(), MaskingStrategy.toggle())
    seen = {"overlap": 0, "equal": 0, "unequal": 0, "weight meets frequency": 0}
    for seed in range(25):
        rng = philox(3000 + seed)
        # the last list spans three chunks, so keys and graphs are read
        # run by run across two high chunks
        m, edges = (10, 2) if seed == 24 else (2 + seed % 5, 1 + seed % 3)
        motifs = random_motif_set(6, m, edges, rng)
        seen["overlap"] += any(a.edges & b.edges for a, b in combinations(motifs, 2))
        for n in (6, 7):
            plain = random_graph(n, 0.5, rng)
            sorted_edges = plain.sorted_edges()
            picks = rng.integers(0, len(quarters) + 1, len(sorted_edges)).tolist()
            weighted = Graph(n, sorted_edges, {e: quarters[i] for e, i in zip(sorted_edges, picks)
                                               if i < len(quarters)})
            for g in (plain, weighted):
                for strat in (*shared, averages[n]):
                    tables = MaskTables(strat, g, motifs)
                    keys = tables.distinct(np.arange(1 << m))[0].tolist()
                    graphs = tables.graphs(range(1 << m))
                    if m >= 9:
                        # all pairs of 2^m subsets would be slow: compare
                        # the subsets grouped by key and grouped by graph
                        assert _partition(keys) == _partition(graphs), (seed, n, strat.kind)
                        continue
                    for a, b in combinations(range(1 << m), 2):
                        same = graphs[a] == graphs[b]
                        assert (keys[a] == keys[b]) == same, (seed, n, strat.kind, a, b)
                        seen["equal" if same else "unequal"] += 1
                    if strat.kind == "average":
                        seen["weight meets frequency"] += any(
                            g.weight(e) == edge_frequency(strat.background, e)
                            for mot in motifs for e in mot.edges if e in g.edges)
    assert all(seen.values()), seen
