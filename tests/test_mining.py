from itertools import combinations

import pytest

from motifshap import (
    Graph,
    LabeledDataset,
    MinerConfig,
    Motif,
    ParameterError,
    RankerConfig,
    cross_support,
    is_connected,
    mine,
    rank_and_select,
    support,
)
from motifshap.graphs import edge_set_jaccard

from conftest import philox, scan_support


def brute_force_frequent(d: LabeledDataset, s: int, max_size: int,
                         label=None) -> set[frozenset]:
    """Exhaustive enumeration of connected frequent edge sets, sizes
    2..max_size, over the pool of edges appearing anywhere in the data.
    Written independently of the miner's growth rule."""
    pool = sorted({e for g in d.graphs for e in g.edges})
    out = set()
    for size in range(2, max_size + 1):
        for combo in combinations(pool, size):
            if not is_connected(combo):
                continue
            if scan_support(d, combo, label) >= s:
                out.add(frozenset(combo))
    return out


def _dataset(graph_edges, labels=None, n=6):
    graphs = tuple(Graph(n, e) for e in graph_edges)
    if labels is None:
        labels = tuple(i % 2 for i in range(len(graphs)))
    return LabeledDataset(n, graphs, tuple(labels))


def test_path_example():
    # the 3-edge path appears in 3 of 4 graphs; with s=3 the path and
    # both 2-edge sub-paths are the complete answer
    path = [(0, 1), (1, 2), (2, 3)]
    d = _dataset([path, path + [(4, 5)], path, [(0, 1), (4, 5)]])
    found = {m.edges for m in mine(d, MinerConfig(3, 3))}
    assert found == {
        frozenset({(0, 1), (1, 2)}),
        frozenset({(1, 2), (2, 3)}),
        frozenset({(0, 1), (1, 2), (2, 3)}),
    }


def test_identical_graphs_full_support():
    edges = [(0, 1), (1, 2), (2, 3), (1, 3)]
    d = _dataset([edges] * 4)
    found = {m.edges for m in mine(d, MinerConfig(4, 4))}
    assert found == brute_force_frequent(d, 4, 4)


def test_support_threshold_above_dataset_rejected():
    d = _dataset([[(0, 1)]] * 3)
    with pytest.raises(ParameterError):
        mine(d, MinerConfig(4, 3))
    with pytest.raises(ParameterError):
        MinerConfig(0, 3)
    with pytest.raises(ParameterError):
        MinerConfig(1, 1)
    for bad in ((2.5, 3), (2, 3.5), (True, 3), (2, "3"), (2, 3, True), (2, 3, 1.0)):
        with pytest.raises(ParameterError, match="must be an integer"):
            MinerConfig(*bad)
    with pytest.raises(ParameterError, match="label filter"):
        MinerConfig(2, 3, label=2)


def test_label_filtered_mining():
    d = _dataset(
        [[(0, 1), (1, 2)], [(3, 4)], [(0, 1), (1, 2)], [(3, 4), (4, 5)]],
        labels=(0, 1, 0, 1))
    found0 = {m.edges for m in mine(d, MinerConfig(2, 3, label=0))}
    assert found0 == {frozenset({(0, 1), (1, 2)})}
    found1 = {m.edges for m in mine(d, MinerConfig(2, 3, label=1))}
    assert found1 == set()
    with pytest.raises(ParameterError):
        mine(d, MinerConfig(3, 3, label=0))  # only 2 graphs have label 0


def test_mine_matches_brute_force_random():
    # moderate sweep here; the acceptance suite runs the full 100
    for seed in range(25):
        rng = philox(4000 + seed)
        n_graphs = int(rng.integers(4, 9))
        graphs = []
        # draw small graphs over a 5-node universe so the frequent-edge
        # pool stays within brute-force reach
        for _ in range(n_graphs):
            edges = [e for e in combinations(range(5), 2)
                     if rng.random() < 0.45]
            graphs.append(edges)
        d = _dataset(graphs, labels=[i % 2 for i in range(n_graphs)], n=5)
        for label in (None, 0, 1):
            population = sum(label in (None, y) for y in d.labels)
            s = int(rng.integers(1, population + 1))
            max_size = int(rng.integers(2, 5))
            got = {m.edges for m in mine(d, MinerConfig(s, max_size, label))}
            want = brute_force_frequent(d, s, max_size, label)
            assert got == want, (seed, label)


def levelwise_frequent(d: LabeledDataset, s: int, max_size: int,
                       label=None) -> list[frozenset]:
    """Frequent connected edge sets of 2..max_size edges in mine's output
    order, grown level by level: level 2 is the frequent twoplets, and
    level k+1 adds to each set of level k every twoplet partner of one of
    its edges. Occurrence bitsets come from a scan of the graphs, apart
    from the dataset's index. An independent reference for mine beyond
    brute-force reach."""
    occ = {}
    for j, (g, lab) in enumerate(zip(d.graphs, d.labels)):
        if label in (None, lab):
            for e in g.edges:
                occ[e] = occ.get(e, 0) | 1 << j
    occ = {e: bits for e, bits in occ.items() if bits.bit_count() >= s}
    partners = {e: [] for e in occ}
    level = {}
    for e1, e2 in combinations(sorted(occ), 2):
        bits = occ[e1] & occ[e2]
        if set(e1) & set(e2) and bits.bit_count() >= s:
            partners[e1].append(e2)
            partners[e2].append(e1)
            level[frozenset((e1, e2))] = bits
    mined = list(level)
    for _ in range(3, max_size + 1):
        nxt = {}
        for m, bits in level.items():
            for e in m:
                for f in partners[e]:
                    if f not in m and (bits & occ[f]).bit_count() >= s:
                        nxt[m | {f}] = bits & occ[f]
        mined += nxt
        level = nxt
    return sorted(mined, key=lambda es: (len(es), sorted(es)))


def test_mine_matches_levelwise_reference_on_dense_graphs():
    """12 to 16 nodes at density 0.5: partner graphs far past brute-force
    reach, and motifs of up to 7 edges."""
    for seed in range(16):
        rng = philox(4100 + seed)
        n = int(rng.integers(12, 17))
        n_graphs = int(rng.integers(12, 17))
        graphs = [[e for e in combinations(range(n), 2) if rng.random() < 0.5]
                  for _ in range(n_graphs)]
        d = _dataset(graphs, labels=[i % 2 for i in range(n_graphs)], n=n)
        for label in (None, 0, 1):
            population = sum(label in (None, y) for y in d.labels)
            s = int(rng.integers(max(4, population // 3), population // 2 + 2))
            max_size = int(rng.integers(2, 8))
            got = [(m.id, m.edges) for m in mine(d, MinerConfig(s, max_size, label))]
            want = list(enumerate(levelwise_frequent(d, s, max_size, label)))
            assert got == want, (seed, label)


def test_mined_motifs_are_connected_and_frequent():
    rng = philox(99)
    graphs = [[e for e in combinations(range(6), 2) if rng.random() < 0.4]
              for _ in range(6)]
    d = _dataset(graphs, labels=[i % 2 for i in range(6)])
    s = 3
    for m in mine(d, MinerConfig(s, 4)):
        assert is_connected(m.edges)
        assert support(m.edges, d) >= s


def test_mine_output_order_and_ids():
    edges = [(0, 1), (1, 2)]
    d = _dataset([edges] * 2)
    out = mine(d, MinerConfig(2, 3))
    assert [m.id for m in out] == list(range(len(out)))
    keys = [(len(m.edges), m.sorted_edges()) for m in out]
    assert keys == sorted(keys)


def test_cross_support_values():
    m = Motif(0, frozenset({(0, 1)}))
    # supp0 = 3, supp1 = 0 -> |log2(4/1)| = 2
    d = _dataset([[(0, 1)], [(0, 1)], [(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]],
                 labels=(0, 0, 0, 1, 1, 1))
    assert cross_support(m, d) == pytest.approx(2.0)
    # swap classes: |log2(1/4)| = 2 as well
    d2 = _dataset([[(0, 1)], [(0, 1)], [(0, 1)], [(1, 2)], [(2, 3)], [(3, 4)]],
                  labels=(1, 1, 1, 0, 0, 0))
    assert cross_support(m, d2) == pytest.approx(2.0)
    # equal supports -> 0
    d3 = _dataset([[(0, 1)], [(0, 1)]], labels=(0, 1))
    assert cross_support(m, d3) == 0.0


def test_cross_support_needs_both_classes():
    d = _dataset([[(0, 1)], [(0, 1)]], labels=(0, 0))
    with pytest.raises(ParameterError):
        cross_support(Motif(0, frozenset({(0, 1)})), d)


def _ranking_dataset():
    """Three candidate motifs with strictly decreasing cross-support:
    A (3 edges, supp 4/0), B (3 edges, overlapping A, supp 3/0),
    C (3 edges, disjoint from A, supp 2/0)."""
    a = [(0, 1), (1, 2), (2, 3)]
    b = [(0, 1), (1, 2), (1, 3)]
    c = [(4, 5), (5, 6), (6, 7)]
    everything = sorted(set(a) | set(b) | set(c))
    graphs = [
        everything, everything,
        sorted(set(a) | set(b)),
        sorted(set(a)),
        [(0, 4)], [(0, 4)], [(0, 4)], [(0, 4)],
    ]
    labels = (0, 0, 0, 0, 1, 1, 1, 1)
    return (_dataset(graphs, labels=labels, n=8),
            Motif(0, frozenset(a)), Motif(1, frozenset(b)), Motif(2, frozenset(c)))


def test_rank_and_select_greedy_diversity():
    d, a, b, c = _ranking_dataset()
    # cross-supports: A |log2(5/1)|, B |log2(4/1)| = 2, C |log2(3/1)|
    assert cross_support(a, d) > cross_support(b, d) > cross_support(c, d)
    # B overlaps A (Jaccard distance 0.5 < dt), C is disjoint from A
    assert edge_set_jaccard(a.edges, b.edges) == pytest.approx(0.5)
    selected = rank_and_select([a, b, c], d, RankerConfig(dt=0.6, st=2, k=2))
    assert [m.id for m in selected] == [0, 2]


def test_rank_and_select_k_one():
    d, a, b, c = _ranking_dataset()
    assert [m.id for m in rank_and_select([a, b, c], d,
                                          RankerConfig(dt=0.5, st=1, k=1))] == [0]


def test_rank_and_select_drops_duplicates():
    d, a, _, _ = _ranking_dataset()
    twin = Motif(9, a.edges)
    selected = rank_and_select([a, twin], d, RankerConfig(dt=0.1, st=1, k=5))
    assert len(selected) == 1


def test_rank_and_select_size_threshold():
    d, a, b, c = _ranking_dataset()
    small = Motif(3, frozenset({(0, 1)}))
    selected = rank_and_select([small, c], d, RankerConfig(dt=0.5, st=2, k=5))
    assert [m.id for m in selected] == [2]


def test_rank_and_select_invariants():
    d, a, b, c = _ranking_dataset()
    cfg = RankerConfig(dt=0.4, st=2, k=3)
    selected = rank_and_select([a, b, c], d, cfg)
    assert len(selected) <= cfg.k
    for m in selected:
        assert len(m.edges) >= cfg.st
    for x, y in combinations(selected, 2):
        assert edge_set_jaccard(x.edges, y.edges) >= cfg.dt


def test_rank_tie_break_prefers_larger_then_lexicographic():
    # all motifs appear in every graph -> identical cross-support 0
    big = Motif(0, frozenset({(0, 1), (1, 2), (2, 3)}))
    small_a = Motif(1, frozenset({(0, 1), (1, 2)}))
    small_b = Motif(2, frozenset({(1, 2), (2, 3)}))
    base = [(0, 1), (1, 2), (2, 3)]
    d = _dataset([base, base], labels=(0, 1))
    out = rank_and_select([small_b, small_a, big], d,
                          RankerConfig(dt=0.0, st=1, k=3))
    assert [m.id for m in out] == [0, 1, 2]


def test_ranker_validation():
    with pytest.raises(ParameterError):
        RankerConfig(dt=1.5)
    with pytest.raises(ParameterError):
        RankerConfig(st=0)
    with pytest.raises(ParameterError):
        RankerConfig(k=0)
    for bad in ({"k": 2.5}, {"st": 1.5}, {"k": True}, {"st": "3"}):
        with pytest.raises(ParameterError, match="must be an integer"):
            RankerConfig(**bad)
    for bad in (True, False, "0.5", None):
        with pytest.raises(ParameterError, match="distance threshold must be a number"):
            RankerConfig(dt=bad)
    d, a, _, _ = _ranking_dataset()
    with pytest.raises(ParameterError):
        rank_and_select([], d, RankerConfig())
