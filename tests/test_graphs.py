import hashlib
import json
import math
import sys
import threading

import numpy as np
import pytest

from motifshap import (
    EmptyDatasetError,
    Graph,
    InputFormatError,
    LabeledDataset,
    MaskingStrategy,
    Motif,
    ParameterError,
    UniverseMismatchError,
    cross_support,
    edge_frequency,
    is_connected,
    jaccard_distance,
    load_dataset,
    load_graph_file,
    load_motifs,
    save_dataset,
    save_motifs,
    support,
)
from motifshap import graphs
from motifshap.graphs import (
    PARSE_CACHE_ENTRIES,
    _weighted_graph,
    all_pairs,
    atomic_write_text,
    dataset_to_json,
    edge_set_jaccard,
    last_digest,
    motifs_to_json,
    pair_index,
    remember_motifs,
)

from conftest import (
    philox,
    random_connected_motif,
    random_graph,
    random_weighted_graph,
    scan_support,
)


def test_pair_index_enumerates_upper_triangle():
    for n in (2, 3, 7, 20):
        pairs = all_pairs(n)
        assert len(pairs) == n * (n - 1) // 2
        for pos, (u, v) in enumerate(pairs):
            assert pair_index(u, v, n) == pos


def test_edges_are_canonicalized_and_deduplicated():
    g = Graph(5, [(2, 1), (1, 2), (0, 4)])
    assert g.edges == frozenset({(1, 2), (0, 4)})
    assert g.sorted_edges() == [(0, 4), (1, 2)]


def test_self_loop_rejected():
    with pytest.raises(ParameterError):
        Graph(5, [(3, 3)])


def test_edge_outside_universe_rejected():
    with pytest.raises(ParameterError):
        Graph(4, [(0, 4)])
    with pytest.raises(ParameterError):
        Graph(4, [(-1, 2)])


def test_weight_convention():
    # missing edge -> 0, unweighted present -> 1, weighted -> its value
    g = Graph(4, frozenset({(0, 1), (2, 3)}), {(0, 1): 0.25})
    assert g.weight((0, 1)) == 0.25
    assert g.weight((2, 3)) == 1.0
    assert g.weight((0, 2)) == 0.0


def test_weight_of_a_non_canonical_key_is_zero():
    # pair_index(3, 2, 4) and pair_index(0, 4, 4) land on the present
    # pairs (1, 3) and (1, 2); neither key names an edge of the graph
    for weights in (None, {(2, 3): 0.5}):
        g = Graph(4, frozenset({(1, 2), (1, 3), (2, 3)}), weights)
        assert g.weight((3, 2)) == 0.0
        assert g.weight((0, 4)) == 0.0
        assert g.weight((-1, 0)) == 0.0
        assert g.weight((2, 2)) == 0.0
        assert g.weight((1, 3)) == 1.0


def test_weight_validation():
    with pytest.raises(ParameterError):
        Graph(4, frozenset({(0, 1)}), {(2, 3): 0.5})
    # weight 1.0 is dropped, but only after it is validated
    with pytest.raises(ParameterError):
        Graph(4, frozenset({(0, 1)}), {(2, 3): 1.0})
    with pytest.raises(ParameterError):
        Graph(4, frozenset({(0, 1)}), {(0, 1): 1.5})
    with pytest.raises(ParameterError):
        Graph(4, frozenset({(0, 1)}), {(0, 1): -0.1})
    # a weight is a number, as on the wire: no string, bool, bytes or None
    for w in ("0.5", True, b"1", None, [0.5]):
        with pytest.raises(ParameterError, match="weight must be a number"):
            Graph(4, frozenset({(0, 1)}), {(0, 1): w})
    for key in ((0, 1, 2), (0,), 5):
        with pytest.raises(ParameterError, match="exactly 3 entries"):
            Graph(4, frozenset({(0, 1)}), {key: 0.5})
    with pytest.raises(ParameterError, match=r"weighted edge \(1, 3\) is not listed"):
        Graph(4, [(0, 1)], {(0, 1): 0.5, (3, 1): 0.5, (2, 3): 0.5})


def test_weight_keys_canonicalized():
    g = Graph(4, frozenset({(0, 1)}), {(1, 0): 0.5})
    assert g.weight((0, 1)) == 0.5


def test_graph_equality_and_hash_agree_across_constructors(tmp_path):
    n, edges = 6, [(0, 1), (2, 4), (3, 5), (1, 4)]
    path = tmp_path / "graph.json"
    atomic_write_text(path, json.dumps({"n": n, "edges": [[v, u] for u, v in edges]}))
    toggled = MaskingStrategy.toggle().mask(
        Graph(n, [(0, 1), (2, 4), (0, 5)]),
        [Motif(0, frozenset({(0, 5), (3, 5)})), Motif(1, frozenset({(1, 4)}))])
    wire = _weighted_graph(n, [[u, v, 1.0] for v, u in edges])
    built = [Graph(n, frozenset(edges)), Graph(n, reversed(edges)),
             toggled, load_graph_file(path), wire,
             Graph(n, edges, dict.fromkeys(edges, 1.0))]
    for g in built:
        assert g == built[0]
        assert g.weights is None
        assert hash(g) == hash(built[0])
        assert g.edges == frozenset(edges)
        assert g.sorted_edges() == sorted(edges)
    assert len(set(built)) == 1
    assert Graph(n, edges[1:]) != built[0]
    assert Graph(n + 1, edges) != built[0]

    # weighted: (3, 5) at 0.5, (1, 4) at 0.25 and (2, 4) at 0.75, with the
    # weights listed in a different order by each construction
    weights = {(3, 5): 0.5, (1, 4): 0.25, (2, 4): 0.75}
    background = LabeledDataset(n, [Graph(n, [(3, 5), (1, 4)]), Graph(n, [(3, 5)]),
                                    Graph(n, []), Graph(n, [])], (0, 0, 1, 1))
    averaged = MaskingStrategy.average(background).mask(
        Graph(n, [(0, 1), (2, 4)], {(2, 4): 0.75}),
        [Motif(0, frozenset({(3, 5)})), Motif(1, frozenset({(1, 4)}))])
    wire = _weighted_graph(n, [[v, u, weights.get((u, v), 1.0)]
                               for u, v in reversed(edges)])
    built = [Graph(n, edges, {(v, u): w for (u, v), w in reversed(weights.items())}),
             averaged, wire]
    for g in built:
        assert g == built[0]
        assert g.weights == weights
        assert hash(g) == hash(built[0])
    assert len(set(built)) == 1
    assert Graph(n, edges, {**weights, (0, 1): 0.5}) != built[0]
    assert Graph(n, edges) not in set(built)


def test_edge_bits_matches_manual_bitmask():
    for seed in range(20):
        g = random_graph(12, 0.3, philox(seed))
        expected = 0
        for u, v in g.edges:
            expected |= 1 << pair_index(u, v, 12)
        assert g.edge_bits == expected


def test_is_connected():
    assert not is_connected([])
    assert is_connected([(0, 1)])
    assert is_connected([(0, 1), (1, 2), (2, 3)])
    assert not is_connected([(0, 1), (2, 3)])
    assert is_connected([(0, 1), (1, 2), (0, 2)])


def test_motif_requires_connected_nonempty_edges():
    Motif(0, frozenset({(0, 1), (1, 2)}))
    with pytest.raises(ParameterError):
        Motif(1, frozenset())
    with pytest.raises(ParameterError):
        Motif(2, frozenset({(0, 1), (2, 3)}))
    with pytest.raises(ParameterError):
        Motif(3, frozenset({(0, 1)}), class_sign=2)
    with pytest.raises(ParameterError):
        Motif(4, frozenset({(-1, 2), (2, 3)}))
    for u in (1.7, 1.0, "3", True):
        with pytest.raises(ParameterError, match="node id must be an integer"):
            Motif(5, [(0, 2), (2, u)])
    for e in ((0, 1, 2), (0,), 3):
        with pytest.raises(ParameterError, match="is not a pair"):
            Motif(6, [(1, 2), e])
    m = Motif(6, [(np.int64(2), np.int32(1))])
    assert m.edges == frozenset({(1, 2)}) and type(m.max_node()) is int


def test_jaccard_distance_basic():
    a = Graph(5, [(0, 1), (1, 2)])
    b = Graph(5, [(1, 2), (2, 3)])
    # intersection 1, union 3
    assert jaccard_distance(a, b) == pytest.approx(1 - 1 / 3)
    assert jaccard_distance(a, a) == 0.0
    empty = Graph(5, [])
    assert jaccard_distance(empty, empty) == 0.0
    disjoint = Graph(5, [(3, 4)])
    assert jaccard_distance(a, disjoint) == 1.0


def test_jaccard_distance_universe_mismatch():
    with pytest.raises(UniverseMismatchError):
        jaccard_distance(Graph(4, []), Graph(5, []))


def test_jaccard_bitmask_agrees_with_set_formula():
    for seed in range(30):
        rng = philox(100 + seed)
        a = random_graph(15, 0.25, rng)
        b = random_graph(15, 0.25, rng)
        union = a.edges | b.edges
        if not union:
            expected = 0.0
        else:
            expected = 1.0 - len(a.edges & b.edges) / len(union)
        assert jaccard_distance(a, b) == pytest.approx(expected, abs=1e-12)


def test_edge_set_jaccard():
    a = frozenset({(0, 1), (1, 2)})
    b = frozenset({(1, 2)})
    assert edge_set_jaccard(a, b) == pytest.approx(0.5)
    assert edge_set_jaccard(frozenset(), frozenset()) == 0.0
    assert edge_set_jaccard(a, a) == 0.0


def _toy_dataset() -> LabeledDataset:
    graphs = (
        Graph(4, [(0, 1), (1, 2)]),
        Graph(4, [(0, 1)]),
        Graph(4, [(1, 2), (2, 3)]),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),
    )
    return LabeledDataset(4, graphs, (0, 0, 1, 1))


def test_edge_frequency():
    d = _toy_dataset()
    assert edge_frequency(d, (0, 1)) == 0.75
    assert edge_frequency(d, (1, 0)) == 0.75
    assert edge_frequency(d, (0, 3)) == 0.0
    with pytest.raises(EmptyDatasetError):
        edge_frequency(LabeledDataset(4, (), ()), (0, 1))


def test_support():
    d = _toy_dataset()
    assert support([(0, 1), (1, 2)], d) == 2
    assert support([(0, 1)], d) == 3
    assert support([(0, 1)], d, label_filter=0) == 2
    assert support([(0, 1)], d, label_filter=1) == 1
    assert support([], d) == 4
    with pytest.raises(UniverseMismatchError):
        support([(0, 9)], d)
    with pytest.raises(UniverseMismatchError):
        support([(-1, 2)], d)


def edge_index_by_loop(d: LabeledDataset) -> dict:
    """The occurrence index built edge by edge: bit j of an edge's entry
    is set when graph j has the edge."""
    index = {}
    for j, g in enumerate(d.graphs):
        for e in g.edges:
            index[e] = index.get(e, 0) | 1 << j
    return index


def test_support_index_matches_subset_scan():
    """support, edge_frequency and cross_support equal a plain subset scan
    on random datasets, with and without a label filter. No graph touches
    the last node, so edges at it are absent from every graph."""
    n = 8
    for seed in range(25):
        rng = philox(seed)
        n_graphs = 2 * int(rng.integers(1, 7))
        graphs = tuple(
            Graph(n, frozenset(e for e in random_graph(n, 0.35, rng).edges if e[1] < n - 1))
            for _ in range(n_graphs))
        d = LabeledDataset(n, graphs, tuple(j % 2 for j in range(n_graphs)))
        assert d.edge_index == edge_index_by_loop(d)
        for e in all_pairs(n):
            assert edge_frequency(d, e) == scan_support(d, [e]) / n_graphs
        motifs = [random_connected_motif(k, n, int(rng.integers(1, 5)), rng)
                  for k in range(12)]
        for m in motifs:
            for edges in (m.edges, frozenset(), m.edges | {(0, n - 1)}):
                for label in (None, 0, 1):
                    assert support(edges, d, label_filter=label) == \
                        scan_support(d, edges, label)
            s0, s1 = scan_support(d, m.edges, 0), scan_support(d, m.edges, 1)
            assert cross_support(m, d) == abs(math.log2((s0 + 1) / (s1 + 1)))
        with pytest.raises(UniverseMismatchError):
            support([(0, n)], d)


def test_dataset_validation():
    g = Graph(3, [(0, 1)])
    with pytest.raises(ParameterError):
        LabeledDataset(3, (g,), (0, 1))
    with pytest.raises(ParameterError):
        LabeledDataset(3, (g,), (2,))
    with pytest.raises(UniverseMismatchError):
        LabeledDataset(4, (g,), (0,))
    with pytest.raises(ParameterError):
        LabeledDataset(3, (g,), (0,), injections=((0,), (1,)))
    with pytest.raises(ParameterError):
        LabeledDataset(3, (g, g), (0, 1), injections=((0, 1), (0,)))
    with pytest.raises(ParameterError):
        LabeledDataset(3, (g,), (0,), injections=((2,),))


def test_dataset_roundtrip_is_byte_identical(tmp_path):
    d = _toy_dataset()
    path = tmp_path / "data.json"
    save_dataset(d, path)
    first = path.read_bytes()
    loaded = load_dataset(path)
    assert loaded == d
    save_dataset(loaded, path)
    assert path.read_bytes() == first


def test_dataset_roundtrip_with_injections(tmp_path):
    d = LabeledDataset(
        3,
        (Graph(3, [(0, 1)]), Graph(3, [(1, 2)])),
        (0, 1),
        injections=((1, 0), (-1, 1)),
    )
    path = tmp_path / "data.json"
    save_dataset(d, path)
    loaded = load_dataset(path)
    assert loaded.injections == ((1, 0), (-1, 1))
    assert dataset_to_json(loaded) == dataset_to_json(d)


def test_motif_file_roundtrip(tmp_path):
    motifs = [
        Motif(0, frozenset({(0, 1), (1, 2)}), -1),
        Motif(1, frozenset({(2, 3)}), 1),
        Motif(2, frozenset({(0, 2)})),
    ]
    path = tmp_path / "motifs.json"
    save_motifs(4, motifs, path)
    n, loaded = load_motifs(path)
    assert n == 4
    assert loaded == motifs
    first = path.read_bytes()
    save_motifs(n, loaded, path)
    assert path.read_bytes() == first


def _reference_dataset_to_json(d):
    """The json.dumps builder that dataset_to_json must match byte for byte."""
    doc = {"n": d.n, "graphs": [{"label": lab, "edges": [list(e) for e in g.sorted_edges()]}
                                for g, lab in zip(d.graphs, d.labels)]}
    if d.injections is not None:
        doc["injections"] = [list(row) for row in d.injections]
    return json.dumps(doc, separators=(",", ":"))


def _reference_motifs_to_json(n, motifs, cs_scores=None):
    """The json.dumps builder that motifs_to_json must match byte for byte."""
    entries = []
    for i, m in enumerate(motifs):
        entry = {"id": m.id}
        if m.class_sign is not None:
            entry["class"] = 1 if m.class_sign > 0 else 0
        entry["edges"] = [list(e) for e in m.sorted_edges()]
        if cs_scores is not None:
            entry["cs"] = cs_scores[i]
        entries.append(entry)
    return json.dumps({"n": n, "motifs": entries}, separators=(",", ":"))


def _dataset_cases():
    rng = philox(31)
    weighted = tuple(random_weighted_graph(12, 0.3, rng) for _ in range(4))
    plain = tuple(random_graph(12, 0.3, rng) for _ in range(4))
    return [
        LabeledDataset(0, (), ()),
        LabeledDataset(0, (), (), injections=()),
        LabeledDataset(5, (Graph(5, []), Graph(5, [])), (1, 0)),
        LabeledDataset(1, (Graph(1, []),), (0,), injections=((1, -1, 0),)),
        LabeledDataset(12, weighted, (0, 1, 1, 0)),
        LabeledDataset(12, plain, (1, 0, 0, 1), injections=((1, 0), (-1, 1), (0, 0), (1, -1))),
    ]


@pytest.mark.parametrize("case", range(6))
def test_dataset_writer_matches_json_dumps(case):
    d = _dataset_cases()[case]
    assert dataset_to_json(d) == _reference_dataset_to_json(d)


def test_motif_writer_matches_json_dumps():
    rng = philox(32)
    motifs = [random_connected_motif(i, 15, 1 + i % 5, rng, (None, -1, 1)[i % 3])
              for i in range(9)]
    scores = [0.0, 1.5, 1 / 3, 1e-20, 2.0 ** 0.5, 1e300, 3, float("nan"), float("inf")]
    for n, ms, cs in ((0, [], None), (0, [], []), (15, motifs, None), (15, motifs, scores),
                      (15, [Motif(2 ** 70, {(3, 4)}, 1)], [-0.0])):
        assert motifs_to_json(n, ms, cs) == _reference_motifs_to_json(n, ms, cs)


def test_motif_file_with_scores(tmp_path):
    motifs = [Motif(7, frozenset({(0, 1), (1, 2)}), 1)]
    text = motifs_to_json(3, motifs, [1.5])
    doc = json.loads(text)
    assert doc["motifs"][0]["cs"] == 1.5
    assert doc["motifs"][0]["class"] == 1


def test_graph_file_roundtrip(tmp_path):
    path = tmp_path / "graph.json"
    atomic_write_text(path, json.dumps({"n": 4, "edges": [[2, 0], [1, 3]]}))
    g = load_graph_file(path)
    assert g.edges == frozenset({(0, 2), (1, 3)})


@pytest.mark.parametrize("doc", [
    "not json at all",
    '{"graphs": []}',
    '{"n": 3, "graphs": [{"edges": [[0, 1]]}]}',
    '{"n": 3, "graphs": [{"label": 5, "edges": []}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": [[0]]}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": [[0, 1, 0.25]]}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": [[0, 1], [1, 2, 1]]}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": [[0, 7]]}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": []}], "injections": [[5]]}',
    '{"n": 4, "graphs": [{"label": 0, "edges": [[0, 1.7], [2, "3"]]}]}',
    '{"n": 4, "graphs": [{"label": 0, "edges": [[0, 1.0]]}]}',
    '{"n": 4, "graphs": [{"label": 0, "edges": [[2, "3"]]}]}',
    '{"n": 4, "graphs": [{"label": 0, "edges": [[0, 1], [true, 2]]}]}',
    '{"n": 3, "graphs": [{"label": 1.9, "edges": []}]}',
    '{"n": 3, "graphs": [{"label": "1", "edges": []}]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": []}], "injections": [[0.7]]}',
    '{"n": 3, "graphs": [{"label": 0, "edges": []}], "injections": [[-1.2]]}',
    '{"n": 3.5, "graphs": [{"label": 0, "edges": [[0, 1]]}]}',
    '{"n": -4, "graphs": []}',
])
def test_malformed_dataset_raises_input_format_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(InputFormatError):
        load_dataset(path)


@pytest.mark.parametrize("doc", [
    "[]",
    '{"n": 3}',
    '{"n": 3, "motifs": [{"id": 0, "edges": []}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, 1], [2, 3]]}]}',
    '{"n": 3, "motifs": [{"edges": [[0, 1]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, 1.7]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, "1"]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[-1, 1]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "class": 5, "edges": [[0, 1]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "class": 0.9, "edges": [[0, 1]]}]}',
    '{"n": 3, "motifs": [{"id": 2.7, "edges": [[0, 1]]}]}',
    '{"n": 3, "motifs": [{"id": "3", "edges": [[0, 1]]}]}',
    '{"n": 5.9, "motifs": [{"id": 0, "edges": [[0, 1]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, 1], [true, 2]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, 7]]}]}',
    '{"n": 3, "motifs": [{"id": 0, "edges": [[0, 1, 0.5]]}]}',
    '{"n": 3, "motifs": [[0, 1]]}',
    '{"n": -4, "motifs": []}',
])
def test_malformed_motif_file_raises_input_format_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(InputFormatError):
        load_motifs(path)


@pytest.mark.parametrize("doc", [
    '{"edges": [[0, 1]]}',
    '{"n": 4, "edges": [[0]]}',
    '{"n": 4, "edges": [[0, 1, 0.25]]}',
    '{"n": 4, "edges": [[0, 1], [1, 2, 3, 4]]}',
    '{"n": 4, "edges": [[3, 3]]}',
    '{"n": 4, "edges": [[0, 4]]}',
    '{"n": 4, "edges": [[0, 1.7], [2, "3"]]}',
    '{"n": 4, "edges": [[0, 1.0]]}',
    '{"n": 4, "edges": [[0, 1], [true, 2]]}',
    '{"n": -4, "edges": []}',
    '{"n": 3.5, "edges": [[0, 1]]}',
])
def test_malformed_graph_file_raises_input_format_error(tmp_path, doc):
    path = tmp_path / "bad.json"
    path.write_text(doc)
    with pytest.raises(InputFormatError):
        load_graph_file(path)


def test_first_offending_edge_is_reported():
    with pytest.raises(ParameterError, match=r"edge \(1, 5\) outside node universe \[0, 4\)"):
        Graph(4, [(0, 1), (5, 1), (2, 2)])
    with pytest.raises(ParameterError, match="self-loop on node 2"):
        Graph(4, [(0, 1), (2, 2), (5, 1)])
    with pytest.raises(ParameterError, match="node ids must be integers"):
        Graph(4, [(0, 1), (2, 2.0)])
    with pytest.raises(ParameterError, match="exactly 2 entries"):
        Graph(4, [(0, 1), (1, 2, 0.5)])


def test_negative_node_count_is_rejected_without_graphs(tmp_path):
    path = tmp_path / "empty.json"
    for doc, load in (({"n": -4, "graphs": []}, load_dataset),
                      ({"n": -4, "motifs": []}, load_motifs),
                      ({"n": -4, "edges": []}, load_graph_file)):
        path.write_text(json.dumps(doc))
        with pytest.raises(InputFormatError, match="node count must be nonnegative"):
            load(path)
    with pytest.raises(ParameterError, match="node count must be nonnegative"):
        LabeledDataset(-4, (), ())


def test_missing_file_raises_input_format_error(tmp_path):
    with pytest.raises(InputFormatError):
        load_dataset(tmp_path / "nope.json")
    with pytest.raises(InputFormatError):
        load_graph_file(tmp_path / "nope.json")


def test_a_second_read_of_the_same_bytes_parses_nothing(tmp_path, parses):
    d = _toy_dataset()
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    save_dataset(d, a)
    b.write_bytes(a.read_bytes())
    first = load_dataset(a)
    assert load_dataset(a) is first and load_dataset(b) is first
    assert parses == [("dataset", str(a))]
    save_dataset(LabeledDataset(d.n, d.graphs[:1], d.labels[:1]), a)
    assert len(load_dataset(a)) == 1 and load_dataset(b) is first
    assert parses == [("dataset", str(a))] * 2


def test_an_unwritable_path_is_a_parameter_error_and_leaves_no_temp_file(tmp_path):
    (tmp_path / "adir").mkdir()
    # no directory for the temp file; a temp file that cannot replace a directory
    for path in (tmp_path / "nodir" / "x.json", tmp_path / "adir"):
        with pytest.raises(ParameterError) as exc:
            atomic_write_text(path, "{}")
        assert str(exc.value).startswith(f"cannot write {path}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["adir"]
    assert list((tmp_path / "adir").iterdir()) == []


def test_digests_are_of_the_bytes_read_and_written(tmp_path):
    path = tmp_path / "g.json"
    atomic_write_text(path, '{"n": 2, "edges": [[0, 1]]}\u00e9')
    written = hashlib.sha256(path.read_bytes()).hexdigest()
    assert last_digest(path) == written
    path.write_text('{"n": 2, "edges": []}')
    load_graph_file(path)
    assert last_digest(str(path)) != written
    assert last_digest(path) == hashlib.sha256(path.read_bytes()).hexdigest()


def test_load_motifs_hands_out_fresh_lists(tmp_path, parses):
    path = tmp_path / "m.json"
    save_motifs(4, [Motif(0, {(0, 1)}), Motif(1, {(1, 2), (2, 3)}, 1)], path)
    n, first = load_motifs(path)
    first.clear()
    assert load_motifs(path) == (4, [Motif(0, {(0, 1)}), Motif(1, {(1, 2), (2, 3)}, 1)])
    assert parses == [("motifs", str(path))]


def test_only_successful_parses_are_cached(tmp_path, parses):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 3, "graphs": [{"label": 5, "edges": []}]}')
    for _ in range(2):
        with pytest.raises(InputFormatError, match="malformed dataset"):
            load_dataset(path)
    assert len(parses) == 2 and not graphs._parsed


def test_cache_keeps_the_most_recently_used_files(tmp_path, parses):
    paths = [tmp_path / f"m{i}.json" for i in range(PARSE_CACHE_ENTRIES + 1)]
    for i, path in enumerate(paths):
        save_motifs(4, [Motif(i, {(0, 1)})], path)
    for path in paths[:-1]:
        load_motifs(path)
    load_motifs(paths[0])  # now the most recent: paths[1] goes next
    load_motifs(paths[-1])
    assert len(parses) == PARSE_CACHE_ENTRIES + 1
    load_motifs(paths[0])
    assert len(parses) == PARSE_CACHE_ENTRIES + 1
    load_motifs(paths[1])
    assert parses[-1] == ("motifs", str(paths[1]))


def test_the_same_bytes_are_cached_apart_per_kind(tmp_path, parses):
    path = tmp_path / "both.json"
    path.write_text('{"n": 3, "graphs": [], "motifs": [{"id": 0, "edges": [[0, 1]]}]}')
    assert len(load_dataset(path)) == 0
    assert load_motifs(path) == (3, [Motif(0, {(0, 1)})])
    assert [kind for kind, _ in parses] == ["dataset", "motifs"]


def test_remembered_motifs_are_what_a_parse_gives(tmp_path, parses):
    rng = philox(33)
    motifs = [random_connected_motif(i, 10, 3, rng, (None, -1, 1)[i % 3]) for i in range(6)]
    path = tmp_path / "ranked.json"
    save_motifs(10, motifs, path, [0.5 * i for i in range(6)])
    remember_motifs(path, 10, motifs)
    assert load_motifs(path) == (10, motifs)
    assert parses == []
    graphs._parsed.clear()
    assert load_motifs(path) == (10, motifs)
    assert parses == [("motifs", str(path))]


def test_cache_survives_concurrent_loads(tmp_path, parses):
    paths = [tmp_path / f"{i}.json" for i in range(PARSE_CACHE_ENTRIES + 2)]
    for i, path in enumerate(paths):
        save_motifs(4, [Motif(i, {(0, 1)}), Motif(i + 1, {(1, 2)})], path)
    errors = []

    def worker(k):
        try:
            for r in range(3000):
                i = (k + r) % len(paths)
                assert load_motifs(paths[i]) == (4, [Motif(i, {(0, 1)}), Motif(i + 1, {(1, 2)})])
        except BaseException as exc:  # reported by the main thread
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert len(graphs._parsed) <= PARSE_CACHE_ENTRIES
