"""The strict reader of canonical dataset text against the JSON path.

files._read_canonical_dataset reads the text save_dataset writes without
json.loads on its graphs, and returns None for anything else. Every text
it reads must give the dataset the JSON path gives, and every text the
JSON path refuses must be left to it, so that its errors stay the only
ones a user sees.
"""

import json
import random

import pytest

from motifshap.errors import InputFormatError, MotifShapError
from motifshap.files import (
    _parse_dataset,
    _parse_dataset_json,
    _read_canonical_dataset,
    dataset_to_json,
    save_dataset,
)
from motifshap.graphs import Graph, LabeledDataset
from motifshap.synth import SynthConfig, generate

from conftest import philox, random_graph


def _json_path(data: bytes):
    """The JSON path's dataset of data, or the type and message of what it
    raises."""
    try:
        return _parse_dataset_json("data.json", data)
    except MotifShapError as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def readme_text(tmp_path_factory):
    """The README's synth dataset as save_dataset writes it."""
    cfg = SynthConfig(n=100, n_graphs=200, density=0.2, motif_spec=(6, 10),
                      rho=(0.0, 0.2, 0.4, 0.6, 0.8, 1.0), seed=7)
    path = tmp_path_factory.mktemp("readme") / "data.json"
    save_dataset(generate(cfg)[0], path)
    return path.read_bytes()


def test_the_readme_dataset_file_takes_the_strict_reader(readme_text):
    assert readme_text.endswith(b"}\n")
    d = _read_canonical_dataset(readme_text)
    assert d is not None and len(d) == 200 and d.injections is not None
    assert d == _json_path(readme_text)
    # as the discover benchmark writes it: dataset_to_json's text alone
    assert _read_canonical_dataset(readme_text[:-1]) == d


def _canonical_cases():
    rng = philox(41)
    plain = tuple(random_graph(9, 0.4, rng) for _ in range(5))
    return {
        "injections": LabeledDataset(9, plain, (0, 1, 1, 0, 1),
                                     injections=((1, 0), (0, -1), (-1, 1), (0, 0), (1, 1))),
        "no injections": LabeledDataset(9, plain, (1, 0, 0, 1, 1)),
        "a graph with no edges": LabeledDataset(9, (plain[0], Graph(9, []), plain[1]), (1, 0, 1)),
        "graphs with no edges first and last": LabeledDataset(
            9, (Graph(9, []), plain[2], Graph(9, []), Graph(9, [])), (0, 1, 0, 1)),
        "zero graphs": LabeledDataset(9, (), ()),
        "zero graphs, empty injections": LabeledDataset(9, (), (), injections=()),
        "rows of no motif": LabeledDataset(9, plain[:2], (0, 1), injections=((), ())),
        "n = 0": LabeledDataset(0, (Graph(0, []), Graph(0, [])), (1, 0)),
        "n = 1": LabeledDataset(1, (Graph(1, []),), (0,), injections=((1, -1, 0),)),
        "n = 2": LabeledDataset(2, (Graph(2, [(0, 1)]), Graph(2, [])), (1, 0)),
        "n = 0, zero graphs": LabeledDataset(0, (), ()),
    }


@pytest.mark.parametrize("name", sorted(_canonical_cases()))
@pytest.mark.parametrize("newline", [True, False], ids=["saved", "bare"])
def test_canonical_text_reads_as_the_json_path_reads_it(name, newline):
    d = _canonical_cases()[name]
    data = (dataset_to_json(d) + "\n" * newline).encode()
    got = _read_canonical_dataset(data)
    assert got is not None and got == d == _json_path(data)


#: The canonical text of a small dataset; each variant below changes it
#: into one that the strict reader must leave to the JSON path
BASE = dataset_to_json(LabeledDataset(
    10, (Graph(10, [(0, 1), (1, 2), (7, 8)]), Graph(10, [(2, 3)])), (0, 1),
    injections=((1, 0), (0, -1))))

EDGES = "[[0,1],[1,2],[7,8]]"

NEAR_CANONICAL = {
    "space after a colon": BASE.replace('"n":10', '"n": 10'),
    "space between edges": BASE.replace("[0,1],[1,2]", "[0,1], [1,2]"),
    "space in the injections": BASE.replace("[[1,0],", "[[1, 0],"),
    "leading zero node": BASE.replace("[1,2]", "[1,02]"),
    "leading zero n": BASE.replace('"n":10', '"n":010'),
    "leading zero label": BASE.replace('"label":1', '"label":01'),
    "edge [v,u]": BASE.replace("[1,2]", "[2,1]"),
    "self-loop": BASE.replace("[1,2]", "[2,2]"),
    "repeated edge": BASE.replace(EDGES, "[[0,1],[1,2],[1,2],[7,8]]"),
    "unsorted edges": BASE.replace(EDGES, "[[1,2],[0,1],[7,8]]"),
    "v = n": BASE.replace("[7,8]", "[7,10]"),
    "v > n": BASE.replace("[7,8]", "[7,11]"),
    "label 2": BASE.replace('"label":1', '"label":2'),
    "label true": BASE.replace('"label":1', '"label":true'),
    "label 1.0": BASE.replace('"label":1', '"label":1.0'),
    "label -0": BASE.replace('"label":0', '"label":-0'),
    "keys reordered": BASE.replace('{"n":10,"graphs":', '{"graphs":', 1)[:-1] + ',"n":10}',
    "graph keys reordered": BASE.replace('{"label":1,"edges":[[2,3]]}',
                                         '{"edges":[[2,3]],"label":1}'),
    "extra key": BASE[:-1] + ',"x":0}',
    "extra graph key": BASE.replace('"edges":[[2,3]]', '"edges":[[2,3]],"x":0'),
    "third edge column": BASE.replace("[7,8]", "[7,8,1]"),
    "injections null": BASE[:BASE.index('"injections"')] + '"injections":null}',
    "injection entry 10": BASE.replace("[0,-1]", "[0,10]"),
    "injection entry 1.0": BASE.replace("[0,-1]", "[0,1.0]"),
    "injections twice": BASE[:-1] + ',"injections":[[0,0],[0,0]]}',
    "byte-order mark": "\ufeff" + BASE,
    "non-ASCII byte": BASE.replace('"label":0', '"lab\u00e9l":0'),
    "non-ASCII digit": BASE.replace("[1,2]", "[1,\u0662]"),
    "two newlines": BASE + "\n\n",
    "CRLF": BASE + "\r\n",
    "stray digit between edges": BASE.replace("],[7,8]", "],9[7,8]"),
    "stray digit before a graph": BASE.replace(',{"label":1', ',5{"label":1'),
    "stray digit after the graphs": BASE.replace("]}],", "]}5],"),
    "missing node id": BASE.replace("[1,2]", "[1,]"),
    "ten-digit node id": BASE.replace('"n":10', '"n":999999999').replace("[7,8]", "[7,1000000000]"),
}


@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
def test_near_canonical_text_is_left_to_the_json_path(name):
    data = NEAR_CANONICAL[name].encode()
    assert _read_canonical_dataset(data) is None
    try:
        got = _parse_dataset("data.json", data)
    except InputFormatError as exc:
        got = type(exc), str(exc)
    assert got == _json_path(data)


def test_a_canonical_file_reads_its_graphs_without_json(monkeypatch, readme_text):
    loads = json.loads
    read = []

    def rows_only(text, *args, **kwargs):
        assert b"edges" not in (text if isinstance(text, bytes) else text.encode())
        read.append(text)
        return loads(text, *args, **kwargs)

    monkeypatch.setattr(json, "loads", rows_only)
    assert len(_parse_dataset("data.json", readme_text)) == 200
    assert len(read) == 1  # the injection rows
    no_injections = dataset_to_json(LabeledDataset(100, _parse_dataset(
        "data.json", readme_text).graphs[:3], (0, 1, 1))).encode()
    read.clear()
    assert len(_parse_dataset("data.json", no_injections)) == 3 and read == []


def test_a_stray_digit_between_edges_is_no_node_id():
    data = BASE.replace("],[7,8]", "],9[7,8]").encode()
    assert _read_canonical_dataset(data) is None
    with pytest.raises(InputFormatError, match="invalid JSON"):
        _parse_dataset("data.json", data)


def test_an_injection_entry_of_10_raises_the_json_paths_error():
    data = BASE.replace("[0,-1]", "[0,10]").encode()
    assert _read_canonical_dataset(data) is None
    with pytest.raises(InputFormatError) as exc:
        _parse_dataset("data.json", data)
    assert str(exc.value) == "data.json: malformed dataset: injection entry 10 not in {-1, 0, +1}"


#: What a mutation inserts or substitutes: the bytes of the canonical text,
#: and a few that it never holds
MUTATION_BYTES = b'0123456789[]{},:"-nlabegdsij .eE\n\xc3\xff'


def test_single_byte_mutations_read_as_the_json_path_reads_them():
    rng = random.Random(0)
    base = BASE.encode()
    outcomes = {"read": 0, "left": 0}
    for _ in range(2000):
        i = rng.randrange(len(base) + 1)
        op = rng.choice(("delete", "substitute", "insert"))
        byte = bytes([rng.choice(MUTATION_BYTES)])
        if op == "delete":
            data = base[:i] + base[i + 1:]
        elif op == "substitute":
            data = base[:i] + byte + base[i + 1:]
        else:
            data = base[:i] + byte + base[i:]
        got, expected = _read_canonical_dataset(data), _json_path(data)
        if got is None:
            outcomes["left"] += 1
        else:
            assert isinstance(expected, LabeledDataset), data
            assert got == expected, data
            outcomes["read"] += 1
    # both kinds of outcome occur (59 reads at this seed), so neither check
    # above is vacuous
    assert min(outcomes.values()) > 25, outcomes


def test_a_universe_too_large_to_pack_is_left_to_the_json_path():
    # canonical text whose graph needs n(n-1)/2 = 5e17 flag bytes, which
    # numpy refuses at once: the strict reader returns None, and the JSON
    # path raises a typed error that names n
    data = b'{"n":999999999,"graphs":[{"label":0,"edges":[[0,1]]}]}'
    assert _read_canonical_dataset(data) is None
    with pytest.raises(InputFormatError, match="n = 999999999 is too large"):
        _parse_dataset("data.json", data)
