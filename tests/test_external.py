"""Wire-protocol tests: the ExternalBlackBox client against the bundled
blackbox-serve server and against deliberately broken peers."""

import io
import json
import re
import sys
import time

import numpy as np
import pytest

from motifshap import (
    BlackBox,
    ConfigurationError,
    ExternalBlackBox,
    Graph,
    GroundTruthScorer,
    InputFormatError,
    LabeledDataset,
    LinearSurrogate,
    MaskingStrategy,
    Motif,
    MotifShapError,
    SynthConfig,
    TransportError,
    UniverseMismatchError,
    generate,
    save_dataset,
    save_motifs,
    serve,
    train_linear_surrogate,
)
from motifshap import wire
from motifshap.wire import WINDOW, _decode_request, _request_line
from motifshap.cli import run
from motifshap.graphs import _pack_pairs, _weighted_graph, all_pairs

from conftest import (
    golden_average_lattice,
    philox,
    random_graph,
    random_motif_set,
    random_weighted_graph,
)

N = 10


def _motif_file(tmp_path):
    motifs = random_motif_set(N, 2, 2, philox(17))
    path = tmp_path / "motifs.json"
    save_motifs(N, motifs, path)
    return path, motifs


def _serve_cmd(motif_path):
    return [sys.executable, "-m", "motifshap", "blackbox-serve",
            "--motifs", str(motif_path), "--rho", "0.8,0.5", "--beta", "2.0"]


def test_served_scorer_matches_in_process(tmp_path):
    path, motifs = _motif_file(tmp_path)
    local = GroundTruthScorer(N, motifs, [0.8, 0.5], beta=2.0)
    with ExternalBlackBox(_serve_cmd(path)) as remote:
        for seed in range(10):
            g = random_graph(N, 0.4, philox(seed))
            assert remote.evaluate(g) == pytest.approx(local.evaluate(g), abs=1e-12)
        # weighted graphs travel over the wire too
        for seed in range(5):
            g = random_weighted_graph(N, 0.4, philox(100 + seed))
            assert remote.evaluate(g) == pytest.approx(local.evaluate(g), abs=1e-12)


def test_served_surrogate_is_bit_identical(tmp_path):
    cfg = SynthConfig(n=N, n_graphs=20, density=0.3, motif_spec=(2, 2),
                      rho=(0.5, 0.5), seed=5)
    data, _, motifs = generate(cfg)
    path = tmp_path / "train.json"
    save_dataset(data, path)
    local = train_linear_surrogate(data)
    graphs = [random_graph(N, 0.4, philox(seed)) for seed in range(5)]
    graphs += [random_weighted_graph(N, 0.4, philox(100 + seed)) for seed in range(5)]
    average = MaskingStrategy.average(data)
    graphs += [average.mask(g, subset) for g in data.graphs[:3]
               for subset in ([motifs[0]], [motifs[1]], motifs)]
    cmd = [sys.executable, "-m", "motifshap", "blackbox-serve",
           "--blackbox", "surrogate", "--train-dataset", str(path)]
    with ExternalBlackBox(cmd) as remote:
        for g in graphs:
            assert remote.evaluate(g) == local.evaluate(g)
        # the same graphs with several requests in flight
        assert remote.evaluate_batch(graphs) == [local.evaluate(g) for g in graphs]


def _reference_request(rid, g):
    return json.dumps({"id": rid, "n": g.n,
                       "edges": [[u, v, g.weight((u, v))] for (u, v) in sorted(g.edges)]},
                      separators=(",", ":")) + "\n"


def test_request_line_matches_json_reference():
    motifs = random_motif_set(N, 3, 3, philox(21))
    plain = [random_graph(N, 0.4, philox(seed)) for seed in range(4)]
    # background frequencies of 0, 1/3 and 2/3: edge (0, 9) is in no
    # background graph, (0, 1) in one, (0, 2) in two
    background = LabeledDataset(N, (
        Graph(N, [(0, 1), (0, 2)]),
        Graph(N, [(0, 2)]),
        Graph(N, [(3, 4)]),
    ), (0, 1, 0))
    fractional = Motif(9, frozenset({(0, 1), (0, 2), (0, 9)}), 1)
    average = MaskingStrategy.average(background)
    averaged = [average.mask(g, [m, fractional]) for g in plain for m in motifs]
    assert {0.0, 1 / 3, 2 / 3} <= set(averaged[0].weights.values())
    graphs = [
        *plain,
        *(MaskingStrategy.remove().mask(g, motifs[:2]) for g in plain),
        *(MaskingStrategy.toggle().mask(g, motifs[1:]) for g in plain),
        *averaged,
        Graph(N, frozenset({(0, 1), (2, 5), (3, 9)}), {(2, 5): 0.1}),
        Graph(N, frozenset()),
        Graph(2, frozenset()),
        Graph(2, frozenset({(0, 1)})),
        Graph(2, frozenset({(0, 1)}), {(0, 1): 0.7}),
    ]
    for rid, g in enumerate(graphs):
        assert _request_line(rid, g) == _reference_request(rid, g).encode("ascii")


def test_client_is_a_context_manager_and_closes(tmp_path):
    path, _ = _motif_file(tmp_path)
    bb = ExternalBlackBox(_serve_cmd(path))
    assert bb.evaluate(Graph(N, [])) > 0.0
    bb.close()
    assert bb._proc.poll() is not None
    with pytest.raises(TransportError):
        bb.evaluate(Graph(N, []))


def _script(tmp_path, body):
    path = tmp_path / "peer.py"
    path.write_text("import sys, json\n" + body)
    return [sys.executable, str(path)]


CONSTANT_PEER = """
line = sys.stdin.readline()
print(json.dumps({"ready": True}), flush=True)
for line in sys.stdin:
    req = json.loads(line)
    print(json.dumps({"id": req["id"], "p": 0.5}), flush=True)
"""


def test_constant_peer(tmp_path):
    with ExternalBlackBox(_script(tmp_path, CONSTANT_PEER)) as bb:
        assert bb.evaluate(Graph(3, [(0, 1)])) == 0.5


# 401 digits overflow a float; 5001 are past the 4300 digits that int() reads
@pytest.mark.parametrize("p", ["1.5", "1" * 401, "1" * 5001],
                         ids=["1.5", "401-digit", "5001-digit"])
def test_out_of_range_probability_rejected(tmp_path, p):
    body = CONSTANT_PEER.replace('"p": 0.5})', f'"p": 0.5}}).replace("0.5", "{p}")')
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError):
            bb.evaluate(Graph(3, [(0, 1)]))


def test_non_numeric_probability_rejected(tmp_path):
    body = CONSTANT_PEER.replace('"p": 0.5', '"p": "high"')
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError):
            bb.evaluate(Graph(3, [(0, 1)]))


def test_id_mismatch_rejected(tmp_path):
    body = CONSTANT_PEER.replace('req["id"]', '999')
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError):
            bb.evaluate(Graph(3, [(0, 1)]))


@pytest.mark.parametrize("reply_id", ["True", "1.0"])
def test_reply_id_must_be_an_integer(tmp_path, reply_id):
    # true == 1 and 1.0 == 1 in Python, but neither is the id of request 1
    body = CONSTANT_PEER.replace('req["id"]', f'({reply_id} if req["id"] == 1 else req["id"])')
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        assert bb.evaluate(Graph(3, [(0, 1)])) == 0.5
        with pytest.raises(TransportError, match=f"reply id {re.escape(reply_id)} does not"):
            bb.evaluate(Graph(3, [(0, 1)]))


def test_malformed_reply_rejected(tmp_path):
    body = """
line = sys.stdin.readline()
print(json.dumps({"ready": True}), flush=True)
sys.stdin.readline()
print("this is not json", flush=True)
"""
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError):
            bb.evaluate(Graph(3, [(0, 1)]))


def test_reply_that_is_not_an_object_rejected(tmp_path):
    body = CONSTANT_PEER.replace('json.dumps({"id": req["id"], "p": 0.5})', 'json.dumps([0.5])')
    assert body != CONSTANT_PEER
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError, match="reply is not a JSON object"):
            bb.evaluate(Graph(3, [(0, 1)]))


def test_bad_handshake_rejected(tmp_path):
    body = """
line = sys.stdin.readline()
print(json.dumps({"ready": False}), flush=True)
"""
    with pytest.raises(TransportError):
        ExternalBlackBox(_script(tmp_path, body))


def test_immediate_exit_rejected(tmp_path):
    body = "sys.exit(0)\n"
    with pytest.raises(TransportError):
        ExternalBlackBox(_script(tmp_path, body))


def test_timeout_raises(tmp_path):
    body = """
import time
line = sys.stdin.readline()
print(json.dumps({"ready": True}), flush=True)
sys.stdin.readline()
time.sleep(30)
"""
    with ExternalBlackBox(_script(tmp_path, body), timeout=1.0) as bb:
        with pytest.raises(TransportError):
            bb.evaluate(Graph(3, [(0, 1)]))
        # the hung child is ended with the error, not left to sleep
        bb._proc.wait(timeout=2)


def test_timeout_bounds_writes(tmp_path):
    # the peer never reads the request, which is larger than a pipe's
    # buffer, so the write blocks; the peer exits on its own after 10 s
    body = """
import time
line = sys.stdin.readline()
print(json.dumps({"ready": True}), flush=True)
time.sleep(10)
"""
    big = Graph(200, all_pairs(200))
    assert len(_request_line(0, big)) > 65536
    with ExternalBlackBox(_script(tmp_path, body), timeout=1.0) as bb:
        start = time.monotonic()
        with pytest.raises(TransportError):
            bb.evaluate(big)
        assert time.monotonic() - start < 5.0
        assert bb._proc.poll() is not None


def test_a_failed_write_raises_and_ends_the_child(tmp_path):
    # the peer closes its input before it answers the hello, so the next
    # request meets a pipe without a reader
    body = """
import os, time
line = sys.stdin.readline()
os.close(0)
print(json.dumps({"ready": True}), flush=True)
time.sleep(30)
"""
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError, match="write to external black-box failed"):
            bb.evaluate(Graph(3, [(0, 1)]))
        assert bb._proc.poll() is not None


def test_batch_keeps_requests_in_flight(tmp_path):
    # the peer answers its first request only once it has read a second
    body = """
line = sys.stdin.readline()
print(json.dumps({"ready": True}), flush=True)
held = [sys.stdin.readline() for _ in range(2)]
def answer(line):
    print(json.dumps({"id": json.loads(line)["id"], "p": 0.5}), flush=True)
for line in held:
    answer(line)
for line in sys.stdin:
    answer(line)
"""
    graphs = [random_graph(N, 0.4, philox(seed)) for seed in range(10)]
    with ExternalBlackBox(_script(tmp_path, body), timeout=2.0) as bb:
        assert bb.evaluate_batch(graphs) == [0.5] * 10


ID_PEER = CONSTANT_PEER.replace('"p": 0.5', '"p": req["id"] / 1000')


def test_batch_values_keep_input_order(tmp_path):
    graphs = [random_graph(N, 0.4, philox(seed)) for seed in range(50)]
    with ExternalBlackBox(_script(tmp_path, ID_PEER)) as bb:
        values = bb.evaluate_batch(graphs[:25])
        values.append(bb.evaluate(graphs[25]))
        values += bb.evaluate_batch(graphs[26:])
    assert len(graphs[26:]) > WINDOW
    assert values == [rid / 1000 for rid in range(50)]


class _CountingClient(ExternalBlackBox):
    def __init__(self, command):
        self.calls = 0
        super().__init__(command)

    def evaluate(self, g):
        self.calls += 1
        return super().evaluate(g)


def test_batch_calls_evaluate_once_per_graph(tmp_path):
    graphs = [random_graph(N, 0.4, philox(seed)) for seed in range(3 * WINDOW + 1)]
    with _CountingClient(_script(tmp_path, ID_PEER)) as bb:
        values = bb.evaluate_batch(graphs)
        assert bb.calls == len(graphs)
    assert values == [rid / 1000 for rid in range(len(graphs))]


def test_failure_mid_window_ends_the_child(tmp_path):
    body = CONSTANT_PEER.replace('req["id"]', '999 if req["id"] == 2 else req["id"]')
    graphs = [random_graph(N, 0.4, philox(seed)) for seed in range(10)]
    with ExternalBlackBox(_script(tmp_path, body)) as bb:
        with pytest.raises(TransportError, match="999"):
            bb.evaluate_batch(graphs)
        with pytest.raises(TransportError):
            bb.evaluate(graphs[3])
        assert bb._proc.poll() is not None


def test_missing_command_rejected(tmp_path):
    with pytest.raises(TransportError):
        ExternalBlackBox([str(tmp_path / "does-not-exist")])


def test_empty_command_rejected():
    with pytest.raises(ConfigurationError, match="command is empty"):
        ExternalBlackBox([])


@pytest.mark.parametrize("timeout", [float("nan"), float("inf"), 0.0, -1.0, "0.5", True, None])
def test_bad_timeout_rejected_before_the_command_starts(tmp_path, timeout):
    # a started command would raise TransportError: it does not exist
    with pytest.raises(ConfigurationError, match="timeout"):
        ExternalBlackBox([str(tmp_path / "does-not-exist")], timeout=timeout)


def test_serve_loop_in_process():
    motifs = [Motif(0, frozenset({(0, 1), (1, 2)}), 1)]
    bb = GroundTruthScorer(4, motifs, [1.0])
    requests = [
        {"hello": "motif-shap/1"},
        {"id": 0, "n": 4, "edges": [[0, 1, 1.0], [1, 2, 1.0]]},
        {"id": 1, "n": 4, "edges": []},
        {"id": 2, "n": 4, "edges": [[0, 1, 0.5]]},
    ]
    stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests))
    stdout = io.StringIO()
    serve(bb, stdin, stdout)
    lines = [json.loads(x) for x in stdout.getvalue().splitlines()]
    assert lines[0] == {"ready": True}
    assert lines[1]["id"] == 0
    assert lines[1]["p"] == pytest.approx(
        bb.evaluate(Graph(4, [(0, 1), (1, 2)])))
    assert lines[2]["id"] == 1
    assert lines[3]["id"] == 2
    g = Graph(4, frozenset({(0, 1)}), {(0, 1): 0.5})
    assert lines[3]["p"] == pytest.approx(bb.evaluate(g))


def test_serve_rejects_bad_handshake():
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO('{"hello": "other/9"}\n')
    with pytest.raises(InputFormatError):
        serve(bb, stdin, io.StringIO())


def test_serve_rejects_malformed_request():
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO('{"hello": "motif-shap/1"}\nnot json\n')
    with pytest.raises(InputFormatError):
        serve(bb, stdin, io.StringIO())


def test_serve_rejects_out_of_range_weight():
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO(
        '{"hello": "motif-shap/1"}\n'
        '{"id": 0, "n": 4, "edges": [[0, 1, 7.0]]}\n')
    with pytest.raises(InputFormatError):
        serve(bb, stdin, io.StringIO())


def test_serve_empty_input_returns_quietly():
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    out = io.StringIO()
    serve(bb, io.StringIO(""), out)
    assert out.getvalue() == ""


#: Requests that blackbox-serve refuses with InputFormatError
INVALID_WIRE_GRAPHS = [
    '{"id": 0, "n": 4, "edges": [[1, 1, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 4, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[-1, 2, 1.0]]}',
    '{"id": 0, "n": -4, "edges": []}',
    '{"id": 0, "n": 4, "edges": [[Infinity, 1, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1.7, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[2, "3", 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1.0, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, 0.5, 7]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, 0.5], [1, 2, 1.0, 0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, [0.5]]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, 1.0], [true, 2, 1.0]]}',
    '{"id": 0, "n": 4.5, "edges": [[0, 1, 1.0]]}',
    '{"id": 0, "n": 5.5, "edges": [[0, 1, 1.0]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, "0.5"]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, true]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, 0.5], [1, 2, false]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, null]]}',
    '{"id": 0, "n": 4, "edges": [[0, 1, NaN]]}',
    '{"id": 0, "n": 4}',
    '{"n": 5, "edges": []}',
    '{"id": "x", "n": 4, "edges": []}',
    '{"id": [1, 2], "n": 4, "edges": []}',
    '{"id": null, "n": 4, "edges": []}',
    '{"id": 1.5, "n": 4, "edges": []}',
    '{"id": true, "n": 4, "edges": []}',
    '{"id": 0, "n": -4, "edges": [[1, 1, 1.0]]}',
]


@pytest.mark.parametrize("request_line", INVALID_WIRE_GRAPHS)
def test_serve_rejects_invalid_wire_graph(request_line):
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO('{"hello": "motif-shap/1"}\n' + request_line + "\n")
    with pytest.raises(InputFormatError):
        serve(bb, stdin, io.StringIO())


def test_serve_edge_listed_in_both_orientations_takes_last_weight():
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO(
        '{"hello": "motif-shap/1"}\n'
        '{"id": 0, "n": 4, "edges": [[0, 1, 0.25], [1, 0, 0.75]]}\n')
    stdout = io.StringIO()
    serve(bb, stdin, stdout)
    p = json.loads(stdout.getvalue().splitlines()[1])["p"]
    assert p == bb.evaluate(Graph(4, frozenset({(0, 1)}), {(0, 1): 0.75}))
    assert p != bb.evaluate(Graph(4, frozenset({(0, 1)}), {(0, 1): 0.25}))


def test_serve_request_over_another_universe_is_a_mismatch():
    # serve refuses the request's n before it decodes any edge, so a huge
    # n costs no n-sized allocation
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO('{"hello": "motif-shap/1"}\n'
                        '{"id": 0, "n": 1000000000000, "edges": [[0, 1, 1.0]]}\n')
    with pytest.raises(UniverseMismatchError):
        serve(bb, stdin, io.StringIO())


#: Requests over 5 nodes whose edges are malformed as well
OTHER_UNIVERSE = [
    '{"id": 0, "n": 5, "edges": [[1, 1, 1.0]]}',
    '{"id": 0, "n": 5, "edges": [[0, 1, "0.5"]]}',
    '{"id": 0, "n": 5, "edges": [[0, 1]]}',
    '{"id": 0, "n": 5}',
]


@pytest.mark.parametrize("request_line", OTHER_UNIVERSE)
def test_serve_checks_the_universe_before_the_edges(request_line):
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    stdin = io.StringIO('{"hello": "motif-shap/1"}\n' + request_line + "\n")
    with pytest.raises(UniverseMismatchError, match="graph over 5 nodes, scorer over 4"):
        serve(bb, stdin, io.StringIO())


def test_served_surrogate_over_another_universe_keeps_its_detail():
    bb = LinearSurrogate(4, np.zeros(6), 0.0)
    stdin = io.StringIO('{"hello": "motif-shap/1"}\n'
                        '{"id": 0, "n": 5, "edges": [[0, 1, 1.0]]}\n')
    with pytest.raises(UniverseMismatchError) as err:
        serve(bb, stdin, io.StringIO())
    assert str(err.value) == "graph over 5 nodes, surrogate over 4"


class _Forwarding(BlackBox):
    """A wrapper that declares no universe, as a timing wrapper does."""

    def __init__(self, inner):
        self.inner = inner

    def evaluate(self, g):
        return self.inner.evaluate(g)


def test_serve_a_black_box_that_declares_no_universe():
    inner = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    bb = _Forwarding(inner)
    assert bb.n is None
    out = io.StringIO()
    serve(bb, io.StringIO('{"hello": "motif-shap/1"}\n'
                          '{"id": 0, "n": 4, "edges": [[0, 1, 0.5]]}\n'), out)
    reply = json.loads(out.getvalue().splitlines()[1])
    assert reply == {"id": 0, "p": inner.evaluate(Graph(4, [(0, 1)], {(0, 1): 0.5}))}
    stdin = io.StringIO('{"hello": "motif-shap/1"}\n'
                        '{"id": 0, "n": 5, "edges": [[0, 1, 1.0]]}\n')
    with pytest.raises(UniverseMismatchError, match="scorer over 4"):
        serve(bb, stdin, io.StringIO())


# --- the decoder of the client's canonical request line -----------------


def _weight_bits(g):
    return {e: w.hex() for e, w in (g.weights or {}).items()}


def test_every_golden_lattice_line_takes_the_canonical_decoder():
    for rid, g in enumerate(golden_average_lattice()):
        line = _request_line(rid, g).decode("ascii").strip()
        decoded = _decode_request(line)
        assert decoded is not None, line
        got_id, n, u, v, weights = decoded
        req = json.loads(line)
        expected = _weighted_graph(req["n"], req["edges"])
        got = Graph._trusted(n, _pack_pairs(u, v, n), weights)
        assert (got_id, got) == (rid, expected) and got == g
        assert _weight_bits(got) == _weight_bits(expected)


def _outcome(bb, line):
    """What serve makes of one request: the reply line, or the type and
    message of what it raises; and the graphs bb recorded, if it records
    any."""
    stdout = io.StringIO()
    try:
        serve(bb, io.StringIO('{"hello":"motif-shap/1"}\n' + line + "\n"), stdout)
        result = stdout.getvalue().splitlines()[1]
    except MotifShapError as exc:
        result = type(exc), str(exc)
    return result, getattr(bb, "graphs", None)


def _both_paths(monkeypatch, line, make_bb):
    """serve's outcome for line with the canonical decoder, and with every
    line left to the JSON path, each with a fresh black box."""
    fast = _outcome(make_bb(), line)
    with monkeypatch.context() as m:
        m.setattr(wire, "_decode_request", lambda line: None)
        return fast, _outcome(make_bb(), line)


@pytest.mark.parametrize("request_line", INVALID_WIRE_GRAPHS + OTHER_UNIVERSE)
def test_compact_invalid_requests_raise_as_before(monkeypatch, request_line):
    bb = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1)}), 1)], [1.0])
    compact = json.dumps(json.loads(request_line), separators=(",", ":"))
    (fast, _), (slow, _) = _both_paths(monkeypatch, compact, lambda: bb)
    assert fast == slow
    assert fast[0] is (UniverseMismatchError if request_line in OTHER_UNIVERSE
                       else InputFormatError)


#: The scorer reads every edge of the 4-node path, so every weight moves p
PATH_SCORER = GroundTruthScorer(4, [Motif(0, frozenset({(0, 1), (1, 2), (2, 3)}), 1)], [1.0])

HUGE = "1" + "0" * 4999  # past the 4300 digits int() reads

NEAR_CANONICAL = {
    "canonical": '{"id":3,"n":4,"edges":[[0,1,1.0],[1,2,0.25],[2,3,0.5]]}',
    "no edges": '{"id":3,"n":4,"edges":[]}',
    "zero weight": '{"id":3,"n":4,"edges":[[0,1,0.0],[2,3,1.0]]}',
    "18-digit id": '{"id":123456789012345678,"n":4,"edges":[[0,1,0.5]]}',
    "19-digit id": '{"id":1234567890123456789,"n":4,"edges":[[0,1,0.5]]}',
    "leading zero id": '{"id":01,"n":4,"edges":[[0,1,1.0]]}',
    "leading zero n": '{"id":1,"n":04,"edges":[[0,1,1.0]]}',
    "leading zero node": '{"id":1,"n":4,"edges":[[0,01,1.0]]}',
    "leading zero weight": '{"id":1,"n":4,"edges":[[0,1,00.5]]}',
    "minus zero id": '{"id":-0,"n":4,"edges":[[0,1,0.5]]}',
    "minus zero node": '{"id":1,"n":4,"edges":[[-0,1,0.5]]}',
    "minus zero weight": '{"id":1,"n":4,"edges":[[0,1,-0]]}',
    "minus zero float weight": '{"id":1,"n":4,"edges":[[0,1,-0.0]]}',
    "exponent weight 1e0": '{"id":1,"n":4,"edges":[[0,1,1e0],[1,2,0.5]]}',
    "exponent weight 1E-5": '{"id":1,"n":4,"edges":[[0,1,1E-5]]}',
    "exponent weights": '{"id":1,"n":4,"edges":[[0,1,5e-324],[1,2,2.5e-1],[2,3,1e+0]]}',
    "exponent node": '{"id":1,"n":4,"edges":[[0,1e0,0.5]]}',
    "huge exponent weight": '{"id":1,"n":4,"edges":[[0,1,1e400]]}',
    "integer weights": '{"id":1,"n":4,"edges":[[0,1,0],[1,2,1],[2,3,0.5]]}',
    "weight 1.5": '{"id":1,"n":4,"edges":[[0,1,1.5]]}',
    "weight 21.0": '{"id":1,"n":4,"edges":[[0,1,21.0]]}',
    "weight 1.": '{"id":1,"n":4,"edges":[[0,1,1.]]}',
    "weight .5": '{"id":1,"n":4,"edges":[[0,1,.5]]}',
    "weight 1.00": '{"id":1,"n":4,"edges":[[0,1,1.00],[1,2,0.50]]}',
    "empty weight": '{"id":1,"n":4,"edges":[[0,1,]]}',
    "descending pairs": '{"id":1,"n":4,"edges":[[1,2,0.5],[0,1,1.0]]}',
    "descending ids": '{"id":1,"n":4,"edges":[[1,0,0.5]]}',
    "repeated pair, 1.0 last": '{"id":1,"n":4,"edges":[[0,1,0.5],[0,1,1.0]]}',
    "repeated pair, 1.0 first": '{"id":1,"n":4,"edges":[[0,1,1.0],[0,1,0.5]]}',
    "repeated pair, both weighted": '{"id":1,"n":4,"edges":[[0,1,0.25],[0,1,0.75]]}',
    "pair repeated in reverse": '{"id":1,"n":4,"edges":[[0,1,0.25],[1,0,1.0]]}',
    "self-loop": '{"id":1,"n":4,"edges":[[1,1,0.5]]}',
    "node n": '{"id":1,"n":4,"edges":[[0,4,1.0]]}',
    "16-digit node": '{"id":1,"n":4,"edges":[[0,1234567890123456,1.0]]}',
    "5000-digit node": '{"id":1,"n":4,"edges":[[0,' + HUGE + ',1.0]]}',
    "5000-digit id": '{"id":' + HUGE + ',"n":4,"edges":[]}',
    "5000-digit n": '{"id":1,"n":' + HUGE + ',"edges":[]}',
    "5000-digit weight": '{"id":1,"n":4,"edges":[[0,1,' + HUGE + ']]}',
    "other universe": '{"id":1,"n":5,"edges":[[0,1,1.0]]}',
    "10-digit n": '{"id":1,"n":1000000000,"edges":[[0,1,1.0]]}',
    "non-ASCII byte": '{"id":1,"n":4,"edges":[[0,1,1.0\u00e9]]}',
    "non-ASCII digit": '{"id":1,"n":4,"edges":[[0,\u0661,1.0]]}',
    "whitespace": '{"id":1,"n":4,"edges":[[0,1, 0.5]]}',
    "keys reordered": '{"n":4,"id":1,"edges":[[0,1,0.5]]}',
    "extra key": '{"id":1,"n":4,"edges":[[0,1,0.5]],"x":0}',
    "number between rows": '{"id":1,"n":4,"edges":[[0,1,0.5]5,[1,2,1.0]]}',
    "number before the first row": '{"id":1,"n":4,"edges":[5[0,1,0.5]]}',
    "number after the last row": '{"id":1,"n":4,"edges":[[0,1,0.5]5]}',
    "two entries": '{"id":1,"n":4,"edges":[[0,1]]}',
    "four entries": '{"id":1,"n":4,"edges":[[0,1,0.5,1]]}',
    "plus sign": '{"id":1,"n":4,"edges":[[0,+1,0.5]]}',
    "trailing comma": '{"id":1,"n":4,"edges":[[0,1,0.5],]}',
    # node ids that are no JSON integers, over a universe that holds the
    # values a reader of digits would make of them
    "exponent node, large n": '{"id":1,"n":1000,"edges":[[1e0,999,0.5]]}',
    "float node, large n": '{"id":1,"n":3000,"edges":[[1.0,2999,0.5]]}',
    "number between rows, large n": '{"id":1,"n":1000,"edges":[[0,1,0.5],5[1,2,1.0]]}',
    "number before the first row, large n": '{"id":1,"n":1000,"edges":[5[0,1,0.5]]}',
}


class _Recorder(BlackBox):
    """Declares no universe, answers 0.5 and keeps each graph it is asked
    about, with its weights' bits."""

    def __init__(self):
        self.graphs = []

    def evaluate(self, g):
        self.graphs.append((g, _weight_bits(g)))
        return 0.5


@pytest.mark.parametrize("name", sorted(NEAR_CANONICAL))
def test_near_canonical_requests_answer_as_the_json_path(monkeypatch, name):
    line = NEAR_CANONICAL[name]
    fast, slow = _both_paths(monkeypatch, line, lambda: PATH_SCORER)
    assert fast == slow
    # the same graph, whatever the universe; a black box without one would
    # pack the 5e17 pairs of 10-digit n
    if name != "10-digit n":
        fast, slow = _both_paths(monkeypatch, line, _Recorder)
        assert fast == slow


def test_near_canonical_requests_take_both_paths():
    # the cases above reach the canonical decoder and the JSON path alike
    taken = {name for name, line in NEAR_CANONICAL.items() if _decode_request(line)}
    assert taken == {"canonical", "no edges", "zero weight", "18-digit id",
                     "exponent weight 1e0", "exponent weight 1E-5", "exponent weights",
                     "integer weights", "weight 1.00", "other universe"}


def test_5000_digit_request_still_exits_3(monkeypatch, tmp_path, capsys):
    path, _ = _motif_file(tmp_path)
    for name in ("5000-digit node", "5000-digit id", "5000-digit n"):
        line = NEAR_CANONICAL[name].replace('"n":4,', f'"n":{N},')
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"hello":"motif-shap/1"}\n' + line + "\n"))
        assert run(["blackbox-serve", "--motifs", str(path), "--rho", "0.8,0.5"]) == 3, name
        assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"
