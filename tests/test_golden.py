"""Golden outputs: SHA-256 digests of what the program writes for the small
hand-written input in tests/golden (30 nodes, 20 graphs, 4 motifs, of which
motifs 0 and 1 share the edge (2, 3)).

A refactor that keeps every score, file byte and request byte keeps these
digests. A digest changes only in a change that states which output moved
and why. The input is written by hand, not drawn from a seeded generator,
because numpy does not promise its random streams across versions. The
surrogate has no digest: its x @ w may sum in a CPU-dependent order, so the
served surrogate is compared with the one in process instead.
"""

import hashlib
import io
import json

import pytest

from motifshap import load_dataset, load_motifs, serve, train_linear_surrogate
from motifshap.blackbox import _request_line
from motifshap.cli import run
from motifshap.graphs import dataset_to_json, motifs_to_json

from conftest import GOLDEN, golden_average_lattice

RHO = "0.9,0.5,0.7,0.3"


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


#: explain --graph all over the dataset, with the scorer
EXPLAIN = {
    ("remove", "exact", False):
        "d94b6e39ef79dbabb85213e839cef8462e1c5fb8f1a0d8ae931b1574b8bce5a3",
    ("remove", "2", False):
        "46080ae25b672d4f27b761a48108f68e5446e1e921ad72af074b42d125fe7296",
    ("remove", "2", True):
        "cdc71890e417b2db7dd2770996aafe23f77772a0833eee31a2119d604b0f2ada",
    ("toggle", "exact", False):
        "0364160b63f5e71229b08b64185a9f2950970fb38777eb8541e275bf07d55194",
    ("toggle", "2", False):
        "802729411b6cc26ab302005c2860e77c058770e9a032790f310602105994a3d4",
    ("toggle", "2", True):
        "447b766b3f89be19508f22d66501b69f08d2971f671c91b030ad70b72169c67f",
    ("average", "exact", False):
        "2dd603a08633e8f8fb6b0a4ac50d8268f20cdfaeb4b32de44b68c7a2e4199133",
    ("average", "2", False):
        "d6de036d3f6b92feefbb86d0ae6491e3de28a717238407eee9a8d3973c91e6cd",
    ("average", "2", True):
        "35e6e3994fe29506b72e49595676c1511e70d2603bd97187cbf7a8decdf7c0e0",
}


@pytest.mark.parametrize("mask, depth, normalize", sorted(EXPLAIN))
def test_explain_output_is_pinned(tmp_path, mask, depth, normalize):
    out = tmp_path / "scores.json"
    argv = ["explain", "--motifs", str(GOLDEN / "motifs.json"),
            "--dataset", str(GOLDEN / "data.json"), "--graph", "all",
            "--mask", mask, "--depth", depth, "--rho", RHO, "--out", str(out)]
    assert run(argv + ["--normalize"] * normalize) == 0
    assert _sha(out.read_bytes()) == EXPLAIN[mask, depth, normalize]


def test_explain_of_a_graph_file_is_pinned(tmp_path):
    out = tmp_path / "scores.json"
    assert run(["explain", "--motifs", str(GOLDEN / "motifs.json"),
                "--graph", str(GOLDEN / "graph.json"), "--mask", "toggle",
                "--rho", RHO, "--out", str(out)]) == 0
    assert _sha(out.read_bytes()) == (
        "a564cb2125da0a97e886ba2f3b3fbf443d0b4cf5c6bfa2d27cdc7bef0f7a5ce4")


def test_file_writers_are_pinned():
    d = load_dataset(GOLDEN / "data.json")
    n, motifs = load_motifs(GOLDEN / "motifs.json")
    assert _sha(dataset_to_json(d).encode()) == (
        "0eebd8ed4a6e76c4bb85f25ec9eeceabcc56cb480d8aaf2302b3b2d821cffd17")
    assert _sha(motifs_to_json(n, motifs).encode()) == (
        "ae7bec0bccee2133ba404744300de2afd73553bcb22e5a1d26d1e1bad0259e2d")


def test_request_lines_of_an_average_lattice_are_pinned():
    """The wire request of every masked graph of one average lattice over a
    weighted graph, whose weights lie on motif edges and off them."""
    lattice = golden_average_lattice()
    lines = b"".join(_request_line(s, g) for s, g in enumerate(lattice))
    assert _sha(lines) == (
        "e0bd8b523b60d57a715284ee5fd22f80e9ba85c5b48b386f5b1203cb7b512072")


def test_served_surrogate_equals_in_process_over_the_pinned_lattice():
    """The surrogate trained on the golden dataset, served in process over
    the pinned request lines, answers each one as it evaluates the graph in
    process. Its x @ w may sum in a CPU-dependent order, so it is compared
    with itself rather than with a digest; the comparison still catches a
    request decoder that reads a weight other than the JSON reader does."""
    model = train_linear_surrogate(load_dataset(GOLDEN / "data.json"))
    lattice = golden_average_lattice()
    hello = '{"hello":"motif-shap/1"}\n'
    stdin = io.StringIO(hello + "".join(_request_line(s, g).decode("ascii")
                                        for s, g in enumerate(lattice)))
    stdout = io.StringIO()
    serve(model, stdin, stdout)
    replies = [json.loads(line) for line in stdout.getvalue().splitlines()[1:]]
    assert replies == [{"id": s, "p": model.evaluate(g)} for s, g in enumerate(lattice)]
