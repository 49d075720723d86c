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
from motifshap.wire import _request_line
from motifshap.cli import run
from motifshap.files import dataset_to_json, motifs_to_json

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


RUN_IN_DIR = {
    "explain-paper": ["explain", "--motifs", "motifs.json", "--dataset", "data.json",
                      "--graph", "all", "--weights", "paper", "--rho", RHO,
                      "--out", "out.json"],
    "explain-paper-direct": ["explain", "--motifs", "motifs.json", "--dataset", "data.json",
                             "--graph", "all", "--weights", "paper-direct", "--rho", RHO,
                             "--out", "out.json"],
    "explain-paper-d2": ["explain", "--motifs", "motifs.json", "--dataset", "data.json",
                         "--graph", "all", "--weights", "paper", "--depth", "2",
                         "--rho", RHO, "--out", "out.json"],
    "explain-paper-d2-normalize": ["explain", "--motifs", "motifs.json",
                                   "--dataset", "data.json", "--graph", "all",
                                   "--weights", "paper", "--depth", "2", "--normalize",
                                   "--rho", RHO, "--out", "out.json"],
    "explain-paper-direct-d2": ["explain", "--motifs", "motifs.json", "--dataset", "data.json",
                                "--graph", "all", "--weights", "paper-direct",
                                "--depth", "2", "--rho", RHO, "--out", "out.json"],
    "explain-paper-direct-d2-normalize": ["explain", "--motifs", "motifs.json",
                                          "--dataset", "data.json", "--graph", "all",
                                          "--weights", "paper-direct", "--depth", "2",
                                          "--normalize", "--rho", RHO, "--out", "out.json"],
    "eval-separability": ["eval", "separability", "--dataset", "data.json",
                          "--out", "out.json", "--csv", "out.csv"],
    "eval-expected": ["eval", "expected", "--dataset", "data.json", "--motifs", "motifs.json",
                      "--rho", RHO, "--out", "out.json", "--csv", "out.csv"],
    "eval-approx-corr": ["eval", "approx-corr", "--dataset", "data.json",
                         "--motifs", "motifs.json", "--depths", "1,2,3", "--rho", RHO,
                         "--out", "out.json", "--csv", "out.csv"],
    "eval-global": ["eval", "global", "--dataset", "data.json", "--motifs", "motifs.json",
                    "--rho", RHO, "--out", "out.json", "--csv", "out.csv"],
    "mine": ["mine", "--dataset", "data.json", "--support", "3", "--max-size", "3",
             "--out", "out.json"],
    "rank": ["rank", "--dataset", "data.json", "--motifs", "motifs.json", "--k", "3",
             "--out", "out.json"],
}

#: digests of each file a command writes; a manifest's is taken without its
#: "timestamp" line
RUN_IN_DIR_FILES = {
    "eval-approx-corr": {
        "out.csv":
            "3e5f82ef8dd1f0436be16d729127d261d7630bab0fda68a454e2401414cafd68",
        "out.json":
            "0247687814e31d624dd1c3edcaf5eedf7ce8177dbe70a076a825f429743c776d",
        "out.json.manifest.json":
            "146c0fdb5cbd0fb5a1659a667ee6e82059c1d6ec32ef0b383f09854a2d0ffc9e",
    },
    "eval-expected": {
        "out.csv":
            "f6c79f2b00e48832892f7e8d02fef08344ec8f63e20755de8f89478de3fdfecb",
        "out.json":
            "346f1fd7c5f9caad17beb036eddb81d6f56fc1e20ab754db3136bb1a18ec9d8d",
        "out.json.manifest.json":
            "76158c6b209cb95ef38b54cfea24259b847225ce89542c18c95638742ec51485",
    },
    "eval-global": {
        "out.csv":
            "eca923e4dad223147f4c94c76d6a5b9816de6017df6321d598d4c137c4ffa70e",
        "out.json":
            "9a4bd41de5d7b6cbd5c0c2a5060e11c2efa2ea4c52edefc7f1edd2cef423c0ee",
        "out.json.manifest.json":
            "5d639a08f879cbfbdb012f15d4569e4da70a72eb0b2ee01bd68f267d1fd20e66",
    },
    "eval-separability": {
        "out.csv":
            "2d9ddadbee0324cf69026d2563532538e9a2d4baafacd7d3bb72a1707326079c",
        "out.json":
            "6aad481ce5021e018dd1a7c1982ebe2a930749f7a46837dbacb7f9aeb0f87756",
        "out.json.manifest.json":
            "f758dae1025028290f473e7c552f1eeec83bb17fcd40f00601794fcfb8382d4a",
    },
    "explain-paper": {
        "out.json":
            "46f6ef66840b351cd66252e49890635b16170f47962aae8716ab3f5ec2ded62c",
        "out.json.manifest.json":
            "416326179eb992b892ee6406cf65f0f793ad8df716a6e6082428a828dae404e0",
    },
    "explain-paper-direct": {
        "out.json":
            "ad3f2def4818bd0a882d111629146a2e59c42e45f76bb035ef80789591a0765c",
        "out.json.manifest.json":
            "cfd5b7152e99ff7498a35680055db012e154d8f2b124cc25f231748f49505e5a",
    },
    "explain-paper-d2": {
        "out.json":
            "80ff2ad48b131075f46257c680de3c72af06615676be34c9348005172cf3dcdb",
        "out.json.manifest.json":
            "4b07d6461a757ad6f2d1a7cd8c9fe52098f5e7806f386aab4fdfd9ed2006b521",
    },
    "explain-paper-d2-normalize": {
        "out.json":
            "325421d457c61a977ed9d31d362632f896a2539b1b8eaa0f45890a1af4d4d725",
        "out.json.manifest.json":
            "4984a9bd9e65444e64b57c2bf0dda225646fa8872d918e1dbac6e6f9b47aa34b",
    },
    "explain-paper-direct-d2": {
        "out.json":
            "c31272823a8555c61ceb11aa968bb762028557e762d038a96fcf0150e2437624",
        "out.json.manifest.json":
            "2dc2210abc891b72060692ebedd52d30c2c5a6780040eed9342a1bb11b219178",
    },
    "explain-paper-direct-d2-normalize": {
        "out.json":
            "9e2511f1280790085641dfb6671098a0853ae8cdd11dc89e20fa187162ebea3d",
        "out.json.manifest.json":
            "8d3b4cc758fa8ea8e538fdf7f2ba2d658b07cf5fa9cb4e479ef46bbf26fd664d",
    },
    "mine": {
        "out.json":
            "09ee72c2e0f4ff9a11523c931ed3ffc93c95dfb3b7808823e162c417362299b4",
        "out.json.manifest.json":
            "7287440927ce1d93dd780c62bc4d23b9f435de6b50370656902547936482f0de",
    },
    "rank": {
        "out.json":
            "c7a805e9336c89fdd98209909cb4e4a9dae1ce6eb18c5f0d8ee22b02bd87073a",
        "out.json.manifest.json":
            "3de882500b7370f18d4635aa0a34f06cb4d17076def5161f56c4d411be892fc1",
    },
}


def _manifest_sans_timestamp(data: bytes) -> bytes:
    lines = data.splitlines(keepends=True)
    kept = [line for line in lines if not line.startswith(b'  "timestamp": ')]
    assert len(kept) == len(lines) - 1
    return b"".join(kept)


@pytest.mark.parametrize("name", sorted(RUN_IN_DIR))
def test_outputs_and_manifests_are_pinned(tmp_path, monkeypatch, name):
    """Run in a directory holding the golden input, with relative paths, so
    that a manifest's config, inputs and output entries are stable."""
    for f in ("data.json", "motifs.json"):
        (tmp_path / f).write_bytes((GOLDEN / f).read_bytes())
    monkeypatch.chdir(tmp_path)
    assert run(RUN_IN_DIR[name]) == 0
    digests = {}
    for p in tmp_path.iterdir():
        if p.name not in ("data.json", "motifs.json"):
            data = p.read_bytes()
            if p.name.endswith(".manifest.json"):
                data = _manifest_sans_timestamp(data)
            digests[p.name] = _sha(data)
    assert digests == RUN_IN_DIR_FILES[name]
