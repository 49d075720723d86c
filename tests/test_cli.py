import codecs
import hashlib
import io
import json
import pathlib
import subprocess
import sys

import pytest

import motifshap

from motifshap import (
    GroundTruthScorer,
    MaskingStrategy,
    UndefinedCorrelationError,
    approx_explain,
    exact_explain,
    load_dataset,
    load_motifs,
    pearson,
    query_budget,
)
from motifshap import cli, files, wire
from motifshap.cli import run

from conftest import GOLDEN


def _synth_args(tmp_path, seed=7, graphs=20):
    return [
        "synth", "--nodes", "30", "--graphs", str(graphs), "--density", "0.2",
        "--motifs", "3", "--motif-edges", "3",
        "--rho", "0.2,0.6,1.0", "--seed", str(seed),
        "--out", str(tmp_path / "data.json"),
        "--motifs-out", str(tmp_path / "motifs.json"),
    ]


@pytest.fixture()
def synth_files(tmp_path):
    assert run(_synth_args(tmp_path)) == 0
    return tmp_path / "data.json", tmp_path / "motifs.json"


def test_pyproject_version_matches_package():
    tomllib = pytest.importorskip("tomllib")  # stdlib from Python 3.11 on
    with open(pathlib.Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as fh:
        assert tomllib.load(fh)["project"]["version"] == motifshap.__version__


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        run(["--version"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    assert "motifshap" in out and "0.1.0" in out


def test_version_names_the_protocol_the_wire_client_sends(capsys, monkeypatch):
    with pytest.raises(SystemExit):
        run(["--version"])
    assert f"wire protocol {wire.PROTOCOL_HELLO})" in capsys.readouterr().out
    # the text is built from the constant, not from a copy of its value
    monkeypatch.setattr(cli, "PROTOCOL_HELLO", "motif-shap/0")
    with pytest.raises(SystemExit):
        run(["--version"])
    assert "wire protocol motif-shap/0)" in capsys.readouterr().out


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "motifshap", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "motifshap" in proc.stdout


def test_synth_outputs_and_manifests(synth_files, tmp_path):
    data_path, motif_path = synth_files
    dataset = load_dataset(data_path)
    assert len(dataset) == 20
    assert dataset.injections is not None
    n, motifs = load_motifs(motif_path)
    assert n == 30
    assert len(motifs) == 3
    assert all(m.class_sign in (-1, 1) for m in motifs)

    manifest = json.loads((tmp_path / "data.json.manifest.json").read_text())
    assert manifest["subcommand"] == "synth"
    assert manifest["seed"] == 7
    assert manifest["tool_version"] == "0.1.0"
    assert len(manifest["output_digest"]) == 64
    assert len(manifest["extra"]["injection_rates"]) == 3
    assert "timestamp" in manifest
    assert (tmp_path / "motifs.json.manifest.json").exists()


def test_synth_reruns_are_byte_identical(tmp_path):
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    out1.mkdir()
    out2.mkdir()
    assert run(_synth_args(out1)) == 0
    assert run(_synth_args(out2)) == 0
    assert (out1 / "data.json").read_bytes() == (out2 / "data.json").read_bytes()
    assert (out1 / "motifs.json").read_bytes() == (out2 / "motifs.json").read_bytes()


def test_synth_rho_arity_checked(tmp_path, capsys):
    args = _synth_args(tmp_path)
    args[args.index("--rho") + 1] = "0.5"
    assert run(args) == 2
    err = json.loads(capsys.readouterr().err)
    assert "detail" in err and "error" in err


def test_synth_with_correlation_file(tmp_path):
    corr = {"n_m": 3, "entries": [[0, 1, 0.5]]}
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps(corr))
    args = _synth_args(tmp_path) + ["--corr", str(corr_path)]
    assert run(args) == 0
    manifest = json.loads((tmp_path / "data.json.manifest.json").read_text())
    assert str(corr_path) in manifest["inputs"]


@pytest.mark.parametrize("corr", [
    {"n_m": 2.7, "entries": [[0.9, 1, 0.5]]},
    {"n_m": 2, "entries": [[0.9, 1, 0.5]]},
    {"n_m": 2, "entries": [[0, "1", 0.5]]},
])
def test_synth_correlation_file_needs_integers(tmp_path, capsys, corr):
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps(corr))
    args = _synth_args(tmp_path) + ["--corr", str(corr_path)]
    args[args.index("--motifs") + 1] = "2"
    args[args.index("--rho") + 1] = "0.2,0.6"
    assert run(args) == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"
    assert not (tmp_path / "data.json").exists()


@pytest.mark.parametrize("value,detail", [
    ("0.5", "not a number"), (True, "not a number"), (None, "not a number"),
    (10 ** 400, "too large"), (1.5, "correlation 1.5 outside [0, 1]"),
])
def test_synth_correlation_must_be_a_number(tmp_path, capsys, value, detail):
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps({"n_m": 3, "entries": [[0, 1, value]]}))
    assert run(_synth_args(tmp_path) + ["--corr", str(corr_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputFormatError" and detail in err["detail"]
    assert not (tmp_path / "data.json").exists()


@pytest.mark.parametrize("entry", [[0, 1, 0.5, 9, "x"], [0, 1, 0.5, 0.5], [0, 1], "0,1"])
def test_synth_correlation_entry_lists_three_items(tmp_path, capsys, entry):
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps({"n_m": 3, "entries": [entry]}))
    assert run(_synth_args(tmp_path) + ["--corr", str(corr_path)]) == 3
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "InputFormatError" and "exactly three items" in err["detail"]
    assert not (tmp_path / "data.json").exists()


@pytest.mark.parametrize("corr, code, detail", [
    # the file's size is compared with --motifs before its matrix is built
    ({"n_m": 10 ** 12, "entries": [[0, 1, 0.5]]}, 2,
     "correlation file covers 1000000000000 motifs, expected 3"),
    # but only after its entries are checked against that size
    ({"n_m": 2, "entries": [[0, 2, 0.5]]}, 3, "entry (0, 2) out of range"),
], ids=["n_m-1e12", "entry-out-of-range"])
def test_synth_correlation_size_is_checked_before_the_matrix(tmp_path, capsys, corr, code,
                                                             detail):
    corr_path = tmp_path / "corr.json"
    corr_path.write_text(json.dumps(corr))
    assert run(_synth_args(tmp_path) + ["--corr", str(corr_path)]) == code
    assert detail in json.loads(capsys.readouterr().err)["detail"]
    assert not (tmp_path / "data.json").exists()


def test_mine_and_rank_roundtrip(synth_files, tmp_path):
    data_path, _ = synth_files
    mined_path = tmp_path / "mined.json"
    assert run(["mine", "--dataset", str(data_path), "--support", "10",
                "--max-size", "3", "--out", str(mined_path)]) == 0
    n, mined = load_motifs(mined_path)
    assert n == 30
    assert len(mined) > 0

    ranked_path = tmp_path / "ranked.json"
    assert run(["rank", "--dataset", str(data_path), "--motifs", str(mined_path),
                "--dt", "0.5", "--st", "2", "--k", "5",
                "--out", str(ranked_path)]) == 0
    doc = json.loads(ranked_path.read_text())
    assert 0 < len(doc["motifs"]) <= 5
    for entry in doc["motifs"]:
        assert "cs" in entry
    # the ranked file reparses as a motif file
    load_motifs(ranked_path)


def test_explain_single_graph(synth_files, tmp_path, capsys):
    data_path, motif_path = synth_files
    out = tmp_path / "ex.json"
    assert run(["explain", "--motifs", str(motif_path),
                "--dataset", str(data_path), "--graph", "0",
                "--mask", "toggle", "--rho", "0.2,0.6,1.0",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["graph"] == 0
    assert doc["depth"] == "exact"
    assert doc["mask"] == "toggle"
    assert doc["weights"] == "classic"
    assert doc["queries"] == query_budget(3, "exact") == 8
    assert [s["motif"] for s in doc["scores"]] == [0, 1, 2]
    assert all(abs(s["xi"]) <= 1.0 for s in doc["scores"])


def test_explain_all_graphs_and_depth(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "ex.json"
    assert run(["explain", "--motifs", str(motif_path),
                "--dataset", str(data_path), "--graph", "all",
                "--depth", "1", "--mask", "remove", "--rho", "0.2,0.6,1.0",
                "--out", str(out)]) == 0
    docs = json.loads(out.read_text())
    assert [d["graph"] for d in docs] == list(range(20))
    assert all(d["depth"] == 1 for d in docs)
    # dedup may merge coalitions whose removals coincide
    assert all(1 <= d["queries"] <= 4 for d in docs)


def test_explain_graph_file_and_weight_variants(synth_files, tmp_path):
    data_path, motif_path = synth_files
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"n": 30, "edges": [[0, 1], [1, 2]]}))
    for weights in ("classic", "paper", "paper-direct"):
        out = tmp_path / f"ex-{weights}.json"
        assert run(["explain", "--motifs", str(motif_path),
                    "--graph", str(gfile), "--weights", weights,
                    "--rho", "0.2,0.6,1.0", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        expected = {"classic": "classic", "paper": "paper-inverse",
                    "paper-direct": "paper-direct"}[weights]
        assert doc["weights"] == expected


def test_explain_average_mask_needs_dataset(synth_files, tmp_path, capsys):
    _, motif_path = synth_files
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"n": 30, "edges": []}))
    code = run(["explain", "--motifs", str(motif_path), "--graph", str(gfile),
                "--mask", "average", "--rho", "0.2,0.6,1.0",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "background" in json.loads(capsys.readouterr().err)["detail"]


def test_explain_surrogate_blackbox(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "ex.json"
    assert run(["explain", "--motifs", str(motif_path),
                "--dataset", str(data_path), "--graph", "1",
                "--blackbox", "surrogate", "--epochs", "50",
                "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert len(doc["scores"]) == 3


def test_explain_scorer_requires_rho(synth_files, tmp_path, capsys):
    data_path, motif_path = synth_files
    code = run(["explain", "--motifs", str(motif_path),
                "--dataset", str(data_path), "--graph", "0",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    assert "--rho" in json.loads(capsys.readouterr().err)["detail"]


def test_explain_lattice_guardrail(tmp_path, capsys):
    # 21 single-edge motifs exceed the default exact limit
    motifs = {"n": 50, "motifs": [
        {"id": i, "class": i % 2, "edges": [[2 * i, 2 * i + 1]]}
        for i in range(21)]}
    motif_path = tmp_path / "many.json"
    motif_path.write_text(json.dumps(motifs))
    gfile = tmp_path / "graph.json"
    gfile.write_text(json.dumps({"n": 50, "edges": []}))
    code = run(["explain", "--motifs", str(motif_path), "--graph", str(gfile),
                "--rho", ",".join(["0.5"] * 21),
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "LatticeTooLargeError"


@pytest.mark.parametrize("depth", ["foo", "0", "4"])
@pytest.mark.parametrize("command", [["explain", "--graph", "all"], ["eval", "global"]])
def test_depth_is_checked_before_the_blackbox_is_built(synth_files, tmp_path, capsys,
                                                       monkeypatch, command, depth):
    data_path, motif_path = synth_files
    out = tmp_path / "x.json"
    args = command + ["--motifs", str(motif_path), "--dataset", str(data_path),
                      "--depth", depth, "--out", str(out)]
    # a command that cannot start would exit 4 if the black box came first
    missing = ["--blackbox", "external", "--external-cmd", str(tmp_path / "missing")]
    assert run(args + missing) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ParameterError"
    # and no surrogate is trained for a run that cannot go on
    monkeypatch.setattr(motifshap.cli, "train_linear_surrogate",
                        lambda *a, **k: pytest.fail("surrogate trained"))
    assert run(args + ["--blackbox", "surrogate"]) == 2
    capsys.readouterr()
    assert not out.exists()


@pytest.mark.parametrize("command, error", [
    (["explain", "--graph", "all"], "ParameterError"),
    (["explain", "--dataset", "{data}", "--graph", "99"], "ParameterError"),
    (["explain", "--graph", "{graph31}"], "ParameterError"),
    (["eval", "global", "--dataset", "{data}", "--limit", "0"], "ParameterError"),
    (["eval", "approx-corr", "--dataset", "{data}", "--depths", "1", "--limit", "0"],
     "ParameterError"),
    (["explain", "--dataset", "{data}", "--graph", "0", "--exact-limit", "2"],
     "LatticeTooLargeError"),
    (["eval", "global", "--dataset", "{data}", "--exact-limit", "2"], "LatticeTooLargeError"),
    (["eval", "approx-corr", "--dataset", "{data}", "--depths", "1", "--exact-limit", "2"],
     "LatticeTooLargeError"),
    (["eval", "global", "--dataset", "{data}", "--rho", "abc"], "ParameterError"),
    (["eval", "global", "--dataset", "{data}", "--rho", ","], "ParameterError"),
    (["eval", "approx-corr", "--dataset", "{data}", "--depths", "a"], "ParameterError"),
    (["eval", "approx-corr", "--dataset", "{data}", "--depths", ","], "ParameterError"),
    (["explain", "--dataset", "{data31}", "--graph", "0"], "ParameterError"),
], ids=["all-without-dataset", "index-out-of-range", "file-over-31-nodes",
        "global-limit-0", "approx-corr-limit-0", "explain-exact-limit",
        "global-exact-limit", "approx-corr-exact-limit", "global-rho",
        "global-rho-empty", "depths-unparsable", "depths-empty", "dataset-over-31-nodes"])
def test_usage_is_checked_before_the_blackbox_is_built(synth_files, tmp_path, capsys,
                                                       monkeypatch, command, error):
    data_path, motif_path = synth_files
    graph31 = tmp_path / "graph31.json"
    graph31.write_text(json.dumps({"n": 31, "edges": [[0, 30]]}))
    data31 = tmp_path / "data31.json"
    data31.write_text(json.dumps({"n": 31, "graphs": [{"label": 0, "edges": [[0, 30]]},
                                                      {"label": 1, "edges": [[0, 1]]}]}))
    out = tmp_path / "x.json"
    args = [a.format(data=data_path, graph31=graph31, data31=data31) for a in command]
    args += ["--motifs", str(motif_path), "--out", str(out)]
    # a command that cannot start would exit 4 if the black box came first
    missing = ["--blackbox", "external", "--external-cmd", str(tmp_path / "missing")]
    assert run(args + missing) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    # and no surrogate is trained for a run that cannot go on
    monkeypatch.setattr(motifshap.cli, "train_linear_surrogate",
                        lambda *a, **k: pytest.fail("surrogate trained"))
    train = [] if "--dataset" in command else ["--train-dataset", str(data_path)]
    assert run(args + ["--blackbox", "surrogate"] + train) == 2
    assert json.loads(capsys.readouterr().err)["error"] == error
    assert not out.exists()


@pytest.mark.parametrize("kind, detail", [
    ("duplicate-ids", "duplicate motif ids: [{0}, {0}, {1}]"),
    ("empty", "at least one motif is required"),
], ids=["duplicate-ids", "empty"])
@pytest.mark.parametrize("command", [
    ["explain", "--graph", "all"], ["eval", "global"], ["eval", "approx-corr", "--depths", "1"],
], ids=["explain", "global", "approx-corr"])
def test_a_bad_motif_file_is_refused_before_the_blackbox_is_built(
        synth_files, tmp_path, capsys, monkeypatch, command, kind, detail):
    data_path, motif_path = synth_files
    doc = json.loads(motif_path.read_text())
    ids = [m["id"] for m in doc["motifs"]]
    if kind == "empty":
        doc["motifs"] = []
    else:
        doc["motifs"][2]["id"] = ids[0]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    detail = detail.format(*sorted(ids))
    no_graphs = tmp_path / "no-graphs.json"
    no_graphs.write_text(json.dumps({"n": 30, "graphs": []}))
    out = tmp_path / "x.json"
    monkeypatch.setattr(motifshap.cli, "train_linear_surrogate",
                        lambda *a, **k: pytest.fail("surrogate trained"))
    missing = ["--blackbox", "external", "--external-cmd", str(tmp_path / "missing")]
    # the request is refused even when there is no graph to explain
    for dataset in (data_path, no_graphs):
        args = command + ["--dataset", str(dataset), "--motifs", str(bad), "--out", str(out)]
        for blackbox in (missing, ["--blackbox", "surrogate"]):
            assert run(args + blackbox) == 2
            assert json.loads(capsys.readouterr().err) == {
                "error": "ParameterError", "detail": detail}
    assert not out.exists()


def test_eval_global_refuses_a_dataset_without_graphs_before_the_blackbox_is_built(
        synth_files, tmp_path, capsys, monkeypatch):
    _, motif_path = synth_files
    no_graphs = tmp_path / "no-graphs.json"
    no_graphs.write_text(json.dumps({"n": 30, "graphs": []}))
    out = tmp_path / "x.json"
    args = ["eval", "global", "--dataset", str(no_graphs), "--motifs", str(motif_path),
            "--out", str(out)]
    monkeypatch.setattr(motifshap.cli, "GroundTruthScorer",
                        lambda *a, **k: pytest.fail("scorer built"))
    for blackbox in (["--blackbox", "external", "--external-cmd", "no-such-cmd"],
                     ["--blackbox", "scorer", "--rho", "0.2,0.6,1.0"]):
        assert run(args + blackbox) == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "ParameterError", "detail": "no explanations to aggregate"}
    assert not out.exists()


def test_a_training_set_over_another_universe_is_refused_before_training(
        synth_files, tmp_path, capsys, monkeypatch):
    data_path, motif_path = synth_files
    train = tmp_path / "train40.json"
    train.write_text(json.dumps({"n": 40, "graphs": [{"label": 0, "edges": [[0, 1]]},
                                                      {"label": 1, "edges": [[0, 39]]}]}))
    monkeypatch.setattr(motifshap.cli, "train_linear_surrogate",
                        lambda *a, **k: pytest.fail("surrogate trained"))
    out = tmp_path / "x.json"
    assert run(["explain", "--motifs", str(motif_path), "--dataset", str(data_path),
                "--graph", "0", "--blackbox", "surrogate", "--train-dataset", str(train),
                "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "UniverseMismatchError", "detail": "training set over 40 nodes, motifs over 30"}
    assert not out.exists()


@pytest.mark.parametrize("flags", [
    ["--rho", "nan,0.6,1.0"],
    ["--rho", "0.2,inf,1.0"],
    ["--rho", "0.2,0.6,1.0", "--beta", "nan"],
    ["--rho", "0.2,0.6,1.0", "--beta", "inf"],
    ["--blackbox", "surrogate", "--lr", "nan", "--epochs", "5"],
    ["--blackbox", "surrogate", "--lr", "inf", "--epochs", "5"],
    ["--blackbox", "surrogate", "--lr", "-1", "--epochs", "5"],
    ["--blackbox", "surrogate", "--lr", "0", "--epochs", "5"],
    ["--blackbox", "surrogate", "--epochs", "-3"],
    ["--blackbox", "external", "--external-cmd", "{missing}", "--timeout", "nan"],
    ["--blackbox", "external", "--external-cmd", "{missing}", "--timeout", "-1"],
    ["--blackbox", "external", "--external-cmd", "{missing}", "--timeout", "0"],
], ids=["rho-nan", "rho-inf", "beta-nan", "beta-inf", "lr-nan", "lr-inf",
        "lr-negative", "lr-zero", "epochs-negative", "timeout-nan", "timeout-negative", "timeout-zero"])
def test_invalid_blackbox_parameters_exit_2(synth_files, tmp_path, capsys, flags):
    data_path, motif_path = synth_files
    out = tmp_path / "x.json"
    flags = [f.format(missing=tmp_path / "missing") for f in flags]
    # a timeout is checked before the command is started, which would exit 4
    assert run(["explain", "--motifs", str(motif_path), "--dataset", str(data_path),
                "--graph", "0", "--out", str(out)] + flags) == 2
    assert json.loads(capsys.readouterr().err)["error"] == "ConfigurationError"
    assert not out.exists()


@pytest.mark.parametrize("flags, detail", [
    (["--blackbox", "surrogate"], "--blackbox surrogate needs --train-dataset"),
    (["--blackbox", "external"], "--blackbox external needs --external-cmd"),
], ids=["surrogate-without-training-set", "external-without-command"])
def test_a_blackbox_without_its_source_exits_2(synth_files, tmp_path, capsys, flags, detail):
    _, motif_path = synth_files
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 30, "edges": [[0, 1]]}))
    out = tmp_path / "x.json"
    assert run(["explain", "--motifs", str(motif_path), "--graph", str(graph),
                "--out", str(out)] + flags) == 2
    assert json.loads(capsys.readouterr().err) == {"error": "ParameterError", "detail": detail}
    assert not out.exists()


@pytest.mark.parametrize("command", [["rank"], ["eval", "expected", "--rho", "0.5"]],
                         ids=["rank", "eval-expected"])
def test_motifs_over_another_universe_are_refused(synth_files, tmp_path, capsys, command):
    data_path, _ = synth_files
    motifs31 = tmp_path / "motifs31.json"
    motifs31.write_text(json.dumps({"n": 31, "motifs": [
        {"id": 0, "edges": [[0, 1], [1, 30]]}]}))
    out = tmp_path / "x.json"
    assert run([*command, "--dataset", str(data_path), "--motifs", str(motifs31),
                "--out", str(out)]) == 2
    assert json.loads(capsys.readouterr().err) == {
        "error": "ParameterError", "detail": "motif file over 31 nodes, dataset over 30"}
    assert not out.exists()


def test_depth_is_recorded_as_given(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "ex.json"
    assert run(["explain", "--motifs", str(motif_path), "--dataset", str(data_path),
                "--graph", "0", "--depth", "2", "--rho", "0.2,0.6,1.0",
                "--out", str(out)]) == 0
    assert json.loads(out.read_text())["depth"] == 2
    manifest = json.loads((tmp_path / "ex.json.manifest.json").read_text())
    assert manifest["config"]["depth"] == "2"


@pytest.mark.parametrize("text", [
    "{broken",
    # past the 4300 digits that int() reads, or else not a binary label
    '{"n": 3, "graphs": [{"label": 1' + "0" * 4999 + ', "edges": []}]}',
], ids=["broken", "5000-digit-label"])
def test_malformed_dataset_exits_3(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code = run(["mine", "--dataset", str(bad), "--support", "1",
                "--max-size", "2", "--out", str(tmp_path / "x.json")])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"


@pytest.mark.parametrize("reader", ["dataset", "motifs", "graph", "corr", "config"])
@pytest.mark.parametrize("raw, detail", [
    (b'\xff{"n": 3}', "{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff in position 0: "
                       "invalid start byte"),
    ('{"n": 3}'.encode("utf-16"), "{path}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                                  "in position 0: invalid start byte"),
    (codecs.BOM_UTF8 + b'{"n": 3}', "{path}: invalid JSON: Unexpected UTF-8 BOM (decode using "
                                    "utf-8-sig): line 1 column 1 (char 0)"),
], ids=["byte-0xff", "utf-16", "utf-8-bom"])
def test_undecodable_input_exits_3(synth_files, tmp_path, capsys, reader, raw, detail):
    data_path, motif_path = synth_files
    bad = tmp_path / "bad.json"
    bad.write_bytes(raw)
    out = str(tmp_path / "out.json")
    argv = {
        "dataset": ["eval", "separability", "--dataset", str(bad), "--out", out],
        "motifs": ["rank", "--dataset", str(data_path), "--motifs", str(bad), "--out", out],
        "graph": ["explain", "--motifs", str(motif_path), "--graph", str(bad),
                  "--rho", "0.2,0.6,1.0", "--out", out],
        "corr": _synth_args(tmp_path / "x") + ["--corr", str(bad)],
        "config": ["pipeline", str(bad)],
    }[reader]
    assert run(argv) == 3
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "InputFormatError", "detail": detail.format(path=bad)}


SYNTH_FLAGS = ["--nodes", "30", "--graphs", "20", "--density", "0.2", "--motifs", "3",
               "--motif-edges", "3", "--rho", "0.2,0.6,1.0"]


@pytest.mark.parametrize("command", [
    ["synth", *SYNTH_FLAGS, "--out", "same.json", "--motifs-out", "same.json"],
    ["synth", *SYNTH_FLAGS, "--out", "s2.json", "--motifs-out", "s2.json.manifest.json"],
    ["synth", *SYNTH_FLAGS, "--out", "d.json.manifest.json", "--motifs-out", "./d.json"],
    ["eval", "separability", "--dataset", "data.json", "--out", "sep.json",
     "--csv", "sep.json.manifest.json"],
    ["eval", "separability", "--dataset", "data.json", "--out", "same.txt",
     "--csv", "same.txt"],
    ["eval", "expected", "--dataset", "data.json", "--motifs", "motifs.json",
     "--rho", "0.9,0.5,0.7,0.3", "--out", "sub/../exp.json", "--csv", "exp.json"],
    ["pipeline", "pipe.json"],
], ids=["synth-out-is-motifs-out", "synth-motifs-out-is-manifest",
        "synth-out-is-motifs-manifest", "csv-is-manifest", "csv-is-out",
        "csv-is-out-by-another-name", "pipeline-stage"])
def test_colliding_output_paths_exit_2_before_any_input_is_read(tmp_path, monkeypatch,
                                                                capsys, command):
    """Two outputs of one command, or an output and a manifest, at one path
    would lose a file or record a digest that is not the file's."""
    for f in ("data.json", "motifs.json"):
        (tmp_path / f).write_bytes((GOLDEN / f).read_bytes())
    (tmp_path / "sub").mkdir()
    (tmp_path / "pipe.json").write_text(json.dumps({"stages": [
        {"run": "eval", "args": ["separability", "--dataset", "data.json",
                                 "--out", "p.json", "--csv", "p.json"]}]}))
    before = sorted(tmp_path.rglob("*"))
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "load_dataset", lambda *a: pytest.fail("input read"))
    assert run(command) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError" and "share the path" in err["detail"]
    assert sorted(tmp_path.rglob("*")) == before


def test_usage_error_exits_2(capsys):
    assert run(["mine", "--support", "1"]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ParameterError"
    assert run(["no-such-command"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [
    ["synth"], ["eval", "separability"], ["eval", "separability", "--max-pairs", "5"]])
def test_a_negative_seed_exits_2(synth_files, tmp_path, capsys, command):
    data_path, _ = synth_files
    out = tmp_path / "out.json"
    if command == ["synth"]:
        args = _synth_args(tmp_path, seed=-1)
        args[args.index("--out") + 1] = str(out)
    else:
        args = command + ["--dataset", str(data_path), "--seed", "-1", "--out", str(out)]
    assert run(args) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ParameterError"
    assert not out.exists()


def test_eval_separability(synth_files, tmp_path):
    data_path, _ = synth_files
    out = tmp_path / "sep.json"
    csv_path = tmp_path / "sep.csv"
    assert run(["eval", "separability", "--dataset", str(data_path),
                "--out", str(out), "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert 0.0 <= doc["ks_statistic"] <= 1.0
    assert 0.0 <= doc["p_value"] <= 1.0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "ks_statistic,p_value,n_intra,n_inter"
    assert len(lines) == 2


def test_an_unwritable_output_exits_2(synth_files, tmp_path, capsys):
    data_path, _ = synth_files
    out = tmp_path / "nodir" / "sep.json"
    assert run(["eval", "separability", "--dataset", str(data_path),
                "--out", str(out)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == "ParameterError"
    assert err["detail"].startswith(f"cannot write {out}: ")


def test_eval_expected(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "expected.json"
    csv_path = tmp_path / "expected.csv"
    assert run(["eval", "expected", "--dataset", str(data_path),
                "--motifs", str(motif_path), "--rho", "0.2,0.6,1.0",
                "--out", str(out), "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["n_g"] == 20 and doc["n_m"] == 3
    assert len(doc["matrix"]) == 20
    assert len(csv_path.read_text().splitlines()) == 61  # header + 20*3


def test_eval_expected_requires_injections(tmp_path, capsys):
    plain = tmp_path / "plain.json"
    plain.write_text(json.dumps(
        {"n": 3, "graphs": [{"label": 0, "edges": [[0, 1]]},
                            {"label": 1, "edges": []}]}))
    motif_path = tmp_path / "m.json"
    motif_path.write_text(json.dumps(
        {"n": 3, "motifs": [{"id": 0, "class": 1, "edges": [[0, 1]]}]}))
    code = run(["eval", "expected", "--dataset", str(plain),
                "--motifs", str(motif_path), "--rho", "0.5",
                "--out", str(tmp_path / "x.json")])
    assert code == 2
    capsys.readouterr()


def test_eval_approx_corr(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "corr.json"
    csv_path = tmp_path / "corr.csv"
    assert run(["eval", "approx-corr", "--dataset", str(data_path),
                "--motifs", str(motif_path), "--depths", "1,2,3",
                "--mask", "toggle", "--rho", "0.2,0.6,1.0",
                "--limit", "6", "--out", str(out), "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["depths"] == [1, 2, 3]
    assert len(doc["per_graph"]) == 6
    # depth 3 equals exact on 3 motifs, so correlation is 1 wherever defined
    for entry in doc["per_graph"]:
        r = entry["pearson"]["3"]
        assert r is None or r == pytest.approx(1.0, abs=1e-9)
    assert csv_path.read_text().splitlines()[0] == "graph,depth,pearson"


def test_eval_approx_corr_queries_the_exact_lattice_once(synth_files, tmp_path,
                                                        monkeypatch):
    data_path, motif_path = synth_files
    dataset = load_dataset(data_path)
    n, motifs = load_motifs(motif_path)
    scorer = GroundTruthScorer(n, motifs, [0.2, 0.6, 1.0])
    calls = []
    evaluate_batch = GroundTruthScorer.evaluate_batch
    monkeypatch.setattr(GroundTruthScorer, "evaluate_batch",
                        lambda self, gs: calls.extend(gs) or evaluate_batch(self, gs))
    out = tmp_path / "corr.json"
    assert run(["eval", "approx-corr", "--dataset", str(data_path),
                "--motifs", str(motif_path), "--depths", "1,2,3",
                "--mask", "toggle", "--rho", "0.2,0.6,1.0",
                "--limit", "3", "--out", str(out)]) == 0
    # toggle makes every coalition distinct: 2^m queries per graph cover
    # the exact scores and every depth
    assert len(calls) == 3 * 2 ** len(motifs)
    toggle = MaskingStrategy.toggle()
    for entry in json.loads(out.read_text())["per_graph"]:
        g = dataset.graphs[entry["graph"]]
        exact = exact_explain(g, scorer, motifs, toggle)
        for d in (1, 2, 3):
            approx = approx_explain(g, scorer, motifs, toggle, depth=d)
            try:
                want = pearson(approx.scores, exact.scores)
            except UndefinedCorrelationError:
                want = None
            assert entry["pearson"][str(d)] == want


def test_eval_global(synth_files, tmp_path):
    data_path, motif_path = synth_files
    out = tmp_path / "global.json"
    csv_path = tmp_path / "global.csv"
    assert run(["eval", "global", "--dataset", str(data_path),
                "--motifs", str(motif_path), "--mask", "toggle",
                "--rho", "0.2,0.6,1.0", "--out", str(out),
                "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    assert doc["graphs"] == 20
    ranking = doc["ranking"]
    assert len(ranking) == 3
    means = [r["mean_abs_xi"] for r in ranking]
    assert means == sorted(means, reverse=True)
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "motif,rho,mean_xi,mean_abs_xi"
    assert len(lines) == 4


def test_pipeline_runs_stages(synth_files, tmp_path):
    config = {
        "stages": [
            {"run": "synth", "args": _synth_args(tmp_path, seed=9)[1:]},
            {"run": "mine", "args": [
                "--dataset", str(tmp_path / "data.json"), "--support", "10",
                "--max-size", "3", "--out", str(tmp_path / "mined.json")]},
        ]
    }
    cfg_path = tmp_path / "pipe.json"
    cfg_path.write_text(json.dumps(config))
    assert run(["pipeline", str(cfg_path)]) == 0
    assert (tmp_path / "mined.json").exists()


def test_pipeline_empty_stage_list(tmp_path):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"stages": []}))
    assert run(["pipeline", str(cfg)]) == 0


def test_pipeline_stops_on_first_failure(tmp_path, capsys):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"stages": [
        {"run": "mine", "args": ["--dataset", str(tmp_path / "missing.json"),
                                 "--support", "1", "--max-size", "2",
                                 "--out", str(tmp_path / "x.json")]},
        {"run": "synth", "args": _synth_args(tmp_path)[1:]},
    ]}))
    assert run(["pipeline", str(cfg)]) == 3
    assert not (tmp_path / "data.json").exists()
    capsys.readouterr()


@pytest.mark.parametrize("stage", [{"run": "mine", "args": ["--help"]},
                                   {"run": "--version", "args": []}])
def test_a_pipeline_stage_asking_for_help_or_the_version_exits_2(synth_files, tmp_path,
                                                                   capsys, stage):
    data_path, _ = synth_files

    def sep_stage(name):
        return {"run": "eval", "args": ["separability", "--dataset", str(data_path),
                                        "--out", str(tmp_path / name)]}
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"stages": [sep_stage("a.json"), stage,
                                          sep_stage("b.json")]}))
    assert run(["pipeline", str(cfg)]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and json.loads(err[0])["error"] == "ParameterError"
    assert (tmp_path / "a.json").exists() and not (tmp_path / "b.json").exists()
    # outside a pipeline, help and the version still end the process with 0
    for argv in ([stage["run"], *stage["args"]], ["--help"]):
        with pytest.raises(SystemExit) as exc:
            run(argv)
        assert exc.value.code == 0


def test_pipeline_rejects_nesting_and_junk(tmp_path, capsys):
    cfg = tmp_path / "pipe.json"
    cfg.write_text(json.dumps({"stages": [{"run": "pipeline", "args": []}]}))
    assert run(["pipeline", str(cfg)]) == 2
    cfg.write_text(json.dumps({"stages": "all of them"}))
    assert run(["pipeline", str(cfg)]) == 3
    cfg.write_text(json.dumps({"stages": [{"run": "mine", "args": "--support 1"}]}))
    assert run(["pipeline", str(cfg)]) == 3
    cfg.write_text("{bad json")
    assert run(["pipeline", str(cfg)]) == 3
    capsys.readouterr()


def test_blackbox_serve_requires_motifs(capsys):
    assert run(["blackbox-serve", "--rho", "0.5"]) == 2
    capsys.readouterr()


def test_blackbox_serve_invalid_request_exits_3(synth_files, monkeypatch, capsys):
    _, motif_path = synth_files
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"hello":"motif-shap/1"}\n{"id":0,"n":30,"edges":[[1,1,1.0]]}\n'))
    code = run(["blackbox-serve", "--motifs", str(motif_path), "--rho", "0.2,0.6,1.0"])
    assert code == 3
    assert json.loads(capsys.readouterr().err)["error"] == "InputFormatError"


def test_blackbox_serve_request_over_another_universe_exits_2(synth_files, monkeypatch,
                                                              capsys):
    # the universe is checked before the edges, so the self-loop goes unread
    _, motif_path = synth_files
    monkeypatch.setattr(sys, "stdin", io.StringIO(
        '{"hello":"motif-shap/1"}\n{"id":0,"n":31,"edges":[[1,1,1.0]]}\n'))
    code = run(["blackbox-serve", "--motifs", str(motif_path), "--rho", "0.2,0.6,1.0"])
    assert code == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "UniverseMismatchError",
                   "detail": "graph over 31 nodes, scorer over 30"}


def _discovery_stages(d):
    """The README's mine, rank, separability and expected stages over the
    data.json and motifs.json in directory d."""
    data, motifs = str(d / "data.json"), str(d / "motifs.json")
    return [
        ["mine", "--dataset", data, "--support", "10", "--max-size", "3",
         "--out", str(d / "mined.json")],
        ["rank", "--dataset", data, "--motifs", str(d / "mined.json"), "--dt", "0.5",
         "--st", "2", "--k", "5", "--out", str(d / "selected.json")],
        ["eval", "separability", "--dataset", data, "--out", str(d / "sep.json"),
         "--csv", str(d / "sep.csv")],
        ["eval", "expected", "--dataset", data, "--motifs", motifs, "--rho", "0.2,0.6,1.0",
         "--out", str(d / "exp.json"), "--csv", str(d / "exp.csv")],
    ]


def test_pipeline_reads_each_input_once_and_writes_what_separate_runs_write(
        synth_files, tmp_path, parses):
    piped, separate = tmp_path / "piped", tmp_path / "separate"
    for d in (piped, separate):
        d.mkdir()
        for src in synth_files:
            (d / src.name).write_bytes(src.read_bytes())
    config = piped / "pipe.json"
    config.write_text(json.dumps({"stages": [{"run": argv[0], "args": argv[1:]}
                                            for argv in _discovery_stages(piped)]}))
    assert run(["pipeline", str(config)]) == 0
    assert sorted(parses) == [("dataset", str(piped / "data.json")),
                              ("motifs", str(piped / "motifs.json"))]
    remembered = dict(files._parsed)

    for argv in _discovery_stages(separate):
        files._parsed.clear()  # as if each stage ran in its own process
        assert run(argv) == 0
    outputs = ["mined.json", "selected.json", "sep.json", "sep.csv", "exp.json", "exp.csv"]
    for name in outputs:
        assert (piped / name).read_bytes() == (separate / name).read_bytes(), name
    for name in outputs[:3] + outputs[4:5]:
        a, b = (json.loads((d / f"{name}.manifest.json").read_text()) for d in (piped, separate))
        assert list(a["inputs"].values()) == list(b["inputs"].values())
        assert a["output_digest"] == b["output_digest"]

    for name in ("mined.json", "selected.json"):
        raw = (piped / name).read_bytes()
        n, motifs = remembered[("motifs", hashlib.sha256(raw).hexdigest())]
        files._parsed.clear()
        assert (n, list(motifs)) == load_motifs(piped / name)


def test_manifest_records_the_bytes_the_command_parsed(synth_files, tmp_path, monkeypatch):
    data_path, _ = synth_files
    parsed = data_path.read_bytes()
    real_mine = cli.mine

    def replace_input_then_mine(dataset, cfg):
        data_path.write_text('{"n": 30, "graphs": []}\n')
        return real_mine(dataset, cfg)

    monkeypatch.setattr(cli, "mine", replace_input_then_mine)
    out = tmp_path / "mined.json"
    assert run(["mine", "--dataset", str(data_path), "--support", "10",
                "--max-size", "3", "--out", str(out)]) == 0
    manifest = json.loads((tmp_path / "mined.json.manifest.json").read_text())
    assert manifest["inputs"] == {str(data_path): hashlib.sha256(parsed).hexdigest()}
    assert manifest["output_digest"] == hashlib.sha256(out.read_bytes()).hexdigest()


def test_surrogate_trains_on_the_dataset_parsed_once(synth_files, tmp_path, parses):
    data_path, motif_path = synth_files
    assert run(["explain", "--motifs", str(motif_path), "--dataset", str(data_path),
                "--graph", "0", "--depth", "1", "--blackbox", "surrogate", "--epochs", "5",
                "--out", str(tmp_path / "ex.json")]) == 0
    assert parses.count(("dataset", str(data_path))) == 1
    manifest = json.loads((tmp_path / "ex.json.manifest.json").read_text())
    assert manifest["inputs"][str(data_path)] == hashlib.sha256(data_path.read_bytes()).hexdigest()
