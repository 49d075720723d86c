"""discover: the README's discovery path as one `motifshap pipeline` run.

Set-up runs the README's synth command (n = 100, 200 graphs, density
0.2, six disjoint 10-edge motifs with rho 0, 0.2, ..., 1, seed 7) as a
child process, then renames the nodes and reorders the graphs by a
permutation drawn from the benchmark seed. The renamed dataset is
isomorphic to the README's, so every seed mines the same number of
motifs (20 809) and does the same work on different bytes. A round is
one pipeline child: mine (support 25, up to 6 edges), rank (dt 0.85,
st 3, k 10), eval separability, eval expected; each stage is an
operation.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import numpy as np

from harness import peak_rss_mb, per
from reference import check_expected, check_mined, check_selected, check_separability
from tracing import Tracer

RHO = "0,0.2,0.4,0.6,0.8,1"
N_GRAPHS = 200
SUPPORT, MAX_SIZE, DT, ST, K = 25, 6, 0.85, 3, 10
STAGES = [
    ("mine", ["mine", "--dataset", "data.json", "--support", str(SUPPORT),
              "--max-size", str(MAX_SIZE), "--out", "mined.json"]),
    ("rank", ["rank", "--dataset", "data.json", "--motifs", "mined.json", "--dt", str(DT),
              "--st", str(ST), "--k", str(K), "--out", "selected.json"]),
    ("separability", ["eval", "separability", "--dataset", "data.json", "--out", "sep.json"]),
    ("expected", ["eval", "expected", "--dataset", "data.json", "--motifs", "motifs.json",
                  "--rho", RHO, "--out", "exp.json"]),
]
OUTPUTS = ["mined.json", "selected.json", "sep.json", "exp.json"]
CHILD_TIMEOUT = 150.0
SETUP_REPEATS = 3


def synth_args(out: str, motifs_out: str) -> list[str]:
    return ["synth", "--nodes", "100", "--graphs", str(N_GRAPHS), "--density", "0.2",
            "--motifs", "6", "--motif-edges", "10", "--rho", RHO, "--seed", "7",
            "--out", out, "--motifs-out", motifs_out]


def relabel(work: str, seed: int) -> None:
    """Write data.json and motifs.json: raw-*.json with node u renamed
    perm[u] and the graphs in a seeded order."""
    data = _read(os.path.join(work, "raw-data.json"))
    motifs = _read(os.path.join(work, "raw-motifs.json"))
    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(seed)))
    perm = [int(x) for x in rng.permutation(data["n"])]
    order = [int(x) for x in rng.permutation(len(data["graphs"]))]

    def rename(edges):
        return sorted(sorted((perm[u], perm[v])) for u, v in edges)

    data["graphs"] = [{"label": data["graphs"][j]["label"],
                       "edges": rename(data["graphs"][j]["edges"])} for j in order]
    data["injections"] = [data["injections"][j] for j in order]
    for m in motifs["motifs"]:
        m["edges"] = rename(m["edges"])
    for name, doc in (("data.json", data), ("motifs.json", motifs)):
        with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def run(ctx) -> dict:
    work, tracer = ctx.work, ctx.tracer
    traces: dict[str, list[str]] = {"setup": [], "pipeline": []}

    def motifshap(args: list[str], kind: str) -> int:
        if tracer is None:
            cmd = [sys.executable, "-m", "motifshap", *args]
        else:
            path = os.path.join(work, f"trace-{kind}-{len(traces[kind])}.json")
            traces[kind].append(path)
            cmd = [sys.executable, os.path.join(ctx.bench_dir, "traced_cli.py"),
                   "--trace-out", path, *args]
        return subprocess.run(cmd, cwd=work, timeout=CHILD_TIMEOUT).returncode

    def setup():
        code = motifshap(synth_args("raw-data.json", "raw-motifs.json"), "setup")
        if code != 0:
            raise RuntimeError(f"motifshap synth exited with {code}")
        relabel(work, ctx.seed)

    _, setup_s = ctx.repeated_setup(setup, SETUP_REPEATS)
    config = {"stages": [{"run": args[0], "args": args[1:]} for _, args in STAGES]}
    with open(os.path.join(work, "pipeline.json"), "w", encoding="utf-8") as fh:
        json.dump(config, fh)

    def one_round():
        for name in OUTPUTS:
            if os.path.exists(os.path.join(work, name)):
                os.unlink(os.path.join(work, name))
        code = motifshap(["pipeline", "pipeline.json"], "pipeline")
        done = 0
        while done < len(OUTPUTS) and os.path.exists(os.path.join(work, OUTPUTS[done])):
            done += 1
        ctx.attempted += len(STAGES)
        if done < len(STAGES):
            ctx.failed += len(STAGES) - done
            ctx.errors.append(f"pipeline exited with {code} after {done} stages")

    elapsed, rounds = ctx.closed_loop(one_round)
    rss = peak_rss_mb()
    errors = check_outputs(work) if ctx.failed == 0 else []

    result = {
        "errors": errors,
        "setup_s": setup_s,
        "graphs_per_s": N_GRAPHS * rounds / elapsed,
        "pipeline_s": elapsed / rounds,
        "peak_rss_mb": rss,
        "layers": {},
    }
    if tracer is not None:
        setup_trace = Tracer()
        for path in traces["setup"]:
            setup_trace.merge_json(_read(path))
        for path in traces["pipeline"]:
            tracer.merge_json(_read(path))
        s, counts = tracer.seconds, tracer.counts
        runs = len(traces["pipeline"])
        result["layers"] = {
            "synth.generate_s": per(setup_trace.seconds["synth.generate"],
                                    setup_trace.calls["synth.generate"]),
            "graphs.load_dataset_s": per(s["graphs.load_dataset"], runs),
            "graphs.json_write_s": per(s["graphs.json_write"], runs),
            "mining.mine_s": per(s["mining.mine"], runs),
            "mining.motifs_mined": per(counts["mining.motifs_mined"], runs),
            "mining.rank_s": per(s["mining.rank"], runs),
            "mining.motifs_selected": per(counts["mining.motifs_selected"], runs),
            "stats.separability_s": per(s["stats.separability"], runs),
            "stats.pairs": per(counts["stats.pairs"], runs),
            "stats.expected_s": per(s["stats.expected"], runs),
        }
        for name, _ in STAGES:
            result["layers"][f"cli.stage_s.{name}"] = per(s[f"cli.stage.{name}"], runs)
    return result


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def check_outputs(work: str) -> list[str]:
    """Check the last pipeline's outputs against the dataset and motif
    files it read."""
    data = _read(os.path.join(work, "data.json"))
    graphs = [{tuple(e) for e in g["edges"]} for g in data["graphs"]]
    labels = [g["label"] for g in data["graphs"]]
    planted = _read(os.path.join(work, "motifs.json"))["motifs"]
    rho = [float(x) for x in RHO.split(",")]
    full = planted[rho.index(1.0)]
    mined = [frozenset(tuple(e) for e in m["edges"])
             for m in _read(os.path.join(work, "mined.json"))["motifs"]]
    selected = [(frozenset(tuple(e) for e in m["edges"]), m["cs"])
                for m in _read(os.path.join(work, "selected.json"))["motifs"]]
    errors = check_mined(mined, graphs, SUPPORT, 2, MAX_SIZE,
                         frozenset(tuple(e) for e in full["edges"]))
    errors += check_selected(selected, graphs, labels, DT, ST, K)
    errors += check_separability(_read(os.path.join(work, "sep.json")), graphs, labels)
    errors += check_expected(_read(os.path.join(work, "exp.json"))["matrix"],
                             data["injections"], [m["class"] for m in planted], rho)
    return errors
