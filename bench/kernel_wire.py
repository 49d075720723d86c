"""kernel-wire: depth-2 explanations against a trained model served over
the wire protocol.

Inputs from the seed: 100 graphs over n = 116 nodes (connectome-sized)
at density 0.2 with 28 disjoint 3-edge motifs, each injected with
probability 0.5 (synth.generate). Set-up writes the dataset as JSON,
trains the linear surrogate on it in process, and spawns
`motifshap blackbox-serve --blackbox surrogate`, which trains the same
model from the file. A round is one depth-2 explanation under average
masking (weighted graphs), 1 + 28 + 378 = 407 queries, on graphs
0, 1, 2, ... in turn.

After the loop, the first graph is explained again in process with the
in-process surrogate (bit-identical scores expected) and by the depth-2
formula of reference.py.
"""

from __future__ import annotations

import json
import os
import sys

from motifshap import (
    MaskingStrategy,
    SynthConfig,
    approx_explain,
    generate,
    save_dataset,
    train_linear_surrogate,
)

from harness import explain_layers, peak_rss_mb, per
from reference import (
    average_masked,
    check_kernel,
    edge_frequencies,
    linear_model_value,
    pair_coefficients,
    shapley_reference,
    union_of,
)
from tracing import CountingExternal, TimedMasking

N, DENSITY, N_GRAPHS, N_MOTIFS, MOTIF_EDGES, DEPTH = 116, 0.2, 100, 28, 3, 2
RHO = (0.5,) * N_MOTIFS
SETUP_REPEATS = 3


def run(ctx) -> dict:
    tracer = ctx.tracer
    data_path = os.path.join(ctx.work, "train.json")
    if tracer is None:
        gen, save, train, spawn = generate, save_dataset, train_linear_surrogate, CountingExternal
    else:
        gen = tracer.wrap("synth.generate", generate)
        save = tracer.wrap("graphs.json_write", save_dataset)
        train = tracer.wrap("blackbox.train", train_linear_surrogate)
        spawn = tracer.wrap("blackbox.spawn", CountingExternal)

    server_traces = []

    def server_command() -> list[str]:
        if tracer is None:
            return [sys.executable, "-m", "motifshap", "blackbox-serve",
                    "--blackbox", "surrogate", "--train-dataset", data_path]
        trace_out = os.path.join(ctx.work, f"server-{len(server_traces)}.json")
        server_traces.append(trace_out)
        return [sys.executable, os.path.join(ctx.bench_dir, "serve_timed.py"),
                "--train-dataset", data_path, "--trace-out", trace_out]

    def setup():
        cfg = SynthConfig(n=N, n_graphs=N_GRAPHS, density=DENSITY,
                          motif_spec=(N_MOTIFS, MOTIF_EDGES), rho=RHO, seed=ctx.seed)
        dataset, _, motifs = gen(cfg)
        save(dataset, data_path)
        model = train(dataset)
        bb = spawn(server_command(), tracer)
        return dataset, motifs, model, bb

    (dataset, motifs, model, bb), setup_s = ctx.repeated_setup(
        setup, SETUP_REPEATS, discard=lambda state: state[3].close())

    if tracer is None:
        strategy, explain = MaskingStrategy.average(dataset), approx_explain
    else:
        strategy = TimedMasking("average", dataset, tracer=tracer)
        explain = tracer.wrap("engine.explain", approx_explain)

    outputs = []

    def one_round():
        i = ctx.attempted % N_GRAPHS
        sent = bb.queries
        ex = ctx.attempt(lambda: explain(dataset.graphs[i], bb, motifs, strategy,
                                         depth=DEPTH, graph_id=i))
        if ex is not None:
            outputs.append((i, ex, bb.queries - sent))

    try:
        elapsed, rounds = ctx.closed_loop(one_round)
    finally:
        bb.close()
    rss = peak_rss_mb()

    errors = []
    for k, (i, ex, sent) in enumerate(outputs):
        in_process = reference = None
        if k == 0:
            g = dataset.graphs[i]
            in_process = approx_explain(g, model, motifs, MaskingStrategy.average(dataset),
                                        depth=DEPTH, graph_id=i).scores
            reference = depth2_reference(set(g.edges), dataset, motifs, model)
        errors += [f"graph {i}: {e}" for e in
                   check_kernel(ex.scores, ex.query_count, sent, N_MOTIFS,
                                in_process, reference)]
    if not outputs:
        errors.append("no explanation completed")

    n_ex = len(outputs)
    result = {
        "errors": errors,
        "setup_s": setup_s,
        "graphs_per_s": n_ex / elapsed,
        "pipeline_s": elapsed / rounds,
        "peak_rss_mb": rss,
        "layers": {},
    }
    if tracer is not None:
        for path in server_traces:
            with open(path, encoding="utf-8") as fh:
                tracer.merge_json(json.load(fh))
        s, c, counts = tracer.seconds, tracer.calls, tracer.counts
        queries = sum(ex.query_count for _, ex, _ in outputs)
        roundtrip = 1e6 * per(s["blackbox.wire"], c["blackbox.wire"])
        model_us = 1e6 * per(s["blackbox.server_model"], c["blackbox.server_model"])
        result["layers"] = {
            **explain_layers(tracer, n_ex, queries, "blackbox.wire"),
            "blackbox.us_per_query": roundtrip,
            "blackbox.wire_roundtrip_us": roundtrip,
            "blackbox.server_model_us": model_us,
            "blackbox.transport_us": roundtrip - model_us,
            "blackbox.request_bytes": per(counts["blackbox.request_bytes"],
                                          c["blackbox.server_model"]),
            "blackbox.spawn_s": per(s["blackbox.spawn"], c["blackbox.spawn"]),
            "blackbox.train_s": per(s["blackbox.train"], c["blackbox.train"]),
            "synth.generate_s": per(s["synth.generate"], c["synth.generate"]),
            "graphs.load_dataset_s": per(s["graphs.load_dataset"], c["graphs.load_dataset"]),
            "graphs.json_write_s": per(s["graphs.json_write"], c["graphs.json_write"]),
        }
    return result


def depth2_reference(g_edges: set, dataset, motifs, model) -> list[float]:
    """Depth-2 scores of g from reference.py: average masks built with
    sets and dicts, the trained model's coefficients applied directly."""
    graphs = [set(h.edges) for h in dataset.graphs]
    freq = edge_frequencies(graphs)
    motif_edges = [set(m.edges) for m in motifs]
    coef = pair_coefficients(N, model.weights)

    def value(masked: frozenset) -> float:
        weights = average_masked(g_edges, union_of(motif_edges, masked), freq)
        return linear_model_value(weights, coef, model.bias)

    scores, _ = shapley_reference(value, len(motifs), DEPTH)
    return scores
