"""exact-lattice: exact explanations with the in-process ground-truth scorer.

Inputs from the seed: 200 graphs over n = 100 nodes at density 0.18 with
12 disjoint 7-edge motifs (synth.generate). Importance k/11 for motif k,
so motif 0 is a zero-importance (dummy) player. Operations alternate
between toggle masking (all 4096 coalitions are distinct queries) and
remove masking (coalitions that differ only in motifs absent from the
graph collapse, leaving 2^k queries), on graphs 0, 1, 2, ... in turn. A
round is one toggle and one remove explanation.
"""

from __future__ import annotations

from motifshap import (
    Graph,
    GroundTruthScorer,
    MaskingStrategy,
    SynthConfig,
    exact_explain,
    generate,
)

from harness import explain_layers, peak_rss_mb, per
from reference import check_exact
from tracing import TimedBlackBox, TimedMasking

# At density 0.2 the masked graphs have 950 to 1090 edges, and CPython
# doubles a frozenset's table past 1024 entries, so peak RSS read 427 to
# 567 MB depending on whether a seed's graphs crossed 1024. At 0.18 they
# stay below it and peak RSS depends on the engine, not on the seed.
N, DENSITY, N_GRAPHS, N_MOTIFS, MOTIF_EDGES = 100, 0.18, 200, 12, 7
IMPORTANCE = tuple(k / (N_MOTIFS - 1) for k in range(N_MOTIFS))
KINDS = ("toggle", "remove")
# with 40 graphs set-up took under 0.1 s and its median of 7 still spread
# by 45% over ten runs; 200 graphs, as in the README's dataset, take
# about 0.3 s
SETUP_REPEATS = 5


def run(ctx) -> dict:
    tracer = ctx.tracer
    gen = generate if tracer is None else tracer.wrap("synth.generate", generate)

    def setup():
        cfg = SynthConfig(n=N, n_graphs=N_GRAPHS, density=DENSITY,
                          motif_spec=(N_MOTIFS, MOTIF_EDGES), rho=IMPORTANCE,
                          seed=ctx.seed)
        dataset, _, motifs = gen(cfg)
        return dataset, motifs, GroundTruthScorer(N, motifs, IMPORTANCE)

    (dataset, motifs, scorer), setup_s = ctx.repeated_setup(setup, SETUP_REPEATS)

    if tracer is None:
        bb, explain = scorer, exact_explain
        strategies = {"toggle": MaskingStrategy.toggle(), "remove": MaskingStrategy.remove()}
    else:
        bb, explain = TimedBlackBox(scorer, tracer), tracer.wrap("engine.explain", exact_explain)
        strategies = {k: TimedMasking(k, tracer=tracer) for k in KINDS}

    outputs = []

    def one_round():
        for kind in KINDS:
            i = ctx.attempted % N_GRAPHS
            ex = ctx.attempt(lambda: explain(dataset.graphs[i], bb, motifs,
                                             strategies[kind], graph_id=i))
            if ex is not None:
                outputs.append((i, kind, ex))

    elapsed, rounds = ctx.closed_loop(one_round)
    rss = peak_rss_mb()

    motif_edges = [set(m.edges) for m in motifs]

    def value(edges):
        return scorer.evaluate(Graph(N, frozenset(edges)))

    errors = []
    for i, kind, ex in outputs:
        for err in check_exact(ex.scores, ex.query_count, kind,
                               set(dataset.graphs[i].edges), motif_edges,
                               IMPORTANCE, value):
            errors.append(f"graph {i}: {err}")

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
        s, c = tracer.seconds, tracer.calls
        queries = sum(ex.query_count for _, _, ex in outputs)
        result["layers"] = {
            **explain_layers(tracer, n_ex, queries, "blackbox.eval"),
            "blackbox.us_per_query": 1e6 * per(s["blackbox.eval"], c["blackbox.eval"]),
            "synth.generate_s": per(s["synth.generate"], c["synth.generate"]),
        }
    return result
