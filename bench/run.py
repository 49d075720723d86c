"""motifshap benchmark: one command, three workloads.

    python3 bench/run.py --workload exact-lattice --seed 1 --seconds 20 --trace 0

Each workload sets itself up several times (setup_s is the median),
then runs a closed loop of whole rounds from this process, with at most
one child process at a time, until --seconds have passed. It then
checks the outputs against computations made apart from the program
(reference.py) and prints every metric by name and unit. The last line
of standard output is one JSON object:

    {"correct": bool, "attempted": int, "failed": int, "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics; with --trace 1
the calls into each layer are timed by wrappers (tracing.py) and the
metrics are the per-layer ones. Each run also merges its metrics into
bench/results/<workload>.json, so the latest untraced and traced figures
of a workload sit side by side with the tracing overhead between them.

The benchmark imports motifshap from the src/ directory of the checkout
it sits in and exits with code 2 when there is none.
"""

from __future__ import annotations

import argparse
import importlib
import json
import math
import os
import shutil
import sys

WORKLOADS = {
    "exact-lattice": "exact_lattice",
    "kernel-wire": "kernel_wire",
    "discover": "discover",
}

END_TO_END = {
    "setup_s": "s",
    "graphs_per_s": "graphs/s",
    "pipeline_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "engine.explain_s": "s",
    "engine.self_s": "s",
    "engine.coalitions": "count",
    "engine.queries": "count",
    "engine.dedup_ratio": "ratio",
    "masking.mask_s": "s",
    "masking.calls": "count",
    "masking.us_per_call": "us",
    "blackbox.eval_s": "s",
    "blackbox.us_per_query": "us",
    "blackbox.wire_roundtrip_us": "us",
    "blackbox.server_model_us": "us",
    "blackbox.transport_us": "us",
    "blackbox.request_bytes": "bytes",
    "blackbox.spawn_s": "s",
    "blackbox.train_s": "s",
    "synth.generate_s": "s",
    "graphs.load_dataset_s": "s",
    "graphs.json_write_s": "s",
    "mining.mine_s": "s",
    "mining.motifs_mined": "count",
    "mining.rank_s": "s",
    "mining.motifs_selected": "count",
    "stats.separability_s": "s",
    "stats.pairs": "count",
    "stats.expected_s": "s",
    "cli.stage_s.mine": "s",
    "cli.stage_s.rank": "s",
    "cli.stage_s.separability": "s",
    "cli.stage_s.expected": "s",
    "traced.graphs_per_s": "graphs/s",
    "traced.pipeline_s": "s",
}


def save_results(path: str, workload: str, seed: int, trace: bool, metrics: dict) -> None:
    """Keep the latest untraced and traced metrics of the workload side by
    side, with the tracing overhead once both exist."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        doc = {}
    doc["workload"] = workload
    doc["traced" if trace else "untraced"] = {"seed": seed, "metrics": metrics}
    if "traced" in doc and "untraced" in doc:
        plain, traced = doc["untraced"]["metrics"], doc["traced"]["metrics"]
        doc["tracing_overhead"] = {
            "graphs_per_s": plain["graphs_per_s"] - traced["traced.graphs_per_s"],
            "pipeline_s": traced["traced.pipeline_s"] - plain["pipeline_s"],
        }
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="motifshap benchmark")
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)

    bench_dir = os.path.dirname(os.path.abspath(__file__))
    root = os.path.dirname(bench_dir)
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "motifshap", "__init__.py")):
        print(f"no motifshap sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    # children (the wire server, CLI runs) import the same sources
    os.environ["PYTHONPATH"] = os.pathsep.join(
        x for x in (src, os.environ.get("PYTHONPATH")) if x)
    # the engine's optional thread pool stays off: one closed loop per run
    os.environ.pop("MOTIF_SHAP_THREADS", None)

    from harness import Context
    from tracing import Tracer

    work = os.path.join(bench_dir, "work", f"{args.workload}-{os.getpid()}")
    os.makedirs(work)
    os.environ["TMPDIR"] = work
    ctx = Context(args.seed, args.seconds, Tracer() if args.trace else None, work, bench_dir)
    try:
        module = importlib.import_module(WORKLOADS[args.workload])
        result = module.run(ctx)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    errors = ctx.errors + result["errors"]
    for line in errors[:20]:
        print(f"{args.workload}: {line}", file=sys.stderr)
    if args.trace:
        layers = dict(result["layers"], **{"traced.graphs_per_s": result["graphs_per_s"],
                                           "traced.pipeline_s": result["pipeline_s"]})
        values = {name: layers.get(name, 0.0) for name in PER_LAYER}
        units = PER_LAYER
    else:
        values = {name: result[name] for name in END_TO_END}
        units = END_TO_END
    metrics = {}
    for name, unit in units.items():
        value = float(values[name])
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value}")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    save_results(os.path.join(bench_dir, "results", f"{args.workload}.json"),
                 args.workload, args.seed, bool(args.trace),
                 {name: m["value"] for name, m in metrics.items()})
    print(json.dumps({"correct": not result["errors"],
                      "attempted": ctx.attempted,
                      "failed": ctx.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
