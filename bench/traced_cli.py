"""Run one motifshap command with the library calls the CLI makes timed.

The CLI module imports load_dataset, atomic_write_text, generate, mine,
rank_and_select, separability and expected_scores by name; this script
rebinds those names in motifshap.cli to timed wrappers, and rebinds
cli.run so that every stage of a pipeline is timed as a whole. Stage
time minus its library calls is CLI overhead. The totals go to
--trace-out when the command ends.

    python3 bench/traced_cli.py --trace-out TRACE.json pipeline CONFIG.json
"""

from __future__ import annotations

import sys

from motifshap import cli

from tracing import Tracer

LIBRARY_CALLS = {
    "load_dataset": "graphs.load_dataset",
    "atomic_write_text": "graphs.json_write",
    "generate": "synth.generate",
    "mine": "mining.mine",
    "rank_and_select": "mining.rank",
    "separability": "stats.separability",
    "expected_scores": "stats.expected",
}

# work counted from a call's result: counter name and how to count
RESULT_COUNTS = {
    "mine": ("mining.motifs_mined", len),
    "rank_and_select": ("mining.motifs_selected", len),
    "separability": ("stats.pairs", lambda rep: rep.n_intra + rep.n_inter),
}


def stage_name(argv) -> str:
    return argv[1] if argv and argv[0] == "eval" and len(argv) > 1 else argv[0]


def install(tracer: Tracer):
    """Rebind the CLI's library names and its stage runner; returns the
    untimed runner for the outermost call."""
    for attr, layer in LIBRARY_CALLS.items():
        on_result = None
        if attr in RESULT_COUNTS:
            counter, measure = RESULT_COUNTS[attr]
            on_result = (lambda r, c=counter, f=measure: tracer.count(c, f(r)))
        setattr(cli, attr, tracer.wrap(layer, getattr(cli, attr), on_result))
    outer = cli.run

    def timed_stage(argv):
        return tracer.wrap(f"cli.stage.{stage_name(argv)}", outer)(argv)

    cli.run = timed_stage
    return outer


def main(argv) -> int:
    if len(argv) < 3 or argv[0] != "--trace-out":
        print("usage: traced_cli.py --trace-out TRACE.json <motifshap args>", file=sys.stderr)
        return 2
    tracer = Tracer()
    outer = install(tracer)
    code = outer(argv[2:])
    tracer.dump(argv[1])
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
