"""Command-line interface.

Subcommands cover the full workflow: synth (benchmark generation), mine
and rank (motif discovery), explain (Shapley scores for one graph, every
graph, or a graph file), eval (separability / expected / approx-corr /
global reports), pipeline (declarative stage list), and blackbox-serve
(expose a built-in black box over the external wire protocol).

Every output file is written atomically. Each but a --csv table gets a
sidecar <out>.manifest.json recording the tool version, subcommand,
resolved configuration, input digests, seed and timestamp, so runs can be
audited and reproduced; no two outputs or manifests of one command may
share a path. All randomness flows from explicit --seed flags;
errors are printed to stderr as one-line JSON and mapped to exit codes 2
(usage), 3 (input format) and 4 (black-box transport).
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import os
import shlex
import statistics
import sys
from datetime import datetime, timezone
from typing import Iterable, NamedTuple, Sequence

from . import __version__
from .blackbox import BlackBox, GroundTruthScorer, TrainConfig, train_linear_surrogate
from .engine import (
    DEFAULT_EXACT_LIMIT,
    Explanation,
    WeightingScheme,
    approx_explain,
    check_request,
    exact_explain,
    explain_depths,
)
from .errors import (
    InputFormatError,
    MotifShapError,
    ParameterError,
    UndefinedCorrelationError,
    UniverseMismatchError,
)
from .files import (
    _read_json,
    atomic_write_text,
    dataset_to_json,
    last_digest,
    load_correlation,
    load_dataset,
    load_graph_file,
    load_motifs,
    motifs_to_json,
    remember_motifs,
)
from .graphs import Graph, LabeledDataset, Motif
from .masking import MaskingStrategy
from .mining import MinerConfig, RankerConfig, cross_support, mine, rank_and_select
from .stats import expected_scores, global_ranking, pearson, separability
from .synth import InjectionRecord, SynthConfig, generate
from .wire import PROTOCOL_HELLO, ExternalBlackBox, serve

FORMAT_VERSION = "1"

_WEIGHT_CHOICES = {
    "classic": WeightingScheme.classic,
    "paper": WeightingScheme.paper_inverse,
    "paper-direct": WeightingScheme.paper_direct,
}


class _Parser(argparse.ArgumentParser):
    """argparse that raises instead of exiting, so the CLI controls exit
    codes and error formatting."""

    def error(self, message):
        raise ParameterError(message)


def _write(args: argparse.Namespace, path: str, text: str,
           inputs: Sequence[str], extra: dict | None = None) -> None:
    """Write text to path, then path's manifest. Its subcommand, config and
    seed are read from args; its digests are of the bytes this process
    parsed from each input and wrote to path, not of the files now."""
    atomic_write_text(path, text)
    manifest = {
        "tool": "motifshap",
        "tool_version": __version__,
        "format_version": FORMAT_VERSION,
        "subcommand": f"eval {args.evalcmd}" if args.cmd == "eval" else args.cmd,
        "config": {k: v for k, v in vars(args).items() if k not in ("cmd", "evalcmd")},
        "inputs": {p: last_digest(p) for p in inputs},
        "output": path,
        "output_digest": last_digest(path),
        "seed": getattr(args, "seed", None),
        "timestamp": datetime.now(timezone.utc).isoformat(),
    }
    if extra:
        manifest["extra"] = extra
    atomic_write_text(path + ".manifest.json",
                      json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _report(args: argparse.Namespace, doc: object, inputs: Sequence[str],
            header: Sequence[str] = (), rows: Iterable[Sequence] = ()) -> None:
    """Write doc as compact JSON to --out, with its manifest, and header and
    rows as a table to --csv when one is given; a table gets no manifest."""
    _write(args, args.out, json.dumps(doc, separators=(",", ":")) + "\n", inputs)
    if getattr(args, "csv", None):
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)
        atomic_write_text(args.csv, buf.getvalue())


def _parse_rho(text: str) -> tuple[float, ...]:
    try:
        values = tuple(float(tok) for tok in text.split(",") if tok.strip() != "")
    except ValueError as exc:
        raise ParameterError(f"cannot parse rho list {text!r}: {exc}") from exc
    if not values:
        raise ParameterError("rho list is empty")
    return values


# --- black-box construction --------------------------------------------


def _add_blackbox_flags(p: argparse.ArgumentParser, serve_mode: bool = False) -> None:
    choices = ["scorer", "surrogate"] if serve_mode else ["scorer", "surrogate", "external"]
    p.add_argument("--blackbox", choices=choices, default="scorer",
                   help="black box to query (default: scorer)")
    p.add_argument("--rho", default=None,
                   help="comma-separated motif importances for the scorer")
    p.add_argument("--beta", type=float, default=2.0,
                   help="scorer logistic steepness (default 2.0)")
    p.add_argument("--train-dataset", default=None,
                   help="dataset to train the surrogate on (default: --dataset)")
    p.add_argument("--lr", type=float, default=0.5,
                   help="surrogate learning rate (default 0.5)")
    p.add_argument("--epochs", type=int, default=300,
                   help="surrogate training epochs (default 300)")
    if not serve_mode:
        p.add_argument("--external-cmd", default=None,
                       help="command line of an external black-box process")
        p.add_argument("--timeout", type=float, default=30.0,
                       help="external black-box timeout in seconds, per write and per read")


def _build_blackbox(args: argparse.Namespace, n: int | None, motifs: Sequence[Motif],
                    inputs: list[str]) -> BlackBox:
    """The black box args name. n is the motifs' node universe, which a
    training set must match, or None when there are no motifs."""
    if args.blackbox == "scorer":
        if args.rho is None:
            raise ParameterError(
                "--blackbox scorer needs --rho (one importance per motif; "
                "use the generator's rho values on synthetic data)")
        rho = _parse_rho(args.rho)
        return GroundTruthScorer(n, motifs, rho, args.beta)
    if args.blackbox == "surrogate":
        train_path = args.train_dataset or getattr(args, "dataset", None)
        if train_path is None:
            raise ParameterError("--blackbox surrogate needs --train-dataset")
        if train_path not in inputs:
            inputs.append(train_path)
        train_data = load_dataset(train_path)
        if n is not None and train_data.n != n:
            raise UniverseMismatchError(
                f"training set over {train_data.n} nodes, motifs over {n}")
        cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs)
        return train_linear_surrogate(train_data, cfg)
    command = shlex.split(args.external_cmd or "")
    if not command:
        raise ParameterError("--blackbox external needs --external-cmd")
    return ExternalBlackBox(command, timeout=args.timeout)


class _ExplainJob(NamedTuple):
    """What an explaining command has read and checked before its black box exists."""

    n: int
    motifs: list[Motif]
    graphs: list[tuple[int, Graph]]
    depths: list
    strategy: MaskingStrategy
    weighting: WeightingScheme
    inputs: list[str]


def _check_universe(n: int, dataset: LabeledDataset) -> None:
    """Raise unless a motif file over n nodes fits the dataset's universe."""
    if n != dataset.n:
        raise ParameterError(f"motif file over {n} nodes, dataset over {dataset.n}")


def _explain_job(args: argparse.Namespace, depths: str | None) -> _ExplainJob:
    """Load and check all that explain, eval approx-corr and eval global need,
    so that no black box is built, spawned or trained for a run that cannot
    go on. depths is eval approx-corr's --depths list, all read from one exact
    lattice; None reads --depth. --graph picks the (graph_id, Graph) pairs to
    explain; eval takes the first --limit graphs of the dataset."""
    dataset = load_dataset(args.dataset) if args.dataset is not None else None
    n, motifs = load_motifs(args.motifs)
    inputs = [p for p in (args.dataset, args.motifs) if p is not None]
    if dataset is not None:
        _check_universe(n, dataset)
    if args.mask == "average" and dataset is None:
        raise ParameterError("--mask average needs --dataset as background")
    strategy = (MaskingStrategy.average(dataset) if args.mask == "average"
                else getattr(MaskingStrategy, args.mask)())
    weighting = _WEIGHT_CHOICES[args.weights]()
    if depths is not None:
        try:
            parsed = sorted({int(tok) for tok in depths.split(",") if tok.strip()})
        except ValueError as exc:
            raise ParameterError(f"cannot parse depth list {depths!r}") from exc
        if not parsed:
            raise ParameterError("depth list is empty")
    else:
        try:
            parsed = [args.depth if args.depth == "exact" else int(args.depth)]
        except ValueError as exc:
            raise ParameterError(
                f"--depth must be 'exact' or an integer, got {args.depth!r}") from exc

    spec = getattr(args, "graph", "all")  # eval explains the dataset's graphs
    index = None
    if spec != "all":
        try:
            index = int(spec)
        except ValueError:  # not an index: a graph file
            pass
    if spec != "all" and index is None:
        g = load_graph_file(spec)
        inputs.append(spec)
        if g.n != n:
            raise ParameterError(f"graph file over {g.n} nodes, motifs over {n}")
        graphs = [(0, g)]
    elif dataset is None:
        raise ParameterError(
            f"--graph {spec if index is None else '<index>'} needs --dataset")
    elif index is None:
        limit = getattr(args, "limit", None)
        if limit is not None and limit < 1:
            raise ParameterError("--limit must be >= 1")
        graphs = list(enumerate(dataset.graphs))[:limit]
    elif not 0 <= index < len(dataset):
        raise ParameterError(f"graph index {index} out of range [0, {len(dataset)})")
    else:
        graphs = [(index, dataset.graphs[index])]
    exact = parsed == ["exact"]
    lattice = graphs and (depths is not None or exact)  # no graph, no lattice
    check_request(n, motifs, [] if exact else parsed,
                  args.exact_limit if lattice else None)
    return _ExplainJob(n, motifs, graphs, parsed, strategy, weighting, inputs)


def _explain_graphs(args: argparse.Namespace, job: _ExplainJob,
                    bb: BlackBox) -> list[Explanation]:
    """Explanations of job's graphs at its one depth."""
    (depth,) = job.depths
    if depth == "exact":
        return [exact_explain(g, bb, job.motifs, job.strategy, job.weighting,
                              graph_id=i, exact_limit=args.exact_limit)
                for i, g in job.graphs]
    normalize = getattr(args, "normalize", False)  # eval global has no --normalize
    return [approx_explain(g, bb, job.motifs, job.strategy, job.weighting, depth=depth,
                           graph_id=i, normalize=normalize)
            for i, g in job.graphs]


def _explanation_doc(ex: Explanation) -> dict:
    return {
        "graph": ex.graph_id,
        "depth": ex.depth,
        "mask": ex.strategy,
        "weights": ex.weighting,
        "queries": ex.query_count,
        "scores": [{"motif": mid, "xi": xi}
                   for mid, xi in zip(ex.motif_ids, ex.scores)],
    }


# --- subcommand implementations -----------------------------------------


def _cmd_synth(args: argparse.Namespace) -> int:
    rho = _parse_rho(args.rho)
    corr = load_correlation(args.corr, args.motifs)
    cfg = SynthConfig(
        n=args.nodes, n_graphs=args.graphs, density=args.density,
        motif_spec=(args.motifs, args.motif_edges), rho=rho,
        correlation=corr, seed=args.seed)
    dataset, record, motifs = generate(cfg)
    inputs = [] if args.corr == "identity" else [args.corr]
    extra = {"injection_rates": list(record.rates())}

    _write(args, args.out, dataset_to_json(dataset) + "\n", inputs, extra)
    _write(args, args.motifs_out, motifs_to_json(args.nodes, motifs) + "\n", inputs, extra)
    return 0


def _cmd_mine(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    cfg = MinerConfig(support_threshold=args.support, max_size=args.max_size,
                      label=args.label)
    motifs = mine(dataset, cfg)
    _write(args, args.out, motifs_to_json(dataset.n, motifs) + "\n", [args.dataset],
           {"motif_count": len(motifs)})
    # a later stage of the same process reads the motifs without parsing
    remember_motifs(args.out, dataset.n, motifs)
    return 0


def _cmd_rank(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    n, motifs = load_motifs(args.motifs)
    _check_universe(n, dataset)
    cfg = RankerConfig(dt=args.dt, st=args.st, k=args.k)
    selected = rank_and_select(motifs, dataset, cfg)
    scores = [cross_support(m, dataset) for m in selected]
    _write(args, args.out, motifs_to_json(n, selected, scores) + "\n",
           [args.dataset, args.motifs], {"selected": len(selected)})
    remember_motifs(args.out, n, selected)
    return 0


def _cmd_explain(args: argparse.Namespace) -> int:
    job = _explain_job(args, None)
    with _build_blackbox(args, job.n, job.motifs, job.inputs) as bb:
        docs = [_explanation_doc(ex) for ex in _explain_graphs(args, job, bb)]
    _report(args, docs if args.graph == "all" else docs[0], job.inputs)
    return 0


def _cmd_eval_separability(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    doc = dataclasses.asdict(separability(dataset, max_pairs=args.max_pairs, seed=args.seed))
    _report(args, doc, [args.dataset], list(doc), [list(doc.values())])
    return 0


def _cmd_eval_expected(args: argparse.Namespace) -> int:
    dataset = load_dataset(args.dataset)
    if dataset.injections is None:
        raise ParameterError(f"{args.dataset} carries no injection record")
    n, motifs = load_motifs(args.motifs)
    _check_universe(n, dataset)
    rho = _parse_rho(args.rho)
    table = expected_scores(InjectionRecord._trusted(dataset.injections), motifs, rho)
    doc = {
        "n_g": len(table.matrix),
        "n_m": len(motifs),
        "matrix": table.matrix,
    }
    rows = ([i, motifs[j].id, table.matrix[i][j]]
            for i in range(len(table.matrix)) for j in range(len(motifs)))
    _report(args, doc, [args.dataset, args.motifs], ["graph", "motif", "expected_score"], rows)
    return 0


def _cmd_eval_approx_corr(args: argparse.Namespace) -> int:
    job = _explain_job(args, args.depths)
    per_graph = []
    rows = []
    by_depth: dict[int, list[float]] = {d: [] for d in job.depths}
    skipped = 0
    with _build_blackbox(args, job.n, job.motifs, job.inputs) as bb:
        for i, g in job.graphs:
            # every depth's coalitions are in the exact lattice
            exact, approx = explain_depths(g, bb, job.motifs, job.strategy,
                                           job.weighting, job.depths, graph_id=i,
                                           exact_limit=args.exact_limit)
            entry: dict = {"graph": i, "pearson": {}}
            for d in job.depths:
                try:
                    r = pearson(approx[d].scores, exact.scores)
                except UndefinedCorrelationError:
                    r = None
                    skipped += 1
                entry["pearson"][str(d)] = r
                rows.append([i, d, "" if r is None else r])
                if r is not None:
                    by_depth[d].append(r)
            per_graph.append(entry)

    summary = {str(d): (statistics.median(v) if v else None)
               for d, v in by_depth.items()}
    doc = {
        "depths": job.depths,
        "median_pearson": summary,
        "undefined": skipped,
        "per_graph": per_graph,
    }
    _report(args, doc, job.inputs, ["graph", "depth", "pearson"], rows)
    return 0


def _cmd_eval_global(args: argparse.Namespace) -> int:
    job = _explain_job(args, None)
    rho = _parse_rho(args.rho) if args.rho else None
    if not job.graphs:
        raise ParameterError("no explanations to aggregate")
    with _build_blackbox(args, job.n, job.motifs, job.inputs) as bb:
        explanations = _explain_graphs(args, job, bb)

    position = {mid: pos for pos, mid in enumerate(explanations[0].motif_ids)}
    entries = []
    rows = []
    for mid, mean_abs in global_ranking(explanations):
        pos = position[mid]
        mean = sum(ex.scores[pos] for ex in explanations) / len(explanations)
        entries.append({"motif": mid, "mean_abs_xi": mean_abs, "mean_xi": mean})
        rows.append([mid, rho[pos] if rho is not None and pos < len(rho) else "", mean, mean_abs])
    doc = {"graphs": len(explanations), "ranking": entries}
    _report(args, doc, job.inputs, ["motif", "rho", "mean_xi", "mean_abs_xi"], rows)
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    doc = _read_json(args.config)
    if not isinstance(doc, dict) or not isinstance(doc.get("stages"), list):
        raise InputFormatError(
            f"{args.config}: pipeline config must be an object with a 'stages' list")
    stages = doc["stages"]
    for pos, stage in enumerate(stages):
        if (not isinstance(stage, dict) or not isinstance(stage.get("run"), str)
                or not isinstance(stage.get("args"), list)
                or not all(isinstance(a, str) for a in stage["args"])):
            raise InputFormatError(
                f"{args.config}: stage {pos} must be "
                "{\"run\": <subcommand>, \"args\": [<string>, ...]}")
        if stage["run"] == "pipeline":
            raise ParameterError("pipelines cannot nest pipeline stages")
    for pos, stage in enumerate(stages):
        try:
            code = run([stage["run"], *stage["args"]])
        except SystemExit as exc:  # argparse's --help and --version end the process
            raise ParameterError(f"stage {pos} asks for help or the version") from exc
        if code != 0:
            return code
    return 0


def _cmd_blackbox_serve(args: argparse.Namespace) -> int:
    n, motifs = None, []  # a surrogate serves its training set's universe
    if args.blackbox == "scorer":
        if args.motifs is None:
            raise ParameterError("blackbox-serve --blackbox scorer needs --motifs")
        n, motifs = load_motifs(args.motifs)
    with _build_blackbox(args, n, motifs, []) as bb:
        serve(bb)
    return 0


# --- parser -------------------------------------------------------------


def _add_explain_engine_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mask", choices=["remove", "average", "toggle"],
                   default="remove", help="masking strategy (default remove)")
    p.add_argument("--weights", choices=sorted(_WEIGHT_CHOICES), default="classic",
                   help="coalition weighting (default classic)")
    p.add_argument("--exact-limit", type=int, default=DEFAULT_EXACT_LIMIT,
                   help="largest motif count allowed for exact lattices")


def build_parser() -> _Parser:
    parser = _Parser(prog="motifshap",
                     description="Shapley-based motif explanations for "
                                 "black-box graph classifiers")
    parser.add_argument(
        "--version", action="version",
        version=f"motifshap {__version__} "
                f"(file format {FORMAT_VERSION}, wire protocol {PROTOCOL_HELLO})")
    sub = parser.add_subparsers(dest="cmd", required=True, metavar="<command>")

    p = sub.add_parser("synth", help="generate a synthetic benchmark dataset")
    p.add_argument("--nodes", type=int, required=True)
    p.add_argument("--graphs", type=int, required=True)
    p.add_argument("--density", type=float, required=True)
    p.add_argument("--motifs", type=int, required=True,
                   help="number of motifs to sample and inject")
    p.add_argument("--motif-edges", type=int, required=True)
    p.add_argument("--rho", required=True,
                   help="comma-separated injection probabilities, one per motif")
    p.add_argument("--corr", default="identity",
                   help="correlation matrix JSON file, or 'identity'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="dataset output path")
    p.add_argument("--motifs-out", required=True, help="motif file output path")

    p = sub.add_parser("mine", help="mine frequent connected motifs")
    p.add_argument("--dataset", required=True)
    p.add_argument("--support", type=int, required=True)
    p.add_argument("--max-size", type=int, required=True,
                   help="largest motif size in edges")
    p.add_argument("--label", type=int, choices=[0, 1], default=None,
                   help="mine only graphs of this label")
    p.add_argument("--out", required=True)

    p = sub.add_parser("rank", help="rank motifs by cross-support and select "
                                    "a diverse subset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--motifs", required=True)
    p.add_argument("--dt", type=float, default=0.85,
                   help="minimum Jaccard distance between selections")
    p.add_argument("--st", type=int, default=3, help="minimum edge count")
    p.add_argument("--k", type=int, default=10, help="number of motifs to keep")
    p.add_argument("--out", required=True)

    p = sub.add_parser("explain", help="compute explanation scores for a graph")
    p.add_argument("--motifs", required=True)
    p.add_argument("--dataset", default=None,
                   help="dataset file (graph indices, masking background, "
                        "surrogate training)")
    p.add_argument("--graph", required=True,
                   help="graph index into --dataset, a graph JSON file, or 'all'")
    p.add_argument("--depth", default="exact",
                   help="'exact' or an approximation depth >= 1")
    p.add_argument("--normalize", action="store_true",
                   help="rescale approximate scores to the exact efficiency gap")
    _add_explain_engine_flags(p)
    _add_blackbox_flags(p)
    p.add_argument("--out", required=True)

    p = sub.add_parser("eval", help="evaluation statistics")
    esub = p.add_subparsers(dest="evalcmd", required=True, metavar="<report>")

    q = esub.add_parser("separability", help="KS separation of intra/inter "
                                             "class Jaccard distances")
    q.add_argument("--dataset", required=True)
    q.add_argument("--max-pairs", type=int, default=None,
                   help="subsample each distance list to this many pairs")
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", required=True)
    q.add_argument("--csv", default=None)

    q = esub.add_parser("expected", help="expected explanation scores from "
                                         "the injection record")
    q.add_argument("--dataset", required=True)
    q.add_argument("--motifs", required=True)
    q.add_argument("--rho", required=True)
    q.add_argument("--out", required=True)
    q.add_argument("--csv", default=None)

    q = esub.add_parser("approx-corr", help="per-graph correlation of "
                                            "depth-limited vs exact scores")
    q.add_argument("--dataset", required=True)
    q.add_argument("--motifs", required=True)
    q.add_argument("--depths", required=True, help="comma-separated depths")
    q.add_argument("--limit", type=int, default=None,
                   help="explain only the first N graphs")
    _add_explain_engine_flags(q)
    _add_blackbox_flags(q)
    q.add_argument("--out", required=True)
    q.add_argument("--csv", default=None)

    q = esub.add_parser("global", help="global motif ranking by mean |score|")
    q.add_argument("--dataset", required=True)
    q.add_argument("--motifs", required=True)
    q.add_argument("--depth", default="exact")
    q.add_argument("--limit", type=int, default=None)
    _add_explain_engine_flags(q)
    _add_blackbox_flags(q)
    q.add_argument("--out", required=True)
    q.add_argument("--csv", default=None)

    p = sub.add_parser("pipeline", help="run a declarative stage list")
    p.add_argument("config", help="pipeline config JSON")

    p = sub.add_parser("blackbox-serve",
                       help="serve a built-in black box over the wire protocol")
    p.add_argument("--motifs", default=None,
                   help="motif file for the scorer black box")
    _add_blackbox_flags(p, serve_mode=True)

    return parser


_DISPATCH = {
    "synth": _cmd_synth,
    "mine": _cmd_mine,
    "rank": _cmd_rank,
    "explain": _cmd_explain,
    "pipeline": _cmd_pipeline,
    "blackbox-serve": _cmd_blackbox_serve,
}

_EVAL_DISPATCH = {
    "separability": _cmd_eval_separability,
    "expected": _cmd_eval_expected,
    "approx-corr": _cmd_eval_approx_corr,
    "global": _cmd_eval_global,
}


def run(argv: Sequence[str]) -> int:
    """Parse and execute; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(list(argv))
        # before any input is read: one path for two outputs, or for an
        # output and a manifest, would lose a file or misstate a digest
        outs = [p for p in (getattr(args, "out", None), getattr(args, "motifs_out", None)) if p]
        paths = outs + [p + ".manifest.json" for p in outs]
        if getattr(args, "csv", None):
            paths.append(args.csv)
        real = [os.path.realpath(p) for p in paths]
        for p, r in zip(paths, real):
            if real.count(r) > 1:
                raise ParameterError(f"two outputs or manifests share the path {p}")
        if args.cmd == "eval":
            return _EVAL_DISPATCH[args.evalcmd](args)
        return _DISPATCH[args.cmd](args)
    except MotifShapError as exc:
        line = json.dumps(
            {"error": type(exc).__name__, "detail": str(exc)},
            separators=(",", ":"))
        print(line, file=sys.stderr)
        return exc.exit_code


def console_entry() -> None:
    sys.exit(run(sys.argv[1:]))
