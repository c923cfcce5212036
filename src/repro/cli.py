"""Command-line interface: generate data, build indexes, query, benchmark.

Examples::

    repro-topk generate --distribution ANT --n 10000 --d 4 --out data.npz
    repro-topk build --data data.npz --algorithm DL+ --out index.snapshot
    repro-topk query --index index.snapshot --weights 0.4,0.3,0.2,0.1 --k 10
    repro-topk analyze --index index.snapshot --k 10
    repro-topk sql --data data.npz "SELECT * FROM r ORDER BY a0 + a1 STOP AFTER 5"
    repro-topk bench --experiment fig10
    repro-topk compare --distribution ANT --n 5000 --d 4 --k 10
    repro-topk analytics why-not --index index.snapshot --weights 0.7,0.3 --k 5 --target 8
    repro-topk analytics reverse --index index.snapshot --k 5 --target 8
    repro-topk analytics what-if --index index.snapshot --weights 0.7,0.3 --k 5 \
        --edit delete --target 8

Built indexes are snapshot directories (:mod:`repro.io.snapshot`), so
``build`` takes the gate-graph algorithms only; ``compare`` and ``bench``
build every baseline in-process.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from repro import ALGORITHMS, generate, random_weight_vector
from repro.bench.experiments import ALGORITHM_CLASSES, EXPERIMENTS
from repro.bench.harness import build_index, measure_cost, run_sweep
from repro.bench.reporting import format_series_table
from repro.bench.workload import BenchConfig, Workload
from repro.io import (
    load_relation,
    open_snapshot,
    save_relation,
    save_snapshot,
    snapshot_nbytes,
)

#: The algorithms whose indexes snapshot: the gate-graph classes.
SNAPSHOT_ALGORITHMS = ("DG", "DG+", "DL", "DL+")


def main(argv: list[str] | None = None) -> int:
    """Entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handler = {
        "generate": _cmd_generate,
        "build": _cmd_build,
        "query": _cmd_query,
        "bench": _cmd_bench,
        "compare": _cmd_compare,
        "analyze": _cmd_analyze,
        "sql": _cmd_sql,
        "analytics": _cmd_analytics,
    }[args.command]
    return handler(args)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-topk",
        description="Dual-resolution layer indexing for top-k queries (ICDE 2012 reproduction)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    gen = commands.add_parser("generate", help="generate a synthetic relation")
    gen.add_argument("--distribution", default="IND", help="IND|ANT|COR|CLU")
    gen.add_argument("--n", type=int, default=10000)
    gen.add_argument("--d", type=int, default=4)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output .npz path")

    build = commands.add_parser(
        "build", help="build an index over a relation and save it as a snapshot"
    )
    build.add_argument("--data", required=True, help="relation .npz path")
    build.add_argument("--algorithm", default="DL+", choices=SNAPSHOT_ALGORITHMS)
    build.add_argument("--max-layers", type=int, default=None)
    build.add_argument("--out", required=True, help="output snapshot directory")

    query = commands.add_parser("query", help="run one top-k query")
    query.add_argument("--index", required=True, help="snapshot directory")
    query.add_argument("--weights", default=None, help="comma-separated weights")
    query.add_argument("--k", type=int, default=10)

    bench = commands.add_parser("bench", help="run one paper experiment")
    bench.add_argument(
        "--experiment", required=True, choices=sorted(EXPERIMENTS)
    )

    analyze = commands.add_parser(
        "analyze", help="profile a built layer index (structure, bounds)"
    )
    analyze.add_argument("--index", required=True, help="snapshot directory")
    analyze.add_argument("--k", type=int, default=10)

    sql = commands.add_parser("sql", help="run a top-k SQL statement on a relation")
    sql.add_argument("--data", required=True, help="relation .npz path")
    sql.add_argument("--table", default="r", help="table name used in the statement")
    sql.add_argument("statement", help="SELECT ... ORDER BY ... STOP AFTER k")

    analytics = commands.add_parser(
        "analytics",
        help="dual-direction queries: why-not, reverse top-k, what-if",
    )
    analytics.add_argument(
        "mode", choices=("why-not", "reverse", "what-if"),
        help="which analytic question to answer",
    )
    analytics.add_argument("--index", required=True, help="snapshot directory")
    analytics.add_argument(
        "--weights", default=None,
        help="comma-separated query weights (why-not and what-if)",
    )
    analytics.add_argument("--k", type=int, default=10)
    analytics.add_argument(
        "--target", type=int, default=None, help="target tuple id"
    )
    analytics.add_argument(
        "--norm", default="l1", choices=("l1", "linf"),
        help="perturbation norm for why-not",
    )
    analytics.add_argument(
        "--edit", default=None, choices=("update", "delete", "insert"),
        help="hypothetical tuple edit for what-if",
    )
    analytics.add_argument(
        "--values", default=None,
        help="comma-separated tuple values (update/insert edits, "
        "or a hypothetical reverse top-k target)",
    )
    analytics.add_argument(
        "--new-weights", default=None,
        help="comma-separated hypothetical weights for what-if",
    )

    compare = commands.add_parser(
        "compare", help="compare all algorithms on one workload"
    )
    compare.add_argument("--distribution", default="ANT")
    compare.add_argument("--n", type=int, default=4000)
    compare.add_argument("--d", type=int, default=4)
    compare.add_argument("--k", type=int, default=10)
    compare.add_argument("--queries", type=int, default=10)
    compare.add_argument("--seed", type=int, default=0)
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    relation = generate(args.distribution, args.n, args.d, seed=args.seed)
    save_relation(relation, args.out)
    print(f"wrote {relation.n} x {relation.d} {args.distribution} relation to {args.out}")
    return 0


def _cmd_build(args: argparse.Namespace) -> int:
    relation = load_relation(args.data)
    index_class = ALGORITHMS[args.algorithm]
    kwargs = {}
    if args.max_layers is not None:
        kwargs["max_layers"] = args.max_layers
    index = index_class(relation, **kwargs).build()
    path = save_snapshot(index, args.out)
    print(
        f"{index.build_stats.describe()}; saved to {path} "
        f"({snapshot_nbytes(path) / 1024:.0f} KiB)"
    )
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    index = open_snapshot(args.index)
    if args.weights:
        weights = np.asarray([float(x) for x in args.weights.split(",")])
    else:
        weights = random_weight_vector(index.relation.d)
        print(f"random weights: {np.round(weights, 4).tolist()}")
    result = index.query(weights, args.k)
    for rank, (tid, score) in enumerate(zip(result.ids, result.scores), start=1):
        print(f"{rank:3d}. tuple {int(tid):8d}  score {score:.6f}")
    print(f"cost: {result.cost} tuples evaluated ({result.counter.pseudo} pseudo)")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    spec = EXPERIMENTS[args.experiment]
    config = BenchConfig()
    print(spec.title)
    print(f"expected shape: {spec.expected_shape}")
    if spec.parameter == "build":
        _run_build_experiment(config)
        return 0
    algorithms = {
        name: ALGORITHM_CLASSES[name]
        for name in spec.algorithms
        if name in ALGORITHM_CLASSES
    }
    for distribution in spec.distributions:
        sweep = _run_spec_sweep(spec, distribution, config, algorithms)
        print(format_series_table(f"{spec.title} [{distribution}]", sweep, ratio=spec.ratio))
    return 0


def _run_spec_sweep(spec, distribution: str, config: BenchConfig, algorithms):
    workload_cache: dict[tuple, Workload] = {}

    def workload_for(value):
        if spec.parameter == "k":
            key = (distribution, config.n, 4)
        elif spec.parameter == "d":
            key = (distribution, config.scaled_n(int(value)), int(value))
        else:  # n multiples
            key = (distribution, int(config.n * value), 4)
        if key not in workload_cache:
            workload_cache[key] = Workload.make(
                key[0], key[1], key[2], config.queries, config.seed
            )
        return workload_cache[key]

    def k_for(value):
        return int(value) if spec.parameter == "k" else 10

    return run_sweep(spec.parameter, list(spec.values), algorithms, workload_for, k_for)


def _run_build_experiment(config: BenchConfig) -> None:
    from repro.baselines import DGIndex, DGPlusIndex, HLIndex, HLPlusIndex
    from repro.core import DLIndex, DLPlusIndex
    from repro.bench.reporting import format_build_table

    classes = [HLIndex, HLPlusIndex, DGIndex, DGPlusIndex, DLIndex, DLPlusIndex]
    for distribution in ("IND", "ANT"):
        workload = Workload.make(distribution, config.n, 4, 1, config.seed)
        stats = []
        for cls in classes:
            index = build_index(cls, workload, max_k=10)
            stats.append(index.build_stats)
        print(format_build_table(f"Index construction [{distribution}]", stats))


def _cmd_analyze(args: argparse.Namespace) -> int:
    from repro.core.analysis import cost_bounds, profile_structure

    index = open_snapshot(args.index)
    structure = index.structure
    report = profile_structure(structure)
    print(f"{index.name} over n={index.relation.n}, d={index.relation.d}")
    print(report.describe())
    lower, upper = cost_bounds(structure, args.k)
    print(f"top-{args.k} cost bounds: {lower} <= cost <= {upper} tuples")
    return 0


def _cmd_sql(args: argparse.Namespace) -> int:
    from repro.sql import Database

    relation = load_relation(args.data)
    db = Database()
    db.register(args.table, relation)
    answer = db.execute(args.statement)
    if answer.plan:
        print(answer.plan)
        print()
    header = ["rank", "id", "score", *answer.columns]
    print("  ".join(header))
    for rank, (tid, score, row) in enumerate(
        zip(answer.ids, answer.scores, answer.rows), start=1
    ):
        cells = [f"{rank}", f"{int(tid)}", f"{score:.6f}"]
        cells.extend(f"{value:.4f}" for value in row)
        print("  ".join(cells))
    print(f"-- {answer.algorithm}, {answer.cost} tuples evaluated")
    return 0


def _parse_vector(text: str | None, what: str) -> np.ndarray | None:
    if text is None:
        return None
    try:
        return np.asarray([float(s) for s in text.split(",") if s])
    except ValueError:
        raise SystemExit(f"analytics: malformed {what} {text!r}")


def _cmd_analytics(args: argparse.Namespace) -> int:
    from repro.analytics import TupleEdit
    from repro.serving import QueryEngine

    engine = QueryEngine(open_snapshot(args.index), cache_size=0)
    analytics = engine.analytics()
    weights = _parse_vector(args.weights, "--weights")
    values = _parse_vector(args.values, "--values")

    if args.mode == "why-not":
        if weights is None or args.target is None:
            print("analytics why-not: needs --weights and --target")
            return 1
        report = analytics.why_not(weights, args.target, args.k, norm=args.norm)
        print(report.describe())
        return 0

    if args.mode == "reverse":
        if args.target is None and values is None:
            print("analytics reverse: needs --target or --values")
            return 1
        region = analytics.reverse_topk(args.target, args.k, values=values)
        label = args.target if args.target is not None else "hypothetical"
        if hasattr(region, "intervals"):
            spans = ", ".join(
                f"[{lo:.6f}, {hi:.6f}]" for lo, hi in region.intervals
            ) or "(empty)"
            print(
                f"tuple {label} is in the top-{args.k} for w1 in {spans} "
                f"(measure {region.measure:.6f})"
            )
        else:
            print(
                f"tuple {label} top-{args.k} region: volume in "
                f"[{region.volume_lower:.6f}, {region.volume_upper:.6f}] "
                f"of the weight simplex ({len(region.cells)} certified cells)"
            )
        return 0

    # what-if
    if weights is None:
        print("analytics what-if: needs --weights")
        return 1
    new_weights = _parse_vector(args.new_weights, "--new-weights")
    if args.edit is not None:
        edit = TupleEdit(args.edit, tuple_id=args.target, values=values)
        report = analytics.what_if(weights, args.k, edit=edit)
    elif new_weights is not None:
        report = analytics.what_if(weights, args.k, new_weights=new_weights)
    else:
        print("analytics what-if: needs --edit or --new-weights")
        return 1
    print(report.describe())
    for tid, score in zip(report.after_ids, report.after_scores):
        print(f"  {int(tid):>8}  {score:.6f}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    workload = Workload.make(
        args.distribution, args.n, args.d, args.queries, args.seed
    )
    print(
        f"workload: {args.distribution} n={args.n} d={args.d} k={args.k} "
        f"({args.queries} queries)"
    )
    rows = []
    for name, cls in sorted(ALGORITHMS.items()):
        index = build_index(cls, workload, max_k=args.k)
        cell = measure_cost(index, workload, args.k)
        rows.append((cell.mean_cost, name, index.build_stats.seconds, cell))
    rows.sort()
    print(f"{'algorithm':>10} {'mean cost':>12} {'build (s)':>10}")
    for mean_cost, name, seconds, _ in rows:
        print(f"{name:>10} {mean_cost:>12.1f} {seconds:>10.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
