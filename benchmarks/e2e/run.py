"""End-to-end serving benchmark: every workload from one command.

    python benchmarks/e2e/run.py [--workload NAME] [--seed S] [--seconds T]
                                 [--trace [0|1]] [--out DIR] [--repeat N]
                                 [--scale full|smoke]

Each workload runs in its own fresh process (``workloads.py``) with BLAS
pinned to one thread.  The command prints every metric as
``workload metric value unit`` and exits 1 if any sampled answer differs
from the benchmark's oracle.  With one ``--workload`` and no ``--repeat``
the last line is one JSON object ``{correct, attempted, failed, metrics}``
holding the ``end_to_end`` metrics of ``BENCHMARK.json`` (``--trace 0``) or
its ``per_layer`` metrics (``--trace 1``).  ``--out DIR`` also writes
``DIR/results.json`` and, when tracing, ``DIR/<workload>.spans.jsonl``.
``--repeat N`` runs N fresh processes per workload on seeds S..S+N-1 and
prints each end-to-end metric's median and quartiles; it flags a metric
whose quartile spread exceeds a third of its bound or whose two half-set
medians differ by more than its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build"
#: Fresh processes per run; each sets up once and runs 1/PROCESSES of the
#: timed work, so no single slow process sets the run's number.
PROCESSES = 3
#: A run must end within 180 s; its processes are stopped before that.
RUN_TIMEOUT_S = 170


class BenchmarkError(Exception):
    """A workload process failed or reported metrics that do not match."""


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as handle:
        return json.load(handle)


def run_part(args, workload: str, seed: int, part: int, timeout: float) -> dict:
    """Run one process of a workload and return its report."""
    BUILD.joinpath("tmp").mkdir(parents=True, exist_ok=True)
    env = dict(
        os.environ,
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
        MKL_NUM_THREADS="1",
        REPRO_NATIVE_CACHE=str(BUILD / "native"),
        TMPDIR=str(BUILD / "tmp"),
    )
    cmd = [
        sys.executable, str(HERE / "workloads.py"), workload,
        "--seed", str(seed), "--part", str(part),
        "--seconds", str(args.seconds / PROCESSES), "--scale", args.scale,
    ]
    if args.trace:
        cmd.append("--trace")
        if args.out and part == 0:
            cmd += ["--spans", str(Path(args.out) / f"{workload}.spans.jsonl")]
    if args.corrupt_answer and part == 0:
        cmd.append("--corrupt-answer")
    try:
        proc = subprocess.run(
            cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{workload}: part {part} gave no result in time") from exc
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{workload}: part {part} exited {proc.returncode}")
    return json.loads(lines[-1])


def run_workload(args, workload: str, seed: int) -> dict:
    """One run: ``PROCESSES`` fresh processes, one after another, combined.

    Set-up time and memory are medians over the processes; median latency
    and throughput are medians over all their windows; the
    Definition-9 mean pools every computed answer; per-layer metrics are
    medians over the processes.
    """
    deadline = time.monotonic() + RUN_TIMEOUT_S
    parts = [
        run_part(args, workload, seed, part, deadline - time.monotonic())
        for part in range(PROCESSES)
    ]
    windows = {key: [v for p in parts for v in p["windows"][key]] for key in parts[0]["windows"]}
    tuples, computed = (sum(values) for values in zip(*(p["tuples"] for p in parts)))
    e2e = {
        "setup_s": statistics.median(p["setup_s"] for p in parts),
        "query_p50_ms": statistics.median(windows["p50"]),
        "throughput_qps": statistics.median(windows["qps"]),
        "tuples_per_query": tuples / computed if computed else 0.0,
        "rss_mib": statistics.median(p["rss_mib"] for p in parts),
    }
    layer = {
        name: statistics.median(p["layer"][name] for p in parts)
        for name in parts[0]["layer"]
    }
    return {
        "workload": workload,
        "seed": seed,
        "e2e": e2e,
        "layer": layer,
        "attempted": sum(p["attempted"] for p in parts),
        "failed": sum(p["failed"] for p in parts),
        "checked": sum(p["checked"] for p in parts),
        "mismatches": sum(p["mismatches"] for p in parts),
        "error": next((p["error"] for p in parts if p["error"]), ""),
        "host": {
            **parts[0]["host"],
            "native": "/".join(sorted({p["host"]["native"] for p in parts})),
        },
    }


def with_units(report: dict, spec: dict) -> dict:
    """Attach units, insisting the report names exactly the declared metrics."""
    out = {}
    for section, kind in (("e2e", "end_to_end"), ("layer", "per_layer")):
        declared = {m["name"]: m["unit"] for m in spec[kind]}
        got = report[section]
        if got and set(got) != set(declared):
            raise BenchmarkError(
                f"{report['workload']}: {kind} metrics differ from BENCHMARK.json: "
                f"missing {sorted(set(declared) - set(got))}, "
                f"undeclared {sorted(set(got) - set(declared))}"
            )
        out[section] = {
            name: {"value": got[name], "unit": unit}
            for name, unit in declared.items() if name in got
        }
    return out


def print_report(report: dict, metrics: dict) -> None:
    for section in ("e2e", "layer"):
        for name, entry in metrics[section].items():
            print(f"{report['workload']} {name} {entry['value']!r} {entry['unit']}")
    print(
        f"{report['workload']} attempted={report['attempted']} "
        f"failed={report['failed']} checked={report['checked']} "
        f"mismatches={report['mismatches']} native={report['host']['native']}"
        + (f" first_error={report['error']!r}" if report["error"] else "")
    )


def summarize_repeats(reports: list[dict], spec: dict) -> bool:
    """Print median/quartiles per end-to-end metric; True if all hold."""
    ok = True
    workload = reports[0]["workload"]
    native = {
        all(s in ("built", "cached") for s in r["host"]["native"].split("/"))
        for r in reports
    }
    if len(native) > 1:
        print(f"{workload}: native kernel status differs between runs: not comparable")
        ok = False
    half = len(reports) // 2
    print(f"{workload}: {len(reports)} runs, seeds {[r['seed'] for r in reports]}")
    print(f"  {'metric':<18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} "
          f"{'bound':>6} {'halves':>8}  flags")
    for metric in spec["end_to_end"]:
        values = [r["e2e"][metric["name"]] for r in reports]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        first, second = statistics.median(values[:half]), statistics.median(values[half:])
        halves = abs(second - first) / first if first else 0.0
        flags = []
        if metric["name"] != "setup_s" and spread > metric["bound"] / 3:
            flags.append("spread>bound/3")
        if halves > metric["bound"]:
            flags.append("halves>bound")
        ok = ok and not flags
        print(f"  {metric['name']:<18} {median:>12.6g} {q1:>12.6g} {q3:>12.6g} "
              f"{spread:>8.4f} {metric['bound']:>6} {halves:>8.4f}  {' '.join(flags)}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="run one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, help="timed phase length (default: run_seconds)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--out", help="directory for results.json and span files")
    parser.add_argument("--repeat", type=int, default=0, help="fresh runs per workload")
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    parser.add_argument("--corrupt-answer", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"no package source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = load_spec()
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        parser.error(f"--workload must be one of {names}")
    if args.repeat and args.trace:
        parser.error("--repeat measures end-to-end metrics only; drop --trace")
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)

    selected = [args.workload] if args.workload else names
    runs = []
    ok = True
    try:
        for workload in selected:
            seeds = range(args.seed, args.seed + max(args.repeat, 1))
            reports = []
            for seed in seeds:
                report = run_workload(args, workload, seed)
                metrics = with_units(report, spec)
                print_report(report, metrics)
                ok = ok and report["mismatches"] == 0
                reports.append(report)
                runs.append({**report, **metrics})
            if args.repeat > 1:
                ok = summarize_repeats(reports, spec) and ok
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    if args.out:
        with open(Path(args.out) / "results.json", "w") as handle:
            json.dump({"runs": runs}, handle, indent=1)
    if len(runs) == 1:
        run = runs[0]
        section = "layer" if args.trace else "e2e"
        print(json.dumps({
            "correct": run["mismatches"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": run[section],
        }))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
