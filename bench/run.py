"""crystor benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; crystor is imported from ``src/``.  The
run does one untimed warm-up round of the workload's ops, then repeats
whole timed rounds until S seconds have passed (``--trace 0``), or runs
the workload's fixed number of rounds with spans recorded around
crystor's public functions (``--trace 1``).
Every answer is then checked against an independent reference.  The
last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``, the end-to-end metrics of BENCHMARK.json
without tracing and its per-layer metrics with tracing.  A detail file
with every sample goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
PROBES = 5  # fresh interpreters per start-up figure; the figure is their median
PROBE_CLOCK = "cpu"


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return ap.parse_args(argv)


def metric_units() -> tuple[dict[str, str], dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# ---------------------------------------------------------------------------
# fresh-interpreter probes

SETUP_PROBE = (
    "import crystor\n"
    "crystor.component_group(crystor.DegenerationData({p}, "
    "crystor.IntMatrix.from_rows({mu})))\n"
)
IMPORT_PROBE = (
    "import time\n"
    "start = time.process_time()\n"
    "import crystor.cli\n"
    "print(time.process_time() - start)\n"
)


def probe(code: str, args=()):
    """Times (CPU and wall) of a fresh interpreter running ``code``, and
    the completed process."""
    from workloads import run_child

    times, proc = run_child([sys.executable, *args, "-c", code])
    if proc.returncode != 0:
        fail(f"probe failed: {proc.stderr.decode().strip()}")
    return times, proc


def setup_samples(probe_input) -> list[dict[str, float]]:
    """From a fresh interpreter through ``import crystor`` to the return
    of a first validated call (``component_group``, whose ``validate``
    loads what ``require_prime`` needs)."""
    p, mu = probe_input
    code = SETUP_PROBE.format(p=p, mu=mu)
    return [probe(code)[0] for _ in range(PROBES)]


def sympy_import_seconds(proc) -> float:
    """Cumulative import time of the top-level sympy package, from the
    ``-X importtime`` lines on stderr; 0 when sympy is not imported."""
    total = 0
    for line in proc.stderr.decode().splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) == "sympy":
            total += int(m.group(1))
    return total / 1e6


def startup_metrics(probe_input) -> dict[str, float]:
    p, mu = probe_input
    bare, imports, sympy_share = [], [], []
    for _ in range(PROBES):
        bare.append(probe("pass")[0][PROBE_CLOCK])
        imports.append(float(probe(IMPORT_PROBE)[1].stdout))
        _, proc = probe(SETUP_PROBE.format(p=p, mu=mu), ("-X", "importtime"))
        sympy_share.append(sympy_import_seconds(proc))
    return {
        "cli.process_start_s": statistics.median(bare),
        "cli.import_s": statistics.median(imports),
        "cli.import_sympy_s": statistics.median(sympy_share),
    }


# ---------------------------------------------------------------------------


def run_rounds(workload, seconds: float, rounds: int | None):
    """Whole rounds of ops.  Round 0 warms up (lazy imports, crystor's
    subgroup cache) and is not timed; timed rounds follow until
    ``seconds`` have passed or, when ``rounds`` is given, until that many
    rounds have run in all.  Returns per-op times, results (None for an
    op that raised) and failure messages."""
    times, results, failures = [], [], []
    index = 0
    done = 0
    start = None
    while True:
        for _ in range(workload.round_size):
            try:
                op_times, result = workload.op(index)
            except Exception:  # an op that raises is a failed op
                failures.append(f"op {index}: {traceback.format_exc(limit=3)}")
                results.append(None)
                times.append(None)
            else:
                results.append(result)
                times.append(op_times)
            index += 1
        done += 1
        if start is None:
            start = time.perf_counter()
        if rounds is not None:
            if done == rounds:
                break
        elif time.perf_counter() - start >= seconds:
            break
    return times, results, failures


def check_all(workload, results) -> list[str]:
    from reference import CheckFailed

    problems = []
    for index, result in enumerate(results):
        if result is None:
            continue
        try:
            workload.check(index, result)
        except (CheckFailed, KeyError, TypeError, ValueError) as e:
            problems.append(f"op {index}: {type(e).__name__}: {e}")
    try:
        workload.finish()
    except CheckFailed as e:
        problems.append(f"finish: {e}")
    return problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "crystor" / "__init__.py").is_file():
        fail(f"no crystor sources under {ROOT / 'src'}; run from a checkout")
    if not (ROOT / "corpus").is_dir():
        fail(f"no corpus/ under {ROOT}")
    os.environ.pop("CRYSTOR_ENUM_BUDGET", None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; "
             f"choose from {', '.join(workloads.WORKLOADS)}")
    e2e_units, layer_units = metric_units()
    OUT.mkdir(exist_ok=True)
    cls = workloads.WORKLOADS[args.workload]
    traced = args.trace == 1

    spans_dir = None
    if cls is workloads.CliCorpus:
        if traced:
            spans_dir = OUT / f"spans-{args.workload}-{args.seed}"
            shutil.rmtree(spans_dir, ignore_errors=True)
            spans_dir.mkdir()
        workload = cls(args.seed, spans_dir)
    else:
        workload = cls(args.seed)
        import crystor

        if not Path(crystor.__file__).resolve().is_relative_to(ROOT / "src"):
            fail(f"crystor imported from {crystor.__file__}, not from {ROOT / 'src'}")

    tracer = None
    if traced and spans_dir is None:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)

    times, results, failures = run_rounds(
        workload, args.seconds, workload.trace_rounds if traced else None)
    peak_rss_mb = resource.getrusage(workload.RUSAGE).ru_maxrss / 1024
    span_files = getattr(workload, "span_files", [])
    if tracer is not None:  # before the checks, which call crystor too
        span_files = [OUT / f"spans-{args.workload}-{args.seed}.json"]
        tracer.dump(span_files[0])

    problems = check_all(workload, results)
    for message in failures + problems:
        print(f"bench: {message}", file=sys.stderr)

    clock = workload.CLOCK
    op_seconds = [t[clock] for t in times[workload.round_size:] if t is not None]
    detail = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "clock": clock, "round_size": workload.round_size,
        "op_times": times, "failures": failures, "problems": problems,
        "peak_rss_mb": peak_rss_mb,
    }
    if op_seconds:
        detail["ops_per_s"] = len(op_seconds) / sum(op_seconds)

    if traced:
        import tracing

        loaded = [tracing.load(path) for path in span_files]
        values = tracing.layer_metrics(
            [spans for _, spans in loaded],
            tracing.merge_counters(counters for counters, _ in loaded))
        values.update(startup_metrics(workload.probe_input()))
        units = layer_units
    else:
        setup = setup_samples(workload.probe_input())
        detail["setup_samples"] = setup
        values = {
            "latency_p50_s": statistics.median(op_seconds) if op_seconds else 0.0,
            "ops_per_s": detail.get("ops_per_s", 0.0),
            "setup_s": statistics.median(s[PROBE_CLOCK] for s in setup),
            "peak_rss_mb": peak_rss_mb,
        }
        units = e2e_units
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json")

    result = {
        "correct": not problems,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }
    detail["result"] = result
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
