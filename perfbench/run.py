"""ghostswap benchmark: closed-loop workloads, end-to-end metrics, traced layers.

One workload per process, one caller sending the next request only after
the last one finished:

    python3 perfbench/run.py --workload wide-image --seed 1 --seconds 22 --trace 0

--trace 0 prints the end-to-end metrics; --trace 1 runs the workload again
with spans around every layer and prints the per-layer metrics. Every
request's outputs are read back and checked. The last line of standard
output is one JSON object: {"correct", "attempted", "failed", "metrics"}.

Every workload in fresh processes, both modes, checking that each metric
named in BENCHMARK.json is present with its unit (--seconds 1 is the quick
smoke run):

    python3 perfbench/run.py --all --seed 1 --seconds 22

The program is imported from src/ next to this directory; nothing is
installed. Inputs, outputs and trace files live under .perfbench/ at the
root of the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
STATE = ROOT / ".perfbench"
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)
# fresh processes whose set-up is timed; setup_s is their median
SETUP_PROCESSES = 7
# a request this many samples from the top sets latency_tail_ms
TAIL_SAMPLES = 10


class _Sink:
    """Swallows the one-line messages ghostctl prints on every run."""

    def write(self, text: str) -> int:
        return len(text)

    def flush(self) -> None:
        pass


def _quiet():
    sink = _Sink()
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(sink))
    stack.enter_context(contextlib.redirect_stderr(sink))
    return stack


def _import_program():
    """Import ghostswap from src/ of this checkout; exit when it is not there."""
    source = ROOT / "src"
    if not (source / "ghostswap" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ghostswap sources under {source}")
    sys.path.insert(0, str(source))
    import ghostswap

    if Path(ghostswap.__file__).resolve().parent != source / "ghostswap":
        raise SystemExit(f"perfbench: imported ghostswap from {ghostswap.__file__}")


# ---------------------------------------------------------------------------
# environment record
# ---------------------------------------------------------------------------


def _cpu_model() -> str:
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    return platform.processor() or "unknown"


def _git_commit() -> str:
    git = ROOT / ".git"
    with contextlib.suppress(OSError):
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "cpu": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "seed": seed,
        "commit": _git_commit(),
    }


# ---------------------------------------------------------------------------
# running requests
# ---------------------------------------------------------------------------


def set_up(name: str, seed: int, work: Path):
    """Inputs from the seed, then one untimed warm-up request."""
    import numpy as np
    from workloads import WORKLOADS

    inputs = work / "inputs"
    inputs.mkdir(parents=True)
    workload = WORKLOADS[name](np.random.default_rng(seed), inputs)
    warm = work / "warmup"
    warm.mkdir()
    with _quiet():
        workload.warmup.execute(warm)
    return workload


def run_request(request, out: Path, tracer=None, request_id: int = 0):
    """Time one request, then check its outputs; returns (seconds, error)."""
    from checks import CheckFailed

    out.mkdir()
    error = None
    value = None
    with _quiet():
        if tracer is not None:
            tracer.request = request_id
        start = perf_counter()
        try:
            value = request.execute(out)
        except Exception as exc:  # the request failed; record it and go on
            error = f"raised {type(exc).__name__}: {exc}"
        latency = perf_counter() - start
        if tracer is not None:
            tracer.request = None
    if error is None:
        try:
            request.verify(value, out)
        except CheckFailed as exc:
            error = f"check failed: {exc}"
        except Exception as exc:  # unreadable or missing output
            error = f"check failed: {type(exc).__name__}: {exc}"
    shutil.rmtree(out)
    return latency, error


def _more(busy: float, index: int, seconds: float | None, cycles: int | None) -> bool:
    """Whether to start another cycle: `cycles` of them, or the cycle
    boundary nearest to `seconds` of request time (at least one cycle)."""
    if cycles is not None:
        return index < cycles
    return index == 0 or busy + 0.5 * busy / index < seconds


def run_cycles(workload, work: Path, *, seconds=None, cycles=None, tracer=None, first_id=0):
    """Whole cycles of the workload's requests, timed one by one."""
    outcomes = []
    busy = 0.0
    index = 0
    while _more(busy, index, seconds, cycles):
        for request in workload.cycles[index % len(workload.cycles)]:
            out = work / f"out-{first_id + len(outcomes)}"
            latency, error = run_request(request, out, tracer, first_id + len(outcomes))
            outcomes.append((request, latency, error))
            busy += latency
        index += 1
    return outcomes, busy


def time_setups(name: str, seed: int) -> list[float]:
    """Start-to-ready time of fresh processes that only set up."""
    times = []
    for _ in range(SETUP_PROCESSES):
        start = perf_counter()
        child = subprocess.Popen(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed), "--setup-only"],
            stdout=subprocess.PIPE,
            text=True,
        )
        try:
            ready = child.stdout.readline()
            times.append(perf_counter() - start)
            child.stdout.read()
        finally:
            child.stdout.close()
            code = child.wait()
        if ready.strip() != "ready" or code != 0:
            raise SystemExit(f"perfbench: set-up process ended with exit {code}")
    return times


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def tail(latencies: list[float]) -> tuple[float, float]:
    """The highest percentile with TAIL_SAMPLES samples beyond it, and that percentile."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_SAMPLES:
        return ordered[-1], 100.0
    return ordered[n - TAIL_SAMPLES - 1], 100.0 * (n - TAIL_SAMPLES) / n


def failure_lines(outcomes) -> list[str]:
    causes: dict[tuple[str, str], int] = {}
    for request, _, error in outcomes:
        if error is not None:
            key = (request.label, error)
            causes[key] = causes.get(key, 0) + 1
    return [f"  failed x{count}: {label}: {error}" for (label, error), count in causes.items()]


def end_to_end(outcomes, busy: float, setups: list[float]) -> tuple[dict, list[str]]:
    failed = [o for o in outcomes if o[2] is not None]
    succeeded = [o for o in outcomes if o[2] is None]
    latencies = [latency for request, latency, _ in outcomes if request.well_formed]
    tail_value, tail_percentile = tail(latencies)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_rps": (len(succeeded) / busy, "1/s"),
        "elements_per_s": (sum(r.elements for r, _, _ in succeeded) / busy, "1/s"),
        "latency_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1e3 * tail_value, "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    error_rate = len(failed) / len(outcomes)
    lines = [f"{name} = {value!r} {unit}" for name, (value, unit) in metrics.items()]
    lines[0] += f"  (median of {len(setups)} fresh processes: " + ", ".join(
        f"{t:.4f}" for t in setups
    ) + ")"
    lines[4] += f"  (p{tail_percentile:.2f} of n={len(latencies)} well-formed requests)"
    lines.append(
        f"error_rate = {error_rate!r} 1  ({len(failed)} of {len(outcomes)} requests failed)"
    )
    lines.extend(failure_lines(outcomes))
    by_label: dict[str, list[float]] = {}
    for request, latency, error in outcomes:
        if error is None:
            by_label.setdefault(request.label, []).append(latency)
    for label, values in by_label.items():
        lines.append(f"  {label}: median {1e3 * statistics.median(values):.3f} ms of {len(values)}")
    return metrics, lines


# ---------------------------------------------------------------------------
# modes
# ---------------------------------------------------------------------------


def measure(workload, name: str, seed: int, seconds: float, work: Path):
    """Set-up times of fresh processes, then whole cycles for `seconds`."""
    setups = time_setups(name, seed)
    outcomes, busy = run_cycles(workload, work, seconds=seconds)
    metrics, lines = end_to_end(outcomes, busy, setups)
    lines.insert(0, f"requests = {len(outcomes)} in {busy:.3f} s of request time")
    return outcomes, metrics, lines, True


def measure_traced(workload, name: str, seed: int, seconds: float, work: Path):
    """Untraced and traced passes over the same fixed cycles, paired.

    Each traced pass must repeat the first one's calls and counts exactly.
    The difference of the median pass walls is the tracing overhead.
    """
    import tracing

    tracer = tracing.Tracer()
    outcomes, untraced, summaries, spans = [], [], [], []
    busy = 0.0
    while len(summaries) < 2 or busy < seconds:
        plain, wall = run_cycles(
            workload, work, cycles=workload.trace_cycles, first_id=len(outcomes)
        )
        outcomes += plain
        untraced.append(wall)
        tracer.reset()
        tracer.install()
        try:
            traced, traced_wall = run_cycles(
                workload, work, cycles=workload.trace_cycles, tracer=tracer, first_id=len(outcomes)
            )
        finally:
            tracer.uninstall()
        outcomes += traced
        summaries.append(tracing.summarize(tracer.spans, tracer.counts, traced_wall))
        spans.append(tracer.spans)
        busy += wall + traced_wall

    first = summaries[0]
    repeatable = all(
        s["calls"] == first["calls"] and s["counts"] == first["counts"] for s in summaries
    )
    overhead_ms = 1e3 * (
        statistics.median(s["wall_s"] for s in summaries) - statistics.median(untraced)
    )
    metrics = {f"{span}.calls": (first["calls"][span], "count") for span in tracing.span_names()}
    for key in tracing.COUNTS:
        metrics[key] = (first["counts"][key], "bytes" if key == tracing.BYTES else "count")
    for module in tracing.MODULES:
        metrics[f"{module}.self_share"] = (
            tracing.median_over(summaries, lambda s: s["module_self_share"][module]),
            "share",
        )
    metrics["trace.overhead_ms"] = (overhead_ms, "ms")

    lines = [
        f"traced passes = {len(summaries)} x {workload.trace_cycles} cycles"
        f" ({len(outcomes) // (2 * len(summaries))} requests a pass)",
        f"counts repeat exactly across traced passes: {repeatable}",
        f"trace.overhead_ms = {overhead_ms!r} ms  (traced pass {1e3 * statistics.median(s['wall_s'] for s in summaries):.1f} ms,"
        f" untraced {1e3 * statistics.median(untraced):.1f} ms)",
    ]
    for span in tracing.span_names():
        calls = first["calls"][span]
        if calls:
            self_ms = tracing.median_over(summaries, lambda s: s["self_ms"][span])
            lines.append(
                f"{span}.calls = {calls}  .self_ms = {self_ms:.3f} ms"
                f"  .p50_us = {tracing.p50_us(summaries, span):.1f} us"
                f"  (max {tracing.max_us(summaries, span):.1f} us)"
            )
    for module in tracing.MODULES:
        lines.append(f"{module}.self_share = {metrics[f'{module}.self_share'][0]:.4f}")
    unattributed = tracing.median_over(summaries, lambda s: s["unattributed_share"])
    lines.append(f"(request time outside every span: {unattributed:.4f})")
    for key, label in (
        ("us_per_pixel", "coincidence.sample_campaign.fixed_time.us_per_pixel"),
        ("us_per_row", "io.us_per_row"),
    ):
        value = tracing.median_over(summaries, lambda s: s[key])
        lines.append(f"{label} = " + ("n/a (not reached)" if value is None else f"{value:.3f} us"))
    for key in tracing.COUNTS:
        lines.append(f"{key} = {first['counts'][key]}")
    lines.extend(failure_lines(outcomes))

    STATE.mkdir(exist_ok=True)
    trace_file = STATE / f"trace-{workload.name}-seed{seed}.json"
    trace_file.write_text(
        json.dumps(
            {
                "environment": environment(seed),
                "fields": ["name", "start_s", "end_s", "parent", "request"],
                "passes": [
                    {"wall_s": s["wall_s"], "counts": s["counts"], "spans": p}
                    for s, p in zip(summaries, spans)
                ],
            }
        )
    )
    lines.append(f"spans written to {trace_file.relative_to(ROOT)}")
    return outcomes, metrics, lines, repeatable


def run_workload(args) -> int:
    for variable in THREAD_VARIABLES:
        os.environ[variable] = "1"
    _import_program()
    work = STATE / f"work-{os.getpid()}"
    try:
        workload = set_up(args.workload, args.seed, work)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        mode = measure_traced if args.trace else measure
        outcomes, metrics, lines, repeatable = mode(
            workload, args.workload, args.seed, args.seconds, work
        )
        repeat_dir = work / "repeat"
        repeat_dir.mkdir()
        with _quiet():
            same_seed_repeats = workload.repeat_check(repeat_dir)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env = environment(args.seed)
    print(f"# ghostswap benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    for line in lines:
        print(line)
    print(f"one seed gives identical outputs twice: {same_seed_repeats}")
    well_formed_ok = all(error is None for r, _, error in outcomes if r.well_formed)
    result = {
        "correct": bool(well_formed_ok and same_seed_repeats and repeatable),
        "attempted": len(outcomes),
        "failed": sum(error is not None for _, _, error in outcomes),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in a fresh process, both modes; checks names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in spec["workloads"]:
        for trace, declared in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            command = [
                sys.executable, __file__, "--workload", workload["name"],
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace),
            ]
            child = subprocess.run(command, capture_output=True, text=True, timeout=900)
            print(child.stdout, end="")
            tag = f"{workload['name']} trace {trace}"
            if child.returncode != 0:
                problems.append(f"{tag}: exit {child.returncode}: {child.stderr.strip()}")
                continue
            result = json.loads(child.stdout.splitlines()[-1])
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{tag}: result keys {sorted(result)}")
            if result.get("correct") is not True:
                problems.append(f"{tag}: outputs failed their checks")
            metrics = result.get("metrics", {})
            for metric in declared:
                found = metrics.get(metric["name"])
                if found is None:
                    problems.append(f"{tag}: {metric['name']} missing")
                elif found.get("unit") != metric["unit"]:
                    problems.append(f"{tag}: {metric['name']} in {found.get('unit')}")
            extra = set(metrics) - {metric["name"] for metric in declared}
            if extra:
                problems.append(f"{tag}: undeclared metrics {sorted(extra)}")
    for problem in problems:
        print(f"PROBLEM {problem}")
    print("all workloads report every declared metric" if not problems else f"{len(problems)} problems")
    return 1 if problems else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("campaign-sweep", "wide-image", "figure-panel", "inner-pair"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=22.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="every workload, both modes")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("give --workload or --all")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
