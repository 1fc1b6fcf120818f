"""Run one benchmark workload and print its metrics as one JSON line.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 24 --trace 0

The program is imported from `src/` next to this directory.  A run builds
the workload's inputs from the seed (the set-up), repeats whole rounds of
its operations, in one seeded order and from cold program caches, until
--seconds of operation time and at least two rounds have passed, calls the
workload's `python -m mgonal.cli` command at even intervals of operation
time, and checks the outputs.  An operation's latency is its fastest
round, throughput is a round's operations over the sum of those latencies,
and cli_s is the fastest call: other work on a shared machine only ever
adds time.

--trace 0 prints the end-to-end metrics.  --trace 1 times one round
untraced and the same round traced, calls the CLI in-process under the
tracer, and prints the per-layer metrics; its spans go to
perfbench/results/.  See README.md.
"""

import time

_SCRIPT_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
# Every round has at least MIN_OPS operations, so that at least ten lie
# beyond the 90th percentile, and every run at least MIN_ROUNDS rounds, so
# that each operation is timed more than once.
MIN_OPS = 100
MIN_ROUNDS = 2
# The CLI runs once per seconds / CLI_CALLS of operation time, one call at a
# time; cli_s is the fastest call.  Each workload's command takes under a
# second, so that many calls fit in a run.
CLI_CALLS = 15
CLI_TIMEOUT_S = 120


def since_process_start() -> float:
    """Seconds since this process started, interpreter start-up included.

    Linux gives the start time in clock ticks since boot; elsewhere this
    falls back to the time since the script's first line.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return time.clock_gettime(time.CLOCK_BOOTTIME) - started
    except (OSError, ValueError, IndexError, AttributeError):
        return time.perf_counter() - _SCRIPT_START


def import_program():
    """Import mgonal from src/ in this checkout, never from elsewhere."""
    if not (SRC / "mgonal" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC / 'mgonal'}")
    sys.path.insert(0, str(SRC))
    import mgonal

    if Path(mgonal.__file__).resolve().parent != SRC / "mgonal":
        raise SystemExit(f"perfbench: imported mgonal from {mgonal.__file__}, not {SRC}")


def cache_clearers(package: str = "mgonal") -> list:
    """cache_clear of every cached function in the package, found before the
    tracer wraps anything."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name == package or name.startswith(package + "."):
            for value in vars(module).values():
                if callable(getattr(value, "cache_clear", None)):
                    found[id(value)] = value.cache_clear
    return list(found.values())


def run_round(ops, order, clearers, digest=None, after_op=None):
    """One round from cold caches, the operations run in `order` (indices
    into ops): (outputs, latencies, failures), listed as in ops.

    A failing operation is counted and its output recorded as None.
    `digest(output)`, if given, replaces each output, and `after_op(latency)`
    runs after each operation, both outside its timing.
    """
    for clear in clearers:
        clear()
    gc.collect()
    outputs, latencies, failed = [None] * len(ops), [0.0] * len(ops), 0
    for i in order:
        start = time.perf_counter()
        try:
            out = ops[i]()
        except Exception as exc:  # counted in `failed`; the run goes on
            print(f"perfbench: operation {ops[i]} failed: {exc!r}", file=sys.stderr)
            out, failed = None, failed + 1
        latencies[i] = time.perf_counter() - start
        outputs[i] = out if digest is None or out is None else digest(out)
        # Freed here rather than inside the next operation's time.
        out = None
        if after_op is not None:
            after_op(latencies[i])
    return outputs, latencies, failed


def run_cli(argv) -> tuple[int, str, float]:
    """One `python -m mgonal.cli` subprocess: (exit code, stdout, wall s)."""
    env = {k: v for k, v in os.environ.items() if k != "MGONAL_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "mgonal.cli", *argv],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, time.perf_counter() - start


def run_cli_in_process(argv) -> tuple[int, str]:
    from mgonal import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def check_outputs(wl, first, cli_calls, chk):
    """Check the first round's outputs and every (exit code, stdout) of the
    CLI calls into chk, a workloads.Checker."""
    wl.check(first, chk)
    for code, stdout in cli_calls:
        wl.check_cli(code, stdout, chk)
    return chk


def percentile(values, q: int) -> float:
    """The q-th percentile, q in 1..99, interpolating between samples."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


E2E_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
             "cli_s": "s", "peak_rss_mib": "MiB"}


def measure(wl, seconds: float, trace: bool, order):
    """The timed phase, the CLI calls and the checks.

    Every round runs the operations in the same `order`, so an operation
    that misses the program's caches in one round misses them in all.
    Returns (result object without setup_s, tracer or None).  Later rounds
    are compared with the first as soon as they end and then dropped, so
    memory does not grow with the number of rounds.
    """
    import workloads

    if len(wl.ops) < MIN_OPS:
        raise SystemExit(f"perfbench: {wl.name} has {len(wl.ops)} operations a round, "
                         f"fewer than {MIN_OPS}")
    chk = workloads.Checker()
    clearers = cache_clearers()
    calls, op_time = [], 0.0

    def cli_when_due(latency):
        # One call in the middle of every seconds / CLI_CALLS of operation
        # time, so that the calls span the run.
        nonlocal op_time
        op_time += latency
        due = (len(calls) + 0.5) * seconds / CLI_CALLS
        if not trace and len(calls) < CLI_CALLS and op_time >= due:
            calls.append(run_cli(wl.cli_argv))

    digest = getattr(wl, "digest", None)
    first, best, failed = run_round(wl.ops, order, clearers, digest, cli_when_due)
    rounds = 1
    while not trace and (op_time < seconds or rounds < MIN_ROUNDS):
        outputs, lats, fails = run_round(wl.ops, order, clearers, digest, cli_when_due)
        chk.eq("repeat_rounds_agree", outputs, first)
        best = [min(a, b) for a, b in zip(best, lats)]
        failed += fails
        rounds += 1
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
        try:
            outputs, lats, fails = run_round(wl.ops, order, clearers, digest)
            with tracer.span("cli"):
                cli_calls = [run_cli_in_process(wl.cli_argv)]
        finally:
            tracer.uninstall()
        chk.eq("repeat_rounds_agree", outputs, first)
        failed += fails
        rounds += 1
        metrics = tracer.metrics()
        metrics["trace.overhead_pct"] = 100 * (sum(lats) / op_time - 1)
        units = tracing.UNITS
    else:
        calls += [run_cli(wl.cli_argv) for _ in range(CLI_CALLS - len(calls))]
        cli_calls = [(code, stdout) for code, stdout, _ in calls]
        metrics = {
            "ops_per_s": len(wl.ops) / sum(best),
            "op_p50_ms": 1000 * statistics.median(best),
            "op_p90_ms": 1000 * percentile(best, 90),
            "cli_s": min(wall for *_, wall in calls),
            "peak_rss_mib": peak_rss_mib,
        }
        units = E2E_UNITS
    check_outputs(wl, first, cli_calls, chk)
    for line in chk.failures[:20]:
        print(f"perfbench: check failed: {line}", file=sys.stderr)
    result = {
        "correct": chk.correct,
        "attempted": len(wl.ops) * rounds,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return result, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[args.workload](random.Random(args.seed))
    # One shuffled order spreads cheap and dear operations over the whole
    # run.  It is the same for every seed: the peak memory depends on which
    # trees are alive together, and moved by 15% with a seeded order.
    order = list(range(len(wl.ops)))
    if getattr(wl, "shuffle", True):
        random.Random("order").shuffle(order)
    setup_s = since_process_start()
    result, tracer = measure(wl, args.seconds, bool(args.trace), order)
    if not args.trace:
        result["metrics"] = {"setup_s": {"value": setup_s, "unit": "s"}, **result["metrics"]}

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        RESULTS.mkdir(exist_ok=True)
        (RESULTS / f"{stem}.json").write_text(json.dumps(result) + "\n")
        if tracer is not None:
            tracer.write(RESULTS / f"{stem}-spans.json")
    except OSError as exc:
        print(f"perfbench: could not write results: {exc}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
