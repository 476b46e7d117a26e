"""Benchmark of the sparsedioph command line, one workload per process.

    python3 bench/run.py --workload lattice|nonneg|knapsack --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from `src/`.
Instances come from `workloads.py` (seeded), and each one is one in-process
call of `sparsedioph.cli.run([..., "--json"])`, as a closed loop with one
client. Passes over the instance set repeat until `--seconds` is used up.
Every call runs under a per-instance wall limit. Answers are checked by
`check.py` after the timed loop; a wrong answer makes the run exit 1.

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics. With `--trace 1` the same passes run once untraced
(for half of `--seconds`) and once under the outside-in tracer of
`tracer.py`; the JSON then holds the per-layer metrics, per pass, and the
spans are written to `.bench_out/`. A human-readable summary goes to
stderr.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

# setup_s: median over this many cold interpreter launches.
SETUP_LAUNCHES = 9
SETUP_COMMAND = ["factor", "360", "--json"]
SETUP_EXPECTED = [["2", "3"], ["3", "2"], ["5", "1"]]

END_TO_END = (
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("throughput_inst_per_s", "1/s"),
    ("ok_share", "ratio"),
    ("x_bits_p50", "bits"),
    ("support_total", "count"),
    ("peak_rss_mib", "MiB"),
    ("setup_s", "s"),
)


class InstanceTimeout(BaseException):
    """Raised by the SIGALRM handler. A BaseException, because cli.run
    catches OSError (TimeoutError is one) and sparsedioph.Error."""


def _on_alarm(signum, frame):
    raise InstanceTimeout()


@dataclass
class Call:
    seconds: float
    result: tuple  # (exit code or None, stdout, stderr, exception type or None)


def timed_call(run, argv, limit: float) -> Call:
    out, err = io.StringIO(), io.StringIO()
    code, exc = None, None
    t0 = time.perf_counter()
    try:
        try:
            signal.setitimer(signal.ITIMER_REAL, limit)
            code = run(argv, out=out, err=err)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except (InstanceTimeout, Exception) as e:  # recorded, judged after the loop
        # Keep the type and message only: the traceback would keep the
        # interrupted call's data alive and inflate peak memory.
        exc = type(e)
        err.write(f"{exc.__name__}: {e}\n")
    return Call(time.perf_counter() - t0, (code, out.getvalue(), err.getvalue(), exc))


def run_passes(argvs, run, limit, seconds=None, passes=None, before_call=None):
    """Whole passes over `argvs`: a given number, or as many as fit in
    `seconds` (at least one). Returns (calls per pass, wall seconds)."""
    results = []
    seen = [{} for _ in argvs]  # one stored copy of each distinct result
    start = time.perf_counter()
    while True:
        p0 = time.perf_counter()
        calls = []
        for k, argv in enumerate(argvs):
            if before_call is not None:
                before_call()
            call = timed_call(run, argv, limit)
            call.result = seen[k].setdefault(call.result, call.result)
            calls.append(call)
        results.append(calls)
        now = time.perf_counter()
        if passes is not None:
            if len(results) >= passes:
                break
        elif now - start + (now - p0) > seconds:
            break
    return results, time.perf_counter() - start


@contextlib.contextmanager
def unlimited_int_digits():
    # Answers can exceed the default 4300-digit int/str limit; only the
    # checker lifts it, never the program under test.
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(old)


def judge(inst, call: Call, cache: dict):
    """Return (failure kind or None, check.Outcome or None); raise
    check.WrongAnswer for a wrong answer."""
    code, out, err, exc = call.result
    if exc is InstanceTimeout:
        return "timeout", None
    if exc is AssertionError:
        raise check.WrongAnswer(f"program rejected its own answer: {err.strip()}")
    if exc is not None:
        return f"crash:{exc.__name__}", None
    if code == 3:
        return "undetermined", None
    if code == 1 and "FactorizationTimeout" in err:
        return "FactorizationTimeout", None
    if code not in (0, 2):
        raise check.WrongAnswer(f"exit {code}: {err.strip()}")
    if call.result not in cache:
        cache[call.result] = check.check_answer(inst.expect, code, json.loads(out))
    return None, cache[call.result]


def quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(instances, passes, wall, limit):
    latency, x_bits, failures = [], [], {}
    support = 0
    caches = [{} for _ in instances]
    for calls in passes:
        for k, (inst, call) in enumerate(zip(instances, calls)):
            failure, outcome = judge(inst, call, caches[k])
            wants_x = inst.expect["kind"] != "sparsify" and inst.expect.get("feasible")
            if failure is None:
                latency.append(call.seconds)
                support += outcome.support
                if wants_x:
                    x_bits.append(outcome.x_bits)
            else:
                failures[failure] = failures.get(failure, 0) + 1
                # A failure ranks behind every success, all of which
                # finished below the limit.
                latency.append(limit)
                support += inst.cols
                if wants_x:
                    x_bits.append(math.inf)
    attempted = len(instances) * len(passes)
    failed = sum(failures.values())
    x_p50 = statistics.median(x_bits)
    if not math.isfinite(x_p50):
        raise check.WrongAnswer("more than half of the solvable instances failed")
    metrics = {
        "latency_p50_ms": 1000 * statistics.median(latency),
        "latency_p90_ms": 1000 * quantile(latency, 0.9),
        "throughput_inst_per_s": attempted / wall,
        "ok_share": (attempted - failed) / attempted,
        "x_bits_p50": x_p50,
        "support_total": support / len(passes),
    }
    return metrics, failures


def measure_setup() -> float:
    """Median wall time of a cold interpreter running the console entry
    point (`from sparsedioph.cli import main`) on a trivial command."""
    code = ("import sys; from sparsedioph.cli import main; "
            f"sys.argv = ['sparsedioph'] + {SETUP_COMMAND!r}; main()")
    cmd = [sys.executable, "-c", code]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for k in range(SETUP_LAUNCHES + 1):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, env=env, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or json.loads(proc.stdout)["result"]["factors"] != SETUP_EXPECTED:
            raise check.WrongAnswer(f"setup command failed: {proc.stderr.strip()}")
        if k:  # the first launch writes the bytecode caches
            times.append(elapsed)
    return statistics.median(times)


def materialize(instances, directory: Path):
    """Write the instance files; return each instance's argv with paths."""
    directory.mkdir(parents=True, exist_ok=True)
    argvs = []
    for inst in instances:
        for name, text in inst.files.items():
            (directory / name).write_text(text, encoding="ascii")
        argvs.append([str(directory / a) if a in inst.files else a for a in inst.argv]
                     + ["--json"])
    return argvs


def import_cli():
    """Import sparsedioph.cli from the checkout's src/, or return None."""
    if not (SRC / "sparsedioph" / "cli.py").is_file():
        print(f"error: no sparsedioph sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return None
    sys.path.insert(0, str(SRC))
    import sparsedioph.cli

    if not Path(sparsedioph.cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported {sparsedioph.cli.__file__}, not the checkout", file=sys.stderr)
        return None
    return sys.modules["sparsedioph.cli"]


def measure(cli, workload, seed, seconds, trace):
    """Run the passes and return (instances, passes, wall, extra), where
    extra is the tracer with its plain wall time and pass count when
    tracing."""
    instances = workloads.build(workload, seed)
    limit = workloads.LIMIT_S[workload]
    inputs = OUT / f"inputs-{os.getpid()}"
    # Looked up per call, so the traced passes reach the wrapped cli.run.
    call_cli = lambda a, out, err: cli.run(a, out=out, err=err)  # noqa: E731
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        argvs = materialize(instances, inputs)
        if not trace:
            passes, wall = run_passes(argvs, call_cli, limit, seconds=seconds)
            return instances, passes, wall, None
        plain, plain_wall = run_passes(argvs, call_cli, limit, seconds=seconds / 2)
        tr = tracer.Tracer()
        tr.install()
        try:
            traced, wall = run_passes(argvs, call_cli, limit, passes=len(plain),
                                      before_call=tr.stack.clear)
        finally:
            tr.uninstall()
        return instances, plain + traced, wall, (tr, plain_wall, len(traced))
    finally:
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        shutil.rmtree(inputs, ignore_errors=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    cli = import_cli()
    if cli is None:
        return 2
    calls = 0
    try:
        setup_s = None if args.trace else measure_setup()
        instances, passes, wall, traced = measure(
            cli, args.workload, args.seed, args.seconds, args.trace)
        calls = len(instances) * len(passes)
        with unlimited_int_digits():
            e2e, failures = end_to_end(instances, passes, wall, workloads.LIMIT_S[args.workload])
    except check.WrongAnswer as exc:
        print(f"WRONG ANSWER: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": max(calls, 1), "failed": max(calls, 1),
                          "metrics": {}}))
        return 1
    print(f"{args.workload} seed {args.seed}: {len(instances)} instances x {len(passes)} "
          f"passes, failures {failures or 'none'}", file=sys.stderr)
    if traced:
        tr, plain_wall, n_traced = traced
        values = tracer.layer_metrics(tr.spans, n_traced, wall, plain_wall)
        units = dict(tracer.PER_LAYER)
        tr.write(OUT / f"trace-{args.workload}-{args.seed}.jsonl")
    else:
        values = dict(e2e, peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                      setup_s=setup_s)
        units = dict(END_TO_END)
    for name, unit in units.items():
        print(f"  {name} = {values[name]:.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": True,
        "attempted": calls,
        "failed": sum(failures.values()),
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
