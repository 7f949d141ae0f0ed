"""stratlogit benchmark: one workload, closed loop, one client.

    python3 perfbench/run.py --workload fixture-enumerate --seed 7 --seconds 30 --trace 0

Run from the root of a checkout.  The package is imported from the
checkout's ``src/``; nothing is installed or built.  Set-up generates the
workload's input from ``--seed`` and runs one untimed warm-up operation.
Then operations run back to back, each an in-process call to
``stratlogit.cli.main([...])``, until ``--seconds`` have passed; one
process, no extra threads: ``STRAT_THREADS`` unset, BLAS on one thread.  Every operation's
exit code, file set and key output file are checked; at the default
seed the results are also compared with recorded reference values.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
untraced and traced operations and reports the per-layer metrics of the
traced ones (see ``spans.py``) plus the tracing overhead; the spans are
written to ``.perfbench_work/traces/`` when the run ends.  The last line
of standard output is one JSON object: correct, attempted, failed and
metrics.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import namedtuple  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402

import spans  # noqa: E402

# No extra threads: BLAS runs single-threaded, set before numpy is first
# imported.  On this package's small matrices the default OpenBLAS pool
# spins a second thread for about 1.7x the CPU time and no wall-time gain.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_BLAS_BEFORE = {var: os.environ.get(var) for var in BLAS_THREAD_VARS}
os.environ.update({var: "1" for var in BLAS_THREAD_VARS})

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
# Input generation is repeated and its median taken, so set-up time is
# steadier than one draw; the warm-up operation runs once.
SETUP_REPEATS = 5


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=None, help="workload seed (default 7)")
    p.add_argument("--seconds", type=float, required=True, help="length of the timed loop")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def environment(args, seed, strat_threads):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "workload": args.workload,
        "seed": seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "STRAT_THREADS": "unset by the benchmark"
        + ("" if strat_threads is None else f" (was {strat_threads!r})"),
        "blas_threads": {var: f"1 (was {old!r})" for var, old in _BLAS_BEFORE.items()},
        "git_commit": git_commit(),
    }


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def call_cli(cli, argv):
    """One operation: (exit code or None on a traceback, seconds, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            rc = None
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return rc, seconds, err.getvalue()


def output_problems(workload, out_dir, rc, stderr, key_bytes):
    """Why this operation's output is wrong; empty when it is right."""
    if rc != 0:
        return [f"exit code {rc}: {stderr.strip()[-500:]}"]
    files = set(os.listdir(out_dir)) if os.path.isdir(out_dir) else set()
    if files != workload.files:
        return [
            f"file set differs: missing {sorted(workload.files - files)}, "
            f"extra {sorted(files - workload.files)}"
        ]
    if key_bytes is not None:
        with open(os.path.join(out_dir, workload.key_file), "rb") as handle:
            if handle.read() != key_bytes:
                return [f"{workload.key_file} differs from the first operation's"]
    return []


def tail(samples):
    """(value, label): the highest percentile with at least ten samples
    beyond it, by nearest rank.  Below 40 samples that percentile would lie
    under the upper quartile, so the upper quartile is reported instead."""
    ordered = sorted(samples)
    n = len(ordered)
    if n < 40:
        k = math.ceil(0.75 * n)
        return ordered[k - 1], (
            f"p75 by nearest rank, {n - k} of {n} samples beyond it: fewer than 40 "
            f"samples, so no percentile above p75 has ten beyond it"
        )
    return ordered[n - 11], f"p{100.0 * (n - 10) / n:.1f} by nearest rank, 10 of {n} samples beyond it"


def main(argv=None):
    args = parse_args(argv)
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "stratlogit", "cli.py")):
        print(f"error: no stratlogit source at {src}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    from stratlogit import cli
    from workloads import DEFAULT_SEED, WORKLOADS

    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if not args.seconds > 0:
        print("error: --seconds must be > 0", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    seed = DEFAULT_SEED if args.seed is None else args.seed
    strat_threads = os.environ.pop("STRAT_THREADS", None)
    env = environment(args, seed, strat_threads)
    print(f"env: {json.dumps(env, sort_keys=True)}")

    run_dir = os.path.join(WORK, f"{workload.name}-seed{seed}-pid{os.getpid()}")
    try:
        metrics, samples, problems, first_ok = measure(
            cli, workload, seed, args, run_dir, import_s, env
        )
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    attempted = len(samples)
    failed = sum(1 for s in samples if not s.ok)
    print(f"fail_ratio {failed / attempted!r} ratio ({failed} failed of {attempted} attempted)")
    for problem in problems[:10]:
        print(f"FAILED: {problem}")
    print(
        json.dumps(
            {
                "correct": failed == 0 and first_ok,
                "attempted": attempted,
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
            }
        )
    )
    return 0


Sample = namedtuple("Sample", "seconds traced ok")


def measure(cli, workload, seed, args, run_dir, import_s, env):
    """Set up, warm up, run the timed loop and compute the metrics:
    ({name: (value, unit, note)}, samples, problems, first operation ok)."""
    from workloads import DEFAULT_SEED, reference_mismatches

    input_dir = os.path.join(run_dir, "input")
    os.makedirs(input_dir, exist_ok=True)
    gen_s = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        argv = workload.setup(ROOT, input_dir, seed)
        gen_s.append(time.perf_counter() - start)
    print(f"workload {workload.name}: {workload.size}; one operation: {' '.join(argv)}")

    def out_dir(i):
        return os.path.join(run_dir, f"op{i}")

    # Warm-up: untimed, and the source of the bytes every later
    # operation must reproduce.
    first = out_dir(0)
    rc, warmup_s, stderr = call_cli(cli, argv + ["--out", first])
    problems = output_problems(workload, first, rc, stderr, None)
    key_bytes = None
    if not problems:
        with open(os.path.join(first, workload.key_file), "rb") as handle:
            key_bytes = handle.read()
        if seed == DEFAULT_SEED:
            problems = reference_mismatches(workload.summarize(first), workload.reference)
    problems = [f"first operation: {p}" for p in problems]
    # Every later operation is checked against this one, so none is
    # correct if it is not.
    first_ok = not problems
    if seed != DEFAULT_SEED:
        print(f"reference check: not applicable (recorded for seed {DEFAULT_SEED} only)")
    else:
        print(f"reference check: {'ok' if first_ok else '; '.join(problems)}")
    setup_s = import_s + statistics.median(gen_s) + warmup_s
    shutil.rmtree(first, ignore_errors=True)

    tracer = spans.Tracer() if args.trace else None
    samples = []
    loop_start = time.perf_counter()
    i = 1
    while True:
        traced = tracer is not None and i % 2 == 0
        target = out_dir(i)
        with tracer.operation(i) if traced else nullcontext():
            rc, seconds, stderr = call_cli(cli, argv + ["--out", target])
        bad = output_problems(workload, target, rc, stderr, key_bytes)
        problems.extend(f"op {i}: {p}" for p in bad)
        samples.append(Sample(seconds, traced, ok=first_ok and not bad))
        shutil.rmtree(target, ignore_errors=True)
        i += 1
        # A traced run needs at least one traced and one untraced operation.
        if time.perf_counter() - loop_start >= args.seconds and (tracer is None or i > 2):
            break

    if tracer is None:
        metrics = end_to_end(samples, setup_s, import_s, gen_s, warmup_s, workload)
    else:
        metrics = per_layer(tracer, samples)
        path = os.path.join(WORK, "traces", f"{workload.name}-seed{seed}-trace.jsonl")
        tracer.write(path, {"env": env})
        print(f"spans: {len(tracer.spans)} in {len(tracer.counts)} traced operations, written to {path}")
    for name, (value, unit, note) in metrics.items():
        print(f"{name} {value!r} {unit} ({note})")
    return metrics, samples, problems, first_ok


def end_to_end(samples, setup_s, import_s, gen_s, warmup_s, workload):
    times = [s.seconds for s in samples]
    ok = sum(1 for s in samples if s.ok)
    tail_s, tail_note = tail(times)
    return {
        "op_s_p50": (statistics.median(times), "s", f"median of {len(times)} operations"),
        "op_s_tail": (tail_s, "s", tail_note),
        "ops_per_s": (
            ok / sum(times),
            "1/s",
            f"{ok} completed in {sum(times):.3f} s of timed wall time; input: {workload.size}",
        ),
        "setup_s": (
            setup_s,
            "s",
            f"imports {import_s:.3f} + median of {SETUP_REPEATS} input set-ups "
            f"{statistics.median(gen_s):.4f} + warm-up operation {warmup_s:.3f}",
        ),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
            "ru_maxrss of the benchmark process",
        ),
    }


def per_layer(tracer, samples):
    traced = statistics.median(s.seconds for s in samples if s.traced)
    untraced = statistics.median(s.seconds for s in samples if not s.traced)
    values = spans.layer_metrics(tracer.per_op())
    values["trace.op_s_p50"] = traced
    values["trace.overhead_s"] = traced - untraced
    notes = {m: f"expected to move {expect}" for m, _, _, expect in spans.PER_LAYER}
    n_traced = sum(1 for s in samples if s.traced)
    notes["trace.op_s_p50"] = f"median of {n_traced} traced operations"
    notes["trace.overhead_s"] = (
        f"traced minus untraced median, {len(samples) - n_traced} untraced operations"
    )
    return {m: (values[m], unit, notes[m]) for m, unit, _, _ in spans.PER_LAYER}


if __name__ == "__main__":
    sys.exit(main())
