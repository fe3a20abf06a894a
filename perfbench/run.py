#!/usr/bin/env python3
"""Benchmark of dyadica: end-to-end metrics per workload, or per-layer
metrics from a traced run.

    python3 perfbench/run.py --workload acceptance|fine_d1|fine_d2 \\
        [--seed N] [--seconds S] [--trace 0|1]

Run it from the root of a checkout; the package is imported from ``src/``
of that checkout, and everything the run writes goes under ``.bench_out/``.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
SETUP_PROCESSES = 5
MIN_PASSES = 2
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def cap_blas_threads() -> int:
    """Cap BLAS threads at the CPUs this process may use; before numpy loads."""
    ncpu = len(os.sched_getaffinity(0))
    for var in BLAS_VARS:
        os.environ.setdefault(var, str(ncpu))
    return int(os.environ["OPENBLAS_NUM_THREADS"])


def git_commit():
    """Commit of the checkout, or None when it is not a git work tree.  The
    ``.git`` test keeps git from reporting an enclosing repository."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def environment(args, blas_threads: int) -> dict:
    import numpy
    import scipy
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "cpu_count": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas_threads": blas_threads,
            "machine": platform.machine(), "git_commit": git_commit()}


def tail(samples):
    """(percentile, value) of the highest whole percentile with at least ten
    samples beyond it, or None when there are fewer than eleven samples."""
    n = len(samples)
    if n <= 10:
        return None
    pct = math.floor(100 * (n - 10) / n)
    ordered = sorted(samples)
    return pct, ordered[math.ceil(pct / 100 * n) - 1]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


# -- the two kinds of run -------------------------------------------------------


def fresh_setup_s(args) -> float:
    """Seconds of the first set-up in a new process of this runner."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-once"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up process failed: {proc.stderr.strip()}")
    return float(proc.stdout.strip().splitlines()[-1])


def run_plain(work, args):
    """End-to-end metrics: the first set-up of this process and of
    SETUP_PROCESSES - 1 new ones, one warm-up pass unless the workload's
    users pay the cold pass, then passes until ``args.seconds`` have been
    measured, and at least two."""
    setup = [timed(work.setup)[0]]
    setup += [fresh_setup_s(args) for _ in range(SETUP_PROCESSES - 1)]
    work.prepare()
    logs = [work.run_pass()] if work.warm_up else []
    times = []
    start = time.perf_counter()
    while len(times) < MIN_PASSES or time.perf_counter() - start < args.seconds:
        dt, log = timed(work.run_pass)
        times.append(dt)
        logs.append(log)
    metrics = {"wall_s": statistics.median(times),
               "setup_s": statistics.median(setup),
               "peak_rss_mb": peak_rss_mb()}
    extra = {"wall_s_samples": times, "wall_s_tail": tail(times),
             "setup_s_samples": setup}
    return metrics, extra, logs, []


def ladder_slopes(cfg, seed: int) -> dict:
    """Log-log slopes of analyze and coeff_arrays between 2^12 and 2^14
    cells at d=1."""
    import numpy as np
    from dyadica.ensembles import mixed_function
    from workloads import build_space
    t = {}
    for J in (-12, -14):
        sp = build_space(1, 0, J, cfg.wavelet_order, cfg.dictionary_size, cfg.refine)
        f = mixed_function(np.random.default_rng([seed, 200, -J]), sp.basis, kind=2)
        sp.basis.analyze(f.samples)
        t["analyze", J] = statistics.median(
            timed(lambda: sp.basis.analyze(f.samples))[0] for _ in range(3))
        t["coeff_arrays", J] = timed(lambda: sp.dictionary.coeff_arrays(f))[0]
    return {"wavelet.analyze_slope": math.log2(t["analyze", -14] / t["analyze", -12]) / 2,
            "tlnorm.coeff_arrays_slope":
                math.log2(t["coeff_arrays", -14] / t["coeff_arrays", -12]) / 2}


def run_traced(work, expected_calls):
    """Per-layer metrics: a set-up and a warm-up pass, then one set-up and
    pass untraced and the same window traced; the difference is the tracing
    overhead.  Set-ups after the first build throwaway workspaces, so both
    windows pay set-up and run their pass on warm caches."""
    from spans import Tracer
    work.setup()
    work.prepare()
    reference = work.run_pass()
    plain = timed(lambda: (work.setup(), work.run_pass()))[0]
    tracer = Tracer()
    with tracer:
        work.setup()
        log = work.run_pass()
    metrics = tracer.summary()
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / plain - 1.0
    problems = []
    if log.outputs != reference.outputs:
        problems.append("traced outputs differ from untraced outputs")
    calls = tracer.calls()
    missing = [n for n in expected_calls if not calls.get(n)]
    if missing:
        problems.append(f"wrapped names with no call: {missing}")
    problems += tracer.problems()
    metrics.update(ladder_slopes(work.cfg, work.seed))
    extra = {"untraced_window_s": plain, "calls": dict(calls),
             "by_suite": tracer.by_suite(), "spans": tracer.spans}
    return metrics, extra, [reference, log], problems


# -- reporting -----------------------------------------------------------------


def declared(kind: str) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)[kind]


def report(args, env, metrics, extra, logs, problems) -> dict:
    kind = "per_layer" if args.trace else "end_to_end"
    spec = declared(kind)
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        problems.append(f"metrics not measured: {missing}")
    last = logs[-1]
    consistent = all(log.outputs == last.outputs for log in logs)
    if not consistent:
        problems.append("passes of the same inputs gave different outputs")
    if not all(log.exact_ok for log in logs):
        problems.append("an exactness identity failed or an operation raised")
    attempted = sum(len(log.ops) for log in logs)
    failed = sum(log.failed for log in logs)
    correct = not problems

    print(f"dyadica benchmark: workload {args.workload}, seed {args.seed}, "
          f"trace {args.trace}")
    for m in spec:
        if m["name"] in metrics:
            print(f"  {m['name']:<40} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        n = len(extra["wall_s_samples"])
        t = extra["wall_s_tail"]
        print(f"  wall_s over {n} timed pass(es): median {metrics['wall_s']:.4f} s, "
              + (f"p{t[0]} {t[1]:.4f} s" if t else
                 "no tail percentile (it needs at least 11 samples)"))
        print(f"  setup_s: median of the first set-up in "
              f"{len(extra['setup_s_samples'])} processes")
    for suite, parts in extra.get("by_suite", {}).items():
        top = sorted(parts.items(), key=lambda kv: -kv[1])[:3]
        print(f"  inside {suite} ({metrics[suite + '_s']:.3f} s): "
              + ", ".join(f"{name} {sec:.3f} s" for name, sec in top))
    print(f"  fail_frac {failed / attempted:.4g} ratio ({failed} of {attempted} "
          "operations failed)")
    for name, ok, _, detail in last.ops:
        if not ok:
            print(f"  FAILED {name}: {detail}")
    for p in problems:
        print(f"  INCORRECT: {p}")

    record = {"environment": env, "correct": correct, "attempted": attempted,
              "failed": failed, "fail_frac": failed / attempted,
              "problems": problems, "metrics": metrics,
              "operations": [list(op) for op in last.ops],
              "operation_seconds": last.seconds}
    record.update({k: v for k, v in extra.items() if k != "spans"})
    stem = f"{args.workload}-seed{args.seed}"
    write_json(OUT / "results" / f"{stem}-trace{args.trace}.json", record)
    if "spans" in extra:
        write_json(OUT / "traces" / f"{stem}.json", extra["spans"])
    if not args.trace:
        write_json(OUT / "outputs" / f"{stem}.json",
                   {"workload": args.workload, "seed": args.seed,
                    "residuals": last.residuals, "outputs": last.outputs})
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                        for m in spec if m["name"] in metrics}}


def write_json(path: Path, obj) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=1, default=str)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-once", action="store_true",
                    help="print the seconds of one set-up and exit (for setup_s)")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "dyadica" / "__init__.py").is_file():
        print(f"error: no dyadica sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    blas_threads = cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import dyadica
    if Path(dyadica.__file__).resolve().parent != ROOT / "src" / "dyadica":
        print(f"error: imported dyadica from {dyadica.__file__}", file=sys.stderr)
        return 2
    from spans import expected_calls
    from workloads import DEFAULT_SEED, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seed is None:
        args.seed = DEFAULT_SEED
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    work = WORKLOADS[args.workload](args.seed, str(OUT / "tmp"))
    try:
        if args.setup_once:
            print(timed(work.setup)[0])
            return 0
        if args.trace:
            metrics, extra, logs, problems = run_traced(
                work, expected_calls(args.workload))
        else:
            metrics, extra, logs, problems = run_plain(work, args)
    finally:
        work.close()
    result = report(args, environment(args, blas_threads), metrics, extra, logs,
                    problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
