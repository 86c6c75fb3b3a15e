"""Run one tespect benchmark workload and print its metrics.

    python3 perfbench/run.py --workload ladder-1d --seed 1 --seconds 20 --trace 0

All three workloads, one process each:

    for w in ladder-1d square-2d scan-oracle; do
        python3 perfbench/run.py --workload $w --seed 1 --seconds 20 --trace 0
    done

Run from a source checkout: tespect is imported from ``src/``, and a
directory without it is refused with exit code 2.  One process runs one
workload as a closed loop: the tasks run one after another in-process
through ``tespect.cli.run``, an untimed warm-up pass comes first, then the
timed passes.  Every task's outputs are checked after it returns, outside
the timed region.  ``--trace 1`` alternates untraced and traced passes and
reports the per-layer metrics of the traced ones (see ``spans``).

The host is a few virtual CPUs of a shared machine whose speed drifts by up
to a third from one minute to the next, in process CPU time as much as in
wall time.  So the times are reported in reference seconds: an untimed,
fixed pure-Python loop (the host probe) is timed in thread CPU time before
every task and before every set-up, and each pass's wall and CPU time, and
each set-up time, is multiplied by ``REFERENCE_PROBE_S`` over the mean of
its probes.  ``setup_s``, ``pass_s`` and ``cpu_s`` are medians of these
scaled times; a change to tespect moves them as it moves the raw times,
while the host's drift largely cancels.  The raw times and the probes are
printed and stored beside them.  The per-layer metrics are not scaled.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give the
metrics in words, and the full record (environment, per-task failures,
known-failure probe) goes to ``.perfbench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
PROBE_LOOPS = 200_000
# the probe's typical thread CPU time on the 2-vCPU x86-64 VM the benchmark
# was tuned on, so that scaled seconds read close to wall seconds there
REFERENCE_PROBE_S = 0.025
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "TE_SPECT_THREADS",
)
UNITS = {
    "setup_s": "s",
    "pass_s": "s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "1",
    "ref_digits": "digits",
}

sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import refs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def measure_setup(workload: str, seed: int) -> float:
    """Wall time of a fresh interpreter that imports tespect.cli and generates the inputs."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; "
        f"import tespect.cli, workloads; workloads.generate({workload!r}, {seed})"
    )
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        check=True,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - start


def host_probe() -> float:
    """Thread CPU seconds the host takes now for a fixed pure-Python loop.

    CPU time of this thread alone, so that other threads of the process
    (BLAS workers still spinning after a call) do not slow the probe.
    """
    start = time.thread_time()
    acc = 0.0
    for i in range(PROBE_LOOPS):
        acc += (i * 0.5) % 7.0
    return time.thread_time() - start


def scaled(seconds: float, probes: list[float]) -> float:
    """Seconds at the reference host speed, given the probes taken around them."""
    return seconds * REFERENCE_PROBE_S / statistics.fmean(probes)


def run_task(cli, task, out: Path) -> tuple[int, str, float, float]:
    """Exit code, captured stderr, wall and CPU seconds of one in-process CLI call."""
    argv = [*task.argv, "--out", str(out)]
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        c0, t0 = time.process_time(), time.perf_counter()
        try:
            code = cli.run(argv)
        except Exception:  # a crash fails this task; the pass goes on
            code = -1
            traceback.print_exc()
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    return code, err.getvalue(), wall, cpu


def run_pass(cli, tasks, out_root: Path, checker, rec=None) -> dict:
    """One pass over the workload; times only the CLI calls, each after a host probe."""
    wall = cpu = 0.0
    failures, probes = [], []
    for i, task in enumerate(tasks):
        out = out_root / f"{i:02d}"
        probes.append(host_probe())
        code, err, dt, dc = run_task(cli, task, out)
        wall += dt
        cpu += dc
        if code != 0:
            failures.append((i, f"{task.label}: exit {code}: {err.strip()[-300:]}"))
            continue
        failures += [(i, f"{task.label}: {p}") for p in checker.problems(task, out)]
        if rec is not None:
            rec.add("bytes_written", float(sum(f.stat().st_size for f in out.iterdir())))
    return {"wall": wall, "cpu": cpu, "failures": failures, "probes": probes}


def reference_scores(tasks, out_root: Path, checker) -> tuple[float, list, dict]:
    """Worst reference gap over the last pass's outputs, as digits."""
    gaps, failures = {}, []
    for i, task in enumerate(tasks):
        try:
            gap = checker.reference_error(task, out_root / f"{i:02d}")
        except Exception as exc:  # an unreadable output scores as no agreement
            gaps[task.label] = math.inf
            failures.append((i, f"{task.label}: reference check failed: {type(exc).__name__}: {exc}"))
            continue
        if gap is None:
            continue
        gaps[task.label] = gap
        if not gap <= checks.REFERENCE_GAP_MAX:
            failures.append((i, f"{task.label}: reference gap {gap:.3e} above {checks.REFERENCE_GAP_MAX:g}"))
    worst = max(gaps.values(), default=0.0)
    return refs.digits(worst) if math.isfinite(worst) else 0.0, failures, gaps


def known_failures(cli, out_root: Path) -> list[dict]:
    """Configurations that fail today, run once; informational only."""
    found = []
    for task in workloads.probes():
        code, err, wall, _ = run_task(cli, task, out_root / "probe")
        error = None
        for line in err.splitlines():
            with contextlib.suppress(ValueError, AttributeError, KeyError, TypeError):
                error = json.loads(line)["error"]["code"]
        found.append({"task": task.label, "exit": code, "error": error, "wall_s": wall})
    return found


def _blas_config() -> object:
    import numpy as np

    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 has no dict mode
        return None


def _git_commit() -> str | None:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            # a checkout that is not a repository must not report an enclosing one
            env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
            capture_output=True,
            text=True,
            timeout=30,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def environment(seed: int, te_spect_threads: str | None) -> dict:
    import numpy as np
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": _blas_config(),
        "thread_variables": {k: os.environ[k] for k in THREAD_VARIABLES if k in os.environ},
        "te_spect_threads_on_entry": te_spect_threads,
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s"):
        return "s"
    if name.endswith("_us"):
        return "us"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith("_ratio"):
        return "1"
    if name.endswith("bytes_written"):
        return "B"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="tespect benchmark: one workload, one process")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "tespect" / "cli.py").is_file():
        print(f"no tespect sources under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    # util's thread pool stays off: the workloads run sequentially
    te_spect_threads = os.environ.pop("TE_SPECT_THREADS", None)

    setup, setup_probes = [], []
    for _ in range(SETUP_REPEATS):
        setup_probes.append(host_probe())
        setup.append(measure_setup(args.workload, args.seed))

    sys.path.insert(0, str(SRC))
    import tespect.cli as cli

    tasks = workloads.generate(args.workload, args.seed)
    out_root = OUT / args.workload
    checker = checks.Checker()

    passes = [run_pass(cli, tasks, out_root, checker)]  # warm-up, untimed
    warm_wall = passes[0]["wall"]
    # as many passes as the warm-up says fit in --seconds, so a run's length
    # stays near it; the median over passes damps the shared host's noise
    fit = round(args.seconds / warm_wall)
    untraced, traced, recorders, absent = [], [], [], []
    if args.trace:
        for _ in range(max(1, fit // 2)):
            untraced.append(run_pass(cli, tasks, out_root, checker))
            rec = spans.Recorder()
            inst = spans.install(rec)
            try:
                traced.append(run_pass(cli, tasks, out_root, checker, rec))
            finally:
                spans.uninstall(inst)
            absent = inst.absent
            recorders.append(rec)
    else:
        for _ in range(max(2, fit)):
            untraced.append(run_pass(cli, tasks, out_root, checker))
    passes += untraced + traced
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    ref_digits, ref_failures, gaps = reference_scores(tasks, out_root, checker)
    probes = known_failures(cli, out_root)

    # a task fails at most once per pass; reference gaps belong to the last pass
    failing = {(k, i) for k, p in enumerate(passes) for i, _ in p["failures"]}
    failing |= {(len(passes) - 1, i) for i, _ in ref_failures}
    failures = [msg for p in passes for _, msg in p["failures"]] + [msg for _, msg in ref_failures]
    attempted = len(tasks) * len(passes)
    failed = len(failing)
    raw_pass_s = statistics.median(p["wall"] for p in untraced)
    raw_cpu_s = statistics.median(p["cpu"] for p in untraced)
    raw_setup_s = statistics.median(setup)
    end_to_end = {
        "setup_s": statistics.median(scaled(s, [q]) for s, q in zip(setup, setup_probes)),
        "pass_s": statistics.median(scaled(p["wall"], p["probes"]) for p in untraced),
        "cpu_s": statistics.median(scaled(p["cpu"], p["probes"]) for p in untraced),
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1.0 - failed / attempted,
        "ref_digits": ref_digits,
    }
    correct = failed == 0
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "environment": environment(args.seed, te_spect_threads),
        "tasks": [t.label for t in tasks],
        "setup_s_samples": setup,
        "pass_wall_s": [p["wall"] for p in untraced],
        "pass_cpu_s": [p["cpu"] for p in untraced],
        "warmup_wall_s": warm_wall,
        "raw_setup_s": raw_setup_s,
        "raw_pass_s": raw_pass_s,
        "raw_cpu_s": raw_cpu_s,
        "probe_s": statistics.median(t for p in untraced for t in p["probes"]),
        "setup_probes_s": setup_probes,
        "pass_probes_s": [p["probes"] for p in untraced],
        "end_to_end": end_to_end,
        "fail_ratio": failed / attempted,
        "reference_gaps": gaps,
        "failures": failures,
        "known_failures": probes,
    }
    if args.trace:
        layer = [spans.layer_metrics(r, p["wall"]) for r, p in zip(recorders, traced)]
        per_layer = spans.median_metrics(layer)
        per_layer["trace_overhead_s"] = per_layer["traced_pass_s"] - raw_pass_s
        self_sums = [sum(m[f"{name}.self_s"] for name in spans.LAYERS) for m in layer]
        over = [s - p["wall"] for s, p in zip(self_sums, traced) if s > p["wall"]]
        if over:
            correct = False
            failures.append(f"layer self times exceed the traced pass by {max(over):.3e} s")
        record.update(
            per_layer=per_layer,
            per_layer_passes=layer,
            layer_self_sum_s=self_sums,
            traced_pass_wall_s=[p["wall"] for p in traced],
            absent=absent,
        )
        metrics = {name: {"value": v, "unit": unit_of(name)} for name, v in per_layer.items()}
    else:
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in end_to_end.items()}

    out_root.mkdir(parents=True, exist_ok=True)
    tag = f"seed{args.seed}-trace{args.trace}"
    (out_root / f"result-{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if recorders:
        spans_out = [{"pass": i, "spans": r.spans} for i, r in enumerate(recorders)]
        (out_root / f"spans-{tag}.json").write_text(json.dumps(spans_out) + "\n")

    print_summary(record, len(traced), attempted, failed)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


def print_summary(record: dict, traced: int, attempted: int, failed: int) -> None:
    """The end-to-end metrics in words, with failures and the known-failure probe."""
    untraced = len(record["pass_wall_s"])
    print(f"workload {record['workload']} seed {record['seed']}: {len(record['tasks'])} tasks, "
          f"{untraced} untraced and {traced} traced passes after one warm-up")
    for name, value in record["end_to_end"].items():
        note = ""
        if name in ("setup_s", "pass_s", "cpu_s"):
            count = len(record["setup_s_samples"]) if name == "setup_s" else untraced
            note = f" (median of {count}, in reference seconds; {record['raw_' + name]:.6g} s raw)"
        print(f"  {name:<14} {value:12.6g} {UNITS[name]}{note}")
    print(f"  host probe {record['probe_s'] * 1e3:.4g} ms of CPU per loop against "
          f"{REFERENCE_PROBE_S * 1e3:g} ms at the reference speed")
    print(f"  {'fail_ratio':<14} {record['fail_ratio']:12.6g} 1 ({failed}/{attempted} tasks)")
    for f in record["failures"]:
        print(f"  FAILED {f}")
    for probe in record["known_failures"]:
        print(f"  known failure: {probe['task']} -> {probe['error']} (informational)")
    if record.get("absent"):
        print(f"  absent, metrics read 0: {', '.join(record['absent'])}")
    print(f"  environment {json.dumps(record['environment'], default=str)}")


if __name__ == "__main__":
    sys.exit(main())
