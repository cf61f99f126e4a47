"""Benchmark launcher for the metaplectic package.

    python3 perfbench/run.py --workload certify-w5|certify-w7|eval-stream
                             [--seed N] [--seconds T] [--trace 0|1]

Run from the root of a checkout.  Every program call happens in a fresh
worker process (``worker.py``) with the BLAS thread count pinned to 1.  With
``--trace 0`` the last line of standard output holds the end-to-end metrics;
with ``--trace 1`` it holds the per-layer metrics of one traced run, compared
against one untraced run of the same inputs for ``trace.overhead_frac``.  The
line before it records the environment and the output checks.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calib import factor
from worker import percentile
from tracer import PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKER = HERE / "worker.py"

WORKLOADS = {"certify-w5": 5, "certify-w7": 7, "eval-stream": None}
DEFAULT_SEED = 20250405  # the certify CLI default
SETUP_PROBES = 8
MIN_CERTIFY_CALLS = 3  # two to compare report bytes; three for a steady median
TRACE_EVAL_COUNT = 20_000  # fixed, so traced counts repeat exactly
BUDGET_S = 170.0
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


class Launcher:
    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.deadline = time.monotonic() + BUDGET_S
        self.env = {**os.environ, **{var: "1" for var in BLAS_VARS}, "PYTHONHASHSEED": "0"}

    def worker(self, *args: str) -> dict:
        """Run one worker to completion and return its last-line JSON."""
        proc = subprocess.run([sys.executable, str(WORKER), *args], env=self.env, cwd=ROOT,
                              capture_output=True, text=True,
                              timeout=max(self.deadline - time.monotonic(), 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"worker {args[0]} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup_s(self, probes: int) -> list[float]:
        """Fresh-process start to ready (imported; eval-stream also builds its forms)."""
        times = []
        for _ in range(probes):
            t0 = time.monotonic()
            out = self.worker("setup", "--workload", self.workload)
            wall = out["ready_monotonic"] - t0
            times.append(wall * factor(out["probe_s"], out["cpu_s"], wall))
        return times

    def certify(self, trace_path: Path | None = None) -> dict:
        args = ["certify", "--max-word-len", str(WORKLOADS[self.workload]), "--seed", str(self.seed),
                "--json", str(OUT / f"report-{self.workload}-{self.seed}.json")]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        return self.worker(*args)

    def eval_stream(self, *limit: str, trace_path: Path | None = None) -> dict:
        args = ["eval-stream", "--seed", str(self.seed), *limit]
        if trace_path is not None:
            args += ["--trace", str(trace_path)]
        return self.worker(*args)


def certify_checks(calls: list[dict]) -> dict:
    """Output checks of certify calls: identical bytes, every registered check, consistent exit code."""
    shas = {c["sha256"] for c in calls}
    complete = all(sorted(c["check_ids"]) == c["registry_ids"] for c in calls)
    exit_ok = all(c["rc"] == (0 if c["report_pass"] else 1) for c in calls)
    attempted = sum(len(c["check_ids"]) for c in calls)
    failed = sum(len(c["failed_checks"]) for c in calls)
    return {
        "correct": len(shas) == 1 and complete and exit_ok,
        "attempted": attempted,
        "failed": failed,
        "detail": {"report_sha256": sorted(shas), "identical_reports": len(shas) == 1,
                   "all_checks_present": complete, "exit_code_consistent": exit_ok,
                   "calls": len(calls), "failed_checks": sorted({f for c in calls for f in c["failed_checks"]}),
                   "failed_frac": failed / attempted if attempted else None},
    }


def eval_checks(runs: list[dict]) -> dict:
    """Output checks of eval-stream workers: every value matched its reference route."""
    attempted = sum(r["attempted"] for r in runs)
    raised = sum(r["raised"] for r in runs)
    mismatched = sum(r["mismatched"] for r in runs)
    return {
        "correct": mismatched == 0,
        "attempted": attempted,
        "failed": raised + mismatched,
        "detail": {"requests": attempted, "raised": raised, "mismatched": mismatched,
                   "worst_rel_err": max(r["worst_rel_err"] for r in runs),
                   "errors": [e for r in runs for e in r["errors"]][:5],
                   "failed_frac": (raised + mismatched) / attempted if attempted else None},
    }


def end_to_end(launcher: Launcher) -> tuple[dict, dict]:
    # half the set-up probes before the workload and half after, so they span its bursts
    setup = launcher.setup_s(SETUP_PROBES // 2)
    if launcher.workload == "eval-stream":
        run = launcher.eval_stream("--seconds", str(launcher.seconds))
        checked = eval_checks([run])
        metrics = {
            "wall_s": (run["block_s"], "s"),
            "evals_per_s": (run["attempted"] / run["busy_s"], "1/s"),
            "eval_p50_us": (run["p50_s"] * 1e6, "us"),
            "eval_p99_us": (run["p99_s"] * 1e6, "us"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        checked["detail"].update(latency_samples=run["attempted"], blocks=run["blocks"],
                                 block_median_p99_us=run["block_p99_s"] * 1e6, measured=run["raw"],
                                 unscaled_stretches=run["unscaled_stretches"])
    else:
        calls = []
        start = time.monotonic()
        while len(calls) < MIN_CERTIFY_CALLS or time.monotonic() - start < launcher.seconds:
            calls.append(launcher.certify())
        checked = certify_checks(calls)
        wall = statistics.median(c["wall_s"] for c in calls)
        # the request is the whole certify call; with a few calls per run its p99 is the slowest call
        metrics = {
            "wall_s": (wall, "s"),
            "evals_per_s": (len(calls) / sum(c["wall_s"] for c in calls), "1/s"),
            "eval_p50_us": (wall * 1e6, "us"),
            "eval_p99_us": (percentile(sorted(c["wall_s"] for c in calls), 0.99) * 1e6, "us"),
            # a probe landing amid large temporaries can pin a few MB of heap in one call
            "peak_rss_mb": (min(c["peak_rss_mb"] for c in calls), "MB"),
        }
        checked["detail"].update(call_wall_s=[c["wall_s"] for c in calls],
                                 measured_call_wall_s=[c["raw_wall_s"] for c in calls],
                                 call_peak_rss_mb=[c["peak_rss_mb"] for c in calls],
                                 unscaled_stretches=sum(c["unscaled_stretches"] for c in calls))
    setup += launcher.setup_s(SETUP_PROBES - SETUP_PROBES // 2)
    metrics["setup_s"] = (statistics.median(setup), "s")
    checked["detail"]["setup_s_samples"] = setup
    return metrics, checked


def traced(launcher: Launcher) -> tuple[dict, dict]:
    trace_path = OUT / f"trace-{launcher.workload}-{launcher.seed}.json"
    if launcher.workload == "eval-stream":
        limit = ("--count", str(TRACE_EVAL_COUNT))
        plain = launcher.eval_stream(*limit)
        run = launcher.eval_stream(*limit, trace_path=trace_path)
        checked = eval_checks([plain, run])
        base, with_trace = plain["busy_s"], run["busy_s"]
    else:
        plain = launcher.certify()
        run = launcher.certify(trace_path)
        checked = certify_checks([plain, run])
        base, with_trace = plain["wall_s"], run["wall_s"]
    layer = {**run["metrics"], "trace.overhead_frac": with_trace / base - 1.0}
    checked["detail"]["trace_file"] = str(trace_path.relative_to(ROOT))
    return {name: (layer[name], unit) for name, (unit, _) in PER_LAYER.items()}, checked


def environment(args) -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
        "numpy": metadata.version("numpy"), "git_sha": git_sha(),
        "blas_threads": 1, "platform": platform.platform(),
    }


def git_sha() -> str | None:
    """HEAD of the checkout, or None outside a git repository or without git."""
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)}  # do not find an enclosing repository
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="metaplectic benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=5.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "metaplectic" / "__init__.py").is_file():
        print(f"error: no metaplectic sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    launcher = Launcher(args.workload, args.seed, args.seconds)
    try:
        metrics, checked = (traced if args.trace else end_to_end)(launcher)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    detail = {"environment": environment(args), **checked["detail"]}
    name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
    result = {
        "correct": checked["correct"],
        "attempted": checked["attempted"],
        "failed": checked["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / name).write_text(json.dumps({"detail": detail, "result": result}, indent=1, sort_keys=True))
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
