"""qflux benchmark: one workload, repeated in fresh processes for a fixed time.

    python3 perfbench/run.py --workload verify --seed 2024 --seconds 28 --trace 0

Run from the root of a checkout; qflux is imported from its ``src/``. With
``--trace 0`` every repetition runs untraced and the end-to-end metrics are
medians over them. With ``--trace 1`` one untraced and one traced repetition
run, and the metrics are the traced run's per-layer totals. The last stdout
line is the result: ``{"correct", "attempted", "failed", "metrics"}``. The
line before it is the full record (fingerprint, samples, problems), which
``--record FILE`` also appends to FILE for ``compare.py``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import tracing
import workloads

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent

#: (name, unit) of the end-to-end metrics, in BENCHMARK.json order
END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("peak_rss_mib", "MiB"),
              ("expected_verdict_rate", "share"))

#: set-up is sampled at least this often per run, by set-up-only processes
#: when the repetitions alone are fewer
SETUP_SAMPLES = 5

#: BLAS threads of the worker processes, at most the cores available
MAX_BLAS_THREADS = 2

#: a run must end within this many seconds, whatever --seconds says
RUN_LIMIT_S = 170.0


class BenchmarkError(RuntimeError):
    """The benchmark could not produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def blas_threads() -> int:
    return max(1, min(MAX_BLAS_THREADS, len(os.sched_getaffinity(0))))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep) if p])
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(blas_threads())
    return env


def run_worker(workload: str, seed: int, out: Path, *, spans: Path | None = None,
               setup_only: bool = False, timeout: float = 150.0) -> dict:
    """Run worker.py once and return its result, with ``setup_s`` measured
    from the spawn to the end of the worker's set-up."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out)]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = _now()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=worker_env(), capture_output=True,
                              text=True, timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"worker exceeded {exc.timeout:.0f}s") from exc
    if proc.returncode != 0:
        raise BenchmarkError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    try:
        result = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, json.JSONDecodeError) as exc:
        raise BenchmarkError(f"worker printed no result: {proc.stdout[-2000:]!r}") from exc
    result["setup_s"] = result.pop("ready_at") - spawned
    return result


def rep_seed(seed: int, rep: int) -> int:
    """qflux seed of repetition ``rep``: the run's seed first, then seeds
    derived from it, so that a run's median spans several inputs."""
    if rep == 0:
        return seed
    return int(hashlib.sha256(f"{seed}/{rep}".encode()).hexdigest()[:8], 16)


def timed_run(workload: str, seed: int, seconds: float, work: Path) -> dict:
    """Untraced repetitions until ``seconds`` would be exceeded; at least one."""
    start = _now()
    reps: list[dict] = []
    while True:
        elapsed = _now() - start
        reps.append(run_worker(workload, rep_seed(seed, len(reps)), work / f"rep{len(reps)}",
                               timeout=RUN_LIMIT_S - elapsed))
        elapsed = _now() - start
        if elapsed + elapsed / len(reps) > seconds:
            break
    setups = [rep["setup_s"] for rep in reps]
    while len(setups) < SETUP_SAMPLES:
        probe = run_worker(workload, seed, work / f"setup{len(setups)}", setup_only=True,
                           timeout=RUN_LIMIT_S - (_now() - start))
        setups.append(probe["setup_s"])
    problems = [p for rep in reps for p in rep["problems"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    samples = {"seeds": [rep_seed(seed, i) for i in range(len(reps))],
               "setup_s": setups,
               "wall_s": [rep["wall_s"] for rep in reps],
               "peak_rss_mib": [rep["peak_rss_mib"] for rep in reps]}
    metrics = {name: statistics.median(samples[name])
               for name in ("setup_s", "wall_s", "peak_rss_mib")}
    metrics["expected_verdict_rate"] = 1.0 - failed / attempted
    return {"reps": reps, "samples": samples, "metrics": metrics,
            "attempted": attempted, "failed": failed, "problems": problems}


def traced_run(workload: str, seed: int, work: Path) -> dict:
    """One untraced and one traced repetition; per-layer metrics from the
    traced one, tracing overhead from the difference of their wall times."""
    start = _now()
    plain = run_worker(workload, seed, work / "untraced", timeout=RUN_LIMIT_S)
    spans_path = work / "spans.json"
    traced = run_worker(workload, seed, work / "traced", spans=spans_path,
                        timeout=RUN_LIMIT_S - (_now() - start))
    reps = [plain, traced]
    problems = [p for rep in reps for p in rep["problems"]]
    if plain["digests"] != traced["digests"]:
        problems.append("report bytes differ between the traced and the untraced run")
    metrics = tracing.summarize(json.loads(spans_path.read_text()), traced["cases"],
                                traced["ft_attempts"], traced["wall_s"], plain["wall_s"])
    return {"reps": reps, "samples": {"wall_s": [plain["wall_s"], traced["wall_s"]]},
            "metrics": metrics, "attempted": plain["attempted"] + traced["attempted"],
            "failed": plain["failed"] + traced["failed"], "problems": problems}


def git_sha() -> str | None:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = proc.stdout.split()
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_sha256() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def fingerprint(seed: int, first_rep: dict) -> dict:
    return {**first_rep["environment"], "blas_threads": blas_threads(),
            "nproc": os.cpu_count(), "git_sha": git_sha(), "source_sha256": source_sha256(),
            "seed": seed,
            "report_sha256": {name: digest for name, digest in first_rep["digests"].items()
                              if name.endswith(".json")}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=28.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", type=Path, default=None,
                        help="append the full record of this run to this JSON-lines file")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "qflux" / "__init__.py").is_file():
        print(f"perfbench: no qflux sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("perfbench: --seed must be nonnegative", file=sys.stderr)
        return 2

    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as tmp:
            if args.trace:
                result = traced_run(args.workload, args.seed, Path(tmp))
            else:
                result = timed_run(args.workload, args.seed, args.seconds, Path(tmp))
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    units = dict(END_TO_END) if not args.trace else {
        name: unit for name, unit, _ in tracing.per_layer_metrics()}
    metrics = {name: {"value": result["metrics"][name], "unit": unit}
               for name, unit in units.items()}
    correct = result["failed"] == 0 and not result["problems"]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "fingerprint": fingerprint(args.seed, result["reps"][0]),
              "samples": result["samples"], "problems": result["problems"],
              "correct": correct, "attempted": result["attempted"], "failed": result["failed"],
              "metrics": metrics}
    line = json.dumps(record, sort_keys=True)
    if args.record is not None:
        with args.record.open("a") as fh:
            fh.write(line + "\n")
    print(line)
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
