"""zids benchmark: one workload, one closed-loop caller, one result line.

    python3 perfbench/run.py --workload ingest-10x|train-1x|explain-1x \
        --seed N --seconds S --trace 0|1

Run from the repository root. The seed drives both the synthetic corpus and
every `--seed` the CLI receives. Each process started here runs alone, one
after another, with no more BLAS threads than the CPUs this process may use.

--trace 0: SETUP_SAMPLES fresh processes set up the workload (import, BLAS
warm-up, prerequisite commands); the last one then repeats the workload's
commands for S seconds. Metrics are medians over those samples and
iterations; peak RSS is the timed process's own.
--trace 1: one process sets up, runs one untraced iteration, then traced
iterations for the rest of S seconds, and reports per-layer metrics.

Every command's exit code and outputs are checked, and every iteration's
artifacts must hash alike; `failed` counts the commands that fall short.
The line before the result is a JSON detail record: per-stage metrics
under the workload's own names, the artifact digest, problems, and the
environment. The last line is the result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from corpora import ensure_corpus  # noqa: E402
from spans import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_SAMPLES = 3
# The end_to_end list of BENCHMARK.json: name -> unit. The stage is the
# workload's main command: prepare, train (all four variants) or explain.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "stage_s": "s",
    "stage_rows_per_s": "rows/s",
    "peak_rss_mb": "MB",
}
DEADLINE_S = 170.0  # a run must finish within 180 s
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Per-stage names for the detail line: (time metric, throughput metric).
STAGE_NAMES = {
    "ingest-10x": ("prepare_s", "prepare_rows_per_s"),
    "train-1x": ("train_s", "train_samples_per_s"),
    "explain-1x": ("explain_s", "explain_rows_per_s"),
}


def child_env() -> dict:
    env = dict(os.environ)
    nproc = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            wanted = int(env.get(var, nproc))
        except ValueError:
            wanted = nproc
        env[var] = str(min(max(wanted, 1), nproc))
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def source_record() -> dict:
    """The commit if this is a git checkout, and a digest of the sources."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "zids").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    commit = None
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                              capture_output=True, text=True)
        if done.returncode == 0:
            commit = done.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def run_worker(args, mode: str, corpus: Path, deadline: float) -> dict:
    work = HERE / ".work" / f"{args.workload}-{args.seed}-{os.getpid()}-{mode}"
    shutil.rmtree(work, ignore_errors=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--mode", mode, "--corpus", str(corpus), "--work", str(work)]
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise SystemExit(f"worker ({mode}) exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(workload: str, timed: dict, samples: list):
    """END_TO_END values, and the stage metrics under the workload's names."""
    stage_s = statistics.median(timed["stage_s"])
    rate = timed["stage_rows"] / stage_s
    values = {
        "setup_s": statistics.median(s["setup_s"] for s in samples),
        "wall_s": statistics.median(timed["wall_s"]),
        "stage_s": stage_s,
        "stage_rows_per_s": rate,
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    time_name, rate_name = STAGE_NAMES[workload]
    detail = {
        time_name: stage_s,
        rate_name: rate,
        "stage_rows": timed["stage_rows"],
        "setup_samples_s": [s["setup_s"] for s in samples],
        "wall_samples_s": timed["wall_s"],
    }
    return {name: (values[name], unit) for name, unit in END_TO_END.items()}, detail


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S
    # As SystemExit, a SIGTERM makes subprocess.run kill and reap its child.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "zids" / "cli.py").is_file():
        print(f"no zids sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    corpus = ensure_corpus(WORKLOADS[args.workload].scale, args.seed,
                           timeout=max(deadline - time.monotonic(), 1.0))
    if args.trace:
        samples = [run_worker(args, "trace", corpus, deadline)]
    else:
        samples = [run_worker(args, "setup", corpus, deadline)
                   for _ in range(SETUP_SAMPLES - 1)]
        samples.append(run_worker(args, "measure", corpus, deadline))
    timed = samples[-1]

    # Set-up artifacts are promised byte-identical across processes too;
    # each extra set-up sample is one more operation that can fail.
    attempted = timed["attempted"] + len(samples) - 1
    failed = timed["failed"]
    problems = list(timed["problems"])
    for sample in samples[:-1]:
        if sample["setup_digest"] != timed["setup_digest"]:
            failed += 1
            problems.append("set-up artifacts differ between processes")

    if args.trace:
        metrics = {name: (timed["layers"][name], unit)
                   for name, (unit, _) in LAYER_METRICS.items()}
        detail = {}
    else:
        metrics, detail = end_to_end(args.workload, timed, samples)
    detail.update(
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        iterations=timed["iterations"],
        problems=problems,
        digest=hashlib.sha256(
            (timed["setup_digest"] + timed["digest"]).encode()).hexdigest(),
        env={**timed["env"], **source_record()},
    )
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
