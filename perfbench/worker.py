"""One measured process: set-up, then a workload's commands in a closed loop.

run.py starts this once per set-up sample and once for the timed phase, so
each process's import, warm-up and peak RSS are its own. It prints one
JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode setup|measure|trace --corpus FILE --work DIR
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # set-up time counts the imports below

import argparse
import contextlib
import ctypes
import hashlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS, Step  # noqa: E402

# Files every run of a command rewrites with new timestamps; everything
# else the CLI writes is promised to be byte-identical for one seed.
NOT_HASHED = {"manifest.json", ".zids.lock"}


def warm_up() -> None:
    """Pay the first-call costs of BLAS threads and the allocator in set-up.

    Without it the first training command of a fresh process ran up to 1 s
    slower than the same command later in the process, even after a long
    prepare. Freeing a block of about 16 MB makes glibc malloc serve the
    training step's arrays from its heap instead of fresh mmap pages.
    """
    rng = np.random.default_rng(0)
    x = rng.random((16384, 64))
    w = rng.random((64, 128))
    for _ in range(2):
        h = np.maximum(x @ w, 0.0)
        (x.T @ h).sum()


def run_step(step: Step, values: dict, setup: Path, out: Path, cli_main):
    """Run one CLI command and its output check.

    Returns (seconds, problems). A non-zero exit, an exception from the
    command, or a check that fails or raises becomes a problem; nothing
    propagates, so one bad command is counted rather than ending the run.
    """
    argv = [arg.format(**values) for arg in step.argv]
    captured = io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            rc = cli_main(argv)
    except Exception:
        rc = None
        captured.write(traceback.format_exc())
    seconds = time.perf_counter() - start
    if rc != 0:
        tail = captured.getvalue().strip().splitlines()[-1:] or [""]
        return seconds, [f"{' '.join(argv[:1])}: exit {rc}: {tail[0]}"]
    if step.check is None:
        return seconds, []
    try:
        return seconds, list(step.check(setup, out))
    except Exception as exc:
        return seconds, [f"{argv[0]}: check raised {type(exc).__name__}: {exc}"]


def tree_digest(base: Path) -> str:
    """SHA-256 over the relative paths and bytes of every hashed file."""
    h = hashlib.sha256()
    for path in sorted(p for p in base.rglob("*") if p.is_file()):
        if path.name not in NOT_HASHED:
            h.update(str(path.relative_to(base)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def blas_info() -> dict:
    info = {"name": None, "version": None, "threads": None}
    with contextlib.suppress(KeyError, TypeError):
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    # OpenBLAS reports its own thread count; numpy offers no public call.
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        with contextlib.suppress(OSError):
            handle = ctypes.CDLL(str(lib))
            for symbol in ("scipy_openblas_get_num_threads64_",
                           "openblas_get_num_threads64_", "openblas_get_num_threads"):
                if hasattr(handle, symbol):
                    getter = getattr(handle, symbol)
                    getter.restype = ctypes.c_int
                    info["threads"] = getter()
                    break
    return info


def environment() -> dict:
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas_info(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "threads_env": {k: v for k, v in sorted(os.environ.items())
                        if k.endswith("_NUM_THREADS")},
    }


def run_iteration(workload, values, setup: Path, out: Path, cli_main) -> dict:
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    wall = stage = 0.0
    problems = []
    failed = 0
    for step in workload.steps:
        seconds, step_problems = run_step(step, values, setup, out, cli_main)
        wall += seconds
        if step.stage:
            stage += seconds
        if step_problems:
            failed += 1
            problems.extend(step_problems)
    return {"wall_s": wall, "stage_s": stage, "failed": failed,
            "problems": problems, "digest": tree_digest(out)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", required=True, choices=("setup", "measure", "trace"))
    parser.add_argument("--corpus", required=True)
    parser.add_argument("--work", required=True)
    args = parser.parse_args(argv)

    from zids.cli import main as cli_main

    workload = WORKLOADS[args.workload]
    work = Path(args.work)
    setup, out = work / "setup", work / "iter"
    values = {"corpus": args.corpus, "seed": str(args.seed),
              "setup": str(setup), "out": str(out)}

    warm_up()
    for step in workload.setup:
        _, problems = run_step(step, values, setup, out, cli_main)
        if problems:
            print(f"set-up failed: {problems}", file=sys.stderr)
            return 1
    setup_s = time.perf_counter() - T0
    result = {"setup_s": setup_s, "setup_digest": tree_digest(setup)}
    if args.mode == "setup":
        print(json.dumps(result))
        return 0

    tracer = spans.Tracer()
    iterations = []
    traced = []
    cpu_traced = 0.0
    start = time.perf_counter()
    # The traced run first times one untraced iteration, as the reference
    # for trace.overhead_s, then traces every later one.
    while not iterations or time.perf_counter() - start < args.seconds or (
        args.mode == "trace" and not traced
    ):
        trace_this = args.mode == "trace" and bool(iterations)
        cpu0 = time.process_time()
        with spans.instrumented(tracer) if trace_this else contextlib.nullcontext():
            it = run_iteration(workload, values, setup, out, cli_main)
        if trace_this:
            cpu_traced += time.process_time() - cpu0
            traced.append(it)
        iterations.append(it)

    reference = iterations[0]["digest"]
    failed = 0
    problems = []
    for it in iterations:
        if it["digest"] != reference and not it["failed"]:
            it["failed"] = 1
            it["problems"].append("artifacts differ from the first iteration")
        failed += it["failed"]
        problems.extend(it["problems"])

    result.update(
        iterations=len(iterations),
        attempted=len(iterations) * len(workload.steps),
        failed=failed,
        problems=problems[:10],
        digest=reference,
        wall_s=[it["wall_s"] for it in iterations],
        stage_s=[it["stage_s"] for it in iterations],
        stage_rows=workload.stage_rows,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=environment(),
    )
    if traced:
        overhead = (statistics.median(it["wall_s"] for it in traced)
                    - iterations[0]["wall_s"])
        result["layers"] = spans.layer_metrics(tracer, len(traced), cpu_traced, overhead)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
