"""tautrel benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``tautrel`` is imported from its
``src/``.  Every repetition runs in a fresh interpreter (``worker.py``), so
module-level caches never carry over, as for a CLI user.

``--trace 0`` repeats the pipeline until ``--seconds`` would be exceeded (at
least once) and reports the end-to-end metrics: median ``solve_s`` and
``cpu_s`` over repetitions, the median of several timed set-ups as
``setup_s``, and the largest peak RSS of the repetitions.  ``--trace 1`` runs
the pipeline once untraced and once traced, and reports the per-layer
metrics of the traced run plus ``trace.overhead_s``.

The times of ``--trace 0`` are given at a fixed host speed (see
``hostspeed.py``).  Every ``SAMPLE_EVERY`` seconds the worker is stopped
(SIGSTOP) while this process runs a block of the reference unit on the same
CPU, then resumed; one more block follows each worker.  A time is scaled by
``hostspeed.speed_scale`` of the blocks of its worker, and the stopped time
is taken out of ``solve_s``.  The wall times are printed beside the scaled
ones.

Every repetition checks its output exactly; one that fails counts in
``failed`` and is not timed.  The last stdout line is the JSON result; the
lines before it give the metrics by name and unit, the failure rate and the
environment.  The exit code is 0 only when every check passed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

from hostspeed import Reference, speed_scale
from tracer import metric_names
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")

SETUPS = 9          # timed set-ups per run; setup_s is their median
DEADLINE_S = 150    # no repetition starts that would end after this
SAMPLE_EVERY = 1.0  # seconds of pipeline between two reference blocks
SAMPLE_S = 0.2      # seconds of one reference block


def environment():
    """Commit, source digest, Python version, CPU model and nproc."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            res = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                 capture_output=True, text=True, timeout=30)
            commit = res.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    digest = hashlib.sha256()
    src = os.path.join(ROOT, "src", "tautrel")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                digest.update(name.encode() + b"\0" + fh.read())
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"commit": commit, "src_sha256": digest.hexdigest()[:16],
            "python": platform.python_version(), "cpu": cpu,
            "nproc": os.cpu_count()}


def spawn(args, env, timeout, reference):
    """Run the worker: (wall seconds, CompletedProcess or None, blocks).

    With a ``reference``, a block of it runs for ``SAMPLE_S`` in this process
    every ``SAMPLE_EVERY`` seconds while the worker is stopped, and once more
    after the worker has ended; ``blocks`` lists (start, end, units) of
    each.  The CompletedProcess is None when the worker ran past
    ``timeout`` seconds and was killed."""
    blocks = []
    out_fh, err_fh = tempfile.TemporaryFile("w+"), tempfile.TemporaryFile("w+")
    with out_fh, err_fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, WORKER] + args, env=env,
                                stdout=out_fh, stderr=err_fh, text=True)
        try:
            while True:
                left = t0 + timeout - time.perf_counter()
                if left <= 0:
                    return time.perf_counter() - t0, None, blocks
                try:
                    proc.wait(timeout=left if reference is None
                              else min(SAMPLE_EVERY, left))
                    ended = True
                except subprocess.TimeoutExpired:
                    ended = False
                if reference is not None:
                    if not ended:
                        proc.send_signal(signal.SIGSTOP)
                    try:
                        blocks.append(reference.block(SAMPLE_S))
                    finally:
                        if not ended:
                            proc.send_signal(signal.SIGCONT)
                if ended:
                    break
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
        wall = time.perf_counter() - t0
        out_fh.seek(0)
        err_fh.seek(0)
        return wall, subprocess.CompletedProcess(
            proc.args, proc.returncode, out_fh.read(), err_fh.read()), blocks


def children_cpu():
    use = resource.getrusage(resource.RUSAGE_CHILDREN)
    return use.ru_utime + use.ru_stime


def repetition(base, env, trace, reference, timeout):
    """One checked pipeline run: (report or None, wall s, cpu s, blocks,
    error)."""
    cpu0 = children_cpu()
    wall, proc, blocks = spawn(base + (["--trace"] if trace else []), env,
                               timeout, reference)
    cpu = children_cpu() - cpu0
    if proc is None:
        return None, wall, cpu, blocks, "timed out after %.0f s" % wall
    try:
        report = json.loads(proc.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        report = None
    if proc.returncode != 0 or report is None:
        return None, wall, cpu, blocks, "worker exited %d: %s" % (
            proc.returncode, proc.stderr.strip()[-2000:])
    if not report["ok"]:
        return None, wall, cpu, blocks, "; ".join(report["problems"])
    return report, wall, cpu, blocks, None


def paused_within(blocks, window):
    """Seconds of the reference blocks inside ``window`` = [start, end],
    during which the worker was stopped."""
    start, end = window
    return sum(max(0.0, min(end, b1) - max(start, b0))
               for b0, b1, _ in blocks)


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.perf_counter()
    # On SIGTERM, unwind through the finally blocks that kill the worker.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit("terminated"))

    if not os.path.isfile(os.path.join(ROOT, "src", "tautrel", "__init__.py")):
        sys.exit("no tautrel sources under %s" % os.path.join(ROOT, "src"))
    # The reference blocks measure the speed of the CPU they run on, and the
    # host's CPUs slow down independently, so this process and its workers
    # share one CPU.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    reference = Reference()
    work_root = os.path.join(ROOT, ".perfbench_work")
    work = os.path.join(work_root, "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(work)
    env = dict(os.environ)
    env.pop("PYTHONPATH", None)
    # Hash order follows the seed, so a hash-order effect shows as spread.
    env["PYTHONHASHSEED"] = str(args.seed % 2 ** 32)
    base = ["--workload", args.workload, "--seed", str(args.seed),
            "--work", work]

    try:
        # The first set-up compiles bytecode and is not timed; its closing
        # reference block is the opening one of the second.
        setups, last_block = [], None
        for _ in range(SETUPS + 1):
            start = time.perf_counter()
            _, proc, blocks = spawn(base + ["--setup-only"], env, 60,
                                    reference)
            if proc is None or proc.returncode != 0:
                sys.exit("set-up failed: %s" % (proc.stderr if proc else
                                                "timed out"))
            ready = json.loads(proc.stdout.strip().splitlines()[-1])["ready"]
            if last_block:
                setups.append((ready - start)
                              * speed_scale([last_block, blocks[-1]]))
            last_block = blocks[-1]
        setup_s = statistics.median(setups)

        solves, cpus, peaks, walls, errors = [], [], [], [], []
        solve_walls = []
        traced = None
        measure_start = time.perf_counter()
        while True:
            # --trace 1: one untraced repetition, then one traced.
            trace = args.trace == 1 and len(walls) == 1
            remaining = DEADLINE_S - (time.perf_counter() - started)
            report, wall, cpu, blocks, error = repetition(
                base, env, trace, reference if args.trace == 0 else None,
                max(remaining, 1) + 25)
            walls.append(wall)
            if error:
                errors.append(error)
            elif trace:
                traced = report
            else:
                solve = report["solve_s"] - paused_within(blocks,
                                                          report["window"])
                # --trace 1 samples no blocks: trace.overhead_s compares
                # wall times.
                scale = speed_scale(blocks) if blocks else 1.0
                solve_walls.append(solve)
                solves.append(solve * scale)
                cpus.append(cpu * scale)
                peaks.append(report["peak_rss_mb"])
            if args.trace == 1:
                done = len(walls) == 2
            else:
                next_wall = statistics.median(walls)
                now = time.perf_counter()
                done = (now - measure_start + next_wall > args.seconds
                        or now - started + next_wall > DEADLINE_S)
            if done:
                break
        if traced is not None:
            os.replace(os.path.join(work, "spans-%s.tsv" % args.workload),
                       os.path.join(work_root, "spans-%s.tsv" % args.workload))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed = len(walls), len(errors)
    env_info = environment()
    if args.trace == 1:
        values = dict(traced["metrics"]) if traced else {}
        if traced and solves:
            values["trace.overhead_s"] = traced["solve_s"] - solves[0]
        units = metric_names()
    else:
        values = {}
        if solves:
            values = {"solve_s": statistics.median(solves), "setup_s": setup_s,
                      "cpu_s": statistics.median(cpus),
                      "peak_rss_mb": max(peaks)}
        units = [("solve_s", "s"), ("setup_s", "s"), ("cpu_s", "s"),
                 ("peak_rss_mb", "MB")]
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units if name in values}

    for error in errors:
        print("check failed: %s" % error)
    print("env: %s" % json.dumps(env_info, sort_keys=True))
    if args.trace == 0:
        print("runs: %d timed; solve_s %s; wall s %s" % (
            len(solves), " ".join("%.3f" % s for s in solves),
            " ".join("%.3f" % s for s in solve_walls)))
    for name, m in metrics.items():
        print("%-44s %14.6g %s" % (name, m["value"], m["unit"]))
    print("%-44s %14.6g ratio (%d of %d failed)" % (
        "fail_rate", failed / attempted, failed, attempted))
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    sys.exit(0 if correct else 1)


if __name__ == "__main__":
    main()
