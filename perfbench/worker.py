"""One repetition of one benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py --workload NAME --seed N --work DIR
                                [--setup-only] [--trace]

Imports ``tautrel`` from the checkout's ``src/`` and writes the workload's
inputs into DIR.  With ``--setup-only`` it then prints ``{"ready": R}``,
where R is the perf_counter reading at the end of set-up.  Otherwise it runs
the pipeline, checks the result exactly and prints one JSON line: ``ok``,
``problems``, ``solve_s``, ``window`` (the perf_counter readings at the
start and end of the pipeline), ``peak_rss_mb`` and, with ``--trace``, the
per-layer ``metrics``.
``solve_s`` runs from the start of the pipeline (chart expansion, or CLI
argument parsing) to the exact check passing.
"""

import argparse
import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

CELLS8 = [(0, 4, 1), (0, 5, 1), (0, 5, 2), (1, 1, 1),
          (1, 2, 1), (1, 2, 2), (2, 0, 1), (2, 0, 2)]
A3_CELLS = [(1, 1, 1), (0, 4, 1)]

# Closed A2 ranks on the eight cells.  Where closure already reaches
# generators - dim R^d the rank is exact; at the three cells with a known
# gap it is bounded below by today's rank and above by generators - dim R^d,
# so a completeness fix still passes.
A2_RANKS = {(0, 4, 1): (7, 7), (0, 5, 1): (11, 11), (0, 5, 2): (126, 126),
            (1, 1, 1): (2, 2), (2, 0, 1): (1, 1),
            (1, 2, 1): (2, 3), (1, 2, 2): (15, 18), (2, 0, 2): (4, 6)}
A3_RANKS = {(1, 1, 1): (2, 2), (0, 4, 1): (7, 7)}

# Extension constants c of the A1 factor: nonzero p/q with |p|, q <= 3.
EXTENSION_CONSTANTS = sorted({Fraction(p, q) for p in range(-3, 4)
                              for q in range(1, 4) if p})


def extension_constant(seed):
    return random.Random(seed).choice(EXTENSION_CONSTANTS)


# ``tautrel`` is imported inside the functions: ``run.py`` imports this
# module for the workload names and must not load the package itself.


def check_ranks(rs, expected):
    problems = []
    for cell, (lo, hi) in sorted(expected.items()):
        rank = rs.dim(cell)
        if not lo <= rank <= hi:
            problems.append("rank %s = %d, expected %s" % (
                cell, rank, lo if lo == hi else "[%d, %d]" % (lo, hi)))
    return problems


def check_pairings(rs):
    from tautrel.relations import verify_relations
    failures = verify_relations(rs)
    return ["nonzero pairings at %s" % (cell,) for cell in sorted(failures)]


def closed_library_span(expansion, cells, K, probe=None):
    from tautrel.frobenius import idempotent_frame
    from tautrel.reconstruct import CohFTSpec
    from tautrel.relations import close_relations, extract_relations
    from tautrel.rmatrix import solve_flatness
    frame = idempotent_frame(expansion, probe=probe)
    spec = CohFTSpec(frame, solve_flatness(frame, K=K))
    return close_relations(extract_relations(spec, cells))


# -- workloads ----------------------------------------------------------------
# ``setup`` writes the inputs and returns them; ``run`` is the timed pipeline
# with its exact check and returns the list of problems found (empty = pass).

def setup_fixed(seed, work):
    """The paper's fixed charts take no random input: the seed is ignored."""
    return None


def run_a2_close8(_):
    from tautrel.charts import a2_expansion
    closed = closed_library_span(a2_expansion(trunc=12), CELLS8, K=4)
    return check_pairings(closed) + check_ranks(closed, A2_RANKS)


def run_a3_extract2(_):
    from tautrel.charts import a3_expansion
    closed = closed_library_span(a3_expansion(trunc=10), A3_CELLS, K=3,
                                 probe=[0, 1, 0])
    return check_pairings(closed) + check_ranks(closed, A3_RANKS)


def setup_cli_compare8(seed, work):
    from tautrel.charts import a2_chart, extend_chart
    from tautrel.serialize import dump_chart
    chart_path = os.path.join(work, "ext.json")
    dump_chart(extend_chart(a2_chart(), extension_constant(seed)), chart_path)
    return chart_path


def run_cli_compare8(chart_path):
    from tautrel import cli
    out = os.path.dirname(chart_path)
    # Keep the two closed spans the CLI computes so their pairings can be
    # checked too; compare.json carries only the verdicts.
    closed = []
    close = cli.close_relations

    def keep(rs):
        closed.append(close(rs))
        return closed[-1]

    cli.close_relations = keep
    try:
        code = cli.main(["compare", "--chart", "a2", "--chart2", chart_path,
                         "--param", "t1", "--gn", "0,4;0,5;1,1;1,2;2,0",
                         "--codim", "2", "--trunc", "12", "--z-order", "4",
                         "--out", out])
    finally:
        cli.close_relations = close
    if code != 0:
        return ["tautrel compare exited %s" % code]
    with open(os.path.join(out, "compare.json")) as fh:
        verdicts = json.load(fh)["verdicts"]
    expected = {"%d,%d,%d" % cell: "equal" for cell in CELLS8}
    problems = [] if verdicts == expected else ["verdicts %s" % verdicts]
    if len(closed) != 2:
        problems.append("expected 2 closed spans, got %d" % len(closed))
    for rs in closed:
        problems += check_pairings(rs)
    return problems


def peak_rss_mb():
    """High-water RSS of this process since it started this program.

    ``VmHWM`` is read instead of ``ru_maxrss``, which also counts the
    parent's memory that the process carried until ``exec``."""
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


WORKLOADS = {
    "a2-close8": (setup_fixed, run_a2_close8),
    "a3-extract2": (setup_fixed, run_a3_extract2),
    "cli-compare8": (setup_cli_compare8, run_cli_compare8),
}


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, SRC)
    import tautrel
    import tautrel.cli  # noqa: F401  (loading the CLI is set-up too)
    if not os.path.abspath(tautrel.__file__).startswith(SRC + os.sep):
        sys.exit("tautrel imported from %s, not from %s"
                 % (tautrel.__file__, SRC))
    setup, run = WORKLOADS[args.workload]
    inputs = setup(args.seed, args.work)
    if args.setup_only:
        # The end of set-up as a perf_counter reading: run.py times set-up
        # to here, as polling for the process's exit would blur it.
        print(json.dumps({"ready": time.perf_counter()}))
        return

    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    t0 = time.perf_counter()
    problems = run(inputs)
    t1 = time.perf_counter()
    # The window is given in perf_counter readings too, so that run.py can
    # take out the pauses it made (perf_counter is the system-wide monotonic
    # clock on Linux).
    report = {"ok": not problems, "problems": problems, "solve_s": t1 - t0,
              "window": [t0, t1], "peak_rss_mb": peak_rss_mb()}
    if tracer is not None:
        report["metrics"] = tracer.metrics(args.workload)
        tracer.write_spans(
            os.path.join(args.work, "spans-%s.tsv" % args.workload))
    print(json.dumps(report))


if __name__ == "__main__":
    main()
