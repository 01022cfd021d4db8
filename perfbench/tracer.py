"""Span tracer for the traced benchmark run.

Wraps the public functions and methods of the ``tautrel`` modules from the
outside, so the package itself carries no tracing code.  Every call becomes a
span (name, start, end, parent) kept in per-thread memory; a per-thread span
stack turns inclusive time into self time as spans close.  ``write_spans``
dumps the raw spans when the run ends.

Times are wall-clock ``perf_counter`` readings.  Under the CLI's extraction
thread pool two threads interleave on the interpreter lock, so a span's time
there includes the time its thread waited for the lock, and ``busy_s`` sums
over threads.
"""

import functools
import importlib
import inspect
import sys
import threading
import time
from array import array


def _const_operand(args, result):
    """1 if one operand of a ``MultiPoly`` product is a constant (a number
    or a constant polynomial); 0 when the product was handed to the other
    operand's type."""
    if result is NotImplemented:
        return 0
    a, b = args
    return 1 if a.is_constant() or not hasattr(b, "is_constant") \
        or b.is_constant() else 0


# Traced layers: metric prefix -> (module, attribute path, reported fields,
# counter, workloads).  ``counter`` maps (args, result) of one call to a
# number summed over calls; the counter field of a layer (``accepted``,
# ``terms``, ...) reports that sum, or the sum over ``calls`` for a ratio.
# ``workloads`` lists where the layer is predicted to move solve_s, so it must
# be hit there: a rename then breaks the tracer instead of reading 0.
ALL = ("a2-close8", "a3-extract2", "cli-compare8")
CLOSURE = ("a2-close8", "cli-compare8")
EXTRACTION = ("a3-extract2", "cli-compare8")
CLI = ("cli-compare8",)
CALLS_SELF = ("calls", "self_s")
LAYERS = {
    "relations.RelationSet.add": (
        "relations", "RelationSet.add",
        ("calls", "accepted", "accept_ratio", "self_s"),
        lambda a, r: 1 if r else 0, CLOSURE),
    "relations.relabel_legs": ("relations", "relabel_legs", CALLS_SELF, None,
                               CLOSURE),
    "relations.close_relations": ("relations", "close_relations", ("busy_s",),
                                  None, CLOSURE),
    "graphs.multiply_psi": ("graphs", "multiply_psi", CALLS_SELF, None,
                            CLOSURE),
    "graphs.multiply_kappa": ("graphs", "multiply_kappa", CALLS_SELF, None,
                              CLOSURE),
    "graphs.forgetful_pushforward": ("graphs", "forgetful_pushforward",
                                     CALLS_SELF, None, CLOSURE),
    "graphs.gluing_pushforward": ("graphs", "gluing_pushforward", CALLS_SELF,
                                  None, CLOSURE),
    "graphs.enumerate_decorated_basis": ("graphs", "enumerate_decorated_basis",
                                         ("self_s",), None, CLOSURE),
    "relations.RelationSet.contains": ("relations", "RelationSet.contains",
                                       CALLS_SELF, None, CLI),
    "relations.compare_spans": ("relations", "compare_spans", ("busy_s",),
                                None, CLI),
    "reconstruct.reconstruct_class": (
        "reconstruct", "reconstruct_class",
        ("calls", "busy_s", "self_s", "terms"),
        lambda a, r: len(r.terms), EXTRACTION),
    "reconstruct.edge_series": ("reconstruct", "edge_series", CALLS_SELF,
                                None, EXTRACTION),
    "reconstruct.vertex_contributions": ("reconstruct", "vertex_contributions",
                                         CALLS_SELF, None, EXTRACTION),
    "relations.extract_relations": ("relations", "extract_relations",
                                    ("busy_s",), None, EXTRACTION),
    "relations.polar_vectors": ("relations", "polar_vectors", ("vectors",),
                                None, EXTRACTION),
    "puiseux.PuiseuxSeries.mul": ("puiseux", "PuiseuxSeries.__mul__",
                                  CALLS_SELF, None, CLI),
    "puiseux.PuiseuxSeries.invert": ("puiseux", "PuiseuxSeries.invert",
                                     CALLS_SELF, None, CLI),
    "puiseux.SeriesMatrix.mul": ("puiseux", "SeriesMatrix.__mul__",
                                 CALLS_SELF, None, CLI),
    "multipoly.MultiPoly.mul": ("multipoly", "MultiPoly.__mul__",
                                ("calls", "self_s", "const_share"),
                                _const_operand, ALL),
    "graphs.enumerate_stable_graphs": ("graphs", "enumerate_stable_graphs",
                                       ("calls", "self_s", "graphs"),
                                       lambda a, r: len(r), ALL),
    "frobenius.idempotent_frame": ("frobenius", "idempotent_frame",
                                   ("busy_s",), None, ("a3-extract2",)),
    "rmatrix.solve_flatness": ("rmatrix", "solve_flatness", ("busy_s",), None,
                               ("a3-extract2",)),
    "intersect.integrate_against_monomial": ("intersect",
                                             "integrate_against_monomial",
                                             CALLS_SELF, None, ALL),
    "intersect.psi_integral": ("intersect", "psi_integral", CALLS_SELF, None,
                               ALL),
    "relations.verify_relations": ("relations", "verify_relations",
                                   ("busy_s",), None, ALL),
    "cli.main": ("cli", "main", ("busy_s",), None, CLI),
}

RATIOS = ("accept_ratio", "const_share")

UNITS = {"calls": "count", "busy_s": "s", "self_s": "s", "accepted": "count",
         "accept_ratio": "ratio", "terms": "count", "vectors": "count",
         "const_share": "ratio", "graphs": "count"}


def metric_names():
    """Every per-layer metric name with its unit, in report order."""
    out = [("%s.%s" % (layer, field), UNITS[field])
           for layer, spec in LAYERS.items() for field in spec[2]]
    out.append(("trace.overhead_s", "s"))
    return out


class _ThreadLog:
    """Spans and per-layer totals of one thread; only that thread writes."""

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.stack = []          # open spans: [span id, child time]
        self.depth = {}          # layer index -> open spans (recursion guard)
        self.totals = {}         # layer index -> [calls, busy, self, counter]


class Tracer:
    def __init__(self):
        self.layers = list(LAYERS)
        self.logs = []
        self._lock = threading.Lock()
        self._local = threading.local()

    def _log(self):
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self.logs.append(log)
        return log

    def _wrap(self, idx, fn, counter):
        log_of = self._log
        clock = time.perf_counter

        def traced(*args, **kwargs):
            log = log_of()
            stack = log.stack
            sid = len(log.start)
            log.name.append(idx)
            log.parent.append(stack[-1][0] if stack else -1)
            log.end.append(0.0)
            depth = log.depth.get(idx, 0)
            log.depth[idx] = depth + 1
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = clock()
            log.start.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                log.end[sid] = t1
                log.depth[idx] = depth
                dur = t1 - t0
                tot = log.totals.get(idx)
                if tot is None:
                    tot = log.totals[idx] = [0, 0.0, 0.0, 0]
                tot[0] += 1
                if depth == 0:
                    tot[1] += dur
                tot[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
            if counter is not None:
                tot[3] += counter(args, result)
            return result

        return functools.update_wrapper(traced, fn)

    def _wrap_generator(self, idx, fn):
        """A generator gets no span, since its time interleaves with its
        consumer's; its counter is the number of items yielded."""
        log_of = self._log

        def traced(*args, **kwargs):
            tot = log_of().totals.setdefault(idx, [0, 0.0, 0.0, 0])
            tot[0] += 1
            for item in fn(*args, **kwargs):
                tot[3] += 1
                yield item

        return functools.update_wrapper(traced, fn)

    def install(self):
        """Patch every site where a traced function is looked up: the
        defining module, each ``tautrel`` module that imported the name, and
        every class attribute bound to it (``__rmul__ = __mul__``)."""
        importlib.import_module("tautrel.cli")  # imports every module
        modules = [mod for name, mod in sorted(sys.modules.items())
                   if name == "tautrel" or name.startswith("tautrel.")]
        classes = [obj for mod in modules for obj in vars(mod).values()
                   if inspect.isclass(obj) and obj.__module__ == mod.__name__]
        for idx, layer in enumerate(self.layers):
            modname, path = LAYERS[layer][:2]
            fn = importlib.import_module("tautrel." + modname)
            for part in path.split("."):
                fn = getattr(fn, part)  # a renamed layer fails here
            if inspect.isgeneratorfunction(fn):
                wrapped = self._wrap_generator(idx, fn)
            else:
                wrapped = self._wrap(idx, fn, LAYERS[layer][3])
            for holder in modules + classes:
                for attr, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, attr, wrapped)

    def metrics(self, workload):
        """Per-layer metrics; raises if a layer predicted to carry work on
        this workload was never called."""
        totals = {layer: [0, 0.0, 0.0, 0] for layer in self.layers}
        for log in self.logs:
            for idx, tot in log.totals.items():
                acc = totals[self.layers[idx]]
                for k in range(4):
                    acc[k] += tot[k]
        missing = [layer for layer in self.layers
                   if workload in LAYERS[layer][4] and totals[layer][0] == 0]
        if missing:
            raise RuntimeError("traced layers not hit on %s: %s"
                               % (workload, ", ".join(missing)))
        out = {}
        for layer, spec in LAYERS.items():
            calls, busy, self_s, counter = totals[layer]
            by_field = {"calls": calls, "busy_s": busy, "self_s": self_s}
            for field in spec[2]:
                if field in by_field:
                    value = by_field[field]
                elif field in RATIOS:
                    value = counter / calls if calls else 0.0
                else:
                    value = counter
                out["%s.%s" % (layer, field)] = value
        return out

    def write_spans(self, path):
        """Tab-separated spans: thread, span id, name, start, end, parent id
        (-1 for a root span of its thread)."""
        with open(path, "w") as fh:
            fh.write("thread\tspan\tname\tstart\tend\tparent\n")
            for t, log in enumerate(self.logs):
                fh.writelines(
                    "%d\t%d\t%s\t%.9f\t%.9f\t%d\n"
                    % (t, i, self.layers[log.name[i]], log.start[i],
                       log.end[i], log.parent[i])
                    for i in range(len(log.start)))
