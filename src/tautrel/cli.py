"""Command-line front end: reproducible, file-driven pipeline runs.

Subcommands: frame, rmatrix, reconstruct, relations, compare, verify, genus1.
A JSON config file provides defaults and is echoed into every artifact;
command-line flags override config fields.  A subcommand takes only the
flags of the fields it reads.  Exit codes: 0 success, 1 computation error,
2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import charts as chartlib
from .frobenius import (ChartError, NonSemisimpleError, idempotent_frame,
                        local_structure_probe, psi0_frame)
from .intersect import integrate_strata
from .multipoly import NonUnitError
from .reconstruct import (CohFTSpec, genus_one_correlator, reconstruct_class,
                          to_normalized_insertion, unit_insertions)
from .relations import (close_relations, compare_spans, extract_relations,
                        verify_relations)
from .rmatrix import solve_2d_family, solve_flatness
from .serialize import (SCHEMA_VERSION, ParseError, load_chart, parse_poly,
                        relations_from_json, relations_to_json, rmatrix_to_json,
                        vector_to_json)

EXIT_OK = 0
EXIT_COMPUTE = 1
EXIT_INPUT = 2

BUILTIN_CHARTS = {
    "a2": lambda: chartlib.a2_chart(),
    "a2_tilted": lambda: chartlib.a2_tilted_chart(),
    "a3": lambda: chartlib.a3_chart(),
    "a2xa1": lambda: chartlib.extend_chart(chartlib.a2_chart(), 1),
}


def _load_config(args):
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
    for key in ("chart", "chart2", "param", "trunc", "z_order", "codim",
                "family", "relations_file", "out", "cover_degree"):
        val = getattr(args, key, None)
        if val is not None:
            config[key] = val
    if getattr(args, "gn", None):
        config["gn"] = [[int(x) for x in pair.split(",")]
                        for pair in args.gn.split(";")]
    if getattr(args, "insertion", None):
        config["insertion"] = [int(x) for x in args.insertion.split(",")]
    if getattr(args, "constants", None):
        config["constants"] = json.loads(args.constants)
    config.setdefault("trunc", 8)
    config.setdefault("z_order", 3)
    config.setdefault("codim", 2)
    config.setdefault("out", ".")
    _validate(config)
    return config


def _validate(config):
    """Reject grids, codimensions and truncations no command can use."""
    for pair in config.get("gn") or []:
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError("--gn entry %s is not a pair g,n" % (pair,))
        g, n = (int(x) for x in pair)
        if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
            raise ParseError("(g, n) = (%d, %d) is not a stable type" % (g, n))
    for key, flag in (("codim", "codim"), ("z_order", "z-order"),
                      ("cover_degree", "cover-degree")):
        if key in config and int(config[key]) < 1:
            raise ParseError("%s must be at least 1, got %s"
                             % (flag, config[key]))
    if Fraction(config["trunc"]) <= 0:
        raise ParseError("trunc must be positive, got %s" % config["trunc"])


def _check_insertions(flat, dim):
    for mu in flat:
        if not 0 <= mu < dim:
            raise ParseError("insertion index %d is out of range for a "
                             "%d-dimensional chart" % (mu, dim))


def _make_expansion(config):
    """The chart expansion of ``config``: ``charts.expand`` of its chart at
    the config's ``expansion``, ``param`` and ``cover_degree``."""
    name = config.get("chart")
    if not name:
        raise ParseError("no chart given (config 'chart' or --chart)")
    chart = BUILTIN_CHARTS[name]() if name in BUILTIN_CHARTS else load_chart(name)
    return chartlib.expand(chart, config["trunc"], config.get("expansion"),
                           config.get("param"), config.get("cover_degree"))


def _constants(config, dim):
    """{(i, k): v} of the ``constants`` entries [i, k, v]: the flatness solve
    uses only an index 0 <= i < dim, an odd z-order 1 <= k <= z-order and a
    rational v (an integer or a string such as "1/3"), one per (i, k)."""
    items = config.get("constants") or []
    z_order = int(config["z_order"])
    out = {}
    for item in items if isinstance(items, list) else [items]:
        try:
            i, k, v = item
            if not (type(i) is type(k) is int and type(v) in (int, str)
                    and 0 <= i < dim and k % 2 and 1 <= k <= z_order):
                raise ValueError
            value = Fraction(v)
        except (TypeError, ValueError, ZeroDivisionError):
            raise ParseError("constants entry %s is not [i, k, value] with "
                             "0 <= i < %d, odd 1 <= k <= %d and a rational "
                             "value" % (json.dumps(item), dim, z_order)) from None
        if (i, k) in out:
            raise ParseError("constants entry %s repeats (i, k) = (%d, %d)"
                             % (json.dumps(item), i, k))
        out[(i, k)] = value
    return out


def _write(config, name, payload):
    payload = dict(payload)
    payload["schema_version"] = SCHEMA_VERSION
    payload["config"] = {k: v for k, v in sorted(config.items())}
    outdir = config.get("out", ".")
    os.makedirs(outdir, exist_ok=True)
    path = os.path.join(outdir, name)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return path


def cmd_frame(config):
    exp = _make_expansion(config)
    frame = idempotent_frame(exp)
    report = local_structure_probe(frame)
    i1, i2 = report.singular
    payload = {
        "chart": exp.chart.name,
        "idempotents": [[str(c) for c in eps] for eps in frame.eps],
        "canonical_coordinates": [str(u) for u in frame.u],
        "delta": [str(d) for d in frame.delta],
        "m": str(report.m),
        "singular_pair": report.singular,
        "u1_minus_u2": str(frame.u[i1] - frame.u[i2]),
        "order_u1_minus_u2": str(report.u_diff_order),
    }
    if report.m == Fraction(1, 2):
        p0 = psi0_frame(frame)
        payload["eta0"] = str(p0.eta0)
        payload["eta1"] = str(p0.eta1)
        payload["t"] = str(p0.t)
        payload["psi_tilde_orders"] = [[str(e.order()) for e in row]
                                       for row in p0.psi_tilde.entries]
    path = _write(config, "frame.json", payload)
    print("frame report: %s (m = %s)" % (path, report.m))
    return EXIT_OK


def cmd_rmatrix(config):
    if config.get("family"):
        f = parse_poly(config["family"])
        if f.variables() - {"t"}:
            raise ParseError("--family must be a polynomial in t, got %s" % f)
        if f.is_zero():
            raise ParseError("--family f = 0 has no semisimple point")
        diag = solve_2d_family(f)
        payload = {
            "family": str(f),
            "gamma": str(diag.gamma_global) if diag.gamma_global is not None else None,
            "gamma_series": {str(c): str(s) for c, s in diag.gamma_series.items()},
            "certificate": diag.certificate,
        }
        path = _write(config, "rmatrix_family.json", payload)
        print("family diagnostics: %s" % path)
        if diag.gamma_global is not None:
            print("gamma = %s" % diag.gamma_global)
        else:
            print(diag.certificate)
        return EXIT_OK
    exp = _make_expansion(config)
    constants = _constants(config, exp.chart.dim)
    frame = idempotent_frame(exp)
    R = solve_flatness(frame, int(config["z_order"]), constants)
    payload = rmatrix_to_json(R)
    path = _write(config, "rmatrix.json", payload)
    print("R-matrix to z^%d: %s" % (R.K, path))
    return EXIT_OK


def cmd_reconstruct(config):
    exp = _make_expansion(config)
    gn = config.get("gn") or [[1, 1]]
    if len(gn) != 1:
        raise ParseError("reconstruct takes one --gn pair, got %d" % len(gn))
    g, n = gn[0]
    flat = config.get("insertion") or [0] * n
    if len(flat) != n:
        raise ParseError("need %d insertion indices" % n)
    _check_insertions(flat, exp.chart.dim)
    constants = _constants(config, exp.chart.dim)
    frame = idempotent_frame(exp)
    R = solve_flatness(frame, int(config["z_order"]), constants)
    spec = CohFTSpec(frame, R)
    units = unit_insertions(frame)
    insertions = [units[mu] for mu in flat]
    cls = reconstruct_class(spec, g, n, insertions, int(config["codim"]))
    payload = vector_to_json(cls)
    path = _write(config, "reconstruct.json", payload)
    print("reconstructed (%d,%d) class with %d terms: %s"
          % (g, n, len(cls.terms), path))
    return EXIT_OK


def _default_cells(config):
    gn = config.get("gn") or [[1, 1], [0, 4]]
    dmax = int(config["codim"])
    cells = []
    for g, n in gn:
        dim = 3 * g - 3 + n
        for d in range(1, min(dmax, dim) + 1):
            cells.append((g, n, d))
    return cells


def _relations_for(config, exp, constants):
    frame = idempotent_frame(exp)
    R = solve_flatness(frame, int(config["z_order"]), constants)
    spec = CohFTSpec(frame, R)
    rs = extract_relations(spec, _default_cells(config))
    return close_relations(rs)


def cmd_relations(config):
    exp = _make_expansion(config)
    rs = _relations_for(config, exp, _constants(config, exp.chart.dim))
    payload = relations_to_json(rs)
    path = _write(config, "relations.json", payload)
    print("relations: %s" % path)
    for cell in rs.cells:
        print("  (g,n,codim)=%s rank %d" % (cell, rs.dim(cell)))
    return EXIT_OK


def cmd_compare(config):
    other = config.get("chart2")
    if not other:
        raise ParseError("compare needs 'chart2'")
    exp1 = _make_expansion(config)
    exp2 = _make_expansion(dict(config, chart=other))
    constants1 = _constants(config, exp1.chart.dim)
    constants2 = _constants(config, exp2.chart.dim)
    rs1 = _relations_for(config, exp1, constants1)
    rs2 = _relations_for(config, exp2, constants2)
    verdicts = compare_spans(rs1, rs2)
    payload = {"verdicts": {"%d,%d,%d" % cell: v for cell, (v, _) in
                            sorted(verdicts.items())}}
    path = _write(config, "compare.json", payload)
    print("compare: %s" % path)
    for cell, (v, _) in sorted(verdicts.items()):
        print("  %s: %s" % (cell, v))
    return EXIT_OK


def cmd_verify(config):
    path = config.get("relations_file")
    if not path:
        raise ParseError("verify needs 'relations_file'")
    with open(path) as fh:
        rs = relations_from_json(json.load(fh))
    failures = verify_relations(rs)
    payload = {"failures": {"%d,%d,%d" % cell:
                            [[idx, str(mono), str(val)] for idx, mono, val in items]
                            for cell, items in failures.items()},
               "all_zero": not failures}
    out = _write(config, "verify.json", payload)
    print("verify: %s (%s)" % (out, "all pairings vanish" if not failures
                               else "%d failing cells" % len(failures)))
    return EXIT_OK


def cmd_genus1(config):
    if int(config["z_order"]) < 2:
        raise ParseError("genus1 needs the R-matrix to z^2: z-order must be "
                         "at least 2, got %s" % config["z_order"])
    exp = _make_expansion(config)
    flat_idx = (config.get("insertion") or [exp.chart.dim - 1])[0]
    _check_insertions([flat_idx], exp.chart.dim)
    constants = _constants(config, exp.chart.dim)
    frame = idempotent_frame(exp)
    R = solve_flatness(frame, int(config["z_order"]), constants)
    spec = CohFTSpec(frame, R)
    X = [Fraction(1) if k == flat_idx else Fraction(0) for k in range(frame.dim)]
    value = genus_one_correlator(spec, X)
    cls = reconstruct_class(spec, 1, 1, [to_normalized_insertion(frame, X)], 1)
    integral = integrate_strata(cls.codim_part(1))
    payload = {"dG": str(value), "reconstruction_integral": str(integral),
               "agree": (value - integral).is_zero()}
    path = _write(config, "genus1.json", payload)
    print("genus-1 correlator: %s" % value)
    return EXIT_OK


# every flag with its argparse options; its config key is its dest
FLAGS = {
    "config": dict(help="JSON config file"),
    "chart": dict(help="chart file or builtin name"),
    "chart2": dict(help="second chart"),
    "param": dict(help="local parameter symbol"),
    "cover_degree": dict(type=int),
    "trunc": dict(type=int, help="series truncation order"),
    "z_order": dict(type=int),
    "codim": dict(type=int),
    "gn": dict(help="grid like '1,1;0,4'"),
    "insertion": dict(help="flat indices like '0,1'"),
    "constants": dict(help="JSON list of [i, k, value]"),
    "family": dict(help="polynomial f(t) for the 2d family"),
    "relations_file": dict(),
    "out": dict(help="output directory"),
}

# the flags of each subcommand, besides --config and --out: the config keys
# its command reads (those of _make_expansion, then of the flatness solve)
_EXPANSION = ("chart", "param", "cover_degree", "trunc")
_SOLVE = _EXPANSION + ("z_order", "constants")
COMMANDS = {
    "frame": (cmd_frame, _EXPANSION),
    "rmatrix": (cmd_rmatrix, _SOLVE + ("family",)),
    "reconstruct": (cmd_reconstruct, _SOLVE + ("codim", "gn", "insertion")),
    "relations": (cmd_relations, _SOLVE + ("codim", "gn")),
    "compare": (cmd_compare, _SOLVE + ("codim", "gn", "chart2")),
    "verify": (cmd_verify, ("relations_file",)),
    "genus1": (cmd_genus1, _SOLVE + ("insertion",)),
}


def build_parser():
    """One subparser per command, holding only the flags that command reads;
    argparse rejects any other flag with exit code 2."""
    parser = argparse.ArgumentParser(
        prog="tautrel",
        description="Frobenius charts, R-matrices and tautological relations")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, reads) in COMMANDS.items():
        p = sub.add_parser(name)
        for dest, options in FLAGS.items():
            if dest in reads or dest in ("config", "out"):
                p.add_argument("--" + dest.replace("_", "-"), dest=dest,
                               **options)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = _load_config(args)
    except (OSError, json.JSONDecodeError, ParseError, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    try:
        return COMMANDS[args.command][0](config)
    except (ParseError, OSError, json.JSONDecodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (ChartError, NonSemisimpleError, NonUnitError, ArithmeticError,
            ValueError) as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
