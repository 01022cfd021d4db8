"""Command-line front end: reproducible, file-driven pipeline runs.

Subcommands: frame, rmatrix, family, reconstruct, relations, compare, verify,
genus1.
A JSON config file provides defaults and is echoed into every artifact;
command-line flags override config fields.  A subcommand takes the flags,
sets the defaults and checks the values of only the settings it reads
(``COMMANDS``).  Exit codes: 0 success, 1 computation error, 2 input error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from typing import NamedTuple

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


def _load_config(args, reads):
    """The settings of a command that reads ``reads``: the config file's
    fields, each flag of ``reads`` or ``--out`` that is given overriding its
    field, and the defaults of the settings in ``reads`` that neither gives.
    Every setting the command reads is then checked; the other fields of the
    config file are echoed as given."""
    config = {}
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ParseError("config file %s is not a JSON object" % args.config)
    reads = reads + ("out",)
    for key in reads:
        setting, value = SETTINGS[key], getattr(args, key)
        if value is not None:
            try:
                config[key] = setting.read(value) if setting.read else value
            except ValueError:
                raise ParseError("cannot read --%s %r: expected %s" % (
                    key, value, setting.options["help"])) from None
        if setting.default is not None:
            config.setdefault(key, setting.default)
    _validate(config, reads)
    return config


def _validate(config, reads):
    """Check every setting in ``reads`` that ``config`` holds, whether a flag
    or the config file gave it."""
    for key in reads:
        value, setting = config.get(key), SETTINGS[key]
        if key in config and setting.valid and not setting.valid(value):
            raise ParseError("%s must be %s, got %s" % (
                key.replace("_", "-"), setting.kind, json.dumps(value)))
    for g, n in config.get("gn", []) if "gn" in reads else []:
        if g < 0 or n < 0 or 2 * g - 2 + n <= 0:
            raise ParseError("(g, n) = (%d, %d) is not a stable type" % (g, n))


def _is_count(value):
    return type(value) is int and value >= 1


def _is_indices(value):
    return isinstance(value, list) and all(type(x) is int for x in value)


def _is_grid(value):
    return isinstance(value, list) and all(
        _is_indices(pair) and len(pair) == 2 for pair in value)


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


def _constants(items, dim, z_order):
    """{(i, k): v} of the ``constants`` entries [i, k, v]: the flatness solve
    uses only an index 0 <= i < dim, an odd z-order 1 <= k <= z-order and a
    rational v (an integer or a string such as "1/3"), one per (i, k)."""
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


def _specs(config, *expansions):
    """The CohFTSpec of each expansion, in turn: its idempotent frame and the
    flatness solve to z^z_order with the config's constants.  The constants
    of every expansion are checked before the first frame is computed."""
    z_order = config["z_order"]
    constants = [_constants(config.get("constants") or [], exp.chart.dim,
                            z_order) for exp in expansions]
    for exp, consts in zip(expansions, constants):
        frame = idempotent_frame(exp)
        yield CohFTSpec(frame, solve_flatness(frame, z_order, consts))


def _write(config, name, payload):
    os.makedirs(config["out"], exist_ok=True)
    path = os.path.join(config["out"], name)
    with open(path, "w") as fh:
        json.dump(dict(payload, schema_version=SCHEMA_VERSION, config=config),
                  fh, indent=1, sort_keys=True)
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
    spec, = _specs(config, _make_expansion(config))
    path = _write(config, "rmatrix.json", rmatrix_to_json(spec.R))
    print("R-matrix to z^%d: %s" % (spec.R.K, path))
    return EXIT_OK


def cmd_family(config):
    if not config.get("family"):
        raise ParseError("family needs 'family'")
    f = parse_poly(config["family"])
    if f.variables() - {"t"} or any(e < 0 or e.denominator != 1
                                    for mono in f.terms for _, e in mono):
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
    print(diag.certificate if diag.gamma_global is None
          else "gamma = %s" % diag.gamma_global)
    return EXIT_OK


def _check_z_order(config, top):
    """The R-matrix to z^z_order reaches codim z_order, so the config's
    z-order must be at least ``top``, the largest codim reconstructed."""
    if config["z_order"] < top:
        raise ParseError("z-order must be at least %d, the largest codim "
                         "reconstructed (min(codim, 3g - 3 + n) over --gn), "
                         "got %s" % (top, config["z_order"]))


def cmd_reconstruct(config):
    gn = config.get("gn") or [[1, 1]]
    if len(gn) != 1:
        raise ParseError("reconstruct takes one --gn pair, got %d" % len(gn))
    g, n = gn[0]
    _check_z_order(config, min(config["codim"], 3 * g - 3 + n))
    exp = _make_expansion(config)
    flat = config.get("insertion") or [0] * n
    if len(flat) != n:
        raise ParseError("need %d insertion indices" % n)
    _check_insertions(flat, exp.chart.dim)
    spec, = _specs(config, exp)
    units = unit_insertions(spec.frame)
    insertions = [units[mu] for mu in flat]
    cls = reconstruct_class(spec, g, n, insertions, config["codim"])
    payload = vector_to_json(cls)
    path = _write(config, "reconstruct.json", payload)
    print("reconstructed (%d,%d) class with %d terms: %s"
          % (g, n, len(cls.terms), path))
    return EXIT_OK


def _relations_for(config, *charts):
    """The closed relations of the config expanded at each chart, on the
    cells (g, n, d) of the config's grid with 1 <= d <= min(codim, 3g - 3 +
    n).  A (g, n) pair with 3g - 3 + n = 0 has no such cell, and a z-order
    below the largest such d cannot reconstruct it; both are input errors,
    found before any chart is expanded."""
    cells = []
    for g, n in config.get("gn") or [[1, 1], [0, 4]]:
        dim = 3 * g - 3 + n
        if dim == 0:
            raise ParseError("(g, n) = (%d, %d) has no cell of codim at "
                             "least 1" % (g, n))
        cells += [(g, n, d) for d in range(1, min(config["codim"], dim) + 1)]
    _check_z_order(config, max(d for _, _, d in cells))
    expansions = [_make_expansion(dict(config, chart=c)) for c in charts]
    return [close_relations(extract_relations(spec, cells))
            for spec in _specs(config, *expansions)]


def cmd_relations(config):
    rs, = _relations_for(config, config.get("chart"))
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
    rs1, rs2 = _relations_for(config, config.get("chart"), other)
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
    if config["z_order"] < 2:
        raise ParseError("genus1 needs the R-matrix to z^2: z-order must be "
                         "at least 2, got %s" % config["z_order"])
    exp = _make_expansion(config)
    flat = config.get("insertion") or [exp.chart.dim - 1]
    if len(flat) != 1:
        raise ParseError("genus1 takes one --insertion index, got %d"
                         % len(flat))
    _check_insertions(flat, exp.chart.dim)
    spec, = _specs(config, exp)
    frame = spec.frame
    X = [Fraction(1) if k == flat[0] else Fraction(0) for k in range(frame.dim)]
    value = genus_one_correlator(spec, X)
    cls = reconstruct_class(spec, 1, 1, [to_normalized_insertion(frame, X)], 1)
    integral = integrate_strata(cls.codim_part(1))
    payload = {"dG": str(value), "reconstruction_integral": str(integral),
               "agree": (value - integral).is_zero()}
    path = _write(config, "genus1.json", payload)
    print("genus-1 correlator: %s" % value)
    return EXIT_OK


class Setting(NamedTuple):
    """A setting: what its value must be and the test of it (None: tested
    where it is used), its default, the reader of its flag's text and its
    flag's argparse options."""
    kind: str = "a string"
    valid: object = lambda value: isinstance(value, str)
    default: object = None
    read: object = None
    options: dict = {}


_COUNT = ("at least 1 (an integer)", _is_count)

# every setting, by config key; its flag is --key, underscores as dashes
SETTINGS = {
    "chart": Setting(options=dict(help="chart file or builtin name")),
    "chart2": Setting(options=dict(help="second chart")),
    "param": Setting(options=dict(help="local parameter symbol")),
    "cover_degree": Setting(*_COUNT, options=dict(type=int)),
    "trunc": Setting("positive (an integer)", _is_count, default=8,
                     options=dict(type=int, help="series truncation order")),
    "z_order": Setting(*_COUNT, default=3, options=dict(type=int)),
    "codim": Setting(*_COUNT, default=2, options=dict(type=int)),
    "gn": Setting("a list of pairs [g, n]", _is_grid,
                  read=lambda text: [[int(x) for x in pair.split(",")]
                                     for pair in text.split(";")],
                  options=dict(help="a grid like '1,1;0,4'")),
    "insertion": Setting("a list of indices", _is_indices,
                         read=lambda text: [int(x) for x in text.split(",")],
                         options=dict(help="a list of flat indices like '0,1'")),
    # _constants checks it against the chart
    "constants": Setting(valid=None, read=json.loads,
                         options=dict(help="a JSON list of [i, k, value]")),
    "family": Setting(options=dict(help="polynomial f(t) for the 2d family")),
    "relations_file": Setting(),
    "out": Setting(default=".", options=dict(help="output directory")),
}

# each subcommand's command and the settings it reads, besides --out: the
# only flags it takes besides --config and --out, the only settings it
# defaults and checks.  _EXPANSION are those of _make_expansion, _SOLVE
# those of _specs.
_EXPANSION = ("chart", "param", "cover_degree", "trunc")
_SOLVE = _EXPANSION + ("z_order", "constants")
COMMANDS = {
    "frame": (cmd_frame, _EXPANSION),
    "rmatrix": (cmd_rmatrix, _SOLVE),
    "family": (cmd_family, ("family",)),
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
        p.add_argument("--config", help="JSON config file")
        for key, setting in SETTINGS.items():
            if key in reads or key == "out":
                p.add_argument("--" + key.replace("_", "-"), dest=key,
                               **setting.options)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    command, reads = COMMANDS[args.command]
    try:
        return command(_load_config(args, reads))
    except (ParseError, OSError, json.JSONDecodeError, UnicodeError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except (ChartError, NonSemisimpleError, NonUnitError, ArithmeticError,
            ValueError) as exc:
        print("computation error: %s" % exc, file=sys.stderr)
        return EXIT_COMPUTE
