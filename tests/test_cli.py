import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from tautrel.charts import (a2_chart, a2_expansion, a2_tilted_expansion,
                            a2x_a1_expansion, a3_chart, a3_expansion)
from tautrel.cli import BUILTIN_CHARTS, COMMANDS, _make_expansion, main
from tautrel.frobenius import idempotent_frame
from tautrel.serialize import chart_to_json, dump_chart


SRC = Path(__file__).resolve().parent.parent / "src"


def run(args):
    return main(args)


def test_family_gamma_golden(tmp_path, capsys):
    code = run(["family", "--family", "t*(t+1)", "--out", str(tmp_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "gamma = 1/12 + 1/6*t" in out
    data = json.loads((tmp_path / "rmatrix_family.json").read_text())
    assert data["gamma"] == "1/12 + 1/6*t"


def test_frame_report_contains_canonical_coordinates(tmp_path):
    code = run(["frame", "--chart", "a2", "--param", "t1", "--trunc", "6",
                "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "frame.json").read_text())
    assert "t0 - 2/3*t1^(3/2)" in data["canonical_coordinates"][0]
    assert data["m"] == "1/2"


def test_frame_report_a3(tmp_path):
    config = {
        "chart": "a3",
        "param": "phi",
        "cover_degree": 2,
        "trunc": 6,
        "expansion": {"subs": {
            "s0": "t0 - (1/2)*((-3/8)*zeta3^2 - (1/8)*phi^2)^2",
            "s1": "(1/4)*zeta3^3 - (1/4)*zeta3*phi^2",
            "s2": "(-3/8)*zeta3^2 - (1/8)*phi^2",
        }},
        "out": str(tmp_path),
    }
    cfg_path = tmp_path / "config.json"
    with open(cfg_path, "w") as fh:
        json.dump(config, fh)
    assert run(["frame", "--config", str(cfg_path)]) == 0
    with open(tmp_path / "frame.json") as fh:
        data = json.load(fh)
    assert data["m"] == "1/2"
    assert "1/4*zeta3*phi^3" in data["u1_minus_u2"]
    # u1 - u2 = 1/4 zeta3 phi^3 has order 3/2 along t_D
    assert data["order_u1_minus_u2"] == "3/2"


# the library helper of each builtin chart
LIBRARY_EXPANSIONS = {"a2": a2_expansion, "a2_tilted": a2_tilted_expansion,
                      "a3": a3_expansion, "a2xa1": a2x_a1_expansion}


@pytest.mark.parametrize("name", sorted(BUILTIN_CHARTS))
def test_builtin_chart_uses_its_expansion_point(tmp_path, capsys, name):
    # without --param every builtin is expanded at its own point, and the
    # command line expands it exactly as the library helper does
    assert run(["frame", "--chart", name, "--out", str(tmp_path)]) == 0
    assert "(m = 1/2)" in capsys.readouterr().out
    data = json.loads((tmp_path / "frame.json").read_text())
    assert data["m"] == "1/2"
    exp = _make_expansion({"chart": name, "trunc": 8})
    lib = LIBRARY_EXPANSIONS[name](trunc=8)
    assert (exp.param, exp.cover_degree, exp.subs) == \
        (lib.param, lib.cover_degree, lib.subs)
    frame = idempotent_frame(lib)
    assert data["idempotents"] == [[str(c) for c in eps] for eps in frame.eps]


@pytest.mark.parametrize("args", [
    ["frame"], ["relations", "--gn", "1,1", "--codim", "1"], ["genus1"]],
    ids=["frame", "relations", "genus1"])
def test_a2xa1_expands_along_t1_without_param(tmp_path, args):
    # a2xa1 carries the point of a2: no --param is the same run as --param t1
    docs = []
    for param in ([], ["--param", "t1"]):
        out = tmp_path / ("param" if param else "point")
        assert run(args + ["--chart", "a2xa1", "--out", str(out)] + param) == 0
        doc = json.loads(next(out.iterdir()).read_text())
        del doc["config"]
        docs.append(doc)
    assert docs[0] == docs[1]
    if args[0] == "relations":
        assert [cell["rank"] for cell in docs[0]["cells"]] == [1]


def test_malformed_chart_exit_code_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["frame", "--chart", str(bad), "--out", str(tmp_path)]) == 2
    bad2 = tmp_path / "bad2.json"
    bad2.write_text(json.dumps({"dimension": 2, "metric": [["0", "1"], ["1", "0"]],
                                "potential": "t0 +", "unit_index": 0}))
    assert run(["frame", "--chart", str(bad2), "--out", str(tmp_path)]) == 2


def test_computation_error_exit_code_1(tmp_path):
    nil = tmp_path / "nil.json"
    nil.write_text(json.dumps({
        "dimension": 2, "coords": ["t0", "t"],
        "metric": [["0", "1"], ["1", "0"]],
        "potential": "1/2*t0^2*t", "unit_index": 0}))
    assert run(["frame", "--chart", str(nil), "--out", str(tmp_path)]) == 1


def test_truncation_error_names_cell_and_trunc(tmp_path, capsys):
    # at trunc 2 the (0, 4, 1) coefficients are known only below t^(-1/2)
    assert run(["relations", "--chart", "a2", "--gn", "0,4", "--codim", "1",
                "--trunc", "2", "--out", str(tmp_path)]) == 1
    err = capsys.readouterr().err
    assert "cell (0, 4, 1) with trunc 2:" in err
    assert "cannot certify polar coefficients" in err


def test_relations_and_verify_roundtrip(tmp_path):
    code = run(["relations", "--chart", "a2", "--param", "t1", "--trunc", "10",
                "--gn", "1,1", "--codim", "1", "--out", str(tmp_path)])
    assert code == 0
    rel_path = str(tmp_path / "relations.json")
    code = run(["verify", "--relations-file", rel_path, "--out", str(tmp_path)])
    assert code == 0
    report = json.loads((tmp_path / "verify.json").read_text())
    assert report["all_zero"] is True


def test_compare_charts(tmp_path):
    code = run(["compare", "--chart", "a2", "--chart2", "a2xa1", "--param", "t1",
                "--trunc", "10", "--gn", "1,1", "--codim", "1",
                "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "compare.json").read_text())
    assert data["verdicts"] == {"1,1,1": "equal"}


def test_compare_readme_example_shares_param(tmp_path):
    # without --param, a2xa1 is expanded along t1 as a2 is, not along w2
    code = run(["compare", "--chart", "a2", "--chart2", "a2xa1", "--gn", "1,1",
                "--codim", "1", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "compare.json").read_text())
    assert data["verdicts"]
    assert all(v == "equal" for v in data["verdicts"].values()), data


def _write_config(path, config):
    path.write_text(json.dumps(config))
    return str(path)


def test_compare_chart2_from_config(tmp_path):
    base = {"chart": "a2", "param": "t1", "trunc": 10, "gn": [[1, 1]],
            "codim": 1, "out": str(tmp_path)}
    cfg = _write_config(tmp_path / "cfg.json", dict(base, chart2="a2xa1"))
    assert run(["compare", "--config", cfg]) == 0
    data = json.loads((tmp_path / "compare.json").read_text())
    assert data["verdicts"] == {"1,1,1": "equal"}
    assert data["config"]["chart2"] == "a2xa1"
    # a flag overrides the config value
    missing = str(tmp_path / "missing.json")
    cfg = _write_config(tmp_path / "cfg2.json", dict(base, chart2=missing))
    assert run(["compare", "--config", cfg, "--chart2", "a2xa1"]) == 0
    data = json.loads((tmp_path / "compare.json").read_text())
    assert data["config"]["chart2"] == "a2xa1"


def test_verify_relations_file_from_config(tmp_path):
    assert run(["relations", "--chart", "a2", "--param", "t1", "--trunc", "10",
                "--gn", "1,1", "--codim", "1", "--out", str(tmp_path)]) == 0
    rel_path = str(tmp_path / "relations.json")
    out = tmp_path / "verify"
    cfg = _write_config(tmp_path / "cfg.json",
                        {"relations_file": rel_path, "out": str(out)})
    assert run(["verify", "--config", cfg]) == 0
    assert json.loads((out / "verify.json").read_text())["all_zero"] is True
    # the config's file is the one read, and a flag overrides it
    missing = str(tmp_path / "missing.json")
    cfg = _write_config(tmp_path / "cfg2.json",
                        {"relations_file": missing, "out": str(out)})
    assert run(["verify", "--config", cfg]) == 2
    assert run(["verify", "--config", cfg, "--relations-file", rel_path]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["config"]["relations_file"] == rel_path


def _relations_doc(exponent=1, coefficient="1", g=1, schema_version=1,
                   cell=(1, 1, 1), edges=(), rank=1):
    """One cell holding coefficient * psi_1^exponent on (g, 1)."""
    graph = {"vertices": [{"genus": 1, "legs": [1], "kappa": []}],
             "edges": list(edges), "leg_psi": {"1": exponent}}
    relation = {"g": g, "n": 1,
                "terms": [{"graph": graph, "coefficient": coefficient}]}
    return {"schema_version": schema_version,
            "cells": [{"g": cell[0], "n": cell[1], "codim": cell[2],
                       "rank": rank, "relations": [relation]}]}


def _a2_chart_doc(**fields):
    """The builtin a2 chart with ``fields`` replaced, a field None dropped."""
    doc = dict(chart_to_json(a2_chart()), **fields)
    return {key: value for key, value in doc.items() if value is not None}


def _a3_chart_doc(cover_degree):
    """The builtin a3 chart, its expansion point with ``cover_degree``."""
    doc = chart_to_json(a3_chart())
    doc["expansion_point"]["cover_degree"] = cover_degree
    return doc


def test_verify_hand_written_document(tmp_path):
    # the document the malformed cases below start from is read, and its
    # psi_1 is no relation
    path = tmp_path / "relations.json"
    path.write_text(json.dumps(_relations_doc()))
    out = tmp_path / "out"
    assert run(["verify", "--relations-file", str(path),
                "--out", str(out)]) == 0
    report = json.loads((out / "verify.json").read_text())
    assert report["all_zero"] is False
    assert [[row, value] for row, _, value in report["failures"]["1,1,1"]] \
        == [[0, "1/24"]]


@pytest.mark.parametrize("args, message", [
    (["relations", "--chart", "a2", "--gn", "0,2"], "not a stable type"),
    (["relations", "--chart", "a2", "--gn", "1,1;0,3"],
     "(g, n) = (0, 3) has no cell of codim at least 1"),
    (["compare", "--chart", "a2", "--chart2", "a2xa1", "--param", "t1",
      "--gn", "0,3"], "(g, n) = (0, 3) has no cell of codim at least 1"),
    (["relations", "--chart", "a2", "--codim", "0"], "codim must be at least 1"),
    (["relations", "--chart", "a2", "--codim", "-1"],
     "codim must be at least 1"),
    (["relations", "--chart", "a2", "--z-order", "0"],
     "z-order must be at least 1"),
    (["rmatrix", "--chart", "a2", "--z-order", "-2"],
     "z-order must be at least 1"),
    (["frame", "--chart", "a2", "--cover-degree", "0"],
     "cover-degree must be at least 1"),
    (["frame", "--chart", "a2", "--cover-degree", "-1"],
     "cover-degree must be at least 1"),
    (["frame", "--chart", _a3_chart_doc(0)],
     "cover-degree must be at least 1, got 0"),
    (["frame", "--chart", _a3_chart_doc("x")],
     'expansion_point cover_degree "x" is not an integer'),
    (["frame", "--chart", _a2_chart_doc(metric=None)],
     "chart document lacks key 'metric'"),
    (["frame", "--chart", _a2_chart_doc(unit=None, unit_index=5)],
     "unit_index 5 is out of range for a 2-dimensional chart"),
    (["frame", "--chart", _a2_chart_doc(unit=["1"])],
     "unit has 1 entries, not 2"),
    (["frame", "--chart", _a2_chart_doc(metric=[["0", "1"]])],
     "metric is not a 2 x 2 matrix"),
    (["frame", "--chart", _a2_chart_doc(metric=["01", "10"])],
     "metric is not a 2 x 2 matrix"),
    (["frame", "--chart", _a2_chart_doc(metric=[["0", "0"], ["0", "0"]])],
     "chart document is not a Frobenius chart: metric is singular"),
    (["frame", "--chart", _a2_chart_doc(unit=["0", "1"])],
     "chart document is not a Frobenius chart: unit axiom fails at (0,0)"),
    (["frame", "--chart", _a2_chart_doc(expansion_point={"subs": {"t9": "t1"}})],
     "expansion_point substitutes t9, which are not coordinates (t0, t1)"),
    (["frame", "--chart", _a2_chart_doc(expansion_point=["t1"])],
     'expansion_point ["t1"] is not an object'),
    (["frame", "--chart", _a2_chart_doc(expansion_point={"parm": "t1"})],
     "expansion_point has keys parm besides param, cover_degree and subs"),
    (["frame", "--config", {"chart": "a2", "expansion": ["t1"]}],
     'expansion_point ["t1"] is not an object'),
    (["genus1", "--chart", "a2", "--z-order", "1"],
     "genus1 needs the R-matrix to z^2: z-order must be at least 2, got 1"),
    (["reconstruct", "--chart", "a2", "--insertion", "7"], "out of range"),
    (["genus1", "--chart", "a2", "--insertion", "9"], "out of range"),
    (["frame", "--chart", "a2", "--param", "zz"], "not a variable of chart"),
    (["frame", "--chart", "a2", "--param", "t1", "--trunc", "0"],
     "trunc must be positive"),
    (["verify", "--relations-file", {"schema_version": 1}],
     "lacks key 'cells'"),
    (["verify", "--relations-file", _relations_doc(schema_version=2)],
     "unsupported relations schema_version 2"),
    (["verify", "--relations-file", _relations_doc(g=0)],
     "relation on (g, n) = (0, 1) in cell (1, 1, 1)"),
    (["verify", "--relations-file", _relations_doc(exponent=2)],
     "graph outside the cell's basis"),
    (["verify", "--relations-file", _relations_doc(coefficient="x")],
     "malformed relations document"),
    (["verify", "--relations-file", _relations_doc(coefficient="1/0")],
     "malformed relations document"),
    (["verify", "--relations-file", _relations_doc(cell=(0, 2, 1))],
     "(g, n) = (0, 2) is unstable"),
    (["verify", "--relations-file", _relations_doc(edges=[[0, 5, 0, 0]])],
     "malformed relations document"),
    (["verify", "--relations-file", _relations_doc(rank=5)],
     "claims rank 5 but its relations span 1"),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "2",
      "--constants", "[[0,1]]"], "constants entry [0, 1] is not [i, k, value]"),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "2",
      "--constants", '{"a":1}'], 'constants entry {"a": 1} is not'),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "2",
      "--constants", '[[0,1,"x"]]'], "and a rational value"),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "2",
      "--constants", "[[0,2,5]]"], "odd 1 <= k <= 2"),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "2",
      "--constants", "[[7,1,5]]"], "0 <= i < 2"),
    (["compare", "--chart", "a2xa1", "--chart2", "a2", "--param", "t1",
      "--constants", "[[2,1,5]]"], "constants entry [2, 1, 5] is not"),
    (["rmatrix", "--chart", "a2", "--param", "t1", "--z-order", "1",
      "--constants", '[[0,1,"1"],[0,1,"2"]]'],
     'constants entry [0, 1, "2"] repeats (i, k) = (0, 1)'),
    (["reconstruct", "--chart", "a2", "--param", "t1", "--gn", "1,1;0,4",
      "--codim", "1", "--insertion", "1"],
     "reconstruct takes one --gn pair, got 2"),
    (["frame", "--config", {"chart": "a2", "trunc": [1]}],
     "trunc must be positive (an integer), got [1]"),
    (["relations", "--config", {"chart": "a2", "codim": [2]}],
     "codim must be at least 1 (an integer), got [2]"),
    (["genus1", "--config", {"chart": "a2", "insertion": 5}],
     "insertion must be a list of indices, got 5"),
    (["reconstruct", "--config",
      {"chart": "a2", "gn": [[1, 1]], "insertion": "1"}],
     'insertion must be a list of indices, got "1"'),
    (["frame", "--config", ["a2"]], "is not a JSON object"),
    (["genus1", "--chart", "a2", "--insertion", "0,1"],
     "genus1 takes one --insertion index, got 2"),
    (["relations", "--chart", "a2", "--gn", "1,a"],
     "cannot read --gn '1,a': expected a grid like '1,1;0,4'"),
    (["family", "--family", "t*s"], "must be a polynomial in t"),
    (["family", "--family", "0"], "f = 0 has no semisimple point"),
    (["family", "--family", "0*t"], "f = 0 has no semisimple point"),
    (["family", "--family", "t^(1/0)"], "cannot read 't^(1/0)'"),
    (["family", "--family", "1/0"], "cannot read '1/0'"),
    (["family", "--family", "t/(t+1)"], "cannot read 't/(t+1)'"),
    (["family", "--family", "t^(1/2)"], "must be a polynomial in t"),
    (["family", "--family", "t^-1"], "must be a polynomial in t"),
    (["family", "--family", "t^(-1/2)"], "must be a polynomial in t"),
    (["family"], "family needs 'family'"),
    (["frame", "--chart", _a2_chart_doc(potential="1/0")],
     "malformed chart document: cannot read '1/0'"),
    (["frame", "--chart", _a2_chart_doc(potential="t1/(t1+1)")],
     "malformed chart document: cannot read 't1/(t1+1)'"),
    (["frame", "--chart", _a2_chart_doc(
        expansion_point={"param": "t1", "subs": {"t0": "1/0"}})],
     "cannot read '1/0'"),
    (["frame", "--chart", _a2_chart_doc(
        expansion_point={"param": "t1", "subs": {"t0": "t1/(t1+1)"}})],
     "cannot read 't1/(t1+1)'"),
    (["frame", "--config", {"chart": "a2", "param": "t1",
                            "expansion": {"subs": {"t0": "t1^(1/0)"}}}],
     "cannot read 't1^(1/0)'"),
    (["frame", "--config", {"chart": "a2", "param": "t1",
                            "expansion": {"subs": {"t0": "t1/(t1+1)"}}}],
     "cannot read 't1/(t1+1)'"),
    (["frame"], "no chart given"),
    (["compare", "--chart", "a2"], "compare needs 'chart2'"),
    (["verify"], "verify needs 'relations_file'"),
    (["reconstruct", "--chart", "a2", "--gn", "1,2", "--insertion", "0"],
     "need 2 insertion indices"),
    # the z-order must reach min(codim, 3g - 3 + n) over --gn; a chart file
    # without a metric shows that it is checked before a chart is expanded
    (["reconstruct", "--chart", "a2", "--gn", "0,5", "--codim", "2",
      "--z-order", "1", "--insertion", "0,1,1,1,1"],
     "z-order must be at least 2, the largest codim reconstructed"),
    (["relations", "--chart", _a2_chart_doc(metric=None),
      "--gn", "1,1;0,5", "--z-order", "1"],
     "z-order must be at least 2, the largest codim reconstructed"),
    (["compare", "--chart", "a2", "--chart2", _a2_chart_doc(metric=None),
      "--param", "t1", "--gn", "1,1;0,6", "--codim", "3", "--z-order", "2"],
     "z-order must be at least 3, the largest codim reconstructed"),
], ids=["unstable-gn", "relations-gn-no-cell", "compare-gn-no-cell",
        "codim-0", "codim-negative", "z-order-0",
        "z-order-negative", "cover-degree-0", "cover-degree-negative",
        "chart-file-cover-degree-0", "chart-file-cover-degree-text",
        "chart-file-no-metric", "chart-file-unit-index", "chart-file-unit-length",
        "chart-file-metric-shape", "chart-file-metric-rows-text",
        "chart-file-metric-singular", "chart-file-unit-axiom",
        "chart-file-subs-not-coordinate",
        "chart-file-point-list", "chart-file-point-unknown-key",
        "config-expansion-list", "genus1-z-order-1",
        "reconstruct-insertion",
        "genus1-insertion", "unknown-param", "trunc-0", "relations-missing-key",
        "relations-schema-version", "relations-wrong-gn",
        "relations-graph-outside-basis", "relations-coefficient-not-rational",
        "relations-coefficient-zero-denominator", "relations-unstable-cell",
        "relations-edge-out-of-range", "relations-rank-mismatch",
        "constants-pair", "constants-object", "constants-value-not-rational",
        "constants-even-order", "constants-index-out-of-range",
        "constants-index-out-of-range-second-chart", "constants-repeated-pair",
        "reconstruct-two-gn-pairs", "config-trunc-list", "config-codim-list",
        "config-insertion-number", "config-insertion-text", "config-list",
        "genus1-two-insertions", "gn-text", "family-not-in-t", "family-zero",
        "family-zero-times-t", "family-zero-exponent-denominator",
        "family-zero-denominator", "family-non-monomial-denominator",
        "family-fractional-power", "family-negative-power",
        "family-negative-fractional-power", "family-missing",
        "chart-file-potential-zero-denominator",
        "chart-file-potential-non-monomial-denominator",
        "chart-file-subs-zero-denominator",
        "chart-file-subs-non-monomial-denominator",
        "config-expansion-zero-exponent-denominator",
        "config-expansion-non-monomial-denominator", "frame-no-chart",
        "compare-missing-chart2", "verify-missing-file",
        "reconstruct-short-insertion", "reconstruct-z-order-below-codim",
        "relations-z-order-below-codim", "compare-z-order-below-codim"])
def test_bad_input_exit_code_2(tmp_path_factory, tmp_path, capsys, args,
                               message):
    # a document in ``args`` is written to a file outside the output directory
    args = list(args)
    for i, arg in enumerate(args):
        if isinstance(arg, (dict, list)):
            path = tmp_path_factory.mktemp("input") / "input.json"
            path.write_text(json.dumps(arg))
            args[i] = str(path)
    assert run(args + ["--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error:") and message in err
    assert not list(tmp_path.iterdir())


def test_z_order_reaches_the_largest_reconstructed_codim(tmp_path):
    # (1, 1) has dimension 1, so codim 3 reconstructs codim 1 only
    assert run(["reconstruct", "--chart", "a2", "--param", "t1", "--gn", "1,1",
                "--codim", "3", "--z-order", "1", "--out", str(tmp_path)]) == 0
    assert run(["relations", "--chart", "a2", "--param", "t1", "--gn",
                "1,1;0,4", "--codim", "3", "--z-order", "1",
                "--out", str(tmp_path)]) == 0


def test_duplicate_gn_entries_give_one_cell(tmp_path, capsys):
    assert run(["relations", "--chart", "a2", "--param", "t1", "--gn",
                "1,1;1,1", "--codim", "1", "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "relations.json").read_text())
    assert [(c["g"], c["n"], c["codim"]) for c in doc["cells"]] == [(1, 1, 1)]
    assert capsys.readouterr().out.count("(g,n,codim)") == 1


@pytest.mark.parametrize("args, flag", [
    # extraction is serial: --jobs is gone from every subcommand
    (["relations", "--chart", "a2", "--jobs", "2"], "--jobs"),
    (["frame", "--chart", "a2", "--z-order", "3"], "--z-order"),
    (["rmatrix", "--chart", "a2", "--codim", "1"], "--codim"),
    (["reconstruct", "--chart", "a2", "--chart2", "a3"], "--chart2"),
    (["relations", "--chart", "a2", "--insertion", "1"], "--insertion"),
    (["compare", "--chart", "a2", "--chart2", "a2xa1", "--family", "t"],
     "--family"),
    (["verify", "--chart", "a2"], "--chart"),
    (["genus1", "--chart", "a2", "--gn", "1,1"], "--gn"),
    # the 2d family is its own subcommand, with no chart to read
    (["rmatrix", "--family", "t"], "--family"),
    (["family", "--chart", "a2", "--family", "t"], "--chart"),
], ids=["relations-jobs", "frame-z-order", "rmatrix-codim",
        "reconstruct-chart2", "relations-insertion", "compare-family",
        "verify-chart", "genus1-gn", "rmatrix-family", "family-chart"])
def test_unread_flag_exit_code_2(tmp_path, capsys, args, flag):
    # a subcommand takes only the flags it reads; argparse rejects the rest
    with pytest.raises(SystemExit) as exc:
        run(args + ["--out", str(tmp_path)])
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_genus1_command(tmp_path):
    code = run(["genus1", "--chart", "a2", "--param", "t1", "--trunc", "9",
                "--insertion", "1", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "genus1.json").read_text())
    assert data["agree"] is True


def test_reconstruct_command_deterministic(tmp_path):
    args = ["reconstruct", "--chart", "a2", "--param", "t1", "--trunc", "9",
            "--gn", "1,1", "--codim", "1", "--insertion", "1",
            "--out", str(tmp_path)]
    assert run(args) == 0
    first = (tmp_path / "reconstruct.json").read_bytes()
    assert run(args) == 0
    second = (tmp_path / "reconstruct.json").read_bytes()
    assert first == second


def test_reconstruct_accepts_codim_zero_type(tmp_path, capsys):
    # (0, 3) has no relation cell, but its class is the codim-0 correlator
    assert run(["reconstruct", "--chart", "a2", "--gn", "0,3", "--insertion",
                "0,0,1", "--out", str(tmp_path)]) == 0
    assert "reconstructed (0,3) class with 1 terms" in capsys.readouterr().out


def test_custom_chart_file(tmp_path):
    path = tmp_path / "a2.json"
    dump_chart(a2_chart(), str(path))
    code = run(["frame", "--chart", str(path), "--param", "t1",
                "--out", str(tmp_path)])
    assert code == 0


def test_chart_file_expansion_point(tmp_path):
    import json as _json
    from tautrel.charts import a3_chart
    from tautrel.serialize import chart_to_json
    chart = a3_chart()
    chart.expansion_point = {
        "param": "phi",
        "cover_degree": 2,
        "subs": {
            "s0": "t0 - (1/2)*((-3/8)*zeta3^2 - (1/8)*phi^2)^2",
            "s1": "(1/4)*zeta3^3 - (1/4)*zeta3*phi^2",
            "s2": "(-3/8)*zeta3^2 - (1/8)*phi^2",
        },
    }
    path = tmp_path / "a3.json"
    path.write_text(_json.dumps(chart_to_json(chart)))
    code = run(["frame", "--chart", str(path), "--cover-degree", "2",
                "--trunc", "6", "--out", str(tmp_path)])
    assert code == 0
    data = json.loads((tmp_path / "frame.json").read_text())
    assert data["m"] == "1/2"
    # the chart file round-trips bit-exactly, expansion point included
    from tautrel.serialize import chart_from_json
    back = chart_from_json(json.loads(path.read_text()))
    assert chart_to_json(back) == chart_to_json(chart)


def test_relations_command_deterministic(tmp_path):
    args = ["relations", "--chart", "a2", "--param", "t1", "--trunc", "10",
            "--gn", "1,1", "--codim", "1", "--out", str(tmp_path)]
    assert run(args) == 0
    first = (tmp_path / "relations.json").read_bytes()
    assert run(args) == 0
    assert first == (tmp_path / "relations.json").read_bytes()


def _module_run(args):
    """``python -m tautrel`` with ``args``, the package's sources on the
    path as they are for the tests."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, "-m", "tautrel"] + args, env=env,
                          capture_output=True, text=True, timeout=300)


def test_module_entry_point(tmp_path):
    args = ["relations", "--chart", "a2", "--gn", "1,1", "--codim", "1",
            "--out", str(tmp_path)]
    result = _module_run(args)
    assert result.returncode == 0, result.stderr
    path = tmp_path / "relations.json"
    by_module = path.read_bytes()
    path.unlink()
    assert run(args) == 0
    assert path.read_bytes() == by_module
    result = _module_run(["relations", "--no-such-flag"])
    assert result.returncode == 2
    assert "--no-such-flag" in result.stderr


# a flags-only run of each subcommand; verify reads the relations run's file
ECHO_RUNS = {
    "frame": ["--chart", "a2"],
    "rmatrix": ["--chart", "a2"],
    "family": ["--family", "t*(t+1)"],
    "reconstruct": ["--chart", "a2", "--gn", "1,1", "--codim", "1"],
    "relations": ["--chart", "a2", "--gn", "1,1", "--codim", "1"],
    "compare": ["--chart", "a2", "--chart2", "a2xa1", "--gn", "1,1",
                "--codim", "1"],
    "verify": ["--relations-file"],
    "genus1": ["--chart", "a2"],
}


@pytest.mark.parametrize("command", sorted(COMMANDS))
def test_config_echo_holds_read_settings(tmp_path, command):
    # the echoed config holds only settings the subcommand reads, and run
    # as --config it gives the same artifact, apart from the echoed --out
    args = [command] + ECHO_RUNS[command]
    if command == "verify":
        rel = tmp_path / "rel"
        assert run(["relations"] + ECHO_RUNS["relations"]
                   + ["--out", str(rel)]) == 0
        args.append(str(rel / "relations.json"))
    first, second = tmp_path / "flags", tmp_path / "config"
    assert run(args + ["--out", str(first)]) == 0
    artifact, = first.iterdir()
    config = json.loads(artifact.read_text())["config"]
    assert set(config) <= set(COMMANDS[command][1]) | {"out"}
    cfg = _write_config(tmp_path / "echo.json", config)
    assert run([command, "--config", cfg, "--out", str(second)]) == 0
    assert (second / artifact.name).read_text() == artifact.read_text().replace(
        json.dumps(str(first)), json.dumps(str(second)))


def test_readme_command_line_examples(tmp_path, capsys, monkeypatch):
    # the `tautrel` lines of the first fenced block under README "Command
    # line" run in order from a scratch directory, each exiting 0 and
    # printing the text of its trailing comment, if it has one
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Command line\n", 1)[1].split("```\n")[1]
    lines = [line for line in block.splitlines() if line.startswith("tautrel ")]
    monkeypatch.chdir(tmp_path)
    printed = {}
    for line in lines:
        assert run(shlex.split(line, comments=True)[1:]) == 0, line
        printed[line] = capsys.readouterr().out
        if "#" in line:
            assert line.split("#", 1)[1].strip() in printed[line], line
    family, = [line for line in lines if "family --family" in line]
    assert "gamma = 1/12 + 1/6*t" in printed[family]
