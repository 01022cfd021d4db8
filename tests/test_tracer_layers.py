"""The benchmark's traced layers name functions that exist in tautrel, and
a traced run of each gated workload calls every layer predicted for it.

The tracer finds each layer by module and attribute path when a traced run
starts, so a renamed function would otherwise show up only there; a layer
that a change bypasses shows up only when a traced run ends.
"""

import importlib
import importlib.util
import json
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer():
    """The tracer module, compiled from its source without writing a
    bytecode cache beside it."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    exec(compile(TRACER.read_text(), str(TRACER), "exec"), vars(module))
    return module


def test_every_traced_layer_resolves():
    layers = _tracer().LAYERS
    assert layers
    for layer, (modname, path, *_) in layers.items():
        target = importlib.import_module("tautrel." + modname)
        for part in path.split("."):
            assert hasattr(target, part), "%s: tautrel.%s has no %s" % (
                layer, modname, path)
            target = getattr(target, part)
        assert callable(target), layer


@pytest.mark.parametrize("workload", ["a3-extract2", "cli-compare8"])
def test_traced_worker_hits_every_predicted_layer(workload, tmp_path):
    # the worker raises when a layer predicted to carry work on the
    # workload was never called, and checks the workload's output exactly
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    res = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py"), "--workload",
         workload, "--seed", "1", "--work", str(tmp_path), "--trace"],
        capture_output=True, text=True, env=env, timeout=300)
    assert res.returncode == 0, res.stderr[-2000:]
    report = json.loads(res.stdout.splitlines()[-1])
    assert report["ok"], report["problems"]
