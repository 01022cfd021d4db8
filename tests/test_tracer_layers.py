"""The benchmark's traced layers name functions that exist in tautrel.

The tracer finds each layer by module and attribute path when a traced run
starts, so a renamed function would otherwise show up only there.
"""

import importlib
import importlib.util
import pathlib

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
