"""The names that the benchmark's span tracer wraps still resolve.

``bench/spans.py`` lists, per package module, the functions it wraps
(``spans.LAYERS``), and looks each one up when a ``Tracer`` is entered;
a renamed or deleted function breaks every traced benchmark run.  Here a
tracer is entered and exited over the package, and every listed name
must be wrapped while it is open and restored after.
"""

import importlib
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
spans = importlib.import_module("spans")
sys.path.remove(str(BENCH))

MODULES = {layer: importlib.import_module(f"daggeralg.{layer}")
           for layer in spans.LAYERS}
NAMES = [(layer, attr) for layer, attrs in spans.LAYERS.items()
         for attr in attrs]


def _lookup(layer, attr):
    owner = MODULES[layer]
    *path, name = attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner.__dict__[name] if path else getattr(owner, name)


def test_every_traced_name_resolves():
    missing = []
    for layer, attr in NAMES:
        try:
            _lookup(layer, attr)
        except (AttributeError, KeyError):
            missing.append(f"{layer}.{attr}")
    assert not missing


def test_tracer_wraps_and_restores_every_name():
    originals = {key: _lookup(*key) for key in NAMES}
    with spans.Tracer():
        for key, original in originals.items():
            assert _lookup(*key).__wrapped__ is original, key
    for key, original in originals.items():
        assert _lookup(*key) is original, key
