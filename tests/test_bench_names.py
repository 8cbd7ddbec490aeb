"""The names the benchmark rebinds all exist in the package.

``bench/layers.py`` lists, per span, the (module, name) bindings and the
``cli.RUNNERS`` keys it rebinds; a name missing from ``ginlab`` crashes
every traced benchmark run.  The file is run from its source, so nothing is
written under ``bench/``.
"""

import importlib
import runpy
from pathlib import Path
from types import SimpleNamespace

LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_name_the_benchmark_rebinds_exists():
    layers = runpy.run_path(str(LAYERS_PY))
    g = SimpleNamespace(**{name: importlib.import_module("ginlab." + name) for name in layers["LAYERS"]})
    table = layers["span_table"](g)
    missing = [
        (span, getattr(container, "__name__", "cli.RUNNERS"), key)
        for span, bindings in table
        for container, key in bindings
        if not (key in container if isinstance(container, dict) else hasattr(container, key))
    ]
    assert missing == []
