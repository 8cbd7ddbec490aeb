"""The import contract, and the bits of the exact real count.

Importing ``ginlab.cli`` loads neither scipy nor numpy.random, and no
module in the package imports scipy, so no ginlab call loads it.  The exact
mean real count is pinned by its bits and checked against 60-digit mpmath.
No module imports a name it neither uses nor has rebound by the benchmark.
"""

import ast
import importlib
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import mpmath
import numpy as np

from ginlab.kernel import expected_real_count, gauss_tail, spin_correlation
from ginlab.linalg import sign_det

SRC = str(Path(__file__).resolve().parents[1] / "src")
LAYERS_PY = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def _python(code: str, cwd) -> str:
    """Run ``code`` in a fresh interpreter that imports ginlab from this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    done = subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_importing_the_cli_loads_neither_scipy_nor_numpy_random(tmp_path):
    out = _python(
        "import sys, ginlab.cli\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' or m == 'numpy.random'))",
        tmp_path,
    )
    assert out.strip() == "[]"


def test_campaigns_and_the_real_count_never_load_scipy(tmp_path):
    out = _python(
        "import sys\n"
        "from ginlab import estimate_real_count, expected_real_count\n"
        "from ginlab.cli import main\n"
        "for argv in (['pfaffian-selftest'], ['kernel-table'], ['mc-spins'], ['mc-density'],\n"
        "             ['lemma1', '--n', '6', '--samples', '5000'], ['matrix-integral', '--k', '2'],\n"
        "             ['stationary-phase'], ['heat-check']):\n"
        "    assert main([*argv, '--out', argv[0] + '.csv']) == 0, argv\n"
        "expected_real_count(1000)\n"
        "estimate_real_count(10, 50, 1)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert out.splitlines()[-1] == "[]"


def test_no_module_imports_scipy():
    # every import statement, at module level or inside a function
    found = []
    for path in sorted(Path(SRC, "ginlab").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found += [(path.stem, a.name) for a in node.names if a.name.split(".")[0] == "scipy"]
            elif isinstance(node, ast.ImportFrom) and node.level == 0 and node.module.split(".")[0] == "scipy":
                found.append((path.stem, node.module))
    assert found == []


def test_the_duality_check_loads_neither_group_integrals_nor_scipy(tmp_path):
    # its exact moment is a sum in kernel: no import cycle through group_integrals
    out = _python(
        "import sys\n"
        "from ginlab.sampler import duality_check\n"
        "duality_check(6, (-0.4, 0.4), 5000, 1)\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m == 'ginlab.group_integrals' or m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert out.strip() == "[]"


def test_no_ginlab_path_loads_scipy_linalg(tmp_path):
    out = _python(
        "import sys\n"
        "import numpy as np\n"
        "from ginlab.cli import main\n"
        "from ginlab.linalg import sign_det\n"
        "from ginlab.sampler import estimate_real_count, sample_ginoe, spin, stream\n"
        "for argv in (['pfaffian-selftest'], ['kernel-table'], ['mc-spins', '--n', '20', '--samples', '2000'],\n"
        "             ['mc-density', '--samples', '2000'], ['lemma1', '--n', '6', '--samples', '5000'],\n"
        "             ['matrix-integral', '--k', '4', '--samples', '2000'], ['stationary-phase'],\n"
        "             ['heat-check']):\n"
        "    assert main([*argv, '--out', argv[0] + '.csv']) == 0, argv\n"
        "assert sign_det(np.array([[0.0, 2.0], [3.0, 1.0]])) == -1\n"
        "sample = sample_ginoe(30, stream(1, 0))\n"
        "for x in (-0.5, 0.0, 0.5):\n"
        "    spin(sample, x, check=True)\n"
        "estimate_real_count(10, 50, 1)\n"
        "print('scipy.linalg' in sys.modules)",
        tmp_path,
    )
    assert out.splitlines()[-1] == "False"


def _imported_names(tree) -> set:
    """The names that the import statements anywhere in ``tree`` bind
    (``from __future__`` imports are compiler switches and bind none)."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names |= {a.asname or a.name.split(".")[0] for a in node.names}
    return names


def test_every_imported_name_is_used_or_rebound_by_the_benchmark():
    # bench/layers.py is run from its source, as in test_bench_names; a name
    # it rebinds on a module is read there at call time, so it is kept
    layers = runpy.run_path(str(LAYERS_PY))
    g = SimpleNamespace(**{name: importlib.import_module("ginlab." + name) for name in layers["LAYERS"]})
    rebound = {
        (container.__name__, key)
        for _span, bindings in layers["span_table"](g)
        for container, key in bindings
        if not isinstance(container, dict)
    }
    unused = []
    for path in sorted(Path(SRC, "ginlab").glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text())
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [
            (path.stem, name)
            for name in sorted(_imported_names(tree) - used)
            if ("ginlab." + path.stem, name) not in rebound
        ]
    assert unused == []


#: float.hex of expected_real_count(1..10), recorded from the
#: Edelman-Kostlan-Shub sums in integers
EXPECTED_REAL_COUNT_HEX = [
    "0x1.0000000000000p+0", "0x1.6a09e667f3bcdp+0", "0x1.b504f333f9de6p+0", "0x1.f1cd9cceef239p+0",
    "0x1.1314059a3b04bp+1", "0x1.2a6628e7ade4ap+1", "0x1.3fa03d7405827p+1", "0x1.533c06c4a7828p+1",
    "0x1.658b66e5c8b9ap+1", "0x1.76c87d9f4e864p+1",
]


def test_expected_real_count_bits_are_pinned():
    assert [expected_real_count(n).hex() for n in range(1, 11)] == EXPECTED_REAL_COUNT_HEX


def test_expected_real_count_is_within_2_ulp_of_mpmath():
    # the hypergeometric form, 1/2 + sqrt(2) 2F1(1, -1/2; n; 1/2) / B(n, 1/2),
    # at 60 digits: independent of the sums the package evaluates
    assert expected_real_count(1) == 1.0
    assert expected_real_count(2) == math.sqrt(2.0)
    with mpmath.workdps(60):
        for n in [*range(1, 60), 100, 200, 400, 1000]:
            got = expected_real_count(n)
            exact = mpmath.mpf(0.5) + mpmath.sqrt(2) * mpmath.hyp2f1(1, -0.5, n, 0.5) / mpmath.beta(n, 0.5)
            assert abs(mpmath.mpf(got) - exact) <= 2 * math.ulp(got), n


def test_erfc_sites_and_sign_det_run():
    # the default kernel-table bytes are pinned in test_cli, and _erfc's bits
    # against scipy.special.erfc in test_kernel; here each site runs once
    assert gauss_tail(0.0) == 0.5
    assert spin_correlation((0.3, 0.3)) == 1.0
    assert sign_det(np.array([[0.0, 2.0], [3.0, 1.0]])) == -1
