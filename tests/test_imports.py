"""The import contract, and the bits of every function that imports scipy itself.

Importing ``ginlab.cli`` loads neither scipy nor numpy.random; a campaign
that never calls a scipy function never loads scipy.  Each scipy import
sits in the one function that calls it, so each of those functions runs
here against values recorded while the imports were still at module level.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from ginlab.kernel import gauss_tail, spin_correlation
from ginlab.linalg import sign_det
from ginlab.sampler import expected_real_count

SRC = str(Path(__file__).resolve().parents[1] / "src")


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


def test_campaigns_without_scipy_functions_never_load_scipy(tmp_path):
    out = _python(
        "import sys\n"
        "from ginlab.cli import main\n"
        "for argv in (['pfaffian-selftest'], ['mc-density'], ['lemma1', '--n', '6', '--samples', '5000'],\n"
        "             ['matrix-integral', '--k', '2'], ['stationary-phase'], ['heat-check']):\n"
        "    assert main([*argv, '--out', argv[0] + '.csv']) == 0, argv\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))",
        tmp_path,
    )
    assert out.splitlines()[-1] == "[]"


def test_the_duality_check_loads_neither_group_integrals_nor_scipy(tmp_path):
    # its exact moment is a sum in sampler: no import cycle through group_integrals
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


#: float.hex of expected_real_count(1..10), recorded with scipy.special
#: imported at module level
EXPECTED_REAL_COUNT_HEX = [
    "0x1.0000000000001p+0", "0x1.6a09e667f3bcep+0", "0x1.b504f333f9de7p+0", "0x1.f1cd9cceef23cp+0",
    "0x1.1314059a3b04cp+1", "0x1.2a6628e7ade4ap+1", "0x1.3fa03d7405828p+1", "0x1.533c06c4a7829p+1",
    "0x1.658b66e5c8b9bp+1", "0x1.76c87d9f4e864p+1",
]


def test_expected_real_count_bits_are_pinned():
    assert [expected_real_count(n).hex() for n in range(1, 11)] == EXPECTED_REAL_COUNT_HEX


def test_erfc_sites_and_sign_det_run():
    # the default kernel-table bytes are pinned in test_cli; here each site runs once
    assert gauss_tail(0.0) == 0.5
    assert spin_correlation((0.3, 0.3)) == 1.0
    assert sign_det(np.array([[0.0, 2.0], [3.0, 1.0]])) == -1
