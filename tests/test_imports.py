"""Importing the package loads no scipy module.

scipy is needed only by SimBA's DCT basis, which imports it when it builds
a direction, so every other run starts without paying for it.
"""

import os
import subprocess
import sys

import pytest

pytestmark = pytest.mark.smoke

MODULES = ("repro", "repro.attacks", "repro.defenses", "repro.serving",
           "repro.pipeline", "repro.experiments", "repro.cli")


def test_package_import_loads_no_scipy():
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    code = (f"import sys\nimport {', '.join(MODULES)}\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src] + [p for p in [env.get("PYTHONPATH")] if p])
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120,
                            check=True)
    assert result.stdout.strip() == "[]"
