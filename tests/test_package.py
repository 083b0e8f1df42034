"""Package surface: every exported name resolves, and imports stay lazy.

``permutons`` loads its attributes on first access (PEP 562), so a name
left in the export table after its definition is gone fails only when
someone touches it; the first test touches them all.  The CLI pins the
BLAS thread-count variables for ``--threads`` before numpy initializes,
which works only while importing the package and the CLI module does not
import numpy; the second test checks that in a fresh interpreter.
"""

import os
import subprocess
import sys
from pathlib import Path

import permutons

ROOT = Path(__file__).resolve().parent.parent


def test_every_exported_name_resolves():
    missing = [name for name in permutons.__all__ if not hasattr(permutons, name)]
    assert missing == []


def test_package_and_cli_import_without_numpy():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, permutons, permutons.cli; print('numpy' in sys.modules)"],
        capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"
