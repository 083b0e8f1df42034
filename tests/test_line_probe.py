"""The line probe of ``tools/line_probe.py`` on a throwaway package.

The probe runs pytest in its own process under a line tracer and fails when
a line of the probed package never ran.  Here it probes a two-function
package whose test calls both functions: with a third function, which no
test calls, it names that function's one body line and exits 1; without it,
it exits 0.  (A line after a ``return`` would not do: the compiler drops it,
so it has no instruction for the probe to list.)
"""

import subprocess
import sys
from pathlib import Path

PROBE = Path(__file__).resolve().parents[1] / "tools" / "line_probe.py"

MODULE = '''"""A throwaway package."""


def f(x):
    if x:
        return 1
    return 2


def g():
    return 0
'''


def _probe(tmp_path, source):
    pkg = tmp_path / "src" / "probed"
    pkg.mkdir(parents=True, exist_ok=True)
    (pkg / "__init__.py").write_text(source)
    (tmp_path / "test_probed.py").write_text(
        "from probed import f, g\n\n\ndef test_f_and_g():\n"
        "    assert (f(1), f(0), g()) == (1, 2, 0)\n")
    return subprocess.run(
        [sys.executable, str(PROBE), "--src", str(pkg), "-q", "-p", "no:cacheprovider",
         str(tmp_path / "test_probed.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)


def test_line_probe_fails_on_a_line_no_test_reaches(tmp_path):
    out = _probe(tmp_path, MODULE + "\n\ndef h():\n    return 3\n")
    assert out.returncode == 1, out.stdout + out.stderr
    unrun = [ln for ln in out.stdout.splitlines() if "__init__.py:" in ln]
    assert unrun == [f"{tmp_path / 'src' / 'probed' / '__init__.py'}:15: return 3"]
    assert "line probe: 1 of " in out.stdout


def test_line_probe_passes_when_every_line_runs(tmp_path):
    out = _probe(tmp_path, MODULE)
    assert out.returncode == 0, out.stdout + out.stderr
    assert "line probe: 0 of " in out.stdout
