"""The runtime needs the standard library only (pyproject.toml: dependencies = [])."""

import subprocess
import sys
from pathlib import Path

import bloatlens

PACKAGE = Path(bloatlens.__file__).parent


def test_every_module_imports_without_site_packages():
    modules = ["bloatlens", "bloatlens.cli", *sorted(
        f"bloatlens.{p.stem}" for p in PACKAGE.glob("*.py") if p.stem != "__init__")]
    code = (f"import sys; sys.path.insert(0, {str(PACKAGE.parent)!r})\n"
            f"for name in {modules!r}: __import__(name)\n"
            "print('tarfile' in sys.modules, 'email' in sys.modules)")
    # -S leaves site-packages off sys.path; -I ignores PYTHONPATH and the working directory.
    done = subprocess.run([sys.executable, "-I", "-S", "-c", code],
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "False False\n"  # no module under src/ imports tarfile or email
