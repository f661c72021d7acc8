"""Every ``repro`` subpackage and module imports first, in a fresh
interpreter, so no import cycle depends on what was imported before."""
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__path__[0]).parent)


@pytest.mark.parametrize(
    "name", sorted(m.name for m in pkgutil.iter_modules(repro.__path__))
)
def test_imports_first(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", f"import repro.{name}"],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
