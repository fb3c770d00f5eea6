"""Run a test helper again in a ``python -O`` subprocess.

Certificate checks must raise even when ``assert`` statements are
stripped, so tests call their helper once in process and once here.
"""
import os
import subprocess
import sys
from pathlib import Path


def run_optimized(module: str, func: str) -> None:
    """Call ``module.func()`` under ``python -O``; fail if it raises."""
    tests = Path(__file__).resolve().parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(tests.parent / "src"), str(tests)])}
    code = (f"import sys; from {module} import {func}; {func}(); "
            "sys.exit(0 if sys.flags.optimize else 2)")
    subprocess.run([sys.executable, "-O", "-c", code], env=env, check=True,
                   timeout=300)
