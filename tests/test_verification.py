"""Re-verification checks must be real checks: they raise, and survive ``python -O``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def test_library_has_no_assert_statements():
    found = []
    for path in sorted((SRC / "ringsieve").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert found == []


BROKEN_DECOMPOSITION = """
import sys
import ringsieve.localstruct as localstruct
from ringsieve.errors import VerificationFailed
from ringsieve.rings import make_cyclic

localstruct.is_local = lambda ring: (False, None)
try:
    localstruct.local_decomposition(make_cyclic(6))
except VerificationFailed as exc:
    print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


def test_broken_reverification_raises_under_optimize():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", BROKEN_DECOMPOSITION], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "optimize=1 raised: decomposition produced a non-local factor\n"
