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

localstruct._maximal_ideal = lambda factor, e, units: None  # every factor reads as non-local
try:
    localstruct.local_decomposition(make_cyclic(6))
except VerificationFailed as exc:
    print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


BROKEN_IDEMPOTENTS = """
import sys
import ringsieve.localstruct as localstruct
from ringsieve.errors import VerificationFailed
from ringsieve.rings import make_cyclic

real = localstruct.primitive_idempotents  # 3 and 4 in Z/6
for broken in (
    lambda ring: real(ring)[1:],  # 4 alone does not sum to 1
    lambda ring: real(ring) + real(ring)[:1],  # 3 * 3 != 0
    lambda ring: [ring.unit],  # orthogonal and sums to 1, but Z/6 is not local
):
    localstruct.primitive_idempotents = broken
    try:
        localstruct.local_decomposition(make_cyclic(6))
    except VerificationFailed as exc:
        print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


UNCONFIRMED_TRIPLE = """
import dataclasses
import sys
import ringsieve.rogers as rogers
from ringsieve.catalog import socle_plane_ring
from ringsieve.errors import VerificationFailed

real_check = rogers.rogers_check
rogers.rogers_check = lambda *a, **kw: dataclasses.replace(real_check(*a, **kw), satisfied=True)
try:
    rogers.theorem2_verify(socle_plane_ring(2))
except VerificationFailed as exc:
    print(f"optimize={sys.flags.optimize} raised: {exc}")
rogers.rogers_check = real_check
rogers._first_failing_triple = lambda join, meet: (0, 0, 0)  # the zero ideal breaks nothing
try:
    rogers.theorem2_verify(socle_plane_ring(2))
except VerificationFailed as exc:
    print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


PUSH_OFF_THE_KERNEL = """
import sys
from ringsieve.catalog import order_z2i
from ringsieve.errors import VerificationFailed
from ringsieve.orders import IntegerLattice, order_ideal, order_quotient

z2i = order_z2i()
_, proj = order_quotient(z2i, order_ideal(z2i, [(2, 0)]))
for sub in (order_ideal(z2i, [(3, 0)]),  # an ideal, but 2 is not in it
            IntegerLattice(((1, 0), (0, 2)))):  # holds 2, but t * 1 escapes it
    try:
        proj.push_lattice(sub)
    except VerificationFailed as exc:
        print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


NOT_P_MAXIMAL_BUT_CHAIN = """
import sys
import ringsieve.orders as orders
from ringsieve.catalog import order_zi
from ringsieve.errors import VerificationFailed

orders._p_maximal = lambda order, p: False  # Z[i] is 2-maximal: Z[i]/4 is a chain ring
try:
    orders.nonmaximality_probe(order_zi(), 4)
except VerificationFailed as exc:
    print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


def _run_optimized(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_broken_reverification_raises_under_optimize():
    assert _run_optimized(BROKEN_DECOMPOSITION) == (
        "optimize=1 raised: decomposition produced a non-local factor\n")


def test_broken_idempotents_raise_under_optimize():
    assert _run_optimized(BROKEN_IDEMPOTENTS) == (
        "optimize=1 raised: idempotents do not sum to 1\n"
        "optimize=1 raised: idempotents are not pairwise orthogonal\n"
        "optimize=1 raised: decomposition produced a non-local factor\n")


def test_unconfirmed_triple_raises_under_optimize():
    assert _run_optimized(UNCONFIRMED_TRIPLE) == (
        "optimize=1 raised: pattern criterion disagrees with evaluation\n"
        "optimize=1 raised: triple tables disagree with the ideal masks\n")


def test_probe_contradicting_the_p_maximality_test_raises_under_optimize():
    assert _run_optimized(NOT_P_MAXIMAL_BUT_CHAIN) == (
        "optimize=1 raised: O/4O is a chain-local product, but O is not 2-maximal\n")


def test_push_off_the_kernel_raises_under_optimize():
    assert _run_optimized(PUSH_OFF_THE_KERNEL) == (
        "optimize=1 raised: IntegerLattice(((3, 0), (0, 3))) is not an ideal lattice over the kernel\n"
        "optimize=1 raised: IntegerLattice(((1, 0), (0, 2))) is not an ideal lattice over the kernel\n")


BROKEN_SPLIT = """
import sys
import ringsieve.localstruct as localstruct
from ringsieve.errors import VerificationFailed
from ringsieve.ideals import all_ideals
from ringsieve.rings import make_cyclic

real = localstruct.primitive_idempotents  # 4 and 9 in Z/12
for broken in (
    lambda ring: real(ring)[1:],  # 9 alone does not sum to 1
    lambda ring: real(ring) + real(ring)[:1],  # 4 * 4 != 0
):
    localstruct.primitive_idempotents = broken
    try:
        all_ideals(make_cyclic(12))
    except VerificationFailed as exc:
        print(f"optimize={sys.flags.optimize} raised: {exc}")
"""


def test_broken_split_raises_from_all_ideals_under_optimize():
    assert _run_optimized(BROKEN_SPLIT) == (
        "optimize=1 raised: idempotents do not sum to 1\n"
        "optimize=1 raised: idempotents are not pairwise orthogonal\n")
