"""Acceptance suite: one test and one printed PASS/FAIL line per criterion.

All tolerances are exact (integer or rational equality); the only
inexactness anywhere is wall-clock budgets, which are asserted at the
values stated alongside each criterion.  Run with ``pytest -s`` to see
the per-criterion lines immediately.
"""

import io
import itertools
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest

import oracles
from oracles import det_bareiss, mat_mul
from ringsieve.catalog import (
    acceptance_catalog,
    order_z2i,
    socle_plane_ring,
)
from ringsieve.cli import dispatch
from ringsieve.ideals import all_ideals
from ringsieve.intmat import hnf, snf
from ringsieve.localstruct import classify
from ringsieve.orders import push_to_quotient, rogers_check_order
from ringsieve.rogers import counterexample, rogers_check, socle_witness, theorem2_verify
from ringsieve.sieve import rogers_min_density, union_density


def _report(criterion: int, name: str):
    class _Ctx:
        def __enter__(self):
            self.t0 = time.monotonic()
            return self

        @property
        def elapsed(self):
            return time.monotonic() - self.t0

        def __exit__(self, exc_type, exc, tb):
            status = "PASS" if exc_type is None else "FAIL"
            print(f"ACCEPTANCE {criterion} [{name}]: {status} ({self.elapsed:.2f}s)")
            return False

    return _Ctx()


def test_criterion_1_socle_witness_counts():
    with _report(1, "plane-socle witness counts 3q-3 < 3q-2 for q in 2..5"):
        for q in (2, 3, 4, 5):
            t0 = time.monotonic()
            ring = socle_plane_ring(q)
            witness = socle_witness(ring)
            elapsed = time.monotonic() - t0
            assert witness.union_shifted == 3 * q - 3, q
            assert witness.union_baseline == 3 * q - 2, q
            reval = oracles.union_at_shifts(
                ring, witness.ideals, [s.index for s in witness.shifts]
            )
            assert reval == 3 * q - 3
            assert elapsed < 1.0, f"q={q} took {elapsed:.2f}s"


def test_criterion_2_gaussian_suborder_triple():
    with _report(2, "Z[2i] triple: |O/H|=8, 4 -> 3, shifted containment"):
        t0 = time.monotonic()
        order = order_z2i()
        gens = [[(2, 0)], [(0, 1)], [(2, 1), (4, 0)]]
        report = rogers_check_order(order, gens)
        elapsed = time.monotonic() - t0
        quotient = report.ideals[0].ring
        assert quotient.order == 8
        assert report.baseline == 4
        assert report.minimum == 3
        assert report.satisfied is False
        # shifted containment: 2 + I_2 inside I_1 union I_3 in the quotient
        _, _, ring, proj, images = push_to_quotient(order, gens)
        two = proj((2, 0))
        shifted = 0
        for m in images[1].members:
            shifted |= 1 << ring.add_idx(two.index, int(m))
        assert shifted & ~(images[0].mask | images[2].mask) == 0
        assert report.witness_shifts[1].coords == two.coords
        assert elapsed < 1.0


def test_criterion_3_catalog_equivalence():
    with _report(3, "triple verification equals classification on the catalog") as ctx:
        count = 0
        mismatches = []
        for name, ring in acceptance_catalog():
            count += 1
            structural = classify(ring).is_chain_local_product
            scanned = theorem2_verify(ring)
            if structural != scanned:
                mismatches.append(name)
        assert count == 2925
        assert mismatches == []
        assert ctx.elapsed < 600.0


def test_criterion_4_pair_suite():
    with _report(4, "every catalog ideal pair keeps its union size"):
        violations = []
        pairs = 0
        for name, ring in acceptance_catalog():
            ideals = all_ideals(ring)
            cache = {}
            for i in range(len(ideals)):
                for j in range(i, len(ideals)):
                    report = rogers_check(
                        ring, (ideals[i], ideals[j]), coset_cache=cache
                    )
                    pairs += 1
                    if report.minimum != report.baseline:
                        violations.append((name, i, j))
        assert pairs > 800_000
        assert violations == []


def test_criterion_5_constructive_completeness():
    with _report(5, "every non-chain catalog ring yields a verified witness"):
        found = 0
        for name, ring in acceptance_catalog():
            if classify(ring).is_chain_local_product:
                continue
            found += 1
            witness = counterexample(ring)
            # independent re-evaluation with plain set arithmetic
            value = oracles.union_at_shifts(
                ring, witness.ideals, [s.index for s in witness.shifts]
            )
            baseline = oracles.union_at_shifts(ring, witness.ideals, [0, 0, 0])
            assert value == witness.union_shifted
            assert baseline == witness.union_baseline
            assert value < baseline, name
        assert found == 225


def test_criterion_6_progressions_over_z():
    with _report(6, "shift minimum equals zero-shift density, moduli <= 12") as ctx:
        cases = 0
        for r in (1, 2, 3):
            for moduli in itertools.combinations_with_replacement(range(1, 13), r):
                report = rogers_min_density(list(moduli))
                zero = union_density([(0, q) for q in moduli])
                assert report.min_density == zero.density, moduli
                cases += 1
        assert cases == 12 + 78 + 364
        assert ctx.elapsed < 60.0


def test_criterion_7_lattice_algebra():
    with _report(7, "SNF/HNF invariants on 200 random matrices") as ctx:
        import random

        rng = random.Random(20260810)
        for trial in range(200):
            n = rng.randint(1, 5)
            mat = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
            res = snf(mat)
            u = [list(r) for r in res.u]
            v = [list(r) for r in res.v]
            assert mat_mul(mat_mul(u, mat), v) == [list(r) for r in res.d]
            assert abs(det_bareiss(u)) == 1
            assert abs(det_bareiss(v)) == 1
            diag = res.diagonal
            for a, b in zip(diag, diag[1:]):
                assert b % a == 0 if a != 0 else b == 0
            canonical = hnf(mat)
            shuffled = [row[:] for row in mat]
            rng.shuffle(shuffled)
            assert hnf(shuffled) == canonical
            assert hnf(canonical) == canonical
        assert ctx.elapsed < 10.0


ACCEPTANCE_COMMANDS = [
    ["validate", "catalog:F2xy"],
    ["ideals", "catalog:Z12"],
    ["classify", "catalog:Z12"],
    ["classify", "catalog:C1"],
    ["verify-theorem2", "catalog:Z12"],
    ["counterexample", "catalog:F2xy"],
    ["rogers-check", "catalog:F2xy", "--ideal", "0 1 0", "--ideal", "0 0 1",
     "--ideal", "0 1 1"],
    ["order-check", "catalog:Z2i", "--ideal", "2 0", "--ideal", "0 1",
     "--ideal", "2 1; 4 0"],
    ["probe", "catalog:Z2i", "--bound", "4"],
    ["sieve", "--prog", "0:2", "--prog", "0:3"],
    ["sieve-min", "--moduli", "2,3"],
]


def test_criterion_8_cli_determinism():
    with _report(8, "byte-identical CLI output at worker counts 1 and 4"):
        for cmd in ACCEPTANCE_COMMANDS:
            for fmt in ("human", "machine"):
                outputs = set()
                for workers in ("1", "4"):
                    for _ in range(2):
                        out, err = io.StringIO(), io.StringIO()
                        with redirect_stdout(out), redirect_stderr(err):
                            dispatch(["--format", fmt, "--workers", workers] + cmd)
                        outputs.add(out.getvalue())
                assert len(outputs) == 1, (cmd, fmt)
