"""Hermite/Smith normal form unit and property tests."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import det_bareiss, mat_mul
from ringsieve import intmat
from ringsieve.errors import RankDeficient
from ringsieve.intmat import (
    hnf,
    hnf_full_rank,
    hnf_mod,
    kernel,
    lattice_contains,
    lattice_det,
    lattice_intersect,
    lattice_pair_sums,
    lattice_sum,
    snf,
    xgcd,
)


def test_xgcd_identity():
    for a in range(-12, 13):
        for b in range(-12, 13):
            g, x, y = xgcd(a, b)
            assert g == a * x + b * y
            assert g >= 0


def test_hnf_known_lattice():
    assert hnf([[2, 1], [4, 0], [0, 4]]) == [[2, 1], [0, 2]]


def test_hnf_identity_fixed():
    assert hnf([[1, 0], [0, 1]]) == [[1, 0], [0, 1]]


def test_hnf_drops_zero_rows_and_orders_pivots():
    assert hnf([[0, 0, 0], [0, 3, 1], [2, 0, 0]]) == [[2, 0, 0], [0, 3, 1]]


def test_snf_known():
    res = snf([[2, 1], [0, 2]])
    assert res.diagonal == (1, 4)


def test_snf_identity():
    res = snf([[1, 0], [0, 1]])
    assert res.diagonal == (1, 1)


def test_full_rank_rejects_deficient():
    with pytest.raises(RankDeficient):
        hnf_full_rank([[1, 2], [2, 4]], 2)


@st.composite
def square_matrices(draw):
    n = draw(st.integers(1, 5))
    return [
        [draw(st.integers(-9, 9)) for _ in range(n)] for _ in range(n)
    ]


@given(square_matrices())
@settings(max_examples=150, deadline=None)
def test_snf_decomposition_properties(mat):
    res = snf(mat)
    u = [list(r) for r in res.u]
    v = [list(r) for r in res.v]
    d = [list(r) for r in res.d]
    assert mat_mul(mat_mul(u, mat), v) == d
    assert abs(det_bareiss(u)) == 1
    assert abs(det_bareiss(v)) == 1
    identity = [[int(i == j) for j in range(len(v))] for i in range(len(v))]
    assert mat_mul(v, [list(r) for r in res.vinv]) == identity
    diag = res.diagonal
    for a, b in zip(diag, diag[1:]):
        assert b % a == 0 if a != 0 else b == 0
    n = len(mat)
    assert all(d[i][j] == 0 for i in range(n) for j in range(n) if i != j)


@given(square_matrices(), st.randoms(use_true_random=False))
@settings(max_examples=100, deadline=None)
def test_hnf_canonical_under_row_shuffles(mat, rng):
    h = hnf(mat)
    shuffled = [row[:] for row in mat]
    rng.shuffle(shuffled)
    assert hnf(shuffled) == h
    assert hnf(h) == h


def test_kernel_annihilates():
    random.seed(5)
    for _ in range(50):
        m = random.randint(1, 4)
        n = random.randint(1, 4)
        mat = [[random.randint(-6, 6) for _ in range(n)] for _ in range(m)]
        for row in kernel(mat):
            prod = [sum(row[i] * mat[i][j] for i in range(m)) for j in range(n)]
            assert all(x == 0 for x in prod)


def _member_2d(basis, p):
    x, y = p
    if x % basis[0][0]:
        return False
    y -= (x // basis[0][0]) * basis[0][1]
    return y % basis[1][1] == 0


def test_lattice_intersect_membership():
    random.seed(7)
    for _ in range(100):
        b1 = hnf_full_rank(
            [[random.randint(1, 6), random.randint(0, 6)], [0, random.randint(1, 6)]], 2
        )
        b2 = hnf_full_rank(
            [[random.randint(1, 6), random.randint(0, 6)], [0, random.randint(1, 6)]], 2
        )
        inter = lattice_intersect(b1, b2, 2)
        for x in range(-15, 16):
            for y in range(-15, 16):
                expected = _member_2d(b1, (x, y)) and _member_2d(b2, (x, y))
                assert _member_2d(inter, (x, y)) == expected
                assert lattice_contains(inter, (x, y)) == expected


def test_lattice_sum_contains_both():
    b1 = hnf_full_rank([[2, 0], [0, 6]], 2)
    b2 = hnf_full_rank([[3, 1], [0, 2]], 2)
    s = lattice_sum(b1, b2, 2)
    for row in list(b1) + list(b2):
        assert lattice_contains(s, row)


def test_invert_unimodular_round_trip():
    # for unimodular m, U * m * V = I, so m^-1 = V * U; snf also carries V^-1
    m = [[1, 2, 0], [0, 1, 5], [0, 0, 1]]
    res = snf(m)
    assert res.diagonal == (1, 1, 1)
    u = [list(r) for r in res.u]
    v = [list(r) for r in res.v]
    inv = mat_mul(v, u)
    identity = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
    assert mat_mul(m, inv) == identity
    assert mat_mul(inv, m) == identity
    assert mat_mul(v, [list(r) for r in res.vinv]) == identity


def test_lattice_det_is_pivot_product():
    basis = hnf_full_rank([[2, 1], [0, 3]], 2)
    assert lattice_det(basis) == 6


def test_snf_diagonal_matches_sympy():
    import sympy
    from sympy.matrices.normalforms import smith_normal_form

    random.seed(13)
    for _ in range(60):
        n = random.randint(1, 4)
        mat = [[random.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        ours = [d for d in snf(mat).diagonal if d != 0]
        theirs = [
            abs(int(x))
            for x in smith_normal_form(sympy.Matrix(mat)).diagonal()
            if x != 0
        ]
        assert ours == sorted(theirs), mat


def test_hnf_span_matches_sympy():
    # sympy reduces column lattices; transposing gives an independently
    # computed basis of the same row span, which must canonicalize to ours
    import sympy
    from sympy.matrices.normalforms import hermite_normal_form

    random.seed(17)
    checked = 0
    while checked < 40:
        n = random.randint(1, 4)
        mat = [[random.randint(-9, 9) for _ in range(n)] for _ in range(n)]
        if det_bareiss(mat) == 0:
            continue
        checked += 1
        ours = hnf(mat)
        theirs = hermite_normal_form(sympy.Matrix(mat).T).T.tolist()
        assert hnf([[int(x) for x in row] for row in theirs]) == ours, mat


# -- the batched modular kernel against the arbitrary-precision HNF ------------


@st.composite
def divisor_chains(draw):
    """d_1 | d_2 | ... | d_k with some d_i = 1, up to the int64 bound."""
    k = draw(st.integers(1, 4))
    chain = [draw(st.sampled_from([1, 1, 2, 3, 4, 6, 9, 12, 60]))]
    for _ in range(k - 1):
        chain.append(chain[-1] * draw(st.sampled_from([1, 1, 2, 3, 5, 7])))
    if draw(st.booleans()):
        chain[-1] *= (2**31 - 1) // chain[-1]  # 2 * d_k^2 just below 2^63
    return chain


def _vectors(draw, d, count):
    """Rows with entries in [0, d_l), mixed with zero rows and rows = 0 mod d."""
    out = []
    for _ in range(count):
        kind = draw(st.sampled_from(["any", "any", "zero", "multiple"]))
        if kind == "zero":
            out.append([0] * len(d))
        elif kind == "multiple":
            out.append([c * draw(st.integers(-2, 2)) for c in d])
        else:
            out.append([draw(st.integers(0, c - 1)) for c in d])
    return out


@st.composite
def lattices_containing(draw, d):
    """HNF of diag(d) plus a few random rows."""
    diag = [[c if i == j else 0 for j, c in enumerate(d)] for i in range(len(d))]
    return hnf(diag + _vectors(draw, d, draw(st.integers(0, 3))))


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_hnf_mod_matches_hnf(data):
    d = data.draw(divisor_chains())
    k = len(d)
    batch, m = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 4))
    bases = [data.draw(lattices_containing(d)) for _ in range(batch)]
    rows = [_vectors(data.draw, d, m) for _ in range(batch)]
    got = hnf_mod(np.array(bases, dtype=np.int64),
                  np.array(rows, dtype=np.int64).reshape(batch, m, k),
                  np.array(d, dtype=np.int64))
    assert got.tolist() == [hnf(b + r) for b, r in zip(bases, rows)]


@given(data=st.data(), chunk=st.integers(1, 7))
@settings(max_examples=60, deadline=None)
def test_pair_sums_match_hnf_across_chunks(data, chunk):
    d = data.draw(divisor_chains())
    lattices = [data.draw(lattices_containing(d)) for _ in range(data.draw(st.integers(0, 6)))]
    lo = data.draw(st.integers(0, len(lattices)))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(intmat, "HNF_CHUNK", chunk)
        got = [(int(a), int(b), s.tolist())
               for chunk_a, chunk_b, sums in lattice_pair_sums(
                   np.array(lattices, dtype=np.int64).reshape(-1, len(d), len(d)),
                   np.array(d, dtype=np.int64), lo)
               for a, b, s in zip(chunk_a, chunk_b, sums)]
    assert got == [(a, b, hnf(lattices[a] + lattices[b]))
                   for a in range(lo, len(lattices)) for b in range(a)]
