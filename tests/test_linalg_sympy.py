"""`rref`, `invert_matrix` and rank against sympy, on seeded random matrices
over Q and F_p, rank-deficient ones included.

Each matrix is a product B*C of random m x r and r x n factors, so its
rank is at most r and often below min(m, n).  Over Q the reference is
`sympy.Matrix.rref` and `Matrix.inv`, over F_p `DomainMatrix(..., GF(p))`
and `Matrix.inv_mod`.  The module skips when sympy is not installed.
"""

import functools
import random
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.matrices import DomainMatrix  # noqa: E402

from lenalg import make_field  # noqa: E402
from lenalg.linalg import invert_matrix, rref, span  # noqa: E402

PRIMES = (2, 3, 5, 7, 101)


def _product(field, rng, m, n, r):
    """An m x n matrix of rank at most r over `field`, as tuples of payloads."""
    if field.is_finite():
        draw = lambda: field.from_int(rng.randrange(field.order()))
    else:
        draw = lambda: Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    B = [[draw() for _ in range(r)] for _ in range(m)]
    C = [[draw() for _ in range(n)] for _ in range(r)]
    dot = lambda i, j: functools.reduce(
        field.add, (field.mul(B[i][k], C[k][j]) for k in range(r)), field.zero)
    return [tuple(dot(i, j) for j in range(n)) for i in range(m)]


def _matrices(field, seed, count=60):
    rng = random.Random(f"sympy|{field.label()}|{seed}")
    for _ in range(count):
        m, n = rng.randint(1, 6), rng.randint(1, 7)
        yield _product(field, rng, m, n, rng.randint(0, min(m, n)))


def _square(field, seed, count=40):
    rng = random.Random(f"sympy-square|{field.label()}|{seed}")
    for _ in range(count):
        n = rng.randint(1, 6)
        yield _product(field, rng, n, n, n if rng.random() < 0.7 else rng.randint(0, n))


def _rational(x):
    return Fraction(int(x.p), int(x.q))


def test_rref_and_rank_match_sympy_over_Q():
    Q = make_field("Q")
    for M in _matrices(Q, 0):
        rows, pivots = rref(Q, M)
        ref, ref_pivots = sympy.Matrix(M).rref()
        assert pivots == ref_pivots
        assert rows == tuple(tuple(_rational(ref[i, j]) for j in range(len(M[0])))
                             for i in range(len(pivots)))
        assert span(Q, M).dim == sympy.Matrix(M).rank()


@pytest.mark.parametrize("p", PRIMES)
def test_rref_and_rank_match_sympy_over_Fp(p):
    F, K = make_field(f"F{p}"), sympy.GF(p)
    for M in _matrices(F, p):
        rows, pivots = rref(F, M)
        dm = DomainMatrix([[K(a) for a in row] for row in M], (len(M), len(M[0])), K)
        ref, ref_pivots = dm.rref()
        assert pivots == tuple(ref_pivots)
        assert rows == tuple(tuple(int(a) % p for a in row)
                             for row in ref.to_list()[:len(pivots)])
        assert span(F, M).dim == dm.rank()


def test_inverse_matches_sympy_over_Q():
    Q = make_field("Q")
    singular = 0
    for M in _square(Q, 0):
        inverse = invert_matrix(Q, M)
        ref = sympy.Matrix(M)
        if ref.det() == 0:
            singular += 1
            assert inverse is None
            continue
        ref = ref.inv()
        assert inverse == tuple(tuple(_rational(ref[i, j]) for j in range(len(M)))
                                for i in range(len(M)))
    assert singular


@pytest.mark.parametrize("p", PRIMES)
def test_inverse_matches_sympy_inv_mod(p):
    F = make_field(f"F{p}")
    singular = 0
    for M in _square(F, p):
        inverse = invert_matrix(F, M)
        try:
            ref = sympy.Matrix(M).inv_mod(p)
        except ValueError:  # sympy's NonInvertibleMatrixError
            singular += 1
            assert inverse is None
            continue
        assert inverse == tuple(tuple(int(ref[i, j]) % p for j in range(len(M)))
                                for i in range(len(M)))
    assert singular
