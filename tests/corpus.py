"""Shared corpus builders for the unit and acceptance tests.

Random unital tables follow the repair recipe: draw a fully random table;
if it happens to have a two-sided identity keep it, otherwise adjoin an
identity to a random table one dimension lower.  A random conjugation then
hides any privileged coordinates.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import random
from fractions import Fraction

from lenalg import (
    algebra,
    change_basis,
    find_identity,
    make_field,
    unital_hull,
)
from lenalg.errors import DimensionMismatch
from lenalg.linalg import random_invertible, span, unit_vec


def random_scalar(field, rng):
    if field.is_finite():
        elems = list(field.elements())
        return elems[rng.randrange(len(elems))]
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_vector(field, n, rng):
    return tuple(random_scalar(field, rng) for _ in range(n))


def random_table(field, n, rng):
    return [[random_vector(field, n, rng) for _ in range(n)] for _ in range(n)]


def random_unital_algebra(field, dim, seed, conjugate=True):
    """Random unital algebra of the requested dimension (identity repaired
    via the hull when the raw draw has none)."""
    rng = random.Random(f"unital|{field.label()}|{dim}|{seed}")
    t = random_table(field, dim, rng)
    e = find_identity(field, t)
    if e is not None:
        A = algebra(field, t, e)
    else:
        A = unital_hull(field, random_table(field, dim - 1, rng))
    if conjugate:
        A = change_basis(A, random_invertible(field, A.dim, rng))
    return A


def random_two_dim_unital(field, seed):
    """Random 2-dimensional unital algebra: basis {1, a} with a^2 arbitrary."""
    rng = random.Random(f"dim2|{field.label()}|{seed}")
    sq = random_vector(field, 2, rng)
    one, zero = field.one, field.zero
    table = [[(one, zero), (zero, one)], [(zero, one), sq]]
    A = algebra(field, table, (one, zero))
    return change_basis(A, random_invertible(field, 2, rng))


def reference_mul(field, table, u, v):
    """The product of an m x r structure-constant table of length-n cells
    by field operations alone: its bilinear extension, one field
    multiplication and addition per term."""
    zero = field.zero
    out = [zero] * len(table[0][0])
    for ui, row in zip(u, table):
        if ui == zero:
            continue
        for vj, cell in zip(v, row):
            if vj == zero:
                continue
            c = field.mul(ui, vj)
            out = [field.add(x, field.mul(c, y)) for x, y in zip(out, cell)]
    return tuple(out)


def vec_mat(field, v, m):
    """Row vector times matrix, v @ m, entry by entry: the reference for
    `BasisChange` maps."""
    if len(v) != len(m):
        raise DimensionMismatch("vector/matrix shape mismatch")
    out = [field.zero] * len(m[0])
    for c, row in zip(v, m):
        if c != field.zero:
            out = [field.add(x, field.mul(c, y)) for x, y in zip(out, row)]
    return tuple(out)


def greedy_completion_with_one(A):
    """Rows completing the identity to a basis greedily: each standard basis
    vector, in order, that is outside the span of the rows so far."""
    field, n = A.field, A.dim
    rows = [A.one]
    for k in range(n):
        current = span(field, rows)
        if current.dim == n:
            break
        ek = unit_vec(field, n, k)
        if not current.contains(ek):
            rows.append(ek)
    return tuple(rows)


FIELD_NAMES_SMALL = ("F2", "F3", "F5", "GF4")


def field_by_name(name):
    return make_field(name)
