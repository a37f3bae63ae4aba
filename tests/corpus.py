"""Shared corpus builders for the unit and acceptance tests.

Random unital tables follow the repair recipe: draw a fully random table;
if it happens to have a two-sided identity keep it, otherwise adjoin an
identity to a random table one dimension lower.  A random conjugation then
hides any privileged coordinates.  Everything is seeded and deterministic.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from lenalg import (
    algebra,
    change_basis,
    find_identity,
    generate_length_one,
    make_field,
    unital_hull,
)
from lenalg.algebra import complete_to_basis_with_one
from lenalg.decide import OracleResult, ViolationWitness
from lenalg.errors import CapExceeded, DimensionMismatch
from lenalg.length import enumerate_subspaces
from lenalg.linalg import (
    BasisChange,
    invert_matrix,
    random_invertible,
    span,
    unit_vec,
    vec_add,
    vec_scale,
)


def random_scalar(field, rng):
    if field.is_finite():
        elems = list(field.elements())
        return elems[rng.randrange(len(elems))]
    return Fraction(rng.randint(-5, 5), rng.randint(1, 3))


def random_vector(field, n, rng):
    return tuple(random_scalar(field, rng) for _ in range(n))


def random_table(field, n, rng):
    return [[random_vector(field, n, rng) for _ in range(n)] for _ in range(n)]


def identities_short_of_the_end(field, n, rng):
    """One identity vector of length n per position L of its last nonzero
    coordinate, the last position too, with 1_L != 1 wherever the field has
    such a scalar (not F2)."""
    scalars = [c for c in (field.elements() if field.is_finite() else
                           (Fraction(-3, 2), Fraction(5), Fraction(1, 7)))
               if c not in (field.zero, field.one)] or [field.one]
    for last in range(n):
        yield (random_vector(field, last, rng) + (rng.choice(scalars),)
               + (field.zero,) * (n - 1 - last))


def with_identity(A, one, rng):
    """A, whose identity is e_0, rewritten in a random basis whose inverse
    has `one` as its first row, so that the identity's coordinates are `one`."""
    field, n = A.field, A.dim
    while True:
        inverse = (one,) + tuple(random_vector(field, n, rng) for _ in range(n - 1))
        rows = invert_matrix(field, inverse)
        if rows is not None:
            return change_basis(A, BasisChange(field, rows, inverse=inverse))


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


def nilpotent_commutative_hull(field, m, seed):
    """Unital hull of a seeded m-dimensional commutative table with zero
    squares and e_i e_j in {0, e_k : k > max(i, j)}.  Every basis square but
    the identity's is zero, so each single x = e_i of the Jordan law holds
    and its first failure, if any, is a mixed pair or a mixed triple."""
    rng = random.Random(f"nilpotent|{field.label()}|{m}|{seed}")
    zero = (field.zero,) * m
    table = [[zero] * m for _ in range(m)]
    for i, j in itertools.combinations(range(m), 2):
        k = rng.randrange(j, m)  # k == j stands for a zero product
        table[i][j] = table[j][i] = zero if k == j else unit_vec(field, m, k)
    return unital_hull(field, table)


def sparse_f2_hull(m, seed):
    """Unital hull of a seeded m-dimensional F2 table whose coordinates are
    one with probability 1/5."""
    F2 = make_field("F2")
    rng = random.Random(f"plateau|{m}|{seed}")
    table = [[tuple(int(rng.random() < 0.2) for _ in range(m)) for _ in range(m)]
             for _ in range(m)]
    return unital_hull(F2, table)


def reference_word_spans(A, vectors):
    """The word spans as one canonical Subspace per level, each rebuilt by
    `span` from the rows of the level before plus every product of a row of
    L_p by a row of L_q (p + q = i + 1): the reference for `word_spans`.
    Returns (spans, stabilized_at) under the same stop rule and cap."""
    field, n = A.field, A.dim
    spans = [span(field, [A.one]),
             span(field, [A.one] + [tuple(v) for v in vectors], ambient_dim=n)]
    cap = 2 * (2 ** max(n - 2, 0)) + 2
    i = 1
    while True:
        dims = [s.dim for s in spans]
        if dims[-1] == n:
            return spans, dims.index(n)
        for m in range(1, (len(dims) - 1) // 2 + 1):
            if dims[m] == dims[2 * m]:
                return spans, m
        if i >= cap:
            raise CapExceeded(f"reference word spans passed the cap {cap}")
        products = [A.mul(u, v) for p in range(1, i + 1)
                    for u in spans[p].rows for v in spans[i + 1 - p].rows]
        spans.append(span(field, list(spans[-1].rows) + products))
        i += 1


def reference_length(A):
    """(l(A), witness rows, subspaces examined) by the definition, the
    reference for `length_of_algebra`: each subspace of A/F*1 from
    `enumerate_subspaces`, lifted by a zero at L, the pivot of
    `A.identity_row`, after the identity; its length read off
    `reference_word_spans`; the first generating one of greatest length
    is the witness."""
    field, n = A.field, A.dim
    last, zero = A.identity_row[0], (field.zero,)
    best, best_rows, examined = -1, None, 0
    for rows in enumerate_subspaces(field, n - 1):
        examined += 1
        lifted = [A.one] + [r[:last] + zero + r[last:] for r in rows]
        dims = [s.dim for s in reference_word_spans(A, lifted)[0]]
        if dims[-1] == n and dims.index(n) > best:
            best, best_rows = dims.index(n), tuple(lifted)
    return best, best_rows, examined


def reference_quotient_lines(A):
    """One vector per line of A/F*1 over F_q, written out with no subspace
    enumeration, the reference for `_quotient_lines`: zero at L, the pivot
    of `A.identity_row`, and one at its first nonzero entry, in lex order
    of the quotient's coordinates."""
    field, m, last = A.field, A.dim - 1, A.identity_row[0]
    elems, zero = list(field.elements()), (field.zero,)
    reps = (zero * pos + (field.one,) + tail for pos in range(m)
            for tail in itertools.product(elems, repeat=m - pos - 1))
    return [x[:last] + zero + x[last:] for x in reps]


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


def reference_eliminate(field, v, rows):
    """v minus, for each (pivot, row) pair in turn, v[pivot] times row, by
    `field.sub` and `field.mul`: the reference for `Field.eliminate`."""
    zero, sub, mul = field.zero, field.sub, field.mul
    for p, row in rows:
        c = v[p]
        if c != zero:
            v = [sub(a, mul(c, b)) for a, b in zip(v, row)]
    return v


def near_miss(field, dim, seed, mode="special"):
    """The length-one table of `seed` and `mode` (identity e_0) with e_3
    added to e_1 e_2 and taken from e_2 e_1, in a seeded random basis: x^2
    is unchanged for every x, so the decider passes the squares (and the
    canonical shift) and fails on a product outside its span.  Which product
    of the stage's basis fails first depends on the hiding basis."""
    S = generate_length_one(field, dim, seed, mode)
    table = [[list(cell) for cell in row] for row in S.table]
    table[1][2][3] = field.add(table[1][2][3], field.one)
    table[2][1][3] = field.sub(table[2][1][3], field.one)
    rng = random.Random(f"near|{field.label()}|{dim}|{seed}")
    return change_basis(algebra(field, table, S.one),
                        random_invertible(field, dim, rng))


def anticommutator_miss(field, dim, seed):
    """The special length-one table of `seed` with e_2 added to e_2 e_4,
    written in the basis e_0 = 1, e_i + i*1: every product of the canonical
    basis stays in its span and the anticommutator of e_2 and e_4 leaves
    F*1, so the decider fails on it after a real basis change."""
    S = generate_length_one(field, dim, seed, "special")
    table = [[list(cell) for cell in row] for row in S.table]
    table[2][4][2] = field.add(table[2][4][2], field.one)
    rows = [vec_add(field, unit_vec(field, dim, i),
                    vec_scale(field, field.from_int(i), S.one)) if i else S.one
            for i in range(dim)]
    return change_basis(algebra(field, table, S.one), rows)


def mutate_one_constant(A, i, j, k):
    """Bump structure constant c[i][j][k] by one (additively)."""
    field = A.field
    table = [[list(cell) for cell in row] for row in A.table]
    table[i][j][k] = field.add(table[i][j][k], field.one)
    return algebra(field, table, A.one)


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


def reference_oracle(A, *, witness=True):
    """The finite-field pair oracle as two plain scans, each pair tested by
    building span{1, a, b} and asking `contains`: the reference for
    `oracle_length_one` (budgets aside).

    The sweep takes pairs of projective representatives (first nonzero entry
    1, in lexicographic order) of the coordinates after the identity, with
    the identity first; the witness re-scan takes raw coordinate vectors off
    the line F*1, in lexicographic order.
    """
    field, n = A.field, A.dim

    def violates(X, a, b):
        return not span(field, [X.one, a, b]).contains(X.mul(a, b))

    elems = list(field.elements())
    zero, one = field.zero, field.one
    reps = [(zero,) * (pos + 1) + (one,) + tail for pos in range(n - 1)
            for tail in itertools.product(elems, repeat=n - pos - 2)]
    B = change_basis(A, complete_to_basis_with_one(A))
    checked = 0
    found = False
    for u in reps:
        for v in reps:
            checked += 1
            if violates(B, u, v):
                found = True
                break
        if found:
            break
    if not found or not witness:
        return OracleResult(not found, None, checked)
    one_line = {vec_scale(field, c, A.one) for c in elems}
    for a in itertools.product(elems, repeat=n):
        if a in one_line:
            continue
        for b in itertools.product(elems, repeat=n):
            if b in one_line:
                continue
            checked += 1
            if violates(A, a, b):
                return OracleResult(
                    False, ViolationWitness(a, b, "oracle-pair", {}), checked)
    raise AssertionError("the sweep found a violation the re-scan did not")


def reference_power_associative(A, d):
    """Whether every bracketing of x^k agrees for k <= d, each x's powers
    computed anew: the reference for `is_power_associative_upto`'s verdict.

    Over F_q the x are every vector.  Over Q they are the affine lower set
    {x in {0, ..., d}^n : sum(x) <= d} in all n raw coordinates, which is
    unisolvent for the polynomials of degree <= d in n variables, so each
    defect, a form of degree k <= d, vanishes there only if it is zero.
    """
    field, n = A.field, A.dim
    if field.is_finite():
        xs = itertools.product(field.elements(), repeat=n)
    else:
        xs = (tuple(map(field.from_int, x))
              for x in itertools.product(range(d + 1), repeat=n) if sum(x) <= d)
    return all(reference_ambiguity(A, x, d) is None for x in xs)


def reference_ambiguity(A, x, d):
    """(k, the two smallest values) at the first k <= d where the
    bracketings of x^k disagree, every power computed anew, or None."""
    powers = {1: {x}}
    for k in range(2, d + 1):
        powers[k] = {A.mul(u, v) for p in range(1, k)
                     for u in powers[p] for v in powers[k - p]}
        if len(powers[k]) > 1:
            return k, sorted(powers[k])[:2]
    return None


FIELD_NAMES_SMALL = ("F2", "F3", "F5", "GF4")


def field_by_name(name):
    return make_field(name)
