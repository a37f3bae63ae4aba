"""The field kernels behind Algebra.mul and the row operation against
field operations alone, and the F2 bitmask rows against the default form.

`Field.bilinear` sums over integers and reduces once per coordinate (packed
b-bit digits over F_p and GF(p^k), common denominators over Q).  Its tests
compare it with `reference_mul`, the bilinear extension of the table by one
field multiplication and addition per term.  `Field.eliminate` writes
v - v[pivot] * row out per coordinate; its test compares it with
`reference_eliminate`, the same loop on `field.sub` and `field.mul`.
"""

import inspect
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lenalg import (
    ExtensionField,
    PrimeField,
    algebra,
    change_basis,
    complete_to_basis_with_one,
    fields,
    length_of_algebra,
    make_field,
    render_document,
    unital_hull,
    word_spans,
)
from lenalg.algebra import Algebra
from lenalg.cli import main
from lenalg.errors import InvalidIdentity
from lenalg.linalg import random_invertible, unit_vec, vec_add

from tests.corpus import (
    near_miss,
    random_unital_algebra,
    random_vector,
    reference_eliminate,
    reference_mul,
    vec_mat,
)

AES_MODULUS = (1, 1, 0, 1, 1, 0, 0, 0, 1)              # x^8 + x^4 + x^3 + x + 1
GF16_MODULUS = (1, 1, 1, 1, 1)                          # x^4 + x^3 + x^2 + x + 1
GF4096_MODULUS = (1, 1, 0, 0, 1, 0, 1, 0, 0, 0, 0, 0, 1)  # x^12 + x^6 + x^4 + x + 1
GF2187_MODULUS = (1, 0, 2, 0, 0, 0, 0, 1)               # x^7 + 2x^2 + 1

FIELDS = {name: make_field(name)
          for name in ("Q", "F2", "F3", "F5", "F7", "GF4", "GF8", "GF9")}
FIELDS["GF16"] = ExtensionField(2, 4, GF16_MODULUS)
FIELDS["GF256"] = ExtensionField(2, 8, AES_MODULUS)


def _vectors(F, n, rng):
    """Dense, sparse, zero and every basis vector of F^n."""
    dense = [random_vector(F, n, rng) for _ in range(4)]
    sparse = []
    for _ in range(3):
        v = [F.zero] * n
        v[rng.randrange(n)] = random_vector(F, 1, rng)[0]
        sparse.append(tuple(v))
    basis = [unit_vec(F, n, i) for i in range(n)]
    return dense + sparse + [(F.zero,) * n] + basis


def _assert_matches_reference(A, vectors):
    for u in vectors:
        for v in vectors:
            assert A.mul(u, v) == reference_mul(A.field, A.table, u, v), (u, v)


@pytest.mark.parametrize("name", list(FIELDS))
def test_kernel_matches_reference(name):
    F = FIELDS[name]
    for n in range(1, 8):
        rng = random.Random(f"kernel|{name}|{n}")
        vectors = _vectors(F, n, rng)
        # a dense conjugated table, and the sparse hull of a random one
        _assert_matches_reference(random_unital_algebra(F, n, seed=n), vectors)
        if n >= 2:
            table = [[random_vector(F, n - 1, rng) for _ in range(n - 1)]
                     for _ in range(n - 1)]
            _assert_matches_reference(unital_hull(F, table), vectors)


def _assert_rows_match_the_default_form(A, vectors):
    """A's coded rows decode to the default form's rows, as list rows: the
    products of the vectors, and the echelon list of some of them."""
    encode, mul, extend, decode = A._kernel.rows
    _, product, echelon, _ = fields.Kernel(A.field, A.table).rows
    for u in vectors:
        for v in vectors:
            assert decode([(0, mul(encode(u), encode(v)))]) == [
                (0, list(product(u, v)))], (u, v)
    products = [product(u, v) for u in vectors for v in vectors[:3]]
    last, one = A.identity_row
    coded = extend([(last, encode(one))], [encode(v) for v in products])
    assert decode(coded) == [(pivot, list(row)) for pivot, row in
                             echelon([A.identity_row], products)]


@pytest.mark.parametrize("n", [1, 2, 7, 8, 9, 10, 11])
def test_f2_row_kernel_matches_the_default_form(n):
    # the F2 product looks v up in two halves of its bits, as every field's
    # does; n = 10 is the largest dim that takes the bitmask form, and from
    # n = 11 on F2 compiles the default kernel
    F = FIELDS["F2"]
    A = random_unital_algebra(F, n, seed=n)
    assert (type(A._kernel) is fields.Kernel) == (n > 10)
    _assert_rows_match_the_default_form(A, _vectors(F, n, random.Random(f"f2-rows|{n}")))


@pytest.mark.parametrize("name", ["F2", "GF4", "GF8", "GF16"])
def test_char2_rows_match_the_default_form(name):
    # a coded vector packs the k coefficient bits of each coordinate, for
    # every n up to the bound on n k; one past it the field compiles the
    # default kernel
    F = FIELDS[name]
    k = F.order().bit_length() - 1
    for n in range(1, fields._CHAR2_BITS // k + 2):
        A = random_unital_algebra(F, n, seed=n)
        assert (type(A._kernel) is fields.Kernel) == (n * k > fields._CHAR2_BITS), n
        _assert_rows_match_the_default_form(
            A, _vectors(F, n, random.Random(f"char2-rows|{name}|{n}")))


def test_char2_rows_read_unreduced_coefficients_as_their_residues():
    # (3, 2) and (-1, 0) are 1 in GF4: encode reads the residue, so the
    # coded rows equal those of the reduced vectors, and the default form's
    # up to the coordinates it keeps as they came
    F = FIELDS["GF4"]
    A = random_unital_algebra(F, 3, seed=3)
    encode, mul, extend, decode = A._kernel.rows
    _, product, echelon, _ = fields.Kernel(F, A.table).rows
    a = (0, 1)
    unreduced = [((3, 2), a, (0, 0)), ((0, 0), (-1, 0), (2, 5)),
                 (a, (1, 1), (-1, -1)), ((0, 0), (0, 0), (3, 2))]
    reduced = [tuple(F.canonical(v)) for v in unreduced]
    assert reduced[0] == ((1, 0), a, (0, 0)) and reduced[1][1:] == ((1, 0), (0, 1))
    assert [encode(v) for v in unreduced] == [encode(v) for v in reduced]
    for u, ru in zip(unreduced, reduced):
        for v, rv in zip(unreduced, reduced):
            assert decode([(0, mul(encode(u), encode(v)))]) == [
                (0, list(product(u, v)))] == [(0, list(product(ru, rv)))]
    last, one = A.identity_row
    rows = decode(extend([(last, encode(one))], [encode(v) for v in unreduced]))
    assert rows == decode(extend([(last, encode(one))], [encode(v) for v in reduced]))
    assert rows == [(pivot, F.canonical(row)) for pivot, row in
                    echelon([A.identity_row], unreduced)]


@pytest.mark.parametrize("name, n", [("F2", 5), ("F2", 9), ("F3", 4),
                                     ("GF4", 4), ("Q", 4)])
def test_word_span_rows_are_lists(name, n):
    # a vector that no row reduces is kept as it came, here a tuple, by the
    # echelon routine: the decoded rows are lists over every field all the same
    A = random_unital_algebra(FIELDS[name], n, seed=n)
    rows = word_spans(A, [A.basis_vector(2), A.basis_vector(3)]).rows
    assert len(rows) >= 3 and all(type(row) is list for _, row in rows)


# log(-1) is 13 here, not 0 as in characteristic 2: the case where an
# unreduced log(-c) runs into the zero region of the exponent table
GF27 = ExtensionField(3, 3, (1, 2, 0, 1))
ELIMINATE_FIELDS = [FIELDS[name] for name in
                    ("Q", "F2", "F3", "F5", "GF4", "GF8", "GF9")] + [GF27]


def _echelon_rows(F, n, count, rng):
    """`count` random (pivot, row) pairs of F^n, pivots in random order:
    a one at the row's pivot and zeros at the pivots of the rows before."""
    pivots = rng.sample(range(n), count)
    rows = []
    for i, p in enumerate(pivots):
        row = list(random_vector(F, n, rng))
        for q in pivots[:i]:
            row[q] = F.zero
        row[p] = F.one
        rows.append((p, row))
    return rows


@pytest.mark.parametrize("F", ELIMINATE_FIELDS, ids=lambda F: F.label())
def test_eliminate_matches_reference(F):
    for n in range(1, 8):
        rng = random.Random(f"eliminate|{F.label()}|{n}")
        for count in range(n + 1):
            rows = _echelon_rows(F, n, count, rng)
            for v in _vectors(F, n, rng):
                got = F.eliminate(v, rows)
                assert list(got) == list(reference_eliminate(F, v, rows)), (v, rows)
                assert all(got[p] == F.zero for p, _ in rows)


def _worst_case_prime(p, shape):
    """Every entry of an m x r table of length-n cells and every coordinate
    p - 1: each digit sums to exactly m r (p-1)^3, the bound its width is
    chosen for."""
    m, r, n = shape
    F = PrimeField(p)
    table = [[(p - 1,) * n] * r] * m
    return F, table, (p - 1,) * m, (p - 1,) * r


def _worst_case_extension(p, k, modulus, shape):
    """An m x r table whose digits t = 0 sum to exactly m r k (p-1)^2.

    Every cell is (b, ..., b) with coefficient 0 of x^s * b equal to p - 1
    for every s < k, u is all ones and v all (p-1, ..., p-1), so each pair
    adds (p-1) * (p-1) for each s to that digit of every coordinate.
    """
    m, r, n = shape
    F = ExtensionField(p, k, modulus)
    powers = [F._pad((0,) * s + (1,)) for s in range(k)]
    b = next(b for b in F.elements()
             if all(F.mul(x, b)[0] == p - 1 for x in powers))
    top = (p - 1,) * k
    return F, [[(b,) * n] * r] * m, (F.one,) * m, (top,) * r


# Square algebra tables, the 1 x 8 x 8 table of `Field.linear` and a
# 3 x 5 x 8 one, so that the width pins the m r factor of the bound.
SHAPES = {"": (8, 8, 8), "-1x8x8": (1, 8, 8), "-3x5x8": (3, 5, 8)}
WORST_CASES = {}
for suffix, shape in SHAPES.items():
    WORST_CASES.update({
        "F4093" + suffix: lambda s=shape: _worst_case_prime(4093, s),
        "GF4096" + suffix:
            lambda s=shape: _worst_case_extension(2, 12, GF4096_MODULUS, s),
        "GF2187" + suffix:
            lambda s=shape: _worst_case_extension(3, 7, GF2187_MODULUS, s),
    })


@pytest.mark.parametrize("name", list(WORST_CASES))
def test_worst_case_digit_width(name):
    F, table, u, v = WORST_CASES[name]()
    product = F.bilinear(table)
    assert product(u, v) == reference_mul(F, table, u, v)
    # every entry and every coefficient of every coordinate p - 1
    top = (F.p - 1,) * F.k if isinstance(F, ExtensionField) else F.p - 1
    m, r, n = len(table), len(table[0]), len(table[0][0])
    full = [[(top,) * n] * r] * m
    wu, wv = (top,) * m, (top,) * r
    assert F.bilinear(full)(wu, wv) == reference_mul(F, full, wu, wv)


@pytest.mark.parametrize("name", list(WORST_CASES))
def test_digit_one_bit_narrower_overflows(name, monkeypatch):
    # The worst cases reach the digit bound, so they pin the width: with one
    # bit less a digit carries into its neighbour and the product is wrong.
    F, table, u, v = WORST_CASES[name]()
    monkeypatch.setattr(fields, "_digit_width",
                        lambda bound: bound.bit_length() - 1)
    assert F.bilinear(table)(u, v) != reference_mul(F, table, u, v)


@pytest.mark.parametrize("p", [5, 7])
def test_unreduced_and_negative_int_payloads(p):
    F = PrimeField(p)
    A = algebra(F, [[(1, 0), (0, 1)], [(0, 1), (2, 3)]], (1, 0))
    assert A.mul((-1, 0), (1, 0)) == (p - 1, 0)
    rng = random.Random(p)
    for n in range(1, 8):
        B = random_unital_algebra(F, n, seed=n)
        # the same table with entries shifted by multiples of p
        shifted = algebra(F, [[tuple(y + p * rng.randint(-3, 3) for y in cell)
                               for cell in row] for row in B.table], B.one)
        for _ in range(30):
            u = tuple(rng.randint(-3 * p, 3 * p) for _ in range(n))
            v = tuple(rng.randint(-3 * p, 3 * p) for _ in range(n))
            expected = reference_mul(F, B.table, u, v)
            assert B.mul(u, v) == expected
            assert shifted.mul(u, v) == expected
            assert B.mul(u, v) == B.mul(tuple(x % p for x in u),
                                        tuple(y % p for y in v))


def test_rationals_large_mixed_denominators():
    Q = make_field("Q")
    rng = random.Random(0)
    dens = [1, 2, 3, 7, 10 ** 9 + 7, 2 ** 61 - 1, 12, 2 ** 40]

    def scalar():
        return Fraction(rng.randint(-10 ** 15, 10 ** 15), rng.choice(dens))

    for n in range(1, 6):
        table = [[tuple(scalar() for _ in range(n)) for _ in range(n)]
                 for _ in range(n)]
        A = unital_hull(Q, table)
        vectors = [tuple(scalar() for _ in range(n + 1)) for _ in range(6)]
        vectors += [unit_vec(Q, n + 1, i) for i in range(n + 1)]
        vectors.append((Q.zero,) * (n + 1))
        for u in vectors:
            for v in vectors:
                got = A.mul(u, v)
                assert got == reference_mul(Q, A.table, u, v)
                assert all(type(c) is Fraction for c in got)


def _q_scalar(rng):
    """A rational with a negative, small or large numerator and denominator."""
    num = rng.choice([0, 1, -1, rng.randint(-9, 9), rng.randint(-10 ** 20, 10 ** 20)])
    den = rng.choice([1, 2, 3, 12, 10 ** 9 + 7, 2 ** 61 - 1])
    return Fraction(num, den * rng.choice([1, -1]))


def _q_vectors(length, rng):
    """Zero, every unit vector, two scaled ones (a single nonzero entry,
    the kernel's zero skip) and dense ones."""
    Q = FIELDS["Q"]
    dense = [tuple(_q_scalar(rng) for _ in range(length)) for _ in range(4)]
    units = [unit_vec(Q, length, i) for i in range(length)]
    scaled = [tuple(c * x for c in rng.choice(units))
              for x in (Fraction(-1), Fraction(-(10 ** 20) - 3, 2 ** 61 - 1))]
    return [(Q.zero,) * length] + units + scaled + dense


def _assert_q_kernel_matches_reference(table, us, vs):
    Q = FIELDS["Q"]
    product = Q.bilinear(table)
    for u in us:
        for v in vs:
            got = product(u, v)
            assert got == reference_mul(Q, table, u, v), (u, v)
            assert all(type(c) is Fraction for c in got)


# m x r tables of length-n cells: square, non-square both ways, one-row
# (the shape of `linear`) and one-cell
Q_SHAPES = [(4, 4, 4), (2, 5, 3), (5, 2, 6), (1, 6, 6), (1, 3, 7), (1, 1, 1)]


@pytest.mark.parametrize("shape", Q_SHAPES, ids=lambda s: "x".join(map(str, s)))
def test_rationals_kernel_matches_the_fraction_reference(shape):
    m, r, n = shape
    rng = random.Random(f"q-kernel|{shape}")
    Q = FIELDS["Q"]
    for density in (0.0, 0.3, 1.0):
        table = [[tuple(_q_scalar(rng) if rng.random() < density else Q.zero
                        for _ in range(n)) for _ in range(r)] for _ in range(m)]
        _assert_q_kernel_matches_reference(table, _q_vectors(m, rng), _q_vectors(r, rng))
    if m == 1:  # `linear` is the product of the one-row table with (1,)
        matrix = table[0]
        for v in _q_vectors(r, rng):
            assert Q.linear(matrix)(v) == vec_mat(Q, v, matrix)


@st.composite
def _q_products(draw):
    m, r, n = (draw(st.integers(1, 4)) for _ in range(3))
    scalars = st.fractions(max_denominator=10 ** 12).filter(
        lambda c: abs(c.numerator) < 10 ** 30)
    vector = lambda k: st.tuples(*[scalars] * k)
    table = draw(st.lists(st.lists(vector(n), min_size=r, max_size=r),
                          min_size=m, max_size=m))
    return table, draw(vector(m)), draw(vector(r))


@settings(derandomize=True)
@given(_q_products())
def test_rationals_kernel_matches_the_reference_on_drawn_products(case):
    table, u, v = case
    _assert_q_kernel_matches_reference(table, [u], [v])


def _counted(monkeypatch, owner, name, real):
    """The list that gets one entry per call of `real`, set as
    owner.name, from now on."""
    calls = []

    def counted(*args):
        calls.append(None)
        return real(*args)
    monkeypatch.setattr(owner, name, counted)
    return calls


def test_kernel_is_built_once_at_construction(monkeypatch):
    # one Field.compile per algebra, at construction here (the identity is
    # dense), whatever reads the kernel after it, and its coded rows built
    # once for every subspace of length_of_algebra; an identity-first
    # basis change compiles nothing until its result multiplies
    for name, n, subspaces in (("F2", 5, 67), ("F3", 4, 28), ("GF4", 4, 44)):
        F = FIELDS[name]
        B = random_unital_algebra(F, n, seed=0)
        assert B.one not in [unit_vec(F, n, j) for j in range(n)]
        compiled = _counted(monkeypatch, type(F), "compile", type(F).compile)
        A = algebra(F, B.table, B.one)
        assert len(compiled) == 1
        kernel = vars(A)["_kernel"]
        rows = inspect.getattr_static(type(kernel), "rows")
        built = _counted(monkeypatch, rows, "func", rows.func)
        A.mul(A.one, A.one)
        A.mul(B.one, random_vector(F, n, random.Random(1)))
        word_spans(A, [A.basis_vector(1)])
        assert length_of_algebra(A).subspaces_examined == subspaces
        assert len(compiled) == len(built) == 1 and vars(A)["_kernel"] is kernel
        C = change_basis(A, complete_to_basis_with_one(A))
        assert len(compiled) == 1 and "_kernel" not in vars(C)
        C.mul(C.one, C.one)
        assert len(compiled) == 2
        monkeypatch.undo()


def test_one_sided_identity_rejected():
    # e_0 is a left identity (row 0 is the basis) but e_1 e_0 = 0
    Q = make_field("Q")
    z, o = Fraction(0), Fraction(1)
    table = [[(o, z), (z, o)], [(z, z), (z, z)]]
    with pytest.raises(InvalidIdentity):
        algebra(Q, table, (o, z))
    with pytest.raises(InvalidIdentity):
        algebra(Q, [[table[j][i] for j in range(2)] for i in range(2)], (o, z))
    # the same shapes over F5, with unreduced int payloads (6 is 1, 5 is 0)
    table = [[(6, 5), (-5, 11)], [(10, 0), (0, -10)]]
    with pytest.raises(InvalidIdentity):
        algebra(PrimeField(5), table, (1, 0))
    with pytest.raises(InvalidIdentity):
        algebra(PrimeField(5), [[table[j][i] for j in range(2)]
                                for i in range(2)], (6, 5))
    # and over GF4, with e_1 e_0 = a e_1 for a generator a
    GF4 = make_field("GF4")
    z, o = GF4.zero, GF4.one
    a = GF4.parse("[0,1]")
    table = [[(o, z), (z, o)], [(z, a), (a, z)]]
    with pytest.raises(InvalidIdentity):
        algebra(GF4, table, (o, z))
    with pytest.raises(InvalidIdentity):
        algebra(GF4, [[table[j][i] for j in range(2)] for i in range(2)], (o, z))


def _moved_identity(F, n, z, rng):
    """A random hull table of dimension n with its identity moved from e_0
    to e_z: coordinates 0 and z swapped in every index and every cell."""
    H = unital_hull(F, [[random_vector(F, n - 1, rng) for _ in range(n - 1)]
                        for _ in range(n - 1)])
    swap = list(range(n))
    swap[0], swap[z] = z, 0
    return [[tuple(H.table[swap[i]][swap[j]][swap[k]] for k in range(n))
             for j in range(n)] for i in range(n)]


def _assert_identity_check_as_reference(F, table, one):
    """`algebra` accepts exactly when one e_j = e_j = e_j one for every j by
    field operations, and otherwise names the first failing j."""
    n = len(table)
    units = [unit_vec(F, n, j) for j in range(n)]
    bad = [j for j, ej in enumerate(units)
           if not reference_mul(F, table, one, ej) == ej == reference_mul(F, table, ej, one)]
    if not bad:
        return algebra(F, table, one)
    with pytest.raises(InvalidIdentity) as raised:
        algebra(F, table, one)
    assert str(raised.value) == f"claimed identity fails on basis vector {bad[0]}"


@pytest.mark.parametrize("name", ["Q", "F2", "F3", "F5", "GF4", "GF9"])
def test_unit_identity_is_checked_on_its_cells(name):
    # one = e_z, z != 0: a table whose row and column z are the e_j is
    # accepted with no product; a cell that differs on the left, on the
    # right or on both falls through to the kernel check, which names the
    # first failing basis vector
    F = FIELDS[name]
    rng = random.Random(f"unit-identity|{name}")
    for n in range(2, 6):
        for z in range(1, n):
            table = _moved_identity(F, n, z, rng)
            one = unit_vec(F, n, z)
            A = _assert_identity_check_as_reference(F, table, one)
            assert "_kernel" not in vars(A)
            assert A.mul(one, one) == one
            for sides in (("left",), ("right",), ("left", "right")):
                bad = [list(row) for row in table]
                for side, j in zip(sides, rng.sample(range(n), len(sides))):
                    wrong = unit_vec(F, n, j)
                    while wrong == unit_vec(F, n, j):
                        wrong = random_vector(F, n, rng)
                    if side == "left":
                        bad[z][j] = wrong
                    else:
                        bad[j][z] = wrong
                _assert_identity_check_as_reference(F, bad, one)


def _conjugated(F, table, one, change):
    """`table` and `one` in the basis of the rows R of `change`, by field
    operations: cell (a, b) is R_a R_b in new coordinates.  `one` need not
    be the table's identity."""
    R, n = change.matrix, len(table)
    return ([[change.to_new(reference_mul(F, table, R[a], R[b])) for b in range(n)]
             for a in range(n)], change.to_new(one))


def test_dense_q_identity_is_checked_as_reference():
    # hidden Q tables: the identity is dense, so the kernel decides in
    # integers; a cell of the identity-first form changed on the left, the
    # right or both fails one e_j = e_j, e_j one = e_j or both, and the
    # check names the first failing j of the field operations
    Q = FIELDS["Q"]
    rng = random.Random("dense-q-identity")
    for n in range(2, 9):
        z = rng.randrange(n)
        table = _moved_identity(Q, n, z, rng)
        change = random_invertible(Q, n, rng)
        hidden, one = _conjugated(Q, table, unit_vec(Q, n, z), change)
        assert one not in [unit_vec(Q, n, j) for j in range(n)]
        A = _assert_identity_check_as_reference(Q, hidden, one)
        assert A.one == one and "_kernel" in vars(A)
        for sides in (("left",), ("right",), ("left", "right")):
            bad = [list(row) for row in table]
            for side, j in zip(sides, rng.sample(range(n), len(sides))):
                wrong = unit_vec(Q, n, j)
                while wrong == unit_vec(Q, n, j):
                    wrong = random_vector(Q, n, rng)
                if side == "left":
                    bad[z][j] = wrong
                else:
                    bad[j][z] = wrong
            assert _assert_identity_check_as_reference(
                Q, *_conjugated(Q, bad, unit_vec(Q, n, z), change)) is None


def test_q_identity_test_matches_the_default():
    # Q's non_unit compares integer dot products; the default Kernel makes
    # the 2n products on the same table.  On hidden tables whose identity
    # holds, or fails on the left, the right or both, they name the same j
    Q = FIELDS["Q"]
    rng = random.Random("q-non-unit")
    found = set()
    for n in range(2, 9):
        z = rng.randrange(n)
        table = _moved_identity(Q, n, z, rng)
        change = random_invertible(Q, n, rng)
        cases = [table]
        for sides in (("left",), ("right",), ("left", "right")):
            bad = [list(row) for row in table]
            for side, j in zip(sides, rng.sample(range(n), len(sides))):
                wrong = unit_vec(Q, n, j)
                while wrong == unit_vec(Q, n, j):
                    wrong = random_vector(Q, n, rng)
                if side == "left":
                    bad[z][j] = wrong
                else:
                    bad[j][z] = wrong
            cases.append(bad)
        for case in cases:
            hidden, one = _conjugated(Q, case, unit_vec(Q, n, z), change)
            kernel = Q.compile(hidden)
            assert type(kernel) is not fields.Kernel
            j = fields.Kernel(Q, hidden).non_unit(one)
            assert kernel.non_unit(one) == j, (n, case)
            found.add(j is None)
    assert found == {True, False}


def _spelled(x, rng):
    """A scalar string of the rational x, often unreduced: 2/4 for 1/2, -0
    or 000 for 0, 007 for 7."""
    a, b = x.as_integer_ratio()
    if a == 0:
        return rng.choice(("0", "-0", "+0", "000"))
    if b == 1 and rng.random() < 0.5:
        return ("-" if a < 0 else "") + "00" + str(abs(a))
    k = rng.choice((1, 2, 6))
    return f"{a * k}/{b * k}"


def test_q_kernel_read_as_integers_matches_the_compiled_one():
    # Rationals.read_table reads a document's integers as written into the
    # kernel Rationals.compile builds from the payloads' integer ratios: the
    # same products of dense, unit and zero vectors, the same identity test
    # and coded rows, and from the integers the same table and its text
    Q = FIELDS["Q"]
    rng = random.Random("q-read-table")
    for n in range(1, 7):
        A = random_unital_algebra(Q, n, seed=n)
        text = [[[_spelled(x, rng) for x in cell] for cell in row] for row in A.table]
        read, compiled = Q.read_table(text, n), Q.compile(A.table)
        vectors = _q_vectors(n, rng) + [A.one]
        for u in vectors:
            for v in vectors:
                assert read.product(u, v) == compiled.product(u, v), (u, v)
        assert read.non_unit(A.one) is None
        for one in vectors:
            assert read.non_unit(one) == compiled.non_unit(one), one
        encode, mul, extend, decode = read.rows
        _, product, echelon, _ = compiled.rows
        products = [product(u, v) for u in vectors for v in vectors[:3]]
        assert [mul(encode(u), encode(v)) for u in vectors for v in vectors[:3]] == products
        assert decode(extend([A.identity_row], [encode(v) for v in products])) == [
            (pivot, list(row)) for pivot, row in echelon([A.identity_row], products)]
        assert "table" not in vars(read)
        assert read.texts() == [[[Q.render(x) for x in cell] for cell in row]
                                for row in A.table]
        assert read.table == A.table
        assert all(type(x) is Fraction for row in read.table for cell in row for x in cell)


def test_a_parsed_q_table_is_built_only_where_it_is_read(tmp_path, capsys, monkeypatch):
    # on a hidden near-miss, check --json decides on the kernel and writes
    # the report's algebra from its integers, and verify-cert reads only the
    # kernel: neither builds the parsed algebra's Fraction table; identities
    # reads the table, and builds it once
    Q = FIELDS["Q"]
    A = near_miss(Q, 6, 1)
    assert A.one not in [unit_vec(Q, 6, j) for j in range(6)]
    doc, report = tmp_path / "doc.json", tmp_path / "report.json"
    doc.write_text(render_document(A))
    table = inspect.getattr_static(fields._RationalKernel, "table")
    built = _counted(monkeypatch, table, "func", table.func)
    assert main(["check", "--json", str(doc)]) == 1
    report.write_text(capsys.readouterr().out)
    assert main(["verify-cert", str(report)]) == 0
    assert built == []
    assert main(["identities", "--json", str(doc)]) == 0
    assert len(built) == 1


@pytest.mark.parametrize("name", ["Q", "F5", "GF4"])
def test_identity_check_makes_no_algebra_product(name, monkeypatch):
    # the check runs on the field's kernel, whose product `mul` then keeps
    F = FIELDS[name]
    B = random_unital_algebra(F, 6, seed=3)
    assert B.one not in [unit_vec(F, 6, j) for j in range(6)]
    products = []
    monkeypatch.setattr(Algebra, "mul", lambda self, u, v: products.append((u, v)))
    A = algebra(F, B.table, B.one)
    assert products == [] and "_kernel" in vars(A)


def _assert_zero_and_one_are_the_fields_own(coords):
    Q = FIELDS["Q"]
    for c in coords:
        assert type(c) is Fraction
        if c == 0:
            assert c is Q.zero
        elif c == 1:
            assert c is Q.one


def test_rationals_kernel_returns_the_fields_own_zero_and_one():
    # a coordinate whose integer sum is 0 or the denominator is Q.zero or
    # Q.one itself, on the scaled-unit paths and the dense one, and on int
    # payloads as on Fractions
    Q = FIELDS["Q"]
    rng = random.Random("q-zero-one")
    for n in range(1, 7):
        A = random_unital_algebra(Q, n, seed=n)
        ints = [[tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(n)]
                for _ in range(n)]
        vectors = _q_vectors(n, rng) + [A.one]
        vectors += [tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(3)]
        for table in (A.table, ints):
            product = Q.bilinear(table)
            for u in vectors:
                for v in vectors:
                    got = product(u, v)
                    assert got == reference_mul(Q, table, u, v), (u, v)
                    _assert_zero_and_one_are_the_fields_own(got)
        for j in range(n):  # one e_j and e_j one are e_j: a one at j, zeros off it
            ej = unit_vec(Q, n, j)
            for got in (A.mul(A.one, ej), A.mul(ej, A.one)):
                assert all(a is b for a, b in zip(got, ej))


@pytest.mark.parametrize("p", [5, 7])
def test_unreduced_identity_check_is_decided_by_the_kernel(p):
    # unreduced cells or an unreduced one are never literally e_j or e_z;
    # the kernel reduces them and accepts or rejects as for their residues
    F = PrimeField(p)
    rng = random.Random(p)
    shift = lambda v: tuple(y + p * rng.randint(-2, 2) for y in v)
    for n in range(2, 6):
        for z in range(n):
            table = _moved_identity(F, n, z, rng)
            unreduced = [[shift(cell) for cell in row] for row in table]
            for one in (unit_vec(F, n, z), shift(unit_vec(F, n, z))):
                for t in (table, unreduced):
                    assert _assert_identity_check_as_reference(F, t, one).one == one
                j = rng.randrange(n)
                bad = [list(row) for row in unreduced]
                bad[j][z] = shift(vec_add(F, unit_vec(F, n, j), unit_vec(F, n, z)))
                _assert_identity_check_as_reference(F, bad, one)
