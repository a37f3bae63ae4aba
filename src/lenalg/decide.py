"""Decide whether a unital algebra has length one, with checkable certificates.

The decision procedure never trusts itself: every "yes" carries a basis
witness, checked by rebuilding the table its parameters claim and comparing
it literally with A's table in the witness basis, and every "no" carries a
concrete pair (a, b) with a*b outside span{1, a, b}, re-checked by one
membership test before the verdict is returned.  A pair oracle (every line
of A/F*1 over a finite field, `length._quotient_lines`; C(n, 2) + 1 basis
lines over Q) is a fully independent second route used by the test suite.

`decide_length_one` is one pipeline composed of the public steps, run on A
itself.  Each stage writes its basis c in A's coordinates and reads A in it
through one `Conjugation`, which computes a cell only when it is first read,
up to the first failing one; the squares step reads only the squares:

* dimension 1: the algebra is the scalar line, exact length 0 (verdict yes,
  meaning length <= 1).
* characteristic != 2: `square_step` checks that squares of the basis lie in
  span{1, a_i}; `canonicalize` shifts to the basis a_i - (gamma_i/2) 1, whose
  non-identity vectors square into F*1; `special_step` checks the pairwise
  law a_i a_j = alpha_ij 1 + beta_j a_i - beta_i a_j with one beta per
  vector.  The pairwise check has three parts: membership of each product in
  span{1, a_i, a_j}, each anticommutator a_i a_j + a_j a_i landing in F*1,
  and the partner-independence of each beta_i.  The last part is implied by
  neither of the first two at dimension >= 4; when only it fails the report
  carries a "gloss-definition-divergence" flag.
* characteristic 2: `char2_decide` matches the table against the normal
  forms.  Squares are congruent to gamma_i b_i modulo F*1; after rescaling,
  gamma becomes delta in {0, 1}.  Dimension 3 over the two-element field
  uses the like-indexed relation
  beta_2 + beta_2* + delta_2 = beta_3 + beta_3* + delta_3 and lands in one of
  four normal forms (the fourth covers square-type multiset {0,1,1}, which
  the first three cannot represent); over a proper extension the crossed
  relations beta_2 + beta_2* + delta_3 = 0 = beta_3 + beta_3* + delta_2
  apply and there are three normal forms.  Dimension >= 4 checks
  partner-independence of the two product coefficients plus
  beta_i + beta_i* = delta_i, homogenizes mixed squares, and lands in the
  all-zero-squares or all-idempotent form.

A step that fails returns the "no" certificate itself: a ViolationWitness
whose pair is built from the rows of the step's basis, so it is already in
A's coordinates.  `_char2_pattern` alone knows the char-2 normal forms.  Each
witness is checked once before it is returned, by rebuilding the table it
claims (`_claimed_table`, as the verifiers do) and comparing it literally
with the table its parameters were read from, its stage's Conjugation.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

from .algebra import (Conjugation, change_basis, complete_to_basis_with_one,
                      identity_first)
from .errors import (
    AssemblyError,
    CharacteristicNotTwo,
    CharacteristicTwo,
    DimensionMismatch,
)
from .length import _first_violation, _quotient_lines, charge, gaussian_binomial
from .linalg import (
    BasisChange,
    in_span,
    unit_vec,
    vec_add,
    vec_scale,
    vec_sub,
)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpecialBasisWitness:
    """Certificate for length one in characteristic != 2.

    `change` maps coordinates in the witness basis {1, a_2..a_n} to the
    original coordinates.  In the witness basis: a_i^2 = mu[i-2] * 1 and
    a_i a_j = alpha[i-2][j-2] * 1 + beta[j-2] a_i - beta[i-2] a_j.
    (Lists are indexed by non-identity position, so a_2 is entry 0.)
    """

    change: BasisChange
    mu: tuple
    beta: tuple
    alpha: tuple


@dataclass(frozen=True)
class CharTwoWitness:
    """Certificate for length one in characteristic 2.

    `form` names the normal form the transformed table matches modulo F*1;
    `beta` is the coefficient vector for the dimension->=4 forms (empty for
    the rigid dimension-3 forms).  The congruence constants record the F*1
    components absorbed by each square and product in the witness basis.
    """

    change: BasisChange
    form: str
    beta: tuple
    square_constants: tuple
    product_constants: tuple


@dataclass(frozen=True)
class ViolationWitness:
    """A pair (left, right) with left*right outside span{1, left, right}."""

    left: tuple
    right: tuple
    condition: str
    detail: dict


StepFail = ViolationWitness  # the failure of one decision step is its certificate


@dataclass
class LengthReport:
    """Uniform machine-readable outcome of the deciders and length engines."""

    kind: str
    value: object
    certificate: object
    path: list
    flags: list


@dataclass
class OracleResult:
    is_length_one: bool
    witness: object
    pairs_checked: int


# ---------------------------------------------------------------------------
# verification (used both by tests and by the decider itself before returning)
# ---------------------------------------------------------------------------

def verify_violation(A, w):
    """True when the recorded pair genuinely violates the span condition."""
    return _sized(A.dim, w.left, w.right) and _violates(A, w.left, w.right)


def _violates(A, a, b):
    """True when a*b lies outside span{1, a, b}."""
    return not in_span(A.field, A.mul(a, b), (A.one, a, b))


def verify_special_witness(A, w):
    """Rebuild the table the witness claims and compare it with A's, conjugated."""
    n = A.dim
    if w.change.dim != n or not _sized(n - 1, w.alpha, w.mu, w.beta, *w.alpha):
        return False
    return change_basis(A, w.change).table == _claimed_table(A.field, w)


def verify_char2_witness(A, w):
    """Rebuild the normal-form table the witness claims and compare it with A's,
    conjugated."""
    field = A.field
    n = A.dim
    if field.characteristic() != 2 or w.change.dim != n or not _sized(
            n - 1, w.square_constants, w.product_constants, *w.product_constants):
        return False
    if w.form.startswith("dim3") and n != 3:
        return False
    if w.form.startswith("dim3-f2") and not field.is_two_element_field():
        return False
    if w.form in ("type-i", "type-ii") and len(w.beta) != n - 1:
        return False
    return change_basis(A, w.change).table == _claimed_table(field, w)


def _claimed_table(field, w):
    """The table a SpecialBasisWitness or CharTwoWitness claims in its basis."""
    if isinstance(w, SpecialBasisWitness):
        return special_table_from_params(field, w.mu, w.beta, w.alpha).table
    return char2_table_from_params(field, w.form, w.beta, w.square_constants,
                                   w.product_constants).table


# Dimension-3 normal forms: (delta_2, delta_3), then (s, t) for a_2 a_3 and
# for a_3 a_2, with 1 standing for the field's one.
_DIM3_FORMS = {
    "dim3-f2-type1": ((0, 0), (0, 0), (0, 0)),
    "dim3-f2-type2": ((1, 1), (0, 0), (0, 0)),
    "dim3-f2-type3": ((0, 1), (0, 0), (1, 0)),
    "dim3-f2-type4": ((0, 1), (0, 0), (0, 1)),
    "dim3-ext-type1": ((0, 0), (0, 0), (0, 0)),
    "dim3-ext-type2": ((1, 1), (0, 1), (0, 1)),
    "dim3-ext-type3": ((0, 1), (0, 0), (0, 1)),
}
CHAR2_FORMS = ("type-i", "type-ii", *_DIM3_FORMS)


def _char2_pattern(form, field, beta, n):
    """Expected (delta_i, (s, t) per ordered pair) for a char-2 normal form.

    s is the coefficient the first factor keeps, t the one the second factor
    keeps, both modulo F*1.
    """
    zero, one = field.zero, field.one
    if form == "type-i":
        deltas = [zero] * (n - 1)
        def pat(i, j):
            return beta[j - 1], beta[i - 1]
        return deltas, pat
    if form == "type-ii":
        deltas = [one] * (n - 1)
        def pat(i, j):
            return beta[j - 1], field.add(one, beta[i - 1])
        return deltas, pat
    if form not in _DIM3_FORMS:
        raise ValueError(f"unknown char-2 form {form!r}")
    deltas, p12, p21 = (tuple(one if c else zero for c in pair)
                        for pair in _DIM3_FORMS[form])
    def pat(i, j):
        return p12 if (i, j) == (1, 2) else p21
    return deltas, pat


def special_table_from_params(field, mu, beta, alpha):
    """Algebra on basis {1, a_2..a_n} with a_i^2 = mu_i 1 and
    a_i a_j = alpha_ij 1 + beta_j a_i - beta_i a_j."""
    n = len(mu) + 1

    def cell(i, j):
        row = [field.zero] * n
        if i == j:
            row[0] = mu[i - 1]
        else:
            row[0] = alpha[i - 1][j - 1]
            row[i] = beta[j - 1]
            row[j] = field.neg(beta[i - 1])
        return row
    return identity_first(field, n, cell)


def char2_table_from_params(field, form, beta, square_constants, product_constants):
    """Algebra realizing a characteristic-2 normal form with given F*1 parts."""
    n = len(square_constants) + 1
    deltas, pat = _char2_pattern(form, field, beta, n)

    def cell(i, j):
        row = [field.zero] * n
        if i == j:
            row[0] = square_constants[i - 1]
            row[i] = deltas[i - 1]
        else:
            row[0] = product_constants[i - 1][j - 1]
            row[i], row[j] = pat(i, j)
        return row
    return identity_first(field, n, cell)


def _sized(m, *vectors):
    """True when every given vector (or matrix, as a list of rows) has m entries."""
    return all(len(v) == m for v in vectors)


def verify_certificate(A, certificate):
    """Dispatch on certificate type; None verifies only for dim-1 algebras."""
    if certificate is None:
        return A.dim == 1
    if isinstance(certificate, SpecialBasisWitness):
        return verify_special_witness(A, certificate)
    if isinstance(certificate, CharTwoWitness):
        return verify_char2_witness(A, certificate)
    if isinstance(certificate, ViolationWitness):
        return verify_violation(A, certificate)
    return False


# ---------------------------------------------------------------------------
# characteristic != 2: squares, canonical shift, pairwise law
# ---------------------------------------------------------------------------

def square_step(A, basis=None):
    """Check a_i^2 in span{1, a_i} for every non-identity basis vector.

    Returns the list of (alpha_i, gamma_i) with a_i^2 = alpha_i 1 + gamma_i a_i,
    or the ViolationWitness (a_i, a_i), in A's coordinates, for the first
    failing index; failure proves length > 1.  The basis (rows or a
    BasisChange) must have the identity as its first row; by default the
    identity is completed to a basis deterministically.  Only the squares
    of the non-identity rows are read, cells (i, i) of A in the basis, in
    order up to the first failing one; the rest of the table is never read.
    """
    cells = _identity_first_cells(
        A, complete_to_basis_with_one(A) if basis is None else basis)
    return _read_squares(A.field, cells.change.matrix,
                         (cells.cell(i, i) for i in range(1, A.dim)))


def _identity_first_cells(A, basis):
    """Conjugation(A, basis) for a basis (rows or a BasisChange) whose first
    row is A's identity; any other basis raises ValueError."""
    cells = Conjugation(A, basis)
    if cells.change.to_new(A.one) != unit_vec(A.field, A.dim, 0):
        raise ValueError("basis must start with the identity")
    return cells


def _read_squares(field, rows, squares):
    """(alpha_i, gamma_i) per non-identity index, or a ViolationWitness, from
    the iterable of the squares of rows[1:], in basis coordinates, read up
    to the first failing one."""
    n, zero = len(rows), field.zero
    out = []
    for i, sq in enumerate(squares, 1):
        bad = [k for k in range(1, n) if k != i and sq[k] != zero]
        if bad:
            return _fail("square-not-in-span", rows[i], rows[i],
                         index=i, outside_coordinates=bad)
        out.append((sq[0], sq[i]))
    return out


def canonicalize(A, basis, gammas):
    """Basis change to {1, a_i - (gamma_i/2) 1}: squares land in F*1.

    `basis` is rows or a BasisChange, whose held inverse is then reused.
    The new rows are E @ basis, with E the identity matrix but for -h_i,
    h_i = gamma_i/2, in column 0 of row i; E^-1 has +h_i there, so the new
    inverse basis^-1 @ E^-1 is basis^-1 with column 0 replaced by
    col_0 + sum_i h_i col_i, written down with no elimination.

    Requires characteristic != 2 (the shift divides by two); the CharacteristicTwo
    error tells the caller to route to the characteristic-2 decider.
    """
    field = A.field
    if field.characteristic() == 2:
        raise CharacteristicTwo("canonical shift divides by two")
    change = BasisChange.of(field, basis)
    if len(gammas) != change.dim - 1:
        raise DimensionMismatch("one gamma per non-identity basis vector")
    rows, halves = change.matrix, [field.halve(g) for g in gammas]
    shifted = [vec_add(field, r, vec_scale(field, field.neg(h), rows[0]))
               for r, h in zip(rows[1:], halves)]
    weights = (field.one, *halves)
    inverse = tuple(
        (functools.reduce(field.add, map(field.mul, row, weights)),) + row[1:]
        for row in change.inverse)
    return BasisChange(field, [rows[0]] + shifted, inverse=inverse)


def special_step(A, basis):
    """Check the pairwise law on a canonical basis; witness or ViolationWitness.

    The basis (rows or a BasisChange) must start with the identity and every
    non-identity row must square into F*1 (i.e. be canonical); a ValueError
    flags misuse.  A's cells in that basis are computed as they are read, up
    to the first failing product.  A witness is checked before it is
    returned: the table its parameters claim must equal A's table in the
    witness basis, the one the parameters were read from.
    """
    cells = _identity_first_cells(A, basis)
    res = _read_special(cells, cells.change.matrix)
    if isinstance(res, ViolationWitness):
        return res
    mu, beta, alpha = res
    w = SpecialBasisWitness(change=cells.change, mu=mu, beta=beta, alpha=alpha)
    if _claimed_table(A.field, w) != cells.algebra.table:
        raise AssemblyError("special witness failed literal re-verification")
    return w


def _read_special(cells, rows):
    """Read (mu, beta, alpha) from the cells of A in the identity-first
    canonical basis `rows`, or a ViolationWitness built from `rows`."""
    field, n = cells.A.field, len(rows)
    zero = field.zero
    mu = []
    for i in range(1, n):
        sq = cells.cell(i, i)
        if any(sq[k] != zero for k in range(1, n)):
            raise ValueError("basis is not canonical: a square leaves F*1")
        mu.append(sq[0])
    prods = _read_products(cells, rows)
    if isinstance(prods, ViolationWitness):
        return prods
    s, t, alpha = prods
    for i, j in itertools.combinations(range(1, n), 2):
        x_coeff = field.add(s[(i, j)], t[(j, i)])
        y_coeff = field.add(t[(i, j)], s[(j, i)])
        if x_coeff != zero or y_coeff != zero:
            return _scalar_square_violation(
                cells.A, rows, i, j, "anticommutator-not-scalar",
                indices=[i, j])
    kept, bad = _partner_values(n, lambda i, j: t[(i, j)], zero)
    if bad:
        i, j1, j2 = bad
        return _fail("pair-coefficient-inconsistent",
                     rows[i], vec_add(field, rows[j1], rows[j2]),
                     index=i, partners=[j1, j2], gloss_divergence=True)
    alpha_matrix = tuple(
        tuple(alpha.get((i, j), zero) for j in range(1, n)) for i in range(1, n)
    )
    return tuple(mu), tuple(field.neg(b) for b in kept), alpha_matrix


def _read_products(cells, rows):
    """(s, t, c) with a_i a_j = c 1 + s a_i + t a_j for i != j, from the cells
    of A in the basis `rows`, or the ViolationWitness (rows[i], rows[j]) of
    the first product outside, after which no cell is computed."""
    field, n = cells.A.field, len(rows)
    zero = field.zero
    s, t, c = {}, {}, {}
    for i, j in itertools.permutations(range(1, n), 2):
        p = cells.cell(i, j)
        bad = [k for k in range(1, n) if k not in (i, j) and p[k] != zero]
        if bad:
            return _fail("product-not-in-span", rows[i], rows[j],
                         indices=[i, j], outside_coordinates=bad)
        s[(i, j)] = p[i]
        t[(i, j)] = p[j]
        c[(i, j)] = p[0]
    return s, t, c


def _partner_values(n, coeff, default):
    """The one value coeff(i, j) takes over the partners j != i, for each i.

    Returns (values, None), with `default` for an index without partners, or
    (None, (i, j1, j2)) for the first i whose first two distinct values come
    from partners j1 and j2.
    """
    values = []
    for i in range(1, n):
        seen = {}
        for j in range(1, n):
            if j != i:
                seen.setdefault(coeff(i, j), j)
        if len(seen) > 1:
            j1, j2 = list(seen.values())[:2]
            return None, (i, j1, j2)
        values.append(next(iter(seen), default))
    return values, None


def _scalar_square_violation(A, rows, i, j, condition, **detail):
    """The ViolationWitness (x, x), x = rows[i] + c rows[j], whose square
    leaves span{1, x}.

    Exists whenever the anticommutator of a_i, a_j leaves F*1 (canonical
    basis, characteristic != 2; c in {1, -1} always suffices) and whenever
    the crossed char-2 dimension-3 relations fail.  c is searched on A: the
    test does not depend on the basis, so it is the first c for e_i + c e_j
    in the basis `rows`.  Over a finite field every scalar is tried so the
    returned witness is the first in payload order.
    """
    field = A.field
    if field.is_finite():
        candidates = [c for c in field.elements() if c != field.zero]
    else:
        candidates = [field.one, field.neg(field.one)]
    for c in candidates:
        x = vec_add(field, rows[i], vec_scale(field, c, rows[j]))
        if _violates(A, x, x):
            return _fail(condition, x, x, **detail)
    raise AssemblyError("relation failure produced no square violation")


def _fail(condition, left, right, **detail):
    """The ViolationWitness (left, right), list details rendered as strings."""
    return ViolationWitness(
        left=left, right=right, condition=condition,
        detail={k: [str(x) for x in v] if isinstance(v, list) else v
                for k, v in detail.items()})


# ---------------------------------------------------------------------------
# characteristic 2
# ---------------------------------------------------------------------------

def char2_decide(A):
    """Characteristic-2 decision: (CharTwoWitness | ViolationWitness, path), in
    A's coordinates."""
    if A.field.characteristic() != 2:
        raise CharacteristicNotTwo("char2_decide needs characteristic 2")
    return _char2_inner(A, complete_to_basis_with_one(A))


def _char2_inner(A, ch0):
    """Core characteristic-2 decision on A, from the identity-first basis ch0.

    Every later basis is written in A's coordinates, as sums of the rows of
    ch0 scaled, and each stage, the squares and the dimension-3 re-pick
    included, reads A in its own basis through one `Conjugation`, up to the
    first failing product.  Returns
    (CharTwoWitness | ViolationWitness, path), in A's coordinates.
    """
    field = A.field
    n = A.dim
    path = []
    squares = square_step(A, ch0)
    if isinstance(squares, ViolationWitness):
        return squares, path + ["squares"]
    gammas = [g for (_, g) in squares]
    path.append("squares≡γ·b")
    # rescale so squares have delta in {0, 1}: row i of ch0 scaled by
    # 1/gamma_i, so the inverse is ch0's with column i scaled by gamma_i
    weights = [field.one] + [field.one if g == field.zero else g for g in gammas]
    rows = [r if w == field.one else vec_scale(field, field.inv(w), r)
            for r, w in zip(ch0.matrix, weights)]
    cells = Conjugation(A, BasisChange(field, rows, inverse=tuple(
        tuple(map(field.mul, row, weights)) for row in ch0.inverse)))
    deltas = [field.zero if g == field.zero else field.one for g in gammas]
    path.append("rescale δ∈{0,1}")
    if n == 2:
        form = "type-i" if deltas[0] == field.zero else "type-ii"
        return (_char2_witness(cells, form, (field.zero,)),
                path + ["dim<=2", form])
    prods = _read_products(cells, rows)
    if isinstance(prods, ViolationWitness):
        return prods, path + ["products"]
    s, t, c = prods
    if n == 3:
        if field.is_two_element_field():
            return _char2_dim3_f2(A, rows, deltas, s, t, path)
        return _char2_dim3_ext(A, rows, deltas, s, t, path)
    return _char2_dim_ge4(A, cells, deltas, s, t, path)


def _char2_witness(cells, form, beta):
    """CharTwoWitness for `form` with the F*1 constants read from `cells`, a
    Conjugation of A; the table it claims is rebuilt and compared literally
    with cells.algebra, the table it was read from, and a mismatch raises
    AssemblyError."""
    field, r = cells.A.field, range(1, cells.A.dim)
    w = CharTwoWitness(
        change=cells.change, form=form, beta=tuple(beta),
        square_constants=tuple(cells.cell(i, i)[0] for i in r),
        product_constants=tuple(
            tuple(cells.cell(i, j)[0] if i != j else field.zero for j in r)
            for i in r),
    )
    if _claimed_table(field, w) != cells.algebra.table:
        raise AssemblyError("char-2 witness failed literal re-verification")
    return w


def _finish_dim3(A, u, v, form, path):
    """Re-pick the basis as {1, u, v} (u, v in A's coordinates), shift u and
    v by F*1 into `form`."""
    field, one = A.field, A.one
    pick = Conjugation(A, [one, u, v])
    # with u' = u + s 1 and v' = v + t 1, u' keeps beta_u + t in u'v' and v'
    # keeps beta_v + s in v'u'; choose s, t so that these match the form,
    # reading beta_v and beta_u from vu and uv written in the basis {1, u, v}
    _, pat = _char2_pattern(form, field, (), 3)
    s = field.add(pick.cell(2, 1)[2], pat(2, 1)[0])
    t = field.add(pick.cell(1, 2)[1], pat(1, 2)[0])
    total = Conjugation(A, [one, vec_add(field, u, vec_scale(field, s, one)),
                            vec_add(field, v, vec_scale(field, t, one))])
    return _char2_witness(total, form, ()), path + [form]


def _char2_dim3_f2(A, rows, deltas, s, t, path):
    """Dimension 3 over the two-element field: like-indexed relation, 4 forms."""
    field = A.field
    path = path + ["dim3-F2"]
    d2, d3 = deltas
    sigma2 = field.add(field.add(s[(1, 2)], t[(2, 1)]), d2)
    sigma3 = field.add(field.add(s[(2, 1)], t[(1, 2)]), d3)
    both = vec_add(field, rows[1], rows[2])
    if sigma2 != sigma3:
        return (_fail("char2-dim3-relation", both, both,
                      relation="beta2+beta2*+delta2 != beta3+beta3*+delta3"),
                path + ["relation-failed"])
    # square types of the three classes b2, b3, b2+b3
    types = [d2, d3, sigma2]
    lifts = [rows[1], rows[2], both]
    ones = sum(1 for x in types if x == field.one)
    if ones in (0, 3):
        u, v = lifts[0], lifts[1]
    else:
        u = next(l for l, ty in zip(lifts, types) if ty == field.zero)
        v = next(l for l, ty in zip(lifts, types) if ty == field.one)
    form = f"dim3-f2-type{(1, 3, 4, 2)[ones]}"
    return _finish_dim3(A, u, v, form, path)


def _char2_dim3_ext(A, rows, deltas, s, t, path):
    """Dimension 3 over a proper extension of F_2: crossed relations.

    Two isomorphism classes exist here, canonically presented as type 1
    (every square congruent to 0) and type 3 (one nil direction, one
    idempotent direction).  A table with both squares idempotent is the
    type-3 algebra in disguise: the crossed relations force
    (a_2 + a_3)^2 ≡ 0, so re-picking a_2 + a_3 as a basis vector lands in
    type 3.  (The type-2 presentation is still accepted when verifying
    externally supplied witnesses.)
    """
    field = A.field
    path = path + ["dim3-ext"]
    d2, d3 = deltas
    r1 = field.add(field.add(s[(1, 2)], t[(2, 1)]), d3)  # beta2+beta2*+delta3
    r2 = field.add(field.add(s[(2, 1)], t[(1, 2)]), d2)  # beta3+beta3*+delta2
    if r1 != field.zero or r2 != field.zero:
        return (_scalar_square_violation(
                    A, rows, 1, 2, "char2-dim3-crossed-relation",
                    relation="beta2+beta2*+delta3 = 0 = beta3+beta3*+delta2"),
                path + ["relation-failed"])
    zero, one = field.zero, field.one
    u, v = rows[1], rows[2]
    if (d2, d3) == (one, zero):
        u, v = v, u
    elif (d2, d3) == (one, one):
        u = vec_add(field, rows[1], rows[2])
    form = "dim3-ext-type1" if (d2, d3) == (zero, zero) else "dim3-ext-type3"
    return _finish_dim3(A, u, v, form, path)


def _char2_dim_ge4(A, cells, deltas, s, t, path):
    """Dimension >= 4, characteristic 2: coefficient independence + homogenize,
    from `cells`, the rescaled basis's Conjugation that s and t were read from."""
    field = A.field
    n = A.dim
    rows = cells.change.matrix
    plus = lambda i, j: vec_add(field, rows[i], rows[j])
    path = path + ["dim>=4"]
    zero, one = field.zero, field.one
    # (i) the coefficient kept by the second factor depends only on the first
    beta_star, bad = _partner_values(n, lambda i, j: t[(i, j)], None)
    if bad:
        i, j1, j2 = bad
        return (_fail("char2-right-coefficient-inconsistent", rows[i], plus(j1, j2),
                      index=i, partners=[j1, j2]),
                path + ["condition-i-failed"])
    # (ii) the coefficient kept by the first factor depends only on the second
    beta, bad = _partner_values(n, lambda i, j: s[(j, i)], None)
    if bad:
        i, j1, j2 = bad
        return (_fail("char2-left-coefficient-inconsistent", plus(j1, j2), rows[i],
                      index=i, partners=[j1, j2]),
                path + ["condition-ii-failed"])
    # (iii) beta_i + beta_i* = delta_i
    for i in range(1, n):
        if field.add(beta[i - 1], beta_star[i - 1]) != deltas[i - 1]:
            j, k = [j for j in range(1, n) if j != i][:2]
            return (_fail("char2-beta-sum-mismatch", plus(i, j), plus(i, k),
                          index=i),
                    path + ["condition-iii-failed"])
    # homogenize mixed squares: replace delta-0 rows b_s by b_s + b_w
    if zero in deltas and one in deltas:
        w = deltas.index(one) + 1
        cells = Conjugation(A, [rows[0]] + [
            plus(i, w) if deltas[i - 1] == zero else rows[i] for i in range(1, n)])
        path = path + ["homogenize-squares"]
    # beta_j is the coefficient a_i keeps in a_i a_j, for any partner i
    beta = [cells.cell(2 if j == 1 else 1, j)[2 if j == 1 else 1]
            for j in range(1, n)]
    form = "type-ii" if one in deltas else "type-i"
    return _char2_witness(cells, form, beta), path + [form]


# ---------------------------------------------------------------------------
# top-level decision
# ---------------------------------------------------------------------------

def decide_length_one(A):
    """LengthReport for "does A have length <= 1" with a checkable certificate.

    For dimension >= 2 the verdict equals "length exactly 1"; the dimension-1
    algebra is the scalar line of length 0 and also gets verdict yes, with the
    path saying so.
    """
    n = A.dim
    path = ["identity-first-basis"]
    flags = []
    if n == 1:
        path.append("dim1: A = F*1, exact length 0")
        return _report(A, None, path, flags)
    if n == 2:
        path.append("dim<=2: always length 1")
    if A.field.characteristic() == 2:
        path.append("char2")
        outcome, sub_path = char2_decide(A)
        return _report(A, outcome, path + sub_path, flags)
    path.append("char!=2")
    ch0 = complete_to_basis_with_one(A)
    squares = square_step(A, ch0)
    if isinstance(squares, ViolationWitness):
        return _report(A, squares, path + ["step1:squares-failed"], flags)
    path += ["step1:squares-ok"]
    shift = canonicalize(A, ch0, [g for (_, g) in squares])
    path += ["step2:canonical-basis"]
    w = special_step(A, shift)
    if isinstance(w, ViolationWitness):
        if w.detail.get("gloss_divergence"):
            flags.append("gloss-definition-divergence")
        return _report(A, w, path + ["step3:not-special"], flags)
    return _report(A, w, path + ["step3:special-basis"], flags)


def _report(A, outcome, path, flags):
    """The LengthReport for a witness (verdict yes) or a ViolationWitness
    (verdict no), which is re-checked on A before the report is built."""
    if isinstance(outcome, ViolationWitness) and not verify_violation(A, outcome):
        raise AssemblyError(
            f"violation witness for {outcome.condition} does not re-verify")
    return LengthReport(kind="length-one-decision",
                        value=not isinstance(outcome, ViolationWitness),
                        certificate=outcome, path=path, flags=flags)


# ---------------------------------------------------------------------------
# pair oracle
# ---------------------------------------------------------------------------

def _pair_ok(A, u, v):
    """Membership mul(u, v) in span{1, u, v}: the oracle's pair test."""
    return not _violates(A, u, v)


def _line_ok(A, u):
    """True when mul(u, v) lies in span{1, u, v} for every v.

    u is a projective representative: zero at L, the pivot of
    `A.identity_row`, and a one at its first nonzero entry, its pivot p.
    By linearity the condition holds exactly when u^2 lies in span{1, u}
    and v -> u*v mod span{1, u} is a scalar map on W = A/span{1, u}: a
    linear map under which every vector is an eigenvector is a scalar, over
    every field.  The e_k with k not L or p give a basis of W, so this costs
    n - 1 products: u^2, and u*e_k reduced by the rows of 1 and u must be
    lambda*e_k for one common lambda.  A residue is zero at L and p, so
    counting its zeros tests every other coordinate at once.
    """
    field, n, zero = A.field, A.dim, A.field.zero
    p = next(k for k, c in enumerate(u) if c != zero)
    rows = (A.identity_row, (p, u))
    pivots = (A.identity_row[0], p)
    if field.eliminate(A.mul(u, u), rows).count(zero) != n:
        return False
    lam = None
    for k in range(n):
        if k in pivots:
            continue
        r = field.eliminate(A.mul(u, A.basis_vector(k)), rows)
        if lam is None:
            lam = r[k]
        if r[k] != lam or r.count(zero) != n - (lam != zero):
            return False
    return True


def _basis_lines(field, n, L):
    """The lines the oracle tests over Q, zero at L: the e_k (k != L), the
    e_k + e_l (k < l), then e_a - e_b for the first such pair.

    `_line_ok` passes on all of them exactly when A has length one.  They
    span H, the vectors zero at L, a complement of F*1.
    * n >= 4.  The 4x4 minors P(u, v) of the n x 4 matrix [1, u, v, u*v]
      vanish exactly when u*v lies in span{1, u, v} or 1, u, v are
      dependent.  Each is a form of degree 2 in u and in v, unchanged by
      u -> u + c*1 (column operations).  A passing line u makes P(u, v) = 0
      for every v; a quadratic form is fixed by its values at the e_i and
      e_i + e_j over any field (polarization), so P(u, .) is zero.  Each
      coefficient of P is thus a quadratic form in u that vanishes at the
      e_k and e_k + e_l of H, hence on H, and by the invariance everywhere:
      P = 0, so u*v lies in span{1, u, v} when 1, u, v are independent.
      For u off F*1 and 1, u, w independent, u*(u + w) and u*w lie in
      span{1, u, w}, so u^2 does; at n >= 4 two such spans meet in
      span{1, u}, which thus holds u^2: the dependent pairs pass too.
    * n = 3.  span{1, u, v} = A unless v lies in span{1, u}, so length one
      means u^2 in span{1, u} for u in H: the zeros of the binary cubic
      det[1, u, u^2], which has at most 3 projective zeros unless it is
      zero.  e_a, e_b, e_a + e_b and e_a - e_b are 4, outside char 2.
    * n <= 2.  span{1, u} = A, so every line passes and A has length one.
    """
    e = [unit_vec(field, n, k) for k in range(n) if k != L]
    pairs = list(itertools.combinations(e, 2))
    return (e + [vec_add(field, u, v) for u, v in pairs]
            + [vec_sub(field, u, v) for u, v in pairs[:1]])


def oracle_length_one(A, *, budget=None, witness=True):
    """Check mul(a, b) in span{1, a, b} over all pairs, line by line.

    The predicate is invariant under translating either argument by a
    multiple of the identity and under scaling either argument, so the
    sweep runs over lines of the quotient by F*1, in A's own coordinates:
    vectors with a zero at L, the pivot of `A.identity_row`.  Over a finite
    field they are every line, `length._quotient_lines` (an exactly equivalent
    reformulation), over Q the `_basis_lines`, which decide length one by
    the proof in their docstring.  By linearity the sweep tests each left
    factor u once for all its partners (`_line_ok`, n - 1 products).  On a
    failing line the partners among the lines are scanned pair by pair
    (`_pair_ok`), so `pairs_checked` is the position of the first violating
    pair in the sweep over all pairs of lines, and that whole count on a
    yes-instance; `length.charge` gates it before the sweep starts.
    Over Q that pair is the witness; over a finite field `_raw_witness`
    re-scans for one, unless witness=False asks for the verdict only.
    """
    field, n, q = A.field, A.dim, A.field.order()
    basis = () if q else _basis_lines(field, n, A.identity_row[0])
    lines = gaussian_binomial(n - 1, 1, q) if q else len(basis)
    budget = charge(lines ** 2, budget, f"{lines ** 2} pair checks")
    reps = _quotient_lines(A) if q else basis
    i, u = _first_violation(reps, lambda u: not _line_ok(A, u))
    if u is None:
        return OracleResult(True, None, lines ** 2)
    j, bad = _first_violation(((u, v) for v in reps),
                              lambda uv: not _pair_ok(A, *uv))
    if bad is None:
        raise AssemblyError("line test and pair test disagree")
    checked = (i - 1) * lines + j
    if q:
        if not witness:
            return OracleResult(False, None, checked)
        tried, bad = _raw_witness(A, q, budget)
        checked += tried
    return OracleResult(False, ViolationWitness(*bad, "oracle-pair", {}), checked)


def _raw_witness(A, q, budget):
    """(pairs tried, pair): the lexicographically first violating pair of raw
    vectors off F*1 when A over F_q is not length one: the first raw a whose
    line fails (line verdicts memoised by projective class), then the first
    b for a.  That walks at most q^n vectors on each side, one side at a
    time, none stored, so q^n must fit the budget.  `_first_violation` runs
    all three scans: lines, raw left factors and the partners of one a.
    """
    field, n = A.field, A.dim
    charge(q ** n, budget, f"witness re-scan of {q}^{n} raw vectors")
    elems = list(field.elements())
    # a scalar factor keeps the product in span{1, a, b}: skip the line F*1
    one_line = {vec_scale(field, c, A.one) for c in elems}
    raw = lambda: (a for a in itertools.product(elems, repeat=n)
                   if a not in one_line)
    line_ok = functools.cache(lambda u: _line_ok(A, u))

    def line_fails(a):
        # a's line: its residue by the identity's row, scaled to a leading one
        x = field.eliminate(a, (A.identity_row,))
        c = next(c for c in x if c != field.zero)
        return not line_ok(vec_scale(field, field.inv(c), x))

    before, a = _first_violation(raw(), line_fails)
    if a is None:
        raise AssemblyError("reduced oracle scan and full scan disagree")
    tried, bad = _first_violation(((a, b) for b in raw()),
                                  lambda ab: _violates(A, *ab))
    if bad is None:
        raise AssemblyError("line test and pair test disagree")
    return (before - 1) * (q ** n - q) + tried, bad
