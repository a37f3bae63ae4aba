"""Decide whether a unital algebra has length one, with checkable certificates.

The decision procedure never trusts itself: every "yes" carries a basis
witness whose transformed multiplication table is re-multiplied and compared
literally against the claimed law, and every "no" carries a concrete pair
(a, b) with a*b outside span{1, a, b}, re-checked by one membership test
before the verdict is returned.  An exhaustive pair oracle (finite fields)
provides a fully independent second route used by the test suite.

Branches:

* dimension 1: the algebra is the scalar line, exact length 0 (verdict yes,
  meaning length <= 1).
* characteristic != 2: check squares of a basis, shift to a basis whose
  non-identity vectors square into F*1, then check the pairwise law
  a_i a_j = alpha_ij 1 + beta_j a_i - beta_i a_j with one beta per vector.
  The pairwise check has three parts: membership of each product in
  span{1, a_i, a_j}, each anticommutator a_i a_j + a_j a_i landing in F*1,
  and the partner-independence of each beta_i.  The last part is implied by
  neither of the first two at dimension >= 4; when only it fails the report
  carries a "gloss-definition-divergence" flag.
* characteristic 2: squares are congruent to gamma_i b_i modulo F*1; after
  rescaling, gamma becomes delta in {0, 1}.  Dimension 3 over the two-element
  field uses the like-indexed relation
  beta_2 + beta_2* + delta_2 = beta_3 + beta_3* + delta_3 and lands in one of
  four normal forms (the fourth covers square-type multiset {0,1,1}, which
  the first three cannot represent); over a proper extension the crossed
  relations beta_2 + beta_2* + delta_3 = 0 = beta_3 + beta_3* + delta_2
  apply and there are three normal forms.  Dimension >= 4 checks
  partner-independence of the two product coefficients plus
  beta_i + beta_i* = delta_i, homogenizes mixed squares, and lands in the
  all-zero-squares or all-idempotent form.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

from .algebra import change_basis, with_identity_first
from .errors import (
    AssemblyError,
    BudgetExceeded,
    CharacteristicNotTwo,
    CharacteristicTwo,
    InfiniteFieldExhaustiveUnsupported,
)
from .length import resolve_budget
from .linalg import BasisChange, span, unit_vec, vec_add, vec_scale


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


@dataclass
class StepFail:
    """Verdict-carrying failure of one decision step (not an error)."""

    condition: str
    pair: tuple  # (left, right) in the coordinates of the step
    detail: dict


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
    sampled: bool
    pairs_checked: int


# ---------------------------------------------------------------------------
# verification (used both by tests and by the decider itself before returning)
# ---------------------------------------------------------------------------

def verify_violation(A, w):
    """True when the recorded pair genuinely violates the span condition."""
    sp = span(A.field, [A.one, w.left, w.right])
    return not sp.contains(A.mul(w.left, w.right))


def verify_special_witness(A, w):
    """Re-multiply the transformed table and compare with the claimed law."""
    field = A.field
    B = change_basis(A, w.change)
    n = B.dim
    e0 = unit_vec(field, n, 0)
    if B.one != e0:
        return False
    if len(w.mu) != n - 1 or len(w.beta) != n - 1:
        return False
    for i in range(1, n):
        sq = B.table[i][i]
        if sq != vec_scale(field, w.mu[i - 1], e0):
            return False
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            p = B.table[i][j]
            expected = vec_scale(field, w.alpha[i - 1][j - 1], e0)
            expected = vec_add(field, expected,
                               vec_scale(field, w.beta[j - 1], B.basis_vector(i)))
            expected = vec_add(field, expected,
                               vec_scale(field, field.neg(w.beta[i - 1]),
                                         B.basis_vector(j)))
            if p != expected:
                return False
    return True


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
    fixed = {
        "dim3-f2-type1": ((zero, zero), (zero, zero), (zero, zero)),
        "dim3-f2-type2": ((one, one), (zero, zero), (zero, zero)),
        "dim3-f2-type3": ((zero, one), (zero, zero), (one, zero)),
        "dim3-f2-type4": ((zero, one), (zero, zero), (zero, one)),
        "dim3-ext-type1": ((zero, zero), (zero, zero), (zero, zero)),
        "dim3-ext-type2": ((one, one), (zero, one), (zero, one)),
        "dim3-ext-type3": ((zero, one), (zero, zero), (zero, one)),
    }
    if form not in fixed:
        raise ValueError(f"unknown char-2 form {form!r}")
    deltas_pair, p12, p21 = fixed[form]
    deltas = list(deltas_pair)
    def pat(i, j):
        return p12 if (i, j) == (1, 2) else p21
    return deltas, pat


def verify_char2_witness(A, w):
    """Check the transformed table matches the named form modulo F*1 exactly."""
    field = A.field
    if field.characteristic() != 2:
        return False
    B = change_basis(A, w.change)
    n = B.dim
    e0 = unit_vec(field, n, 0)
    if B.one != e0:
        return False
    if w.form.startswith("dim3") and n != 3:
        return False
    if w.form in ("type-i", "type-ii") and len(w.beta) != n - 1:
        return False
    deltas, pat = _char2_pattern(w.form, field, w.beta, n)
    zero = field.zero
    for i in range(1, n):
        sq = B.table[i][i]
        if any(sq[k] != zero for k in range(1, n) if k != i):
            return False
        if sq[i] != deltas[i - 1]:
            return False
        if sq[0] != w.square_constants[i - 1]:
            return False
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            p = B.table[i][j]
            if any(p[k] != zero for k in range(1, n) if k not in (i, j)):
                return False
            s_exp, t_exp = pat(i, j)
            if p[i] != s_exp or p[j] != t_exp:
                return False
            if p[0] != w.product_constants[i - 1][j - 1]:
                return False
    return True


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
    or a StepFail naming the first failing index; failure proves length > 1.
    The basis must have the identity as its first row; by default the
    identity is completed to a basis deterministically.
    """
    if basis is None:
        change = _identity_first_change(A)
    else:
        change = BasisChange(A.field, basis)
    B = change_basis(A, change)
    if B.one != unit_vec(A.field, A.dim, 0):
        raise ValueError("basis must start with the identity")
    res = _read_squares(B)
    if isinstance(res, StepFail):
        return _map_fail(res, change)
    return res


def _identity_first_change(A):
    from .algebra import complete_to_basis_with_one
    return complete_to_basis_with_one(A)


def _read_squares(B):
    field = B.field
    n = B.dim
    zero = field.zero
    out = []
    for i in range(1, n):
        sq = B.table[i][i]
        bad = [k for k in range(1, n) if k != i and sq[k] != zero]
        if bad:
            return StepFail(
                condition="square-not-in-span",
                pair=(B.basis_vector(i), B.basis_vector(i)),
                detail={"index": i, "outside_coordinates": bad},
            )
        out.append((sq[0], sq[i]))
    return out


def canonicalize(A, basis, gammas):
    """Basis change to {1, a_i - (gamma_i/2) 1}: squares land in F*1.

    Requires characteristic != 2 (the shift divides by two); the CharacteristicTwo
    error tells the caller to route to the characteristic-2 decider.
    """
    field = A.field
    if field.characteristic() == 2:
        raise CharacteristicTwo("canonical shift divides by two")
    rows = [tuple(basis[0])]
    for idx, g in enumerate(gammas, start=1):
        shift = vec_scale(field, field.neg(field.halve(g)), basis[0])
        rows.append(vec_add(field, tuple(basis[idx]), shift))
    return BasisChange(field, rows)


def special_step(A, basis):
    """Check the pairwise law on a canonical basis; witness or StepFail.

    The basis rows must start with the identity and every non-identity row
    must square into F*1 (i.e. be canonical); a ValueError flags misuse.
    """
    change = BasisChange(A.field, basis)
    B = change_basis(A, change)
    if B.one != unit_vec(A.field, A.dim, 0):
        raise ValueError("basis must start with the identity")
    res = _read_special(B)
    if isinstance(res, StepFail):
        return _map_fail(res, change)
    mu, beta, alpha, gloss = res
    w = SpecialBasisWitness(change=change, mu=mu, beta=beta, alpha=alpha)
    if not verify_special_witness(A, w):
        raise AssemblyError("special witness failed literal re-verification")
    return w


def _read_special(B):
    """Read (mu, beta, alpha) from an identity-first canonical algebra.

    Returns (mu, beta, alpha, gloss_divergence_possible) or StepFail.
    """
    field = B.field
    n = B.dim
    zero = field.zero
    mu = []
    for i in range(1, n):
        sq = B.table[i][i]
        if any(sq[k] != zero for k in range(1, n)):
            raise ValueError("basis is not canonical: a square leaves F*1")
        mu.append(sq[0])
    s = {}
    t = {}
    alpha = {}
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            p = B.table[i][j]
            bad = [k for k in range(1, n) if k not in (i, j) and p[k] != zero]
            if bad:
                return StepFail(
                    condition="product-not-in-span",
                    pair=(B.basis_vector(i), B.basis_vector(j)),
                    detail={"indices": [i, j], "outside_coordinates": bad},
                )
            alpha[(i, j)] = p[0]
            s[(i, j)] = p[i]
            t[(i, j)] = p[j]
    for i in range(1, n):
        for j in range(i + 1, n):
            x_coeff = field.add(s[(i, j)], t[(j, i)])
            y_coeff = field.add(t[(i, j)], s[(j, i)])
            if x_coeff != zero or y_coeff != zero:
                pair = _scalar_square_violation(B, i, j)
                return StepFail(
                    condition="anticommutator-not-scalar",
                    pair=pair,
                    detail={"indices": [i, j]},
                )
    beta = []
    for i in range(1, n):
        vals = {}
        for j in range(1, n):
            if j != i:
                vals.setdefault(t[(i, j)], j)
        if len(vals) > 1:
            (v1, j1), (v2, j2) = list(vals.items())[:2]
            x = vec_add(field, B.basis_vector(j1), B.basis_vector(j2))
            return StepFail(
                condition="pair-coefficient-inconsistent",
                pair=(B.basis_vector(i), x),
                detail={"index": i, "partners": [j1, j2],
                        "gloss_divergence": True},
            )
        if vals:
            beta.append(field.neg(next(iter(vals))))
        else:
            beta.append(zero)
    alpha_matrix = tuple(
        tuple(alpha.get((i, j), zero) for j in range(1, n)) for i in range(1, n)
    )
    return tuple(mu), tuple(beta), alpha_matrix, False


def _scalar_square_violation(B, i, j):
    """A pair (x, x) with x = a_i + c a_j whose square leaves span{1, x}.

    Exists whenever the anticommutator of a_i, a_j leaves F*1 (canonical
    basis, characteristic != 2): c in {1, -1} always suffices, but over a
    finite field every scalar is tried so the returned witness is the first
    in payload order.
    """
    field = B.field
    if field.is_finite():
        candidates = [c for c in field.elements() if c != field.zero]
    else:
        candidates = [field.one, field.neg(field.one)]
    for c in candidates:
        x = vec_add(field, B.basis_vector(i),
                    vec_scale(field, c, B.basis_vector(j)))
        if not span(field, [B.one, x]).contains(B.mul(x, x)):
            return (x, x)
    raise AssemblyError("anticommutator failure produced no square violation")


def _map_fail(fail, change):
    return StepFail(
        condition=fail.condition,
        pair=tuple(change.to_old(v) for v in fail.pair),
        detail=fail.detail,
    )


# ---------------------------------------------------------------------------
# characteristic 2
# ---------------------------------------------------------------------------

def char2_decide(A):
    """Characteristic-2 decision: CharTwoWitness or StepFail (in original coords)."""
    if A.field.characteristic() != 2:
        raise CharacteristicNotTwo("char2_decide needs characteristic 2")
    B, ch0 = with_identity_first(A)
    outcome, path = _char2_inner(B)
    if isinstance(outcome, StepFail):
        return _map_fail(outcome, ch0), path
    w = CharTwoWitness(
        change=ch0.then(outcome.change),
        form=outcome.form,
        beta=outcome.beta,
        square_constants=outcome.square_constants,
        product_constants=outcome.product_constants,
    )
    if not verify_char2_witness(A, w):
        raise AssemblyError("char-2 witness failed literal re-verification")
    return w, path


def _char2_inner(B):
    """Core characteristic-2 decision on an identity-first algebra.

    Returns (CharTwoWitness-in-B-coordinates | StepFail-in-B-coordinates, path).
    """
    field = B.field
    n = B.dim
    path = []
    squares = _read_squares(B)
    if isinstance(squares, StepFail):
        return squares, path + ["squares"]
    gammas = [g for (_, g) in squares]
    path.append("squares≡γ·b")
    # rescale so squares have delta in {0, 1}
    rows = [B.basis_vector(0)]
    for i, g in enumerate(gammas, start=1):
        if g == field.zero:
            rows.append(B.basis_vector(i))
        else:
            rows.append(vec_scale(field, field.inv(g), B.basis_vector(i)))
    rescale = BasisChange(field, rows)
    B2 = change_basis(B, rescale)
    deltas = [field.zero if g == field.zero else field.one for g in gammas]
    path.append("rescale δ∈{0,1}")
    if n == 2:
        form = "type-i" if deltas[0] == field.zero else "type-ii"
        sq = B2.table[1][1]
        local = _LocalWitness(
            change=rescale, form=form, beta=(field.zero,),
            square_constants=(sq[0],), product_constants=((field.zero,),),
        )
        return local, path + ["dim<=2", form]
    prods = _read_products(B2)
    if isinstance(prods, StepFail):
        return prods, path + ["products"]
    s, t, c = prods
    if n == 3:
        if field.is_two_element_field():
            return _char2_dim3_f2(B2, rescale, deltas, s, t, path)
        return _char2_dim3_ext(B2, rescale, deltas, s, t, path)
    return _char2_dim_ge4(B2, rescale, deltas, s, t, path)


@dataclass
class _LocalWitness:
    change: BasisChange
    form: str
    beta: tuple
    square_constants: tuple
    product_constants: tuple


def _read_products(B):
    field = B.field
    n = B.dim
    zero = field.zero
    s, t, c = {}, {}, {}
    for i in range(1, n):
        for j in range(1, n):
            if i == j:
                continue
            p = B.table[i][j]
            bad = [k for k in range(1, n) if k not in (i, j) and p[k] != zero]
            if bad:
                return StepFail(
                    condition="product-not-in-span",
                    pair=(B.basis_vector(i), B.basis_vector(j)),
                    detail={"indices": [i, j], "outside_coordinates": bad},
                )
            s[(i, j)] = p[i]
            t[(i, j)] = p[j]
            c[(i, j)] = p[0]
    return s, t, c


def _finish_dim3(B2, rescale, u, v, s_shift, t_shift, form, path):
    """Apply the class re-pick and the F*1 shifts, then read off constants."""
    field = B2.field
    e0 = B2.basis_vector(0)
    pick = BasisChange(field, [e0, u, v])
    B3 = change_basis(B2, pick)
    shift = BasisChange(field, [
        B3.basis_vector(0),
        vec_add(field, B3.basis_vector(1), vec_scale(field, s_shift, B3.basis_vector(0))),
        vec_add(field, B3.basis_vector(2), vec_scale(field, t_shift, B3.basis_vector(0))),
    ])
    B4 = change_basis(B3, shift)
    total = rescale.then(pick).then(shift)
    sq_consts = []
    deltas_check, pat = _char2_pattern(form, field, (), 3)
    zero = field.zero
    for i in (1, 2):
        sq = B4.table[i][i]
        if any(sq[k] != zero for k in (1, 2) if k != i) or sq[i] != deltas_check[i - 1]:
            raise AssemblyError(f"dim-3 form {form}: square pattern mismatch")
        sq_consts.append(sq[0])
    prod_consts = [[zero, zero], [zero, zero]]
    for (i, j) in ((1, 2), (2, 1)):
        p = B4.table[i][j]
        s_exp, t_exp = pat(i, j)
        if p[i] != s_exp or p[j] != t_exp:
            raise AssemblyError(f"dim-3 form {form}: product pattern mismatch")
        prod_consts[i - 1][j - 1] = p[0]
    local = _LocalWitness(
        change=total, form=form, beta=(),
        square_constants=tuple(sq_consts),
        product_constants=tuple(tuple(r) for r in prod_consts),
    )
    return local, path + [form]


def _char2_dim3_f2(B2, rescale, deltas, s, t, path):
    """Dimension 3 over the two-element field: like-indexed relation, 4 forms."""
    field = B2.field
    path = path + ["dim3-F2"]
    d2, d3 = deltas
    sigma2 = field.add(field.add(s[(1, 2)], t[(2, 1)]), d2)
    sigma3 = field.add(field.add(s[(2, 1)], t[(1, 2)]), d3)
    if sigma2 != sigma3:
        x = vec_add(field, B2.basis_vector(1), B2.basis_vector(2))
        fail = StepFail(
            condition="char2-dim3-relation",
            pair=(x, x),
            detail={"relation": "beta2+beta2*+delta2 != beta3+beta3*+delta3"},
        )
        return _compose_fail(fail, rescale), path + ["relation-failed"]
    sigma = sigma2
    # square types of the three classes b2, b3, b2+b3
    types = [d2, d3, sigma]
    lifts = [
        B2.basis_vector(1),
        B2.basis_vector(2),
        vec_add(field, B2.basis_vector(1), B2.basis_vector(2)),
    ]
    ones = sum(1 for x in types if x == field.one)
    if ones == 0:
        u, v, form = lifts[0], lifts[1], "dim3-f2-type1"
    elif ones == 3:
        u, v, form = lifts[0], lifts[1], "dim3-f2-type2"
    elif ones == 1:
        u = next(l for l, ty in zip(lifts, types) if ty == field.zero)
        v = next(l for l, ty in zip(lifts, types) if ty == field.one)
        form = "dim3-f2-type3"
    else:
        u = next(l for l, ty in zip(lifts, types) if ty == field.zero)
        v = next(l for l, ty in zip(lifts, types) if ty == field.one)
        form = "dim3-f2-type4"
    beta_u, beta_v = _dim3_pair_data(B2, u, v)
    s_shift = beta_v if form != "dim3-f2-type3" else field.add(beta_v, field.one)
    t_shift = beta_u
    local, path = _finish_dim3(B2, rescale, u, v, s_shift, t_shift, form, path)
    return local, path


def _dim3_pair_data(B, u, v):
    """Read (beta_u, beta_v): the self-coefficients of u in uv and of v in vu.

    At dimension 3 the products automatically lie in span{1, u, v} (that is
    the whole algebra for independent u, v), so only coefficients are read.
    """
    field = B.field
    uv = _express(field, [B.one, u, v], B.mul(u, v))
    vu = _express(field, [B.one, u, v], B.mul(v, u))
    if uv is None or vu is None:
        raise AssemblyError("dim-3 product escaped the full space")
    return uv[1], vu[2]


def _express(field, basis_vectors, w):
    """Coefficients of w in terms of the given independent vectors, or None."""
    n = len(w)
    k = len(basis_vectors)
    # augmented system: columns are basis vectors, solve B c = w
    rows = []
    for col in range(n):
        rows.append(tuple(bv[col] for bv in basis_vectors) + (w[col],))
    from .linalg import rref
    reduced, pivots = rref(field, rows)
    sol = [field.zero] * k
    for row, pc in zip(reduced, pivots):
        if pc == k:
            return None
        sol[pc] = row[k]
    # verify (guards underdetermined corner cases)
    acc = (field.zero,) * n
    for c, bv in zip(sol, basis_vectors):
        acc = vec_add(field, acc, vec_scale(field, c, bv))
    if acc != tuple(w):
        return None
    return sol


def _char2_dim3_ext(B2, rescale, deltas, s, t, path):
    """Dimension 3 over a proper extension of F_2: crossed relations.

    Two isomorphism classes exist here, canonically presented as type 1
    (every square congruent to 0) and type 3 (one nil direction, one
    idempotent direction).  A table with both squares idempotent is the
    type-3 algebra in disguise: the crossed relations force
    (a_2 + a_3)^2 ≡ 0, so re-picking a_2 + a_3 as a basis vector lands in
    type 3.  (The type-2 presentation is still accepted when verifying
    externally supplied witnesses.)
    """
    field = B2.field
    path = path + ["dim3-ext"]
    d2, d3 = deltas
    r1 = field.add(field.add(s[(1, 2)], t[(2, 1)]), d3)  # beta2+beta2*+delta3
    r2 = field.add(field.add(s[(2, 1)], t[(1, 2)]), d2)  # beta3+beta3*+delta2
    if r1 != field.zero or r2 != field.zero:
        pair = _ext_relation_violation(B2)
        fail = StepFail(
            condition="char2-dim3-crossed-relation",
            pair=pair,
            detail={"relation": "beta2+beta2*+delta3 = 0 = beta3+beta3*+delta2"},
        )
        return _compose_fail(fail, rescale), path + ["relation-failed"]
    zero, one = field.zero, field.one
    if (d2, d3) == (zero, zero):
        u, v = B2.basis_vector(1), B2.basis_vector(2)
        form = "dim3-ext-type1"
    else:
        if (d2, d3) == (zero, one):
            u, v = B2.basis_vector(1), B2.basis_vector(2)
        elif (d2, d3) == (one, zero):
            u, v = B2.basis_vector(2), B2.basis_vector(1)
        else:
            u = vec_add(field, B2.basis_vector(1), B2.basis_vector(2))
            v = B2.basis_vector(2)
        form = "dim3-ext-type3"
    beta_u, beta_v = _dim3_pair_data(B2, u, v)
    local, path = _finish_dim3(B2, rescale, u, v, beta_v, beta_u, form, path)
    return local, path


def _ext_relation_violation(B2):
    """Find x = b_2 + c b_3 with x^2 outside span{1, x} (crossed relation broke)."""
    field = B2.field
    for cval in field.elements():
        if cval == field.zero:
            continue
        x = vec_add(field, B2.basis_vector(1),
                    vec_scale(field, cval, B2.basis_vector(2)))
        if not span(field, [B2.one, x]).contains(B2.mul(x, x)):
            return (x, x)
    raise AssemblyError("crossed-relation failure produced no square violation")


def _compose_fail(fail, change):
    return StepFail(
        condition=fail.condition,
        pair=tuple(change.to_old(v) for v in fail.pair),
        detail=fail.detail,
    )


def _char2_dim_ge4(B2, rescale, deltas, s, t, path):
    """Dimension >= 4, characteristic 2: coefficient independence + homogenize."""
    field = B2.field
    n = B2.dim
    path = path + ["dim>=4"]
    zero, one = field.zero, field.one
    # (i) the coefficient kept by the second factor depends only on the first
    beta_star = {}
    for i in range(1, n):
        seen = {}
        for j in range(1, n):
            if j != i:
                seen.setdefault(t[(i, j)], j)
        if len(seen) > 1:
            items = list(seen.items())
            j1, j2 = items[0][1], items[1][1]
            x = vec_add(field, B2.basis_vector(j1), B2.basis_vector(j2))
            fail = StepFail(
                condition="char2-right-coefficient-inconsistent",
                pair=(B2.basis_vector(i), x),
                detail={"index": i, "partners": [j1, j2]},
            )
            return _compose_fail(fail, rescale), path + ["condition-i-failed"]
        beta_star[i] = next(iter(seen))
    # (ii) the coefficient kept by the first factor depends only on the second
    beta = {}
    for i in range(1, n):
        seen = {}
        for j in range(1, n):
            if j != i:
                seen.setdefault(s[(j, i)], j)
        if len(seen) > 1:
            items = list(seen.items())
            j1, j2 = items[0][1], items[1][1]
            x = vec_add(field, B2.basis_vector(j1), B2.basis_vector(j2))
            fail = StepFail(
                condition="char2-left-coefficient-inconsistent",
                pair=(x, B2.basis_vector(i)),
                detail={"index": i, "partners": [j1, j2]},
            )
            return _compose_fail(fail, rescale), path + ["condition-ii-failed"]
        beta[i] = next(iter(seen))
    # (iii) beta_i + beta_i* = delta_i
    for i in range(1, n):
        if field.add(beta[i], beta_star[i]) != deltas[i - 1]:
            others = [j for j in range(1, n) if j != i]
            j, k = others[0], others[1]
            left = vec_add(field, B2.basis_vector(i), B2.basis_vector(j))
            right = vec_add(field, B2.basis_vector(i), B2.basis_vector(k))
            fail = StepFail(
                condition="char2-beta-sum-mismatch",
                pair=(left, right),
                detail={"index": i},
            )
            return _compose_fail(fail, rescale), path + ["condition-iii-failed"]
    # homogenize mixed squares: replace delta-0 vectors b_s by b_s + b_w
    total = rescale
    B3 = B2
    if any(d == zero for d in deltas) and any(d == one for d in deltas):
        w = next(i for i in range(1, n) if deltas[i - 1] == one)
        rows = [B2.basis_vector(0)]
        for i in range(1, n):
            if deltas[i - 1] == zero:
                rows.append(vec_add(field, B2.basis_vector(i), B2.basis_vector(w)))
            else:
                rows.append(B2.basis_vector(i))
        hom = BasisChange(field, rows)
        B3 = change_basis(B2, hom)
        total = rescale.then(hom)
        path = path + ["homogenize-squares"]
    # final literal read: squares, products, single beta vector
    sq_consts = []
    final_delta = None
    for i in range(1, n):
        sq = B3.table[i][i]
        if any(sq[k] != zero for k in range(1, n) if k != i):
            raise AssemblyError("homogenized square left its line")
        d = sq[i]
        if final_delta is None:
            final_delta = d
        elif final_delta != d:
            raise AssemblyError("homogenized squares are not uniform")
        sq_consts.append(sq[0])
    prods = _read_products(B3)
    if isinstance(prods, StepFail):
        raise AssemblyError("homogenized products escaped their spans")
    s3, t3, c3 = prods
    beta_final = [None] * (n - 1)
    for j in range(1, n):
        vals = {s3[(i, j)] for i in range(1, n) if i != j}
        if len(vals) != 1:
            raise AssemblyError("final left coefficients are inconsistent")
        beta_final[j - 1] = next(iter(vals))
    for i in range(1, n):
        for j in range(1, n):
            if i != j:
                expected = field.add(beta_final[i - 1], final_delta)
                if t3[(i, j)] != expected:
                    raise AssemblyError("final right coefficients are inconsistent")
    form = "type-i" if final_delta == zero else "type-ii"
    prod_consts = [[zero] * (n - 1) for _ in range(n - 1)]
    for (i, j), val in c3.items():
        prod_consts[i - 1][j - 1] = val
    local = _LocalWitness(
        change=total, form=form, beta=tuple(beta_final),
        square_constants=tuple(sq_consts),
        product_constants=tuple(tuple(r) for r in prod_consts),
    )
    return local, path + [form]


# ---------------------------------------------------------------------------
# top-level decision
# ---------------------------------------------------------------------------

def decide_length_one(A):
    """LengthReport for "does A have length <= 1" with a checkable certificate.

    For dimension >= 2 the verdict equals "length exactly 1"; the dimension-1
    algebra is the scalar line of length 0 and also gets verdict yes, with the
    path saying so.
    """
    field = A.field
    n = A.dim
    path = ["identity-first-basis"]
    flags = []
    if n == 1:
        path.append("dim1: A = F*1, exact length 0")
        return LengthReport(kind="length-one-decision", value=True,
                            certificate=None, path=path, flags=flags)
    if n == 2:
        path.append("dim<=2: always length 1")
    B, ch0 = with_identity_first(A)
    if field.characteristic() != 2:
        path.append("char!=2")
        squares = _read_squares(B)
        if isinstance(squares, StepFail):
            return _violation_report(A, squares, ch0, path + ["step1:squares-failed"], flags)
        path.append("step1:squares-ok")
        gammas = [g for (_, g) in squares]
        shift = canonicalize(B, [B.basis_vector(i) for i in range(n)], gammas)
        C = change_basis(B, shift)
        total = ch0.then(shift)
        path.append("step2:canonical-basis")
        res = _read_special(C)
        if isinstance(res, StepFail):
            if res.detail.get("gloss_divergence"):
                flags.append("gloss-definition-divergence")
            return _violation_report(A, res, total, path + ["step3:not-special"], flags)
        mu, beta, alpha, _ = res
        w = SpecialBasisWitness(change=total, mu=mu, beta=beta, alpha=alpha)
        if not verify_special_witness(A, w):
            raise AssemblyError("special witness failed literal re-verification")
        path.append("step3:special-basis")
        return LengthReport(kind="length-one-decision", value=True,
                            certificate=w, path=path, flags=flags)
    path.append("char2")
    outcome, sub_path = _char2_inner(B)
    path.extend(sub_path)
    if isinstance(outcome, StepFail):
        return _violation_report(A, outcome, ch0, path, flags)
    w = CharTwoWitness(
        change=ch0.then(outcome.change),
        form=outcome.form,
        beta=outcome.beta,
        square_constants=outcome.square_constants,
        product_constants=outcome.product_constants,
    )
    if not verify_char2_witness(A, w):
        raise AssemblyError("char-2 witness failed literal re-verification")
    return LengthReport(kind="length-one-decision", value=True,
                        certificate=w, path=path, flags=flags)


def _violation_report(A, fail, change, path, flags):
    left, right = (change.to_old(v) for v in fail.pair)
    w = ViolationWitness(left=left, right=right, condition=fail.condition,
                         detail=_stringify_detail(fail.detail))
    if not verify_violation(A, w):
        raise AssemblyError(
            f"violation witness for {fail.condition} does not re-verify")
    return LengthReport(kind="length-one-decision", value=False,
                        certificate=w, path=path, flags=flags)


def _stringify_detail(detail):
    out = {}
    for k, v in detail.items():
        if isinstance(v, (list, tuple)):
            out[k] = [str(x) for x in v]
        else:
            out[k] = v if isinstance(v, (int, bool, str)) else str(v)
    return out


# ---------------------------------------------------------------------------
# exhaustive pair oracle
# ---------------------------------------------------------------------------

def _projective_reps(field, m):
    """One representative per line of F_q^m: first nonzero entry is 1, lex order."""
    elems = list(field.elements())
    zero, one = field.zero, field.one
    out = []
    for pos in range(m):
        for tail in itertools.product(elems, repeat=m - pos - 1):
            out.append((zero,) * pos + (one,) + tail)
    return out


def _pair_ok(B, u, v):
    """Membership mul(u, v) in span{1, u, v} for identity-first coordinates.

    The identity absorbs coordinate 0, so the test happens in the quotient;
    a small inlined elimination avoids building Subspace values in the hot
    loop.
    """
    field = B.field
    zero = field.zero
    w = list(B.mul(u, v)[1:])
    rows = []
    for r in (u[1:], v[1:]):
        r = list(r)
        for p, prow in rows:
            c = r[p]
            if c != zero:
                r = [field.sub(a, field.mul(c, b)) for a, b in zip(r, prow)]
        pivot = next((i for i, c in enumerate(r) if c != zero), None)
        if pivot is None:
            continue
        if r[pivot] != field.one:
            inv = field.inv(r[pivot])
            r = [field.mul(inv, a) for a in r]
        rows.append((pivot, r))
    for p, prow in rows:
        c = w[p]
        if c != zero:
            w = [field.sub(a, field.mul(c, b)) for a, b in zip(w, prow)]
    return all(c == zero for c in w)


def oracle_length_one(A, *, budget=None, samples=None, seed=0, witness=True):
    """Exhaustively check mul(a, b) in span{1, a, b} over all pairs.

    The predicate is invariant under translating either argument by a
    multiple of the identity and under scaling either argument, so the
    exhaustive sweep runs over projective representatives of the quotient by
    F*1 (an exactly equivalent reformulation).  When a violation exists the
    lexicographically first violating pair of raw coordinate vectors is
    located by a direct scan and returned as the witness; callers that only
    need the verdict can pass witness=False and skip that scan.

    Over infinite fields only a seeded sampling mode is available
    (`samples=N`); it can prove "no" but never "yes", and the result is
    marked `sampled`.
    """
    field = A.field
    n = A.dim
    if not field.is_finite():
        if samples is None:
            raise InfiniteFieldExhaustiveUnsupported(
                "exhaustive pair enumeration needs a finite field; pass samples=N")
        return _oracle_sampled(A, samples, seed)
    budget = resolve_budget(budget)
    q = field.order()
    if q ** (2 * n) > budget:
        raise BudgetExceeded(
            f"{q}^{2 * n} pairs exceeds budget {budget}")
    B, change = with_identity_first(A)
    reps = _projective_reps(field, n - 1)
    checked = 0
    clean = True
    for x in reps:
        u = (field.zero,) + x
        for y in reps:
            v = (field.zero,) + y
            checked += 1
            if not _pair_ok(B, u, v):
                clean = False
                break
        if not clean:
            break
    if clean:
        return OracleResult(is_length_one=True, witness=None, sampled=False,
                            pairs_checked=checked)
    if not witness:
        return OracleResult(is_length_one=False, witness=None, sampled=False,
                            pairs_checked=checked)
    # locate the lexicographically first violating pair in original coordinates
    elems = list(field.elements())
    one_line = {vec_scale(field, c, A.one) for c in elems}
    for a in itertools.product(elems, repeat=n):
        if a in one_line:
            continue  # scalar left factor: products stay in span{1, b}
        for b in itertools.product(elems, repeat=n):
            if b in one_line:
                continue
            checked += 1
            prod = A.mul(a, b)
            if not span(field, [A.one, a, b]).contains(prod):
                w = ViolationWitness(left=a, right=b,
                                     condition="oracle-pair",
                                     detail={})
                return OracleResult(is_length_one=False, witness=w,
                                    sampled=False, pairs_checked=checked)
    raise AssemblyError("reduced oracle scan and full scan disagree")


def _oracle_sampled(A, samples, seed):
    field = A.field
    n = A.dim
    rng = random.Random(f"oracle|{seed}")
    checked = 0
    for _ in range(samples):
        a = tuple(field.from_int(rng.randint(-9, 9)) for _ in range(n))
        b = tuple(field.from_int(rng.randint(-9, 9)) for _ in range(n))
        checked += 1
        if not span(field, [A.one, a, b]).contains(A.mul(a, b)):
            w = ViolationWitness(left=a, right=b, condition="oracle-pair-sampled",
                                 detail={})
            return OracleResult(is_length_one=False, witness=w, sampled=True,
                                pairs_checked=checked)
    return OracleResult(is_length_one=True, witness=None, sampled=True,
                        pairs_checked=checked)
