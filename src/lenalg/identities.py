"""Exact checkers for commutativity, associativity, flexibility, the Jordan
identity and power-associativity, plus the parameter criteria that hold on a
special-basis witness.

Why basis loops are enough.  Each identity is checked through its
multihomogeneous components, which are multilinear maps; a multilinear map
vanishes on all tuples iff it vanishes on basis tuples, and if every
component vanishes the identity holds for all elements over any field (the
converse uses "enough scalars", so these checkers decide the identity *as a
polynomial law*, which coincides with the pointwise identity whenever the
field is big enough for the degree).

* associativity and commutativity are multilinear as they stand;
* the flexible law x(yx) = (xy)x is quadratic in x: its diagonal components
  are the pair cases F(e_i, e_j) and its mixed components are the linearized
  form e_i(e_j e_k) + e_k(e_j e_i) = (e_i e_j)e_k + (e_k e_j)e_i.  Both
  families are checked; neither needs division, so the decomposition is
  valid in every characteristic;
* the Jordan law x^2(yx) = (x^2 y)x is cubic in x.  Rather than dividing by
  3!, the checker requires the grouped defects D(e_i, y),
  D(e_i + e_j, y) - D(e_i, y) - D(e_j, y) and its e_i - e_j variant, and the
  full inclusion-exclusion over three indices, to vanish; in characteristic
  != 2 (where the Jordan law is defined) this is equivalent to all
  components vanishing.

The checkers share one scan: each is a lazy generator of (counterexample,
defect) cases in sweep order, and `_scan` reports the first case whose
defect is nonzero (`length._first_violation`), so no product past the
first failure is computed.  Counterexamples re-evaluate: each records the
expression that was computed and the nonzero defect vector, so a failed
verdict can be re-checked by one more evaluation.  Power-associativity is
decided exactly too, on `length._quotient_lines` of A/F*1 or on a
`_chart_grid`, whichever the field allows and is smaller.

By certificate.  An algebra of length one is power-associative at every
degree, so the `identities` command reports that from its own
`decide_length_one` verdict and runs no sweep: length one puts x*x in
span{1, x}, so span{1, x} is a unital subalgebra of dimension at most 2,
spanned by 1 and one generator x with x^2 = a*1 + b*x.  Such an algebra is
F[t]/(t^2 - b*t - a), commutative and associative, so every bracketing of
x^k is the same element of it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import CharacteristicTwo
from .length import _first_violation, _quotient_lines, charge, gaussian_binomial
from .linalg import vec_add, vec_is_zero, vec_sub


@dataclass
class IdentityVerdict:
    """Outcome of one identity check, with a re-evaluating counterexample."""

    name: str
    holds: bool
    counterexample: dict | None = None
    defect: tuple | None = None


def _scan(A, name, cases):
    """The verdict of the first case with a nonzero defect, or `holds`."""
    _, bad = _first_violation(cases, lambda case: not vec_is_zero(A.field, case[1]))
    if bad is None:
        return IdentityVerdict(name=name, holds=True)
    return IdentityVerdict(name=name, holds=False, counterexample=bad[0], defect=bad[1])


def _commutator_cases(A):
    t = A.table
    for i, j in itertools.combinations(range(A.dim), 2):
        yield {"kind": "pair", "indices": [i, j]}, vec_sub(A.field, t[i][j], t[j][i])


def is_commutative(A):
    return _scan(A, "commutative", _commutator_cases(A))


def is_associative(A):
    """(e_i e_j) e_k = e_i (e_j e_k) on all basis triples (trilinear)."""
    t = A.table
    e = [A.basis_vector(k) for k in range(A.dim)]
    return _scan(A, "associative", (
        ({"kind": "triple", "indices": [i, j, k]},
         vec_sub(A.field, A.mul(t[i][j], e[k]), A.mul(e[i], t[j][k])))
        for i, j, k in itertools.product(range(A.dim), repeat=3)))


def _flexible_cases(A):
    n, field, t = A.dim, A.field, A.table
    e = [A.basis_vector(k) for k in range(n)]
    for i, j in itertools.product(range(n), repeat=2):
        yield ({"kind": "pair", "indices": [i, j]},
               vec_sub(field, A.mul(e[i], t[j][i]), A.mul(t[i][j], e[i])))
    for i, k in itertools.combinations(range(n), 2):
        for j in range(n):
            lhs = vec_add(field, A.mul(e[i], t[j][k]), A.mul(e[k], t[j][i]))
            rhs = vec_add(field, A.mul(t[i][j], e[k]), A.mul(t[k][j], e[i]))
            yield ({"kind": "linearized-triple", "indices": [i, j, k]},
                   vec_sub(field, lhs, rhs))


def is_flexible(A):
    """x(yx) = (xy)x via diagonal pair cases plus the linearized triples."""
    return _scan(A, "flexible", _flexible_cases(A))


def _jordan_defect(A, x, y, x2, yx):
    """x^2 (y x) - (x^2 y) x, given x^2 and y x."""
    return vec_sub(A.field, A.mul(x2, yx), A.mul(A.mul(x2, y), x))


def _vec_sum(field, vectors):
    return functools.reduce(lambda u, v: vec_add(field, u, v), vectors)


def _jordan_cases(A):
    """x^2 and y x of each case are sums of table cells, since x is a sum
    of at most three basis vectors (minus one in the minus pairs)."""
    n, field, t = A.dim, A.field, A.table
    e = [A.basis_vector(k) for k in range(n)]
    for case, d in _commutator_cases(A):
        yield dict(case, law="commutativity"), d
    for j, i in itertools.product(range(n), repeat=2):
        yield ({"kind": "single", "indices": [i, j]},
               _jordan_defect(A, e[i], e[j], t[i][i], t[j][i]))
    for j in range(n):
        for i, k in itertools.combinations(range(n), 2):
            # plus = C_iik + C_ikk (singles vanish here), minus = -C_iik + C_ikk
            case = {"kind": "mixed-pair", "indices": [i, k, j]}
            ends, cross = vec_add(field, t[i][i], t[k][k]), vec_add(field, t[i][k], t[k][i])
            for sign in (vec_add, vec_sub):
                yield case, _jordan_defect(A, sign(field, e[i], e[k]), e[j],
                                           sign(field, ends, cross),
                                           sign(field, t[j][i], t[j][k]))
    for j in range(n):
        for idx in itertools.combinations(range(n), 3):
            # the scan gets here only once every single and plus pair of the
            # inclusion-exclusion came out zero: the triple defect is the sum
            yield ({"kind": "mixed-triple", "indices": [*idx, j]},
                   _jordan_defect(A, _vec_sum(field, [e[a] for a in idx]), e[j],
                                  _vec_sum(field, [t[a][b] for a in idx for b in idx]),
                                  _vec_sum(field, [t[j][a] for a in idx])))


def is_jordan(A):
    """Commutativity plus the Jordan law, via grouped cubic components.

    Defined only in characteristic != 2, matching the usual convention.
    """
    if A.field.characteristic() == 2:
        raise CharacteristicTwo("the Jordan law is only checked away from 2")
    return _scan(A, "jordan", _jordan_cases(A))


def _first_ambiguity(A, x, d):
    """(k, the two smallest values) for the first k <= d at which the
    parenthesizations of x^k disagree, or None."""
    powers = {1: {x}}
    for k in range(2, d + 1):
        powers[k] = {A.mul(u, v) for p in range(1, k)
                     for u in powers[p] for v in powers[k - p]}
        if len(powers[k]) > 1:
            return k, sorted(powers[k])[:2]
    return None


def _chart_grid(A, d):
    """C(n-2+d, d) points: zero at L, the pivot of `A.identity_row`, and
    (1, t_a2, ..., t_a(n-1)) with a2 + ... + a(n-1) <= d at the other
    coordinates, the nodes t_0 = 0, t_1, ..., t_d being the first d + 1
    field elements in payload order (0, ..., d over Q).

    Why they decide the law up to degree d.  Let H be the vectors zero at
    L, y_1 its first coordinate and z the others.  For k <= d the
    difference D of two bracketings of x^k is a form of degree k on H.
    When every point passes, D(1, z), of degree <= d, vanishes on the lower
    set, which is unisolvent for degree <= d: at z_1 = t_0 the polynomial
    vanishes by induction, so z_1 - t_0 divides it, and the quotient has
    degree <= d - 1 on the lower set over t_1, ..., t_d.  So D(1, z) = 0 as
    a polynomial.  Write D = sum_j y_1^j D_j(z): the D_j have distinct
    degrees, so each is zero, D = 0 on H, and the class argument of
    `is_power_associative_upto` extends that to all of A.  This needs only
    d + 1 distinct nodes, q > d, and then C(n-2+d, d) <= (d+1)^(n-2) <=
    q^(n-2) <= the line count.
    """
    field, n, last = A.field, A.dim, A.identity_row[0]
    nodes = (list(itertools.islice(field.elements(), d + 1)) if field.is_finite()
             else [field.from_int(t) for t in range(d + 1)])
    for a in itertools.combinations_with_replacement(range(n - 1), d):
        x = (field.one,) + tuple(nodes[a.count(i)] for i in range(1, n - 1))
        yield x[:last] + (field.zero,) + x[last:]


def is_power_associative_upto(A, d, *, budget=None):
    """All parenthesizations of x^k agree for k <= d, decided exactly.

    One x per class x ~ c*x + e*1 (c != 0) is enough, because the first
    ambiguous degree is the same for the whole class: a bracketing T of
    (x + e*1)^k expands, 1 being the identity, into T(x) plus e^j times
    bracketings of x^(k-j), j >= 1, and once every bracketing agrees below
    degree k those terms do not depend on T; and T(c*x) = c^k T(x).  The
    field picks the x: over F_q with q <= d, the `_quotient_lines` of A,
    one per class off F*1 (x in F*1 passes); over Q, or F_q with q > d, the
    `_chart_grid`, which is never larger.  `tested` counts them, and a
    failing x is the first that fails.  Before the sweep, the budget
    (`length.charge`) is charged with the d(d-1)/2 products per x of a
    sweep that finds no failure.
    """
    if d < 3:
        raise ValueError("power-associativity starts mattering at degree 3")
    field, n, q = A.field, A.dim, A.field.order()
    lines = q is not None and q <= d
    cost = d * (d - 1) // 2 * (gaussian_binomial(n - 1, 1, q) if lines
                               else math.comb(n - 2 + d, d))
    charge(cost, budget, f"{cost} power products")
    xs = _quotient_lines(A) if lines else _chart_grid(A, d)
    tested, bad = _first_violation(((x, _first_ambiguity(A, x, d)) for x in xs),
                                   lambda case: case[1] is not None)
    if bad is None:
        return IdentityVerdict(
            name="power-associative", holds=True,
            counterexample={"kind": "scope", "tested": tested, "max_degree": d})
    x, (k, two) = bad
    return IdentityVerdict(
        name="power-associative", holds=False,
        counterexample={"kind": "power", "x": x, "degree": k, "values": two},
        defect=vec_sub(field, two[0], two[1]))


# ---------------------------------------------------------------------------
# criteria on special-basis parameters (mu, beta, alpha)
# ---------------------------------------------------------------------------

def flexible_law_holds(field, mu, beta, alpha):
    """Parameter form of flexibility: alpha symmetric, beta_j mu_i = beta_i alpha_ij,
    and beta_h alpha_ij + beta_i alpha_hj = 2 beta_j alpha_ih for distinct i, j, h."""
    m = len(mu)
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            if alpha[i][j] != alpha[j][i]:
                return False
            if field.mul(beta[j], mu[i]) != field.mul(beta[i], alpha[i][j]):
                return False
    two = field.from_int(2)
    for i, j, h in itertools.permutations(range(m), 3):
        lhs = field.add(field.mul(beta[h], alpha[i][j]),
                        field.mul(beta[i], alpha[h][j]))
        rhs = field.mul(two, field.mul(beta[j], alpha[i][h]))
        if lhs != rhs:
            return False
    return True


def associative_law_holds(field, mu, beta, alpha):
    """Parameter form of associativity: mu_i = beta_i^2 and
    alpha_ij = beta_i beta_j = alpha_ji.  At m = 1 a beta has no partner to
    be read from, and F[a]/(a^2 - mu) is associative: nothing is required."""
    m = len(mu)
    if m >= 2 and any(mu[i] != field.mul(beta[i], beta[i]) for i in range(m)):
        return False
    for i in range(m):
        for j in range(m):
            if i == j:
                continue
            bb = field.mul(beta[i], beta[j])
            if alpha[i][j] != bb or alpha[j][i] != bb:
                return False
    return True


def jordan_law_holds(field, mu, beta, alpha):
    """Parameter form of the Jordan/commutative case: all beta zero (a lone
    beta, at m = 1, has no partner and is free), alpha symmetric."""
    m = len(mu)
    if m >= 2 and any(b != field.zero for b in beta):
        return False
    for i in range(m):
        for j in range(i + 1, m):
            if alpha[i][j] != alpha[j][i]:
                return False
    return True
