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

Counterexamples re-evaluate: each records the expression that was computed
and the nonzero defect vector, so a failed verdict can be re-checked by one
more evaluation.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from .errors import CharacteristicTwo
from .linalg import vec_add, vec_is_zero, vec_sub


@dataclass
class IdentityVerdict:
    """Outcome of one identity check, with a re-evaluating counterexample."""

    name: str
    holds: bool
    counterexample: dict | None = None
    defect: tuple | None = None


def is_commutative(A):
    n = A.dim
    for i in range(n):
        for j in range(i + 1, n):
            d = vec_sub(A.field, A.table[i][j], A.table[j][i])
            if not vec_is_zero(A.field, d):
                return IdentityVerdict(
                    name="commutative", holds=False,
                    counterexample={"kind": "pair", "indices": [i, j]},
                    defect=d)
    return IdentityVerdict(name="commutative", holds=True)


def is_associative(A):
    """(e_i e_j) e_k = e_i (e_j e_k) on all basis triples (trilinear)."""
    n = A.dim
    basis = [A.basis_vector(k) for k in range(n)]
    for i in range(n):
        ei = basis[i]
        for j in range(n):
            pij = A.table[i][j]
            for k in range(n):
                d = vec_sub(A.field, A.mul(pij, basis[k]), A.mul(ei, A.table[j][k]))
                if not vec_is_zero(A.field, d):
                    return IdentityVerdict(
                        name="associative", holds=False,
                        counterexample={"kind": "triple", "indices": [i, j, k]},
                        defect=d)
    return IdentityVerdict(name="associative", holds=True)


def _flex_defect(A, x, y):
    return vec_sub(A.field, A.mul(x, A.mul(y, x)), A.mul(A.mul(x, y), x))


def is_flexible(A):
    """x(yx) = (xy)x via diagonal pair cases plus the linearized triples."""
    n = A.dim
    field = A.field
    for i in range(n):
        for j in range(n):
            d = _flex_defect(A, A.basis_vector(i), A.basis_vector(j))
            if not vec_is_zero(field, d):
                return IdentityVerdict(
                    name="flexible", holds=False,
                    counterexample={"kind": "pair", "indices": [i, j]},
                    defect=d)
    for i in range(n):
        ei = A.basis_vector(i)
        for k in range(i + 1, n):
            ek = A.basis_vector(k)
            for j in range(n):
                ej = A.basis_vector(j)
                lhs = vec_add(field, A.mul(ei, A.mul(ej, ek)),
                              A.mul(ek, A.mul(ej, ei)))
                rhs = vec_add(field, A.mul(A.mul(ei, ej), ek),
                              A.mul(A.mul(ek, ej), ei))
                d = vec_sub(field, lhs, rhs)
                if not vec_is_zero(field, d):
                    return IdentityVerdict(
                        name="flexible", holds=False,
                        counterexample={"kind": "linearized-triple",
                                        "indices": [i, j, k]},
                        defect=d)
    return IdentityVerdict(name="flexible", holds=True)


def _jordan_defect(A, x, y):
    x2 = A.mul(x, x)
    return vec_sub(A.field, A.mul(x2, A.mul(y, x)), A.mul(A.mul(x2, y), x))


def is_jordan(A):
    """Commutativity plus the Jordan law, via grouped cubic components.

    Defined only in characteristic != 2, matching the usual convention.
    """
    field = A.field
    if field.characteristic() == 2:
        raise CharacteristicTwo("the Jordan law is only checked away from 2")
    comm = is_commutative(A)
    if not comm.holds:
        comm.name = "jordan"
        comm.counterexample = dict(comm.counterexample, law="commutativity")
        return comm
    n = A.dim
    singles = {}
    for j in range(n):
        y = A.basis_vector(j)
        for i in range(n):
            d = _jordan_defect(A, A.basis_vector(i), y)
            singles[(i, j)] = d
            if not vec_is_zero(field, d):
                return IdentityVerdict(
                    name="jordan", holds=False,
                    counterexample={"kind": "single", "indices": [i, j]},
                    defect=d)
    for j in range(n):
        y = A.basis_vector(j)
        for i in range(n):
            ei = A.basis_vector(i)
            for k in range(i + 1, n):
                ek = A.basis_vector(k)
                plus = _jordan_defect(A, vec_add(field, ei, ek), y)
                minus = _jordan_defect(A, vec_sub(field, ei, ek), y)
                # plus = C_iik + C_ikk (singles vanish here), minus = -C_iik + C_ikk
                if not vec_is_zero(field, plus) or not vec_is_zero(field, minus):
                    return IdentityVerdict(
                        name="jordan", holds=False,
                        counterexample={"kind": "mixed-pair",
                                        "indices": [i, k, j]},
                        defect=plus if not vec_is_zero(field, plus) else minus)
    for j in range(n):
        y = A.basis_vector(j)
        for i, k, l in itertools.combinations(range(n), 3):
            ei, ek, el = A.basis_vector(i), A.basis_vector(k), A.basis_vector(l)
            total = _jordan_defect(A, vec_add(field, vec_add(field, ei, ek), el), y)
            for a, b in ((ei, ek), (ei, el), (ek, el)):
                total = vec_sub(field, total, _jordan_defect(A, vec_add(field, a, b), y))
            for a in (ei, ek, el):
                total = vec_add(field, total, _jordan_defect(A, a, y))
            if not vec_is_zero(field, total):
                return IdentityVerdict(
                    name="jordan", holds=False,
                    counterexample={"kind": "mixed-triple",
                                    "indices": [i, k, l, j]},
                    defect=total)
    return IdentityVerdict(name="jordan", holds=True)


def is_power_associative_upto(A, d, *, budget=None, samples=100, seed=0):
    """All parenthesizations of x^k agree for k <= d.

    The x loop is exhaustive over finite fields when q^dim stays within the
    (small) exhaustion cap, otherwise seeded random sampling is used; over Q
    sampling is the only mode, so a holds-verdict there is evidence, not
    proof.
    """
    if d < 3:
        raise ValueError("power-associativity starts mattering at degree 3")
    field = A.field
    n = A.dim
    xs = None
    exhaustive = False
    if field.is_finite():
        cap = budget if budget is not None else 4096
        if field.order() ** n <= cap:
            xs = [tuple(v) for v in itertools.product(field.elements(), repeat=n)]
            exhaustive = True
    if xs is None:
        rng = random.Random(f"powerassoc|{seed}")
        if field.is_finite():
            elems = list(field.elements())
            xs = [tuple(elems[rng.randrange(len(elems))] for _ in range(n))
                  for _ in range(samples)]
        else:
            xs = [tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3))
                        for _ in range(n)) for _ in range(samples)]
    for x in xs:
        powers = {1: {x}}
        for k in range(2, d + 1):
            values = set()
            for p in range(1, k):
                for u in powers[p]:
                    for v in powers[k - p]:
                        values.add(A.mul(u, v))
            powers[k] = values
            if len(values) > 1:
                two = sorted(values)[:2]
                return IdentityVerdict(
                    name="power-associative", holds=False,
                    counterexample={"kind": "power", "x": x, "degree": k,
                                    "values": two, "exhaustive": exhaustive},
                    defect=vec_sub(field, two[0], two[1]))
    return IdentityVerdict(
        name="power-associative", holds=True,
        counterexample={"kind": "scope", "exhaustive": exhaustive,
                        "tested": len(xs), "max_degree": d})


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
    alpha_ij = beta_i beta_j = alpha_ji."""
    m = len(mu)
    for i in range(m):
        if mu[i] != field.mul(beta[i], beta[i]):
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
    """Parameter form of the Jordan/commutative case: all beta zero, alpha symmetric."""
    m = len(mu)
    if any(b != field.zero for b in beta):
        return False
    for i in range(m):
        for j in range(i + 1, m):
            if alpha[i][j] != alpha[j][i]:
                return False
    return True
