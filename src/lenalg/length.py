"""Word-span sequences, lengths of generating sets, exact algebra length.

L_0 is the line spanned by the identity, L_1 adds the generating set, and
L_{i+1} = L_i + sum over p+q = i+1 (p, q >= 1) of span{u*v} with u, v running
over bases of L_p and L_q.  Working with full lower spans instead of exact
word sets is valid because the span of products of two sets equals the span
of products of their spans (bilinearity); it keeps every step polynomial.
All levels live on one echelon list, grown by the echelon routine that
`linalg.in_span` uses: each level appends the residues of its products, so
L_p is spanned by a prefix of the list.  Its payload rows and the canonical
Subspace of the closure are built only when a caller reads them.

Each level multiplies only new rows (semi-naive evaluation, Bancilhon &
Ramakrishnan, SIGMOD 1986).  Let N_1 be the rows of L_1 after the
identity's row and N_p the rows level p appended, so that L_p = F*1 + N_1 +
... + N_p.  Then L_{i+1} = L_i + sum over p+q = i+1 of N_p*N_q: every other
term of L_p*L_q is a product with 1, which lies in L_q or L_p, inside L_i,
or a term of N_p'*N_q' with p' + q' <= i, which lies in L_{p'+q'}, inside
L_i.  Each ordered pair (p, q) is multiplied at exactly one level, p + q,
and the N_p are disjoint parts of at most n - 1 rows, so one call makes at
most (n - 1)^2 products.

The list is held in A's coded rows (`Field.row_kernel`).  Over F2 up to
dim 8 they are bitmasks, and they are exactly the rows `_echelon_extend`
builds on payload lists: a residue's lowest set bit is its first nonzero coordinate, the
pivot `_echelon_extend` picks, and its entry there is already one, the
only nonzero scalar of F2, so the scaling that `_echelon_extend` would do
leaves it as it is; XOR is the row operation v - v[pivot] * row.

Stop rule: the dimension sequence is non-decreasing, and once
dim L_n = dim L_{n+1} = ... = dim L_{2n} holds for some n >= 1 the sequence
is stationary for good, so the first such window ends the iteration.  An
additional early exit fires when L_i reaches the ambient dimension.  The
hard cap 2 * 2^(dim-2) + 2 (stabilization happens by index 2^(dim-2), the
window doubles it) is provably unreachable, so CapExceeded means a bug.

The quotient A/F*1 is enumerated here, one dimension at a time
(`_subspaces`): `length_of_algebra` reads every subspace, and the oracle
and the power sweep read the lines, its dimension-1 layer
(`_quotient_lines`).  `charge` is the one budget gate of every enumeration.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass, field as dc_field

from .algebra import Algebra
from .errors import BudgetExceeded, CapExceeded, InfiniteFieldUnsupported, LenalgError
from .linalg import span

DEFAULT_BUDGET = 10 ** 7


def resolve_budget(budget=None):
    """Explicit argument, else LENALG_BUDGET from the environment, else 10^7.
    A LENALG_BUDGET that is not a non-negative integer is an error."""
    if budget is not None:
        return budget
    env = os.environ.get("LENALG_BUDGET")
    if not env:
        return DEFAULT_BUDGET
    if not env.strip().isdecimal():
        raise LenalgError(f"LENALG_BUDGET must be a non-negative integer, got {env!r}")
    return int(env)


def charge(work, budget, what):
    """The budget (`resolve_budget`) once `work` fits it, else BudgetExceeded
    "{what} exceeds budget {budget}": the one gate of every enumeration."""
    budget = resolve_budget(budget)
    if work > budget:
        raise BudgetExceeded(f"{what} exceeds budget {budget}")
    return budget


def _first_violation(items, fails):
    """(number of items tried, the first item with fails(item), or None)."""
    tried = 0
    for item in items:
        tried += 1
        if fails(item):
            return tried, item
    return tried, None


@dataclass
class WordSpanSequence:
    """The word-span dims [dim L_0, dim L_1, ...] for one generating set.

    `length` is l(S), and `generates` whether S generates all of A.  `rows`
    decodes `coded_rows` when read: one echelon list of (pivot, row) pairs
    whose first dims[p] rows span L_p.  Equality ignores the rows.
    """

    field: object
    dims: list
    stabilized_at: int
    generates: bool
    coded_rows: list = dc_field(compare=False, repr=False)
    decode: object = dc_field(compare=False, repr=False)

    @property
    def length(self):
        return self.dims.index(self.dims[-1])

    @property
    def rows(self):
        return self.decode(self.coded_rows)

    @property
    def closure(self):
        """The generated subalgebra as a canonical Subspace, built when read."""
        return span(self.field, [r for _, r in self.rows])


def _iteration_cap(dim):
    return 2 * (2 ** max(dim - 2, 0)) + 2


def word_spans(A, vectors):
    """Compute the word-span sequence for the set `vectors` (may be empty).

    The echelon list starts with `A.identity_row`, which spans L_0 = F*1; a
    vector with a zero at its pivot L, as every lifted row of
    `length_of_algebra` has, is its own residue against it.  The list is
    kept in A's coded rows (`Field.row_kernel`) and returned so, with the
    kernel's `decode`, which runs only when `rows` or `closure` is read.
    """
    field, n = A.field, A.dim
    encode, mul, extend, decode = A._row_kernel
    coded = [encode(v) for v in vectors]
    last, one = A.identity_row
    rows = [(last, encode(one))]
    dims = [1, len(extend(rows, coded))]
    cap = _iteration_cap(n)
    for i in itertools.count(1):
        if dims[-1] == n:
            # reached the whole algebra; spans are nested so this is final
            return WordSpanSequence(field, dims, dims.index(n), True, rows, decode)
        # stop rule: some m >= 1 has dims constant on the window [m, 2m]
        for m in range(1, (len(dims) - 1) // 2 + 1):
            if dims[m] == dims[2 * m]:
                return WordSpanSequence(field, dims, m, False, rows, decode)
        if i >= cap:
            raise CapExceeded(
                f"word spans did not stabilize within {cap} steps (dim {n})")
        # L_{i+1}: the residues of N_p * N_q; dims[0] = 1 skips the identity
        products = [mul(u, v) for p in range(1, i + 1)
                    for _, u in rows[dims[p - 1]:dims[p]]
                    for _, v in rows[dims[i - p]:dims[i + 1 - p]]]
        dims.append(len(extend(rows, products)))


def length_of_set(A, vectors):
    """l(S), the least k with L_k spanning the generated subalgebra, as the
    `length` of the `word_spans(A, vectors)` it returns.  Not an alias: the
    `perfbench` tracer hooks the two names by object identity."""
    return word_spans(A, vectors)


def gaussian_binomial(m, d, q):
    """Number of d-dimensional subspaces of F_q^m (exact integer)."""
    if d < 0 or d > m:
        return 0
    num = den = 1
    for i in range(d):
        num *= q ** (m - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def count_subspaces(m, q):
    return sum(gaussian_binomial(m, d, q) for d in range(m + 1))


def _subspaces(field, m, d):
    """The d-dimensional subspaces of F_q^m as canonical echelon row tuples,
    by pivot columns, then free entries in payload-lexicographic order: for
    each pivot set, the product of the rows each pivot can head, whose
    entries after the pivot are zero at a pivot column and free elsewhere."""
    elems, zero, one = list(field.elements()), field.zero, field.one
    for pivots in itertools.combinations(range(m), d):
        heads = [[(zero,) * p + (one,) + tail for tail in itertools.product(
            *[(zero,) if c in pivots else elems for c in range(p + 1, m)])]
            for p in pivots]
        yield from itertools.product(*heads)


def enumerate_subspaces(field, m):
    """All subspaces of F_q^m as canonical echelon row tuples, deterministic
    order: by dimension, each as `_subspaces` lists it."""
    for d in range(m + 1):
        yield from _subspaces(field, m, d)


def _lifted(A, rows):
    """Rows of A/F*1 as vectors of A: a zero inserted at L, the pivot of
    `A.identity_row`, so the quotient's coordinates are A's own but for L."""
    last, zero = A.identity_row[0], (A.field.zero,)
    return [r[:last] + zero + r[last:] for r in rows]


def _quotient_lines(A):
    """One vector per line of A/F*1 over F_q, lex order: the dimension-1
    `_subspaces` of the quotient, lifted, so each is zero at L and one at
    its first nonzero entry; there are gaussian_binomial(n - 1, 1, q)."""
    return _lifted(A, (r for (r,) in _subspaces(A.field, A.dim - 1, 1)))


@dataclass
class AlgebraLengthResult:
    """Exact length of a finite-field algebra with the maximizing subspace."""

    length: int
    witness_rows: tuple
    subspaces_examined: int


def length_of_algebra(A, budget=None):
    """Exact l(A) for a finite-field algebra by complete subspace enumeration.

    l(S) only depends on span(S + {1}), so maximizing over all generating
    sets reduces to maximizing over subspaces V containing the identity,
    i.e. over subspaces of the (n-1)-dimensional quotient by F*1, lifted.
    Each enumerated row is `_lifted` into A's own coordinates, so the word
    spans run on A itself and the lift is the witness.
    """
    field = A.field
    if not field.is_finite():
        raise InfiniteFieldUnsupported(
            "exact algebra length needs a finite field (use decide_length_one over Q)")
    n = A.dim
    work = count_subspaces(n - 1, field.order())
    charge(work, budget, f"{work} subspaces to enumerate")
    best, best_rows, examined = -1, None, 0
    for rows in enumerate_subspaces(field, n - 1):
        examined += 1
        lifted = [A.one] + _lifted(A, rows)
        res = length_of_set(A, lifted)
        if res.generates and res.length > best:
            best, best_rows = res.length, tuple(lifted)
    if best < 0:
        raise AssertionError("no generating subspace found; table is corrupt")
    return AlgebraLengthResult(length=best, witness_rows=best_rows,
                               subspaces_examined=examined)


def subalgebra_generated_by(A, vectors):
    """The unital subalgebra generated by `vectors`, as its own Algebra.

    Returns (S, rows) where rows are the canonical basis of the subalgebra
    inside A and S is the induced structure-constant algebra on that basis.
    """
    seq = word_spans(A, vectors)
    closure = seq.closure
    rows = closure.rows
    field = A.field
    d = len(rows)
    table = []
    for u in rows:
        row = []
        for v in rows:
            prod = A.mul(u, v)
            coords = closure.coords(prod)
            if coords is None:
                raise AssertionError("closure is not multiplicatively closed")
            row.append(tuple(coords))
        table.append(tuple(row))
    one_coords = closure.coords(A.one)
    if one_coords is None:
        raise AssertionError("closure lost the identity")
    return Algebra(field=field, table=tuple(table), one=tuple(one_coords)), rows
