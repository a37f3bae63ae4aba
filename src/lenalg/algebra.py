"""Structure-constant algebras: multiplication, identity detection, basis change.

An Algebra is a dense table c[i][j] of product vectors e_i * e_j together
with the coordinates of its two-sided identity.  Nothing is assumed about
the product: no associativity, no commutativity.  Instances are immutable
and safe to share.
"""

from __future__ import annotations

from functools import cache, cached_property

from .errors import DimensionMismatch, InvalidIdentity
from .fields import Kernel
from .linalg import BasisChange, rref, unit_vec, vec_scale


class Algebra:
    """A finite-dimensional unital algebra given by structure constants.

    table[i][j] is the coordinate vector of e_i * e_j; `one` is the
    coordinate vector of the identity.  Construction checks the identity
    axiom on every basis vector, one * e_j == e_j == e_j * one (bilinearity
    extends it to every vector).  When `one` is literally a basis vector
    e_z, the two products are the table cells [z][j] and [j][z], and equal
    cells accept with no product; this is the case of every basis change to
    a basis that starts with the identity.  Otherwise, and whenever a cell
    differs, the identity test of the table's kernel decides.

    The kernel is compiled once per algebra, when first read (`_kernel`,
    from `Field.compile`); `mul` runs its product, and `length.word_spans`
    its coded rows.  The product sums over integers: it reduces F_p
    coordinates mod p on entry, so an unreduced or negative int multiplies
    as its residue; a GF(p^k) coefficient off [0, p) is read so too.

    `table` may instead be a compiled table, a `fields.Kernel`, as
    `Field.read_table` reads a Q document's: then the kernel is that one,
    and the table of payloads is built from it when first read.  Either way
    equality and hash are those of (field, table, one), and `table_texts`
    writes the table as `field.render` does, from the kernel's integers
    while the table is unbuilt.
    """

    def __init__(self, field, table, one):
        if isinstance(table, Kernel):
            n = table.dim
            vars(self).update(field=field, _kernel=table, one=one)
        else:
            n = len(table)
            vars(self).update(field=field, table=table, one=one)
            if any(len(row) != n for row in table) or any(
                len(cell) != n for row in table for cell in row
            ):
                raise DimensionMismatch("structure-constant table is not n x n x n")
        if len(one) != n:
            raise DimensionMismatch("identity vector has wrong length")
        units = [self.basis_vector(j) for j in range(n)]
        if "table" in vars(self) and one in units:
            # one = e_z: one * e_j and e_j * one are cells
            z, t = units.index(one), self.table
            if all(t[z][j] == ej == t[j][z] for j, ej in enumerate(units)):
                return
        # a cell that differs decides nothing (unreduced F_p payloads)
        j = self._kernel.non_unit(one)
        if j is not None:
            raise InvalidIdentity(f"claimed identity fails on basis vector {j}")

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}: Algebra is immutable")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.field, self.table, self.one) == (other.field, other.table, other.one)

    def __hash__(self):
        return hash((self.field, self.table, self.one))

    def __repr__(self):
        return f"Algebra(field={self.field!r}, table={self.table!r}, one={self.one!r})"

    @cached_property
    def table(self):
        return self._kernel.table

    def table_texts(self):
        """The table's scalars as `field.render` writes them, in nested lists."""
        if "table" not in vars(self):
            return self._kernel.texts()
        render = self.field.render
        return [[[render(c) for c in cell] for cell in row] for row in self.table]

    @property
    def dim(self):
        return len(self.one)

    def basis_vector(self, i):
        return unit_vec(self.field, self.dim, i)

    @cached_property
    def _kernel(self):
        return self.field.compile(self.table)

    @cached_property
    def identity_row(self):
        """(L, 1/1_L * 1): the identity's echelon row, every engine's reduction
        modulo F*1.  L is the last coordinate of 1 that is nonzero in the
        field (an F_p coordinate may be an unreduced multiple of p)."""
        field, one = self.field, self.one
        last = max(k for k, c in enumerate(one)
                   if field.add(c, field.zero) != field.zero)
        return last, vec_scale(field, field.inv(one[last]), one)

    def mul(self, u, v):
        """Bilinear extension of the table to arbitrary coordinate vectors."""
        n = self.dim
        if len(u) != n or len(v) != n:
            raise DimensionMismatch("vector length does not match algebra dim")
        return self._kernel.product(u, v)


def algebra(field, table, one):
    """Build an Algebra from nested lists, normalizing to tuples; a compiled
    table (`Field.read_table`) is taken as it is."""
    if not isinstance(table, Kernel):
        table = tuple(tuple(tuple(cell) for cell in row) for row in table)
    return Algebra(field=field, table=table, one=tuple(one))


def find_identity(field, table):
    """The unique two-sided identity of the table, or None.

    Solves the linear system e * e_j = e_j = e_j * e over the unknown
    coordinates of e and verifies the solution (uniqueness is automatic:
    two identities e, e' satisfy e = e e' = e').
    """
    n = len(table)
    rows = []
    rhs = []
    for j in range(n):
        for k in range(n):
            rows.append(tuple(table[i][j][k] for i in range(n)))
            rhs.append(field.one if j == k else field.zero)
            rows.append(tuple(table[j][i][k] for i in range(n)))
            rhs.append(field.one if j == k else field.zero)
    aug = [r + (b,) for r, b in zip(rows, rhs)]
    reduced, pivots = rref(field, aug)
    e = [field.zero] * n
    for row, pc in zip(reduced, pivots):
        if pc == n:
            return None  # inconsistent system
        e[pc] = row[n]
    try:
        return algebra(field, table, e).one
    except InvalidIdentity:
        return None


def identity_first(field, n, cell):
    """The n-dimensional Algebra whose identity is e_0 and whose product of
    e_i and e_j is the length-n vector cell(i, j) for i, j >= 1."""
    table = [[unit_vec(field, n, max(i, j)) if i == 0 or j == 0 else cell(i, j)
              for j in range(n)] for i in range(n)]
    return algebra(field, table, unit_vec(field, n, 0))


def unital_hull(field, table):
    """Adjoin an identity: dimension grows by one, old space embeds as coords 1..n.

    The same length questions transfer to the hull, which is why callers can
    always repair an identity-free table this way.
    """
    zero = field.zero
    return identity_first(field, len(table) + 1,
                          lambda i, j: (zero,) + tuple(table[i - 1][j - 1]))


class Conjugation:
    """A's table in the basis of the rows R of `change`, cell by cell:
    cell(a, b) = change.to_new(A.mul(R[a], R[b])), computed when first read
    and kept; so is `algebra`, change_basis(A, change), built from the cells.
    Every cell is a product, reduced as `mul` reduces, under every change."""

    def __init__(self, A, change):
        self.change = change = BasisChange.of(A.field, change)
        if change.dim != A.dim:
            raise DimensionMismatch("basis change has wrong dimension")
        self.A, rows, to_new = A, change.matrix, change.to_new
        self.cell = cache(lambda a, b: to_new(A.mul(rows[a], rows[b])))

    @cached_property
    def algebra(self):
        A, r = self.A, range(self.A.dim)
        table = tuple(tuple(self.cell(a, b) for b in r) for a in r)
        return Algebra(field=A.field, table=table, one=self.change.to_new(A.one))


def change_basis(A, change):
    """Rewrite A in the basis given by the rows of `change`.

    By definition, with R the rows of `change` and R^-1 its inverse, the new
    table is new[a][b] = A.mul(R[a], R[b]) @ R^-1: n^2 products on A's
    integer kernel (`Field.bilinear`), each mapped to new coordinates by
    `change.to_new`, as is the image of the identity.  That map is the
    kernel of the one-row table (R^-1,), so the whole change is n^2 products
    plus n^2 + 1 kernel maps, and no field multiplication outside them.
    When R[0] is A's identity, the new identity is e_0 and row and column 0
    of the new table are the e_j, so its identity check reads those cells
    and builds no kernel for the new algebra.  The cells are `Conjugation`'s,
    whose reader lets a decision stage compute only the cells it reads; an
    identity change, too, gives A's table with every payload reduced.

    Verdicts downstream (length, identities) are invariant under this
    operation; tests rely on that.
    """
    return Conjugation(A, change).algebra


def complete_to_basis_with_one(A):
    """BasisChange with rows 1 and then e_k for every k but L, the pivot of
    `A.identity_row`.

    These are the rows a greedy completion by standard basis vectors picks:
    each e_k with k < L is outside the span so far, since coordinate L of
    any combination is the coefficient of 1 times 1_L; e_L is inside, as
    1 - sum_{k<L} 1_k e_k = 1_L e_L; and each e_k with k > L is then outside.

    The inverse is written down, not eliminated: v = c_0 1 + sum_r c_r e_(k_r)
    over the other indices k_1 < ... < k_(n-1) gives c_0 = v_L / 1_L from
    coordinate L and c_r = v_(k_r) - 1_(k_r) v_L / 1_L from coordinate k_r.
    So row k_r of the inverse is e_r, and row L is 1/1_L followed by the
    -1_(k_r) / 1_L, the identity row's entries negated.
    """
    field, n = A.field, A.dim
    last, row = A.identity_row
    others = [k for k in range(n) if k != last]
    inverse = [unit_vec(field, n, r) for r in range(1, n)]
    inverse.insert(last, (field.inv(A.one[last]),)
                   + tuple(field.neg(row[k]) for k in others))
    return BasisChange(field, [A.one] + [unit_vec(field, n, k) for k in others],
                       inverse=tuple(inverse))
