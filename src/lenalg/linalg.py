"""Exact linear algebra: vectors, reduced-echelon subspaces, basis changes.

Vectors and matrix rows are plain tuples of field payloads.  Subspaces are
stored in reduced row echelon form (pivots equal to one, pivot columns
otherwise zero, pivot columns strictly increasing, no zero rows), which is a
canonical form: equal subspaces have identical `rows`, so subspace equality
is raw tuple comparison and every reported witness is deterministic.
The one row operation, v minus v[pivot] * row, lives on the field as
`Field.eliminate`, next to its product kernel; `Subspace.reduce` and
`_echelon_extend` reduce through it.  `_echelon_extend` is the one echelon
routine: `rref` sorts its rows by pivot and back-reduces them; membership
(`in_span`, the pair test, and `Subspace.contains`) asks whether it appends
a row; and it is the default form of `fields.Kernel.rows`, `length`'s rows.
`BasisChange` is the only code that maps coordinates between bases.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import DimensionMismatch, SingularMatrix


def unit_vec(field, n, i):
    v = [field.zero] * n
    v[i] = field.one
    return tuple(v)


def vec_add(field, u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    add = field.add
    return tuple(add(a, b) for a, b in zip(u, v))


def vec_sub(field, u, v):
    if len(u) != len(v):
        raise DimensionMismatch(f"vector lengths {len(u)} != {len(v)}")
    sub = field.sub
    return tuple(sub(a, b) for a, b in zip(u, v))


def vec_scale(field, c, v):
    mul = field.mul
    return tuple(mul(c, a) for a in v)


def vec_is_zero(field, v):
    z = field.zero
    return all(a == z for a in v)


def _echelon_extend(field, rows, vectors, n):
    """Append to `rows` a (pivot, row) pair for each length-n vector outside
    their span: its residue against the rows so far, scaled to a one at its
    first entry that is nonzero in the field, its pivot.  A vector that no
    row reduced is returned by `eliminate` as given, so an F_p entry other
    than 0 may still be an unreduced multiple of p; its inverse raises, and
    the search moves on, with no reduction pass over reduced input."""
    zero, one = field.zero, field.one
    for v in vectors:
        if len(v) != n:
            raise DimensionMismatch(f"vector length {len(v)} != {n}")
        r = field.eliminate(v, rows)
        for pivot, c in enumerate(r):
            if c != zero:
                if c != one:
                    try:
                        inv = field.inv(c)
                    except ZeroDivisionError:  # c is zero in the field
                        continue
                    r = [field.mul(inv, a) for a in r]
                rows.append((pivot, r))
                break
    return rows


def in_span(field, w, vectors):
    """True when w lies in the span of the vectors (none: only zero does),
    that is, when it adds no row to their echelon list (`_echelon_extend`)."""
    rows = _echelon_extend(field, [], vectors, len(w))
    dim = len(rows)
    return len(_echelon_extend(field, rows, [w], len(w))) == dim


def rref(field, rows):
    """Canonical reduced row echelon form of the given spanning rows: the
    `_echelon_extend` rows sorted by pivot, each then reduced against the
    rows after it (each zero before its pivot, so every pivot ends zero),
    and each coordinate read as its canonical payload (`Field.canonical`),
    since `_echelon_extend` keeps a row with a leading one as it comes."""
    rows = list(rows)
    echelon = sorted(_echelon_extend(field, [], rows, len(rows[0]) if rows else 0),
                     key=lambda pivot_row: pivot_row[0])
    return (tuple(tuple(field.canonical(field.eliminate(row, echelon[i + 1:])))
                  for i, (_, row) in enumerate(echelon)),
            tuple(pivot for pivot, _ in echelon))


@dataclass(frozen=True)
class Subspace:
    """A subspace of F^n held as canonical reduced-echelon spanning rows."""

    field: object
    ambient_dim: int
    rows: tuple
    pivots: tuple

    @property
    def dim(self):
        return len(self.rows)

    def reduce(self, v):
        """Residue of v after eliminating against the stored rows."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatch(
                f"vector length {len(v)} != ambient {self.ambient_dim}")
        return tuple(self.field.eliminate(v, zip(self.pivots, self.rows)))

    def contains(self, v):
        rows = list(zip(self.pivots, self.rows))
        return len(_echelon_extend(self.field, rows, [v], self.ambient_dim)) == self.dim

    def coords(self, v):
        """Coefficients of v against the stored rows, or None if v is outside.

        Each pivot column is zero in every other row, so the coefficient of
        a row is v's entry in its pivot column.
        """
        if not self.contains(v):
            return None
        return [v[pc] for pc in self.pivots]


def span(field, vectors, ambient_dim=None):
    """Canonical Subspace spanned by the given vectors."""
    vectors = [tuple(v) for v in vectors]
    if vectors:
        n = len(vectors[0])
        if any(len(v) != n for v in vectors):
            raise DimensionMismatch("span over vectors of mixed lengths")
        if ambient_dim is not None and ambient_dim != n:
            raise DimensionMismatch("ambient_dim disagrees with vector length")
        ambient_dim = n
    elif ambient_dim is None:
        raise DimensionMismatch("empty span needs an explicit ambient_dim")
    rows, pivots = rref(field, vectors)
    return Subspace(field=field, ambient_dim=ambient_dim, rows=rows, pivots=pivots)


def invert_matrix(field, m):
    """Inverse of a square matrix, or None if singular."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise DimensionMismatch("inverse of a non-square matrix")
    aug = [list(m[i]) + list(unit_vec(field, n, i)) for i in range(n)]
    rows, pivots = rref(field, aug)
    if len(rows) < n or pivots[:n] != tuple(range(n)):
        return None
    return tuple(tuple(r[n:]) for r in rows)


class BasisChange:
    """An invertible change of basis; rows are the new basis in old coordinates.

    `to_new` maps old coordinates to coordinates w.r.t. the new basis
    (v @ inverse).  `matrix` and `inverse` are dense tuples of rows; the map
    is compiled at construction by `Field.linear`, so it runs on the
    field's integer product.  The inverse is computed once; a caller that
    already holds it passes it as `inverse`, which is trusted, not checked.
    """

    def __init__(self, field, rows, inverse=None):
        rows = tuple(tuple(r) for r in rows)
        if inverse is None:
            inverse = invert_matrix(field, rows)
            if inverse is None:
                raise SingularMatrix("basis-change matrix is singular")
        self.field = field
        self.matrix = rows
        self.inverse = inverse
        self._to_new = field.linear(inverse)

    @staticmethod
    def of(field, basis):
        """`basis` itself if it is a BasisChange, else the change to its rows."""
        return basis if isinstance(basis, BasisChange) else BasisChange(field, basis)

    @property
    def dim(self):
        return len(self.matrix)

    def to_new(self, v_old):
        if len(v_old) != self.dim:
            raise DimensionMismatch(f"vector length {len(v_old)} != basis dim {self.dim}")
        return self._to_new(v_old)


def random_invertible(field, n, rng):
    """Seeded random invertible matrix (small integer entries over Q)."""
    if field.is_finite():
        elems = list(field.elements())
        draw = lambda: elems[rng.randrange(len(elems))]
    else:
        draw = lambda: field.from_int(rng.randint(-3, 3))
    while True:
        rows = tuple(tuple(draw() for _ in range(n)) for _ in range(n))
        inverse = invert_matrix(field, rows)
        if inverse is not None:
            return BasisChange(field, rows, inverse=inverse)
