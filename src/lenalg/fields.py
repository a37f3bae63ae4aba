"""Exact scalar arithmetic over Q, F_p and F_{p^k}.

All arithmetic is exact: rationals are arbitrary-precision `Fraction`s,
prime-field elements are residues in [0, p), extension-field elements are
coefficient tuples reduced modulo an irreducible monic polynomial.  Values
are canonical, so `==` on payloads is exact field equality and payloads can
be used as dict keys and sorted (payload order is the deterministic
enumeration order used everywhere for witnesses and reports).

A `Field` handle owns the operations; payloads themselves carry no field
reference.  Mixing payloads from different fields is a caller error.

An extension field computes on logarithms, as word-size finite-field
kernels do (Dumas, Giorgi & Pernet, FFLAS and FFPACK, ACM TOMS 2008), while
its payloads stay coefficient tuples.  With g a primitive element and
m = q - 1 its order, construction builds three tables in O(q) steps:

* `_exp[e]` is g^(e mod m) for 0 <= e < 2m, and zero from 2m to 4m;
* `_log[a]` is the exponent of a, with zero at 2m, past every sum of two
  real logs, so that `_exp` of a sum involving zero's log is zero;
* `_zech[d]` is log(1 + g^d) for 0 <= d < m, stored twice so that
  differences of logs in (-2m, 2m) index it directly.

Then a*b = exp[log a + log b], 1/a = exp[m - log a], -a = exp[log a +
log(-1)] and a + b = exp[log a + zech[log b - log a]] once neither
summand is zero.  A tuple with a coefficient off [0, p) is no key of
`_log`: each kernel catches that KeyError and runs again on residues
(`_residue`), so reduced input pays nothing for it.

Every field also compiles a structure-constant table into a product,
`bilinear(table) -> product(u, v)`, that sums over integers and reduces
once per output coordinate (the delayed reduction of the same paper).  The
table is m x r with cells of length n, so product(u, v) = sum_ij u_i v_j
table[i][j] takes u of length m and v of length r; an algebra's table is
the square case m = r = n.  The finite fields pack each output vector into
one int of b-bit digits, with b the bit length of the largest sum a digit
can reach, so no digit carries:

* F_p: one packed int per cell, and u_i v_j times it added per pair: a
  digit is at most m r (p-1)^3.  That needs coordinates in [0, p), so
  every coordinate is reduced mod p on entry; an unreduced or negative int
  would overflow into or borrow from the next digit;
* GF(p^k): per cell, k packed ints holding the F_p coordinates of
  x^s * table[i][j], s < k; per pair the log tables give c = u_i v_j and
  sum_s c_s * P^s adds c * table[i][j]: a digit is at most m r k (p-1)^2;
* Q: the table, u and v are scaled by the lcm of their own denominators
  (D, du, dv).  Coordinate k of the table is stored as one flat list of
  integers over the cells in (i, j) order, so a product forms the integer
  outer product u_i v_j once and coordinate k is its dot product with that
  list, summed at C speed by `sum(map(mul, ...))`, then one
  Fraction(s, du dv D).  The one zero skip costs two `count` calls on a
  dense product: a u or v with a single nonzero entry (a scaled basis
  vector, and the (1,) of `linear`) dots the other vector with the cells
  of its row or column alone, a slice of each flat list.

A coordinate map v -> v @ M is the product of the one-row table (M,) with
the left vector (1,), so `linear(M)` is that product and has no kernel of
its own.

Next to `bilinear`, every field owns the row operation of the linear
algebra, `eliminate(v, rows)`, written out per coordinate with no `sub` or
`mul` call.  Over GF(p^k), log(-c) = (log c + log(-1)) mod (q - 1) must be
reduced, or log(-c*b) can pass 2m into the zero region of `_exp` and drop
the term; log(-1) = 0 in characteristic 2 hides this.

`row_kernel(table, product)` compiles the coded rows `length.word_spans`
runs on: F2 up to dim 8 as bitmasks, every other field as it is (contract
at `Field.row_kernel`, proof of the F2 form in `length`).
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from fractions import Fraction
from operator import mul

from .errors import (
    CharacteristicTwo,
    DimensionMismatch,
    InfiniteFieldUnsupported,
    NonPrimeModulus,
    ReducibleModulus,
    UnsupportedExtension,
)
from .linalg import _echelon_extend

# Finite fields are capped well above anything the enumeration engines can
# use; the cap keeps the irreducibility check (trial division) fast and the
# log/Zech tables of an extension field (about 7q entries, built in O(q)
# steps) small.
MAX_FIELD_ORDER = 4096

# Default moduli (little-endian, monic) for the extensions shipped with the
# CLI shorthand names.  Anything else needs an explicit modulus.
DEFAULT_MODULI = {
    (2, 2): (1, 1, 1),        # x^2 + x + 1
    (2, 3): (1, 1, 0, 1),     # x^3 + x + 1
    (3, 2): (1, 0, 1),        # x^2 + 1
}

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/[1-9]\d*)?$")
_INT_RE = re.compile(r"^[+-]?\d+$")


def _digit_width(bound):
    """Bits per packed digit that hold every integer in [0, bound] exactly
    (one at least, so that an empty table still unpacks)."""
    return max(bound.bit_length(), 1)


def _pack(digits, width):
    """The int whose base-2^width digits, least significant first, are `digits`."""
    out = 0
    for d in reversed(digits):
        out = out << width | d
    return out


def _unpacker(count, width, p):
    """The function that splits a packed sum into its `count` digits mod p."""
    mask = (1 << width) - 1
    shifts = range(0, count * width, width)

    def unpack(acc):
        return [(acc >> s & mask) % p for s in shifts]
    return unpack


def _as_is(x):
    return x


# _BITS[b]: the positions of the set bits of a byte b, lowest first
_BITS = [tuple(k for k in range(8) if b >> k & 1) for b in range(256)]


def _subset_xors(masks):
    """The XOR of masks[k] over the set bits k of b, for every b below
    2^len(masks): one XOR each, from the entry of b without its lowest bit."""
    out = [0] * (1 << len(masks))
    for b in range(1, len(out)):
        low = b & -b
        out[b] = out[b ^ low] ^ masks[low.bit_length() - 1]
    return out


def _f2_row_kernel(table):
    """`Field.row_kernel` over F2 on bitmasks, for n <= 8: bit k of a coded
    vector is its coordinate k, reduced mod 2 (Albrecht, Bard & Hart, M4RI,
    ACM TOMS 2010)."""
    n = len(table)

    def encode(v):
        if len(v) != n:
            raise DimensionMismatch(f"vector length {len(v)} != {n}")
        row = 0
        for k, c in enumerate(v):
            if c % 2:
                row |= 1 << k
        return row

    # xors[i][b]: the XOR of the cells (i, k) over the set bits k of b, so a
    # product is one lookup per set bit of u
    xors = [_subset_xors([encode(cell) for cell in row]) for row in table]

    def mul(u, v):
        acc = 0
        for i in _BITS[u]:
            acc ^= xors[i][v]
        return acc

    def extend(rows, vectors):
        for v in vectors:
            for pivot, row in rows:
                if v >> pivot & 1:
                    v ^= row
            if v:
                rows.append(((v & -v).bit_length() - 1, v))
        return rows

    def decode(rows):
        return [(pivot, [row >> k & 1 for k in range(n)]) for pivot, row in rows]
    return encode, mul, extend, decode


# Miller-Rabin with the first thirteen primes as bases decides primality
# exactly below MAX_PRIME (Sorenson & Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 2017); prime fields are refused from there on.
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
MAX_PRIME = 3_317_044_064_679_887_385_961_981


def _is_prime(n):
    """Whether n is prime, by deterministic Miller-Rabin; exact for n < MAX_PRIME."""
    if n < 2 or any(n % a == 0 for a in _PRIME_BASES):
        return n in _PRIME_BASES
    s = ((n - 1) & (1 - n)).bit_length() - 1   # n - 1 = d * 2^s, d odd
    for a in _PRIME_BASES:
        x = pow(a, (n - 1) >> s, n)
        if x == 1:
            continue
        for _ in range(s):   # a is no witness if some a^(d 2^i), i < s, is -1
            if x == n - 1:
                break
            x = x * x % n
        else:
            return False
    return True


def _shape(table):
    """(m * r, n) for an m x r table whose cells have length n."""
    cells = [cell for row in table for cell in row]
    return len(cells), len(cells[0]) if cells else 0


class Field:
    """Common surface of all field handles."""

    zero = None
    one = None

    def characteristic(self):
        raise NotImplementedError

    def order(self):
        """Number of elements, or None for infinite fields."""
        return None

    def is_finite(self):
        return self.order() is not None

    def is_two_element_field(self):
        return self.order() == 2

    def elements(self):
        """All elements in payload-lexicographic order (finite fields only)."""
        raise InfiniteFieldUnsupported(f"{self.label()} has infinitely many elements")

    def add(self, a, b):
        raise NotImplementedError

    def mul(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def inv(self, a):
        raise NotImplementedError

    def div(self, a, b):
        return self.mul(a, self.inv(b))

    def bilinear(self, table):
        """The product (u, v) -> sum_ij u_i v_j table[i][j] of an m x r
        table of length-n cells, as a function of a length-m u and a
        length-r v (lengths are the caller's to check)."""
        raise NotImplementedError

    def eliminate(self, v, rows):
        """v minus v[pivot] * row for each (pivot, row) in turn, as a list (v
        itself if no row applies).  Each row has a one at its pivot and zeros
        at the pivots before it, so the result is zero at every pivot."""
        raise NotImplementedError

    def canonical(self, v):
        """v with each coordinate its canonical payload, so `==` is equality."""
        raise NotImplementedError

    def row_kernel(self, table, product):
        """The forms `length.word_spans` runs on for an algebra's n x n
        `table`: (encode, mul, extend, decode).  encode codes a length-n
        vector (another length raises DimensionMismatch in encode or
        extend), mul multiplies two coded vectors, extend(rows, coded) appends
        to an echelon list of (pivot, coded row) pairs as
        `linalg._echelon_extend` does, and decode(rows) returns such a list
        with payload rows.  This default form codes nothing: it multiplies
        with `product`, the table's `bilinear`, which the caller compiled."""
        n = len(table)
        return (_as_is, product,
                lambda rows, vectors: _echelon_extend(self, rows, vectors, n), _as_is)

    def linear(self, matrix):
        """The map v -> v @ matrix: the product of (matrix,) with (one,)."""
        product, one = self.bilinear((matrix,)), (self.one,)
        return lambda v: product(one, v)

    def halve(self, a):
        """a/2, refusing characteristic 2 where 2 is not invertible."""
        if self.characteristic() == 2:
            raise CharacteristicTwo("cannot divide by two in characteristic 2")
        return self.div(a, self.from_int(2))

    def from_int(self, n):
        """The image of the integer n in this field."""
        raise NotImplementedError

    def parse(self, text):
        raise NotImplementedError

    def render(self, value):
        raise NotImplementedError

    def label(self):
        raise NotImplementedError

    def __repr__(self):
        return f"<field {self.label()}>"


class Rationals(Field):
    """The rational numbers; payloads are `fractions.Fraction`."""

    zero = Fraction(0)
    one = Fraction(1)

    def characteristic(self):
        return 0

    def add(self, a, b):
        return a + b

    def sub(self, a, b):
        return a - b

    def mul(self, a, b):
        return a * b

    def neg(self, a):
        return -a

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError("inverse of zero")
        return 1 / a

    def div(self, a, b):
        if b == 0:
            raise ZeroDivisionError("division by zero")
        return a / b

    def bilinear(self, table):
        _, n = _shape(table)
        m = len(table)
        r = len(table[0]) if m else 0
        scale = math.lcm(*[y.denominator for row in table for cell in row
                           for y in cell])
        coords = [[cell[k].numerator * (scale // cell[k].denominator)
                   for row in table for cell in row] for k in range(n)]

        def integers(w):
            d = math.lcm(*[a.denominator for a in w])
            return d, [a.numerator * (d // a.denominator) for a in w]

        def product(u, v):
            du, u = integers(u)
            dv, v = integers(v)
            den = du * dv * scale
            # u = x e_i (x its one nonzero entry, so its sum) reads only the
            # cells (i, j), a run of each list; v = y e_j every r-th entry
            if u.count(0) == m - 1:
                x = sum(u)
                s = u.index(x) * r
                return tuple([Fraction(x * sum(map(mul, v, c[s:s + r])), den)
                              for c in coords])
            if v.count(0) == r - 1:
                y = sum(v)
                j = v.index(y)
                return tuple([Fraction(y * sum(map(mul, u, c[j::r])), den)
                              for c in coords])
            uv = [x * y for x in u for y in v]
            return tuple([Fraction(sum(map(mul, uv, c)), den) for c in coords])
        return product

    def eliminate(self, v, rows):
        for pivot, row in rows:
            c = v[pivot]
            if c:
                v = [a - c * b for a, b in zip(v, row)]
        return v

    def canonical(self, v):
        return v   # a Fraction is in lowest terms

    def from_int(self, n):
        return Fraction(n)

    def parse(self, text):
        text = text.strip()
        if not _RATIONAL_RE.match(text):
            raise ValueError(f"not a rational scalar: {text!r}")
        num, _, den = text.partition("/")
        return Fraction(int(num), int(den)) if den else Fraction(int(num))

    def render(self, value):
        return str(value)

    def label(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rationals")


class PrimeField(Field):
    """F_p for a prime p; payloads are ints in [0, p)."""

    def __init__(self, p):
        if p >= MAX_PRIME:
            raise UnsupportedExtension(
                f"F{p}: primality is decided only below {MAX_PRIME}")
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def characteristic(self):
        return self.p

    def order(self):
        return self.p

    def elements(self):
        return iter(range(self.p))

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverse of zero")
        return pow(a, self.p - 2, self.p)

    def bilinear(self, table):
        p = self.p
        pairs, n = _shape(table)
        width = _digit_width(pairs * (p - 1) ** 3)
        cells = [[_pack([y % p for y in cell], width) for cell in row]
                 for row in table]
        unpack = _unpacker(n, width, p)

        def product(u, v):
            v = [y % p for y in v]
            acc = 0
            for x, row in zip(u, cells):
                x %= p
                if x:
                    acc += x * sum(map(mul, v, row))
            return tuple(unpack(acc))
        return product

    def eliminate(self, v, rows):
        p = self.p
        for pivot, row in rows:
            c = v[pivot]
            if c:
                v = [(a - c * b) % p for a, b in zip(v, row)]
        return v

    def canonical(self, v):
        return [a % self.p for a in v]

    def row_kernel(self, table, product):
        if self.p == 2 and len(table) <= 8:
            return _f2_row_kernel(table)
        return super().row_kernel(table, product)

    def from_int(self, n):
        return n % self.p

    def parse(self, text):
        text = text.strip()
        if not _INT_RE.match(text):
            raise ValueError(f"not an integer scalar: {text!r}")
        return int(text) % self.p

    def render(self, value):
        return str(value)

    def label(self):
        return f"F{self.p}"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("prime", self.p))


def _poly_trim(c):
    i = len(c)
    while i > 0 and c[i - 1] == 0:
        i -= 1
    return tuple(c[:i])


def _poly_mul(a, b, p):
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    for i in range(len(a) - 1, dm - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dm):
                a[i - dm + j] = (a[i - dm + j] - c * m[j]) % p
    return _poly_trim(a[:dm])


def _poly_irreducible(m, p):
    """Trial division by every monic polynomial of degree 1..deg(m)//2."""
    deg = len(m) - 1
    if deg <= 0:
        return False
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            if not _poly_mod(m, tuple(tail) + (1,), p):
                return False
    return True


class ExtensionField(Field):
    """F_{p^k} as F_p[x]/(modulus); payloads are length-k coefficient tuples."""

    def __init__(self, p, k, modulus=None):
        if k < 1:
            raise UnsupportedExtension(f"extension degree {k} < 1")
        # 2^k already exceeds the bound past this k, and p^k stays cheap
        if k >= MAX_FIELD_ORDER.bit_length() or p ** k > MAX_FIELD_ORDER:
            raise UnsupportedExtension(
                f"GF({p}^{k}) exceeds the supported order bound {MAX_FIELD_ORDER}"
            )
        if not _is_prime(p):
            raise NonPrimeModulus(f"{p} is not prime")
        if modulus is None:
            modulus = DEFAULT_MODULI.get((p, k))
            if modulus is None:
                raise UnsupportedExtension(
                    f"no default modulus for GF({p}^{k}); supply one explicitly"
                )
        modulus = tuple(c % p for c in modulus)
        if len(modulus) != k + 1 or modulus[-1] != 1:
            raise ReducibleModulus(
                f"modulus must be monic of degree {k}, got {list(modulus)}"
            )
        if k >= 1 and not _poly_irreducible(modulus, p):
            raise ReducibleModulus(f"modulus {list(modulus)} factors over F_{p}")
        self.p = p
        self.k = k
        self.modulus = modulus
        self.zero = (0,) * k
        self.one = tuple([1 % p] + [0] * (k - 1))
        # Log/Zech tables over a primitive element g; see the module docstring.
        powers = self._primitive_powers(p ** k)
        self._unit_order = m = len(powers)   # q - 1, the order of g
        self._zero_log = zero_log = 2 * m    # past every sum of two real logs
        self._log = log = {a: e for e, a in enumerate(powers)}
        log[self.zero] = zero_log
        self._exp = powers * 2 + [self.zero] * (zero_log + 1)
        self._zech = [log[((a[0] + 1) % p,) + a[1:]] for a in powers] * 2
        self._neg_one_log = log[self.from_int(-1)]

    def _primitive_powers(self, q):
        """[g^0, ..., g^(q-2)] for the first primitive g in payload order.

        g is primitive when g^((q-1)/r) != 1 for every prime r dividing q-1;
        each test is a square-and-multiply power, so the search costs
        O(log q) products per candidate.  The walk then applies the k x k
        F_p matrix of multiplication by g, whose rows are the k products
        g * x^t, to each power in turn (`PrimeField.linear`).
        """
        p, k, modulus, one = self.p, self.k, self.modulus, self.one

        def times(a, b):
            return self._pad(_poly_mod(_poly_mul(a, b, p), modulus, p))

        def power(a, e):
            out = one
            while e:
                if e & 1:
                    out = times(out, a)
                a = times(a, a)
                e >>= 1
            return out

        order = q - 1
        primes = [r for r in range(2, order + 1) if order % r == 0 and _is_prime(r)]
        g = next(a for a in self.elements() if a != self.zero
                 and all(power(a, order // r) != one for r in primes))
        step = field_handle("prime", p).linear(
            [times(g, self._pad((0,) * t + (1,))) for t in range(k)])
        powers = [one]
        for _ in range(order - 1):
            powers.append(step(powers[-1]))
        return powers

    def characteristic(self):
        return self.p

    def order(self):
        return self.p ** self.k

    def elements(self):
        return (tuple(t) for t in itertools.product(range(self.p), repeat=self.k))

    def canonical(self, v):
        log = self._log
        return [a if a in log else self._residue(a) for a in v]

    def _residue(self, a):
        """The payload a coefficient tuple is, read mod p (KeyError if none)."""
        return self._exp[self._log[tuple(c % self.p for c in a)]]

    def add(self, a, b):
        try:
            la, lb = self._log[a], self._log[b]
        except KeyError:  # an unreduced coefficient: read its residue
            return self.add(self._residue(a), self._residue(b))
        if la == self._zero_log:
            return b
        if lb == self._zero_log:
            return a
        return self._exp[la + self._zech[lb - la]]

    def sub(self, a, b):
        try:
            la, lb = self._log[a], self._log[b]
        except KeyError:  # an unreduced coefficient: read its residue
            return self.sub(self._residue(a), self._residue(b))
        if lb == self._zero_log:
            return a
        lb += self._neg_one_log
        if la == self._zero_log:
            return self._exp[lb]
        return self._exp[la + self._zech[lb - la]]

    def neg(self, a):
        try:
            return self._exp[self._log[a] + self._neg_one_log]
        except KeyError:  # an unreduced coefficient: read its residue
            return self.neg(self._residue(a))

    def _pad(self, c):
        return tuple(c) + (0,) * (self.k - len(c))

    def mul(self, a, b):
        try:
            return self._exp[self._log[a] + self._log[b]]
        except KeyError:  # an unreduced coefficient: read its residue
            return self.mul(self._residue(a), self._residue(b))

    def inv(self, a):
        try:
            la = self._log[a]
        except KeyError:  # an unreduced coefficient: read its residue
            return self.inv(self._residue(a))
        if la == self._zero_log:
            raise ZeroDivisionError("inverse of zero")
        return self._exp[self._unit_order - la]

    def bilinear(self, table):
        p, k = self.p, self.k
        pairs, n = _shape(table)
        zero, log, exp = self.zero, self._log, self._exp
        width = _digit_width(pairs * k * (p - 1) ** 2)
        x_logs = [log[self._pad((0,) * s + (1,))] for s in range(k)]
        try:
            cells = [[[_pack([c for y in cell for c in exp[log[y] + ls]], width)
                       for ls in x_logs]
                      for cell in row] for row in table]
        except KeyError:  # an unreduced coefficient: compile the residues
            return self.bilinear([[[self._residue(y) for y in cell] for cell in row]
                                  for row in table])
        unpack = _unpacker(n * k, width, p)
        starts = range(0, n * k, k)

        def product(u, v):
            try:
                logs = [(log[y], j) for j, y in enumerate(v) if y != zero]
                coeffs, packed = [], []
                for a, row in zip(u, cells):
                    if a != zero:
                        la = log[a]
                        for lb, j in logs:
                            coeffs += exp[la + lb]
                            packed += row[j]
            except KeyError:  # an unreduced coefficient: read its residue
                return product(*[[self._residue(y) for y in w] for w in (u, v)])
            digits = unpack(sum(map(mul, coeffs, packed)))
            return tuple([tuple(digits[i:i + k]) for i in starts])
        return product

    def eliminate(self, v, rows):
        log, exp, zech, zero_log = self._log, self._exp, self._zech, self._zero_log
        try:
            for pivot, row in rows:
                lc = log[v[pivot]]
                if lc != zero_log:
                    neg_c = (lc + self._neg_one_log) % self._unit_order  # see above
                    # a + exp[lb + neg_c] = a - c*b, by the Zech table
                    v = [a if (lb := log[b]) == zero_log
                         else exp[lb + neg_c] if (la := log[a]) == zero_log
                         else exp[la + zech[lb + neg_c - la]] for a, b in zip(v, row)]
        except KeyError:
            # an unreduced coefficient: go on from this row on residues.  The
            # rows before it leave v zero at their pivots, so a second pass
            # over them, if `rows` is a list, changes nothing.
            rest = itertools.chain([(pivot, row)], rows)
            return self.eliminate([self._residue(a) for a in v],
                                  [(k, [self._residue(b) for b in r]) for k, r in rest])
        return v

    def from_int(self, n):
        return self._pad((n % self.p,))

    def parse(self, text):
        text = text.strip()
        if text.startswith("[") and text.endswith("]"):
            inner = text[1:-1].strip()
            parts = [s.strip() for s in inner.split(",")] if inner else []
            if any(not _INT_RE.match(s) for s in parts):
                raise ValueError(f"bad coefficient list: {text!r}")
            coeffs = [int(s) % self.p for s in parts]
            if len(coeffs) > self.k:
                raise ValueError(f"coefficient list longer than degree {self.k}: {text!r}")
            return self._pad(coeffs)
        if _INT_RE.match(text):
            # integers embed via the prime subfield
            return self.from_int(int(text))
        raise ValueError(f"not an extension-field scalar: {text!r}")

    def render(self, value):
        return "[" + ",".join(str(c) for c in value) + "]"

    def label(self):
        if DEFAULT_MODULI.get((self.p, self.k)) == self.modulus:
            return f"GF{self.p ** self.k}"
        return f"GF({self.p}^{self.k})"

    def __eq__(self, other):
        return (isinstance(other, ExtensionField) and other.p == self.p
                and other.k == self.k and other.modulus == self.modulus)

    def __hash__(self):
        return hash(("extension", self.p, self.k, self.modulus))


def field_handle(kind, p=None, k=None, modulus=None):
    """The one shared handle of a field: `kind` is "rationals", "prime"
    (F_p) or "extension" (GF(p^k) mod `modulus`).

    Handles are immutable and compare equal by value, so every document over
    the same field can share one, and an extension's log/Zech tables are
    built once per process.  The key is the resolved modulus: a missing one
    is looked up in DEFAULT_MODULI first, so "GF9" and GF(3^2) mod (1, 0, 1)
    share a handle.  A field that cannot be built raises as its constructor
    does, and nothing is cached for it.
    """
    if kind == "extension" and modulus is None:
        modulus = DEFAULT_MODULI.get((p, k))
    return _build_field(kind, p, k, None if modulus is None else tuple(modulus))


@functools.lru_cache(maxsize=64)
def _build_field(kind, p, k, modulus):
    if kind == "rationals":
        return Rationals()
    if kind == "prime":
        return PrimeField(p)
    return ExtensionField(p, k, modulus)


def make_field(name):
    """Field from a shorthand label: "Q", "F<p>", or "GF4"/"GF8"/"GF9"."""
    if isinstance(name, Field):
        return name
    key = name.strip()
    if key == "Q":
        return field_handle("rationals")
    m = re.match(r"^F(\d+)$", key)
    if m:
        return field_handle("prime", int(m.group(1)))
    for (p, k), modulus in DEFAULT_MODULI.items():
        if key == f"GF{p ** k}":
            return field_handle("extension", p, k, modulus)
    raise ValueError(f"unknown field shorthand {name!r}")
