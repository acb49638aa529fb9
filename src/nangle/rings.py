"""Exact arithmetic in local rings R with maximal ideal m = (p), m^2 = 0.

Two families are supported:

* ``Z/q^2`` for a prime q (uniformizer p = q), and
* ``GF(q)[x]/(x^2)`` for a prime power q = p^e (uniformizer p = x).

Every element of such a ring is zero, a unit, or u*p for a unit u.  Elements
are stored as canonical integer codes ``code = a + q*b`` standing for
``a + b*p``, where a and b are residue-field codes in ``0..q-1``.  For the
first family the code coincides with the integer value mod q^2.  Equality of
elements is equality of codes.

There is one arithmetic layer: ``Z/q^2`` ops are integer arithmetic mod q^2,
and ``GF(q)[x]/(x^2)`` ops are derived from the ops of its residue field k.
GF(p) computes mod p; GF(p^e) looks every op up in exp/log/Zech tables built
once per field.

Rings and fields also carry three list kernels for the hot loops of
``nangle.matrices``: ``axpy``, ``scale`` and a flat ``matmul``.  By default
they loop over the scalar ops; ``Z/q^2`` and GF(p), whose codes are integers
mod ``order``, share one class that writes their scalar ops mod ``order`` and
overrides the kernels with plain integer arithmetic and one reduction per
output entry.
"""

from __future__ import annotations

import math
from itertools import compress

# Lex-smallest monic irreducible polynomial of degree e over GF(p), for every
# prime power p^e <= 512 with e >= 2.  Coefficients low degree first, monic.
IRREDUCIBLE_POLYS: dict[tuple[int, int], tuple[int, ...]] = {
    (2, 2): (1, 1, 1),
    (2, 3): (1, 0, 1, 1),
    (2, 4): (1, 0, 0, 1, 1),
    (2, 5): (1, 0, 0, 1, 0, 1),
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 7): (1, 0, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 9): (1, 0, 0, 0, 0, 0, 0, 0, 1, 1),
    (3, 2): (1, 0, 1),
    (3, 3): (1, 0, 2, 1),
    (3, 4): (1, 0, 1, 1, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (5, 2): (1, 1, 1),
    (5, 3): (1, 0, 1, 1),
    (7, 2): (1, 0, 1),
    (7, 3): (1, 0, 1, 1),
    (11, 2): (1, 0, 1),
    (13, 2): (1, 3, 1),
    (17, 2): (1, 1, 1),
    (19, 2): (1, 0, 1),
}

MAX_DUAL_Q = 512

# The most unit classes (q - 1) that Ring.unit_class_reps lists; a listing
# grows linearly in q, and Z/q^2 specs reach q near 1.8e12.
MAX_UNIT_CLASSES = 1024

# The largest core rank that the axiom suite draws members up to; its
# matrices grow with the square of the rank.
MAX_RANK = 64

# The most rows or columns a matrix read from JSON may have; every object of
# a sequence file is the size of some map, and the work on it grows with the
# square of that size.
MAX_DIM = 1024

# The largest n accepted for an n-angulation; every sequence, witness and
# obstruction system grows with n.
MAX_N = 256


def require_n(n: int) -> None:
    """ValueError unless 3 <= n <= MAX_N."""
    if n < 3:
        raise ValueError("n must be >= 3")
    if n > MAX_N:
        raise ValueError(f"n must be <= {MAX_N}")


# Miller-Rabin with these bases, the first 13 primes, decides primality
# exactly for every n below PRIMALITY_BOUND (Sorenson and Webster, 2015).
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIMALITY_BOUND = 3317044064679887385961981


def is_prime(n: int) -> bool:
    if n >= PRIMALITY_BOUND:
        raise ValueError(f"{n} is not below {PRIMALITY_BOUND}, the bound up to which primality is decided")
    if n < 2:
        return False
    for b in _MILLER_RABIN_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for b in _MILLER_RABIN_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_power(n: int) -> tuple[int, int] | None:
    """Return (p, e) with n = p^e, p prime, or None."""
    if n < 2:
        return None
    p = 2
    while p * p <= n:
        if n % p == 0:
            e = 0
            m = n
            while m % p == 0:
                m //= p
                e += 1
            return (p, e) if m == 1 else None
        p += 1
    return (n, 1)


class _RowKernels:
    """The list kernels every ring and field derives from its scalar ``add``
    and ``mul``.  Each kernel skips the zero entries of its operands, since
    the matrices of the deciders are sparse, and returns a new list."""

    def axpy(self, xs, c: int, ys) -> list[int]:
        """xs + c*ys, entry by entry, for equal-length ``xs`` and ``ys``."""
        add, mul = self.add, self.mul
        out = list(xs)
        for j in compress(range(len(ys)), ys):
            out[j] = add(out[j], ys[j] if c == 1 else mul(c, ys[j]))
        return out

    def scale(self, c: int, xs) -> list[int]:
        """c*xs, entry by entry."""
        mul = self.mul
        return [mul(c, x) if x else 0 for x in xs]

    def matmul(self, a, b, n: int, k: int, m: int) -> list[int]:
        """The n x m product of the row-major n x k matrix ``a`` and k x m
        matrix ``b``."""
        add, mul = self.add, self.mul
        out = [0] * (n * m)
        for i in range(n):
            arow = a[i * k : (i + 1) * k]
            orow = i * m
            for t in range(k):
                x = arow[t]
                if x == 0:
                    continue
                brow = b[t * m : (t + 1) * m]
                for j in range(m):
                    y = brow[j]
                    if y:
                        out[orow + j] = add(out[orow + j], mul(x, y))
        return out


class _IntegerRowKernels(_RowKernels):
    """The scalar ops and kernels for codes that are the integers mod
    ``order``: integer arithmetic, the kernels reducing once per output entry."""

    order: int

    def add(self, x: int, y: int) -> int:
        return (x + y) % self.order

    def neg(self, x: int) -> int:
        return (-x) % self.order

    def mul(self, x: int, y: int) -> int:
        return (x * y) % self.order

    def axpy(self, xs, c, ys):
        mod = self.order
        out = list(xs)
        for j in compress(range(len(ys)), ys):
            out[j] = (out[j] + c * ys[j]) % mod
        return out

    def scale(self, c, xs):
        mod = self.order
        return [c * x % mod for x in xs]

    def matmul(self, a, b, n, k, m):
        mod = self.order
        out = [0] * (n * m)
        b_rows = [None] * k  # nonzero (column, entry) pairs of a row of b, built on first use
        for i in range(n):
            orow = i * m
            for t, x in enumerate(a[i * k : (i + 1) * k]):
                if x:
                    b_row = b_rows[t]
                    if b_row is None:
                        b_row = b_rows[t] = [(j, y) for j, y in enumerate(b[t * m : (t + 1) * m]) if y]
                    for j, y in b_row:
                        out[orow + j] += x * y
        return [s % mod for s in out]


class ResidueField(_RowKernels):
    """GF(p^e) with elements coded as ints in 0..p^e-1 (base-p digits are the
    coefficients of the polynomial basis 1, y, ..., y^(e-1), where y is a root
    of ``IRREDUCIBLE_POLYS[(p, e)]``).  Subclasses supply add, neg, mul, inv."""

    def __init__(self, p: int, e: int):
        if not is_prime(p):
            raise ValueError(f"field characteristic {p} is not prime")
        self.p = p
        self.e = e
        self.order = p**e

    def __eq__(self, other) -> bool:
        return isinstance(other, ResidueField) and (self.p, self.e) == (other.p, other.e)

    def __hash__(self) -> int:
        return hash(("ResidueField", self.p, self.e))

    def __repr__(self) -> str:
        return f"GF({self.order})"


class PrimeField(_IntegerRowKernels, ResidueField):
    """GF(p) by plain arithmetic mod p: p is unbounded for Z/p^2."""

    def __init__(self, p: int):
        super().__init__(p, 1)

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 is not invertible in the residue field")
        return pow(x, -1, self.p)


class ExtensionField(ResidueField):
    """GF(p^e) for e >= 2, every op a lookup in tables built once.

    With g a generator of the multiplicative group, ``_exp[i] = g^i`` and
    ``_log`` inverts it; ``_exp`` holds two periods, so any index in
    (-2(q-1), 2(q-1)) reads g to that power.  Sums go through Zech
    logarithms: ``_zech[k] = log(1 + g^k)``, None where 1 + g^k = 0, so
    g^i + g^j = g^(i + _zech[j - i]), a negative index wrapping mod q-1.
    """

    def __init__(self, p: int, e: int):
        super().__init__(p, e)
        try:
            self.modulus = IRREDUCIBLE_POLYS[(p, e)]
        except KeyError:
            raise ValueError(f"no irreducible polynomial on file for GF({p}^{e})") from None
        # an element whose powers reach all q-1 nonzero codes exists iff the
        # quotient is a field; the length cap stops the walk on a zero divisor
        for g in range(2, self.order):
            powers = [1]
            while len(powers) < self.order and (x := self._poly_mul(powers[-1], g)) != 1:
                powers.append(x)
            if len(powers) == self.order - 1:
                break
        else:
            raise ValueError(f"the modulus on file for GF({p}^{e}) is reducible")
        self._exp = powers + powers
        self._log = [0] * self.order  # _log[0] is never read
        for i, x in enumerate(powers):
            self._log[x] = i
        # x + 1 changes only the constant coefficient, the lowest base-p digit
        self._zech = [None if x == p - 1 else self._log[x - x % p + (x + 1) % p] for x in powers]
        minus_one = self._log[p - 1]
        self._neg = [0] * self.order
        for i, x in enumerate(powers):
            self._neg[x] = self._exp[i + minus_one]

    def _poly_mul(self, a: int, b: int) -> int:
        """Product of two codes as polynomials in y, reduced by the modulus."""
        p, e = self.p, self.e
        da = [a // p**i % p for i in range(e)]
        db = [b // p**i % p for i in range(e)]
        conv = [0] * (2 * e - 1)
        for i in range(e):
            for j in range(e):
                conv[i + j] += da[i] * db[j]
        for top in range(2 * e - 2, e - 1, -1):
            lead = conv[top] % p
            for i, c in enumerate(self.modulus):
                conv[top - e + i] -= lead * c
        return sum(conv[i] % p * p**i for i in range(e))

    def add(self, x: int, y: int) -> int:
        if x == 0:
            return y
        if y == 0:
            return x
        i = self._log[x]
        z = self._zech[self._log[y] - i]
        return 0 if z is None else self._exp[i + z]

    def neg(self, x: int) -> int:
        return self._neg[x]

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self._exp[self._log[x] + self._log[y]]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroDivisionError("0 is not invertible in the residue field")
        return self._exp[-self._log[x]]


class Ring(_RowKernels):
    """Common surface of both ring families.

    Attributes set by subclasses: ``q`` (residue field order), ``k``
    (ResidueField), ``order`` (= q^2), ``p`` (code of the uniformizer),
    ``two_p_zero``, ``spec`` (the canonical spec string), ``family``.
    Subclasses supply add, neg, mul, _unit_inverse, and the JSON and text
    forms of an element: encode_element (a plain int for Z/q^2, [a, b] for
    GF(q)[x]/(x^2)), decode_element and format_element.
    """

    q: int
    k: ResidueField
    order: int
    p: int
    two_p_zero: bool
    spec: str
    family: str

    def _finish_init(self) -> None:
        self.p = self.q
        self.two_p_zero = self.add(self.p, self.p) == 0

    # canonical form accessors: code = a + q*b  <->  a + b*p
    def residue(self, x: int) -> int:
        return x % self.q

    def p_part(self, x: int) -> int:
        return x // self.q

    def from_parts(self, a: int, b: int) -> int:
        return a + self.q * b

    def from_residue(self, a: int) -> int:
        """The lift of a residue with zero p-part."""
        return a

    def is_unit(self, x: int) -> bool:
        return x % self.q != 0

    def require_unit(self, u) -> int:
        """``u`` itself if it is the canonical code of a unit, else ValueError."""
        if type(u) is not int or not 0 <= u < self.order:
            raise ValueError(f"{u!r} is not a canonical element code of {self.spec}")
        if not self.is_unit(u):
            raise ValueError(f"{self.format_element(u)} is not a unit in {self.spec}")
        return u

    def inv(self, x: int) -> int:
        kind, data = self.classify(x)
        if kind != "unit":
            raise ZeroDivisionError(f"element {x} of {self.spec} is not a unit")
        return data

    def classify(self, x: int) -> tuple[str, int | None]:
        """('zero', None) | ('unit', inverse) | ('unit_times_p', u).

        For x = u*p the returned u is the canonical representative with zero
        p-part; u is only determined mod m.
        """
        if not 0 <= x < self.order:
            raise ValueError(f"{x} is not a canonical element code of {self.spec}")
        if x == 0:
            return ("zero", None)
        if self.is_unit(x):
            return ("unit", self._unit_inverse(x))
        return ("unit_times_p", self.from_residue(self.p_part(x)))

    def unit_class_reps(self) -> list[int]:
        """One representative per class of units under u ~ v iff u*p = v*p.

        u*p = v*p iff u = v mod m, so the classes are the lifts of the nonzero
        residues; the zero-p-part lift is the canonical representative.
        Raises ValueError above MAX_UNIT_CLASSES classes.
        """
        if self.q - 1 > MAX_UNIT_CLASSES:
            raise ValueError(f"{self.spec} has {self.q - 1} unit classes, more than the {MAX_UNIT_CLASSES} that are listed")
        return [self.from_residue(a) for a in range(1, self.q)]

    def __eq__(self, other) -> bool:
        return isinstance(other, Ring) and self.spec == other.spec

    def __hash__(self) -> int:
        return hash(("Ring", self.spec))

    def __repr__(self) -> str:
        return f"Ring({self.spec!r})"


class IntModQSquared(_IntegerRowKernels, Ring):
    """Z/q^2 for a prime q.  Codes are the integer values mod q^2."""

    family = "int_mod_q_squared"

    def __init__(self, q: int):
        if not is_prime(q):
            raise ValueError(f"{q * q} is not the square of a prime")
        self.q = q
        self.order = q * q
        self.k = PrimeField(q)
        self.spec = f"Z/{q * q}"
        self._finish_init()

    def _unit_inverse(self, x: int) -> int:
        return pow(x, -1, self.order)

    def encode_element(self, x: int):
        return x

    def decode_element(self, obj) -> int:
        if not isinstance(obj, int) or isinstance(obj, bool) or not 0 <= obj < self.order:
            raise ValueError(f"invalid element {obj!r} for {self.spec}")
        return obj

    def format_element(self, x: int) -> str:
        return str(x)


class DualNumbers(Ring):
    """GF(q)[x]/(x^2) for a prime power q = p^e <= 512."""

    family = "dual_numbers"

    def __init__(self, q: int):
        if q > MAX_DUAL_Q:
            raise ValueError(f"residue field order {q} exceeds the supported bound {MAX_DUAL_Q}")
        pe = prime_power(q)
        if pe is None:
            raise ValueError(f"{q} is not a prime power")
        self.q = q
        self.order = q * q
        self.k = PrimeField(q) if pe[1] == 1 else ExtensionField(*pe)
        self.spec = f"GF({q})[x]/(x^2)"
        self._finish_init()

    def add(self, x: int, y: int) -> int:
        q, k = self.q, self.k
        return k.add(x % q, y % q) + q * k.add(x // q, y // q)

    def neg(self, x: int) -> int:
        q, k = self.q, self.k
        return k.neg(x % q) + q * k.neg(x // q)

    def mul(self, x: int, y: int) -> int:
        q, k = self.q, self.k
        a1, b1 = x % q, x // q
        a2, b2 = y % q, y // q
        return k.mul(a1, a2) + q * k.add(k.mul(a1, b2), k.mul(b1, a2))

    def _unit_inverse(self, x: int) -> int:
        # (a + bx)^-1 = a^-1 - a^-2 b x
        q, k = self.q, self.k
        a, b = x % q, x // q
        ai = k.inv(a)
        return ai + q * k.neg(k.mul(k.mul(ai, ai), b))

    def encode_element(self, x: int):
        return [x % self.q, x // self.q]

    def decode_element(self, obj) -> int:
        ok = (
            isinstance(obj, (list, tuple))
            and len(obj) == 2
            and all(isinstance(c, int) and not isinstance(c, bool) and 0 <= c < self.q for c in obj)
        )
        if not ok:
            raise ValueError(f"invalid element {obj!r} for {self.spec}")
        return obj[0] + self.q * obj[1]

    def format_element(self, x: int) -> str:
        a, b = x % self.q, x // self.q
        if b == 0:
            return str(a)
        if a == 0:
            return f"{b}*x" if b != 1 else "x"
        return f"{a}+{b}*x" if b != 1 else f"{a}+x"


def make_ring(spec: str) -> Ring:
    """Parse a ring spec string: ``Z/<m>`` with m = q^2, or ``GF(<q>)[x]/(x^2)``."""
    s = spec.strip().replace(" ", "")
    if s.startswith("Z/"):
        body = s[2:]
        if not body.isdigit():
            raise ValueError(f"cannot parse ring spec {spec!r}")
        m = int(body)
        q = math.isqrt(m)
        if q * q != m:
            raise ValueError(f"{m} is not the square of a prime")
        return IntModQSquared(q)
    if s.startswith("GF(") and s.endswith(")[x]/(x^2)"):
        body = s[3 : -len(")[x]/(x^2)")]
        if not body.isdigit():
            raise ValueError(f"cannot parse ring spec {spec!r}")
        return DualNumbers(int(body))
    raise ValueError(f"cannot parse ring spec {spec!r}")

