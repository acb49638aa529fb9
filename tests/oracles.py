"""Independent brute-force oracles used to gate the fast implementations.

Everything here recomputes from first principles: naive modular integers,
naive truncated polynomials, element enumeration for images/kernels/solutions,
and explicit isomorphism search for membership.  None of it reuses the normal
form, the length criterion, or the residue-product test.
"""

from __future__ import annotations

import itertools

from nangle.matrices import RMatrix
from nangle.rings import IRREDUCIBLE_POLYS, Ring, prime_power
from nangle.sequences import NSequence, SeqMorphism, direct_sum, standard_angle, trivial_sequence
from nangle.sequences import TrivialSpec


# --- naive ring arithmetic -------------------------------------------------

def naive_zq2_add(q, x, y):
    return (x + y) % (q * q)


def naive_zq2_mul(q, x, y):
    return (x * y) % (q * q)


class NaivePolyField:
    """GF(p^e) arithmetic redone with coefficient tuples and long division."""

    def __init__(self, q):
        p, e = prime_power(q)
        self.p, self.e, self.q = p, e, q
        self.modulus = (0, 1) if e == 1 else IRREDUCIBLE_POLYS[(p, e)]

    def to_poly(self, code):
        out = []
        for _ in range(self.e):
            out.append(code % self.p)
            code //= self.p
        return tuple(out)

    def to_code(self, poly):
        code = 0
        for c in reversed(poly):
            code = code * self.p + c
        return code

    def add(self, x, y):
        a, b = self.to_poly(x), self.to_poly(y)
        return self.to_code(tuple((u + v) % self.p for u, v in zip(a, b)))

    def mul(self, x, y):
        a, b = self.to_poly(x), self.to_poly(y)
        conv = [0] * (2 * self.e - 1)
        for i, u in enumerate(a):
            for j, v in enumerate(b):
                conv[i + j] = (conv[i + j] + u * v) % self.p
        # long division by the monic modulus
        m = list(self.modulus)
        deg = len(m) - 1
        while len(conv) > deg:
            lead = conv[-1]
            if lead:
                shift = len(conv) - 1 - deg
                for i, c in enumerate(m):
                    conv[shift + i] = (conv[shift + i] - lead * c) % self.p
            conv.pop()
        conv += [0] * (self.e - len(conv))
        return self.to_code(tuple(conv[: self.e]))


class NaiveDualRing:
    """GF(q)[x]/(x^2) arithmetic on (a, b) pairs, independent of nangle.rings."""

    def __init__(self, q):
        self.q = q
        self.f = NaivePolyField(q)

    def split(self, code):
        return code % self.q, code // self.q

    def join(self, a, b):
        return a + self.q * b

    def add(self, x, y):
        a1, b1 = self.split(x)
        a2, b2 = self.split(y)
        return self.join(self.f.add(a1, a2), self.f.add(b1, b2))

    def mul(self, x, y):
        a1, b1 = self.split(x)
        a2, b2 = self.split(y)
        return self.join(self.f.mul(a1, a2), self.f.add(self.f.mul(a1, b2), self.f.mul(b1, a2)))


# --- element-level linear algebra -----------------------------------------

def all_vectors(ring: Ring, n: int):
    return itertools.product(range(ring.order), repeat=n)


def apply_matrix(m: RMatrix, vec):
    ring = m.ring
    out = []
    for i in range(m.rows):
        acc = 0
        for j in range(m.cols):
            acc = ring.add(acc, ring.mul(m.entry(i, j), vec[j]))
        out.append(acc)
    return tuple(out)


def image_set(m: RMatrix):
    return {apply_matrix(m, v) for v in all_vectors(m.ring, m.cols)}


def kernel_set(m: RMatrix):
    zero = (0,) * m.rows
    return {v for v in all_vectors(m.ring, m.cols) if apply_matrix(m, v) == zero}


def brute_solutions(a: RMatrix, b_col):
    """All x with A x = b, by enumeration."""
    return [v for v in all_vectors(a.ring, a.cols) if apply_matrix(a, v) == tuple(b_col)]


def length_of_size(ring: Ring, size: int) -> int:
    """A finite R-module of size q^L has length L."""
    q = ring.q
    length = 0
    while size > 1:
        if size % q:
            raise ValueError("module size is not a power of q")
        size //= q
        length += 1
    return length


# --- exactness -------------------------------------------------------------

def exact_by_elements(x: NSequence) -> bool:
    """Im(incoming) == Ker(outgoing) at every object, as literal sets.

    This is the Hom(R, -) oracle: Hom-exactness against every free module is
    the same condition repeated rank-many times.
    """
    for i in range(x.n):
        if image_set(x.maps[(i - 1) % x.n]) != kernel_set(x.maps[i]):
            return False
    return True


# --- homotopy by enumeration ------------------------------------------------

def brute_homotopy_exists(phi: SeqMorphism, psi: SeqMorphism) -> bool:
    x, y = phi.source, phi.target
    ring, n = x.ring, x.n
    shapes = [(y.ranks[i], x.ranks[(i + 1) % n]) for i in range(n)]
    sizes = [r * c for r, c in shapes]
    total = sum(sizes)
    for flat in itertools.product(range(ring.order), repeat=total):
        thetas = []
        pos = 0
        for (r, c), s in zip(shapes, sizes):
            thetas.append(RMatrix(ring, r, c, flat[pos : pos + s]))
            pos += s
        ok = True
        for i in range(n):
            lhs = phi.phis[i] - psi.phis[i]
            rhs = thetas[i] @ x.maps[i] + y.maps[(i - 1) % n] @ thetas[(i - 1) % n]
            if lhs != rhs:
                ok = False
                break
        if ok:
            return True
    return False


def brute_open_chain_nullhomotopy_exists(ring: Ring, n: int, u: int) -> bool:
    """Exhaustive search for (q_1, ..., q_{n-3}) with
    u*p = p q_1 = q_1 p + p q_2 = ... = q_{n-3} p."""
    up = ring.mul(u, ring.p)
    m = n - 3
    if m < 0:
        raise ValueError("n must be >= 3")
    if m == 0:
        return up == 0
    for qs in itertools.product(range(ring.order), repeat=m):
        vals = [ring.mul(ring.p, qs[0])]
        for i in range(m - 1):
            vals.append(ring.add(ring.mul(qs[i], ring.p), ring.mul(ring.p, qs[i + 1])))
        vals.append(ring.mul(qs[-1], ring.p))
        if all(v == up for v in vals):
            return True
    return False


# --- membership by isomorphism search ---------------------------------------

_GL_CACHE: dict[tuple[str, int], list[RMatrix]] = {}


def _det2(k, m) -> int:
    return k.add(k.mul(m[0], m[3]), k.neg(k.mul(m[1], m[2])))


def gl_list(ring: Ring, size: int) -> list[RMatrix]:
    """All invertible size x size matrices over R, as unit-part lifts of
    GL(k) plus arbitrary p-parts.  Only needed for size <= 2."""
    key = (ring.spec, size)
    if key in _GL_CACHE:
        return _GL_CACHE[key]
    k, q = ring.k, ring.q
    if size == 0:
        out = [RMatrix(ring, 0, 0, [])]
    else:
        glk = []
        for entries in itertools.product(range(q), repeat=size * size):
            if size == 1:
                ok = entries[0] != 0
            elif size == 2:
                ok = _det2(k, entries) != 0
            else:
                raise ValueError("gl_list supports size <= 2")
            if ok:
                glk.append(entries)
        out = []
        for unit_part in glk:
            for p_part in itertools.product(range(q), repeat=size * size):
                out.append(RMatrix(ring, size, size, [ring.from_parts(a, b) for a, b in zip(unit_part, p_part)]))
    _GL_CACHE[key] = out
    return out


def exists_isomorphism(y: NSequence, x: NSequence) -> bool:
    """Tree search over all tuples of invertible matrices ψ with
    ψ_{i+1} ∘ y.maps[i] == x.maps[i] ∘ ψ_i (an isomorphism y -> x)."""
    if y.ranks != x.ranks:
        return False
    ring, n = x.ring, x.n

    def extend(i, psis):
        if i == n:
            return psis[0] @ y.maps[n - 1] == x.maps[n - 1] @ psis[n - 1]
        for cand in gl_list(ring, x.ranks[i]):
            if cand @ y.maps[i - 1] == x.maps[i - 1] @ psis[i - 1]:
                if extend(i + 1, psis + [cand]):
                    return True
        return False

    for first in gl_list(ring, x.ranks[0]):
        if extend(1, [first]):
            return True
    return False


def member_forms(ring: Ring, n: int, u: int, ranks) -> list[NSequence]:
    """All canonical direct sums (standard core of rank f) ⊕ (trivials with
    multiplicities t_1..t_n) matching the given rank vector."""
    ranks = tuple(ranks)
    max_t = max(ranks) if ranks else 0
    forms = []
    for f in range(min(ranks) + 1 if ranks else 1):
        for ts in itertools.product(range(max_t + 1), repeat=n):
            got = []
            for o in range(n):
                j_next = o + 1  # trivial at position o+1 covers object o
                j_self = o if o >= 1 else n  # trivial at position o covers object o too
                got.append(f + ts[j_next - 1] + ts[j_self - 1])
            if tuple(got) != ranks:
                continue
            parts = [standard_angle(ring, n, u, f)]
            for j, t in enumerate(ts, start=1):
                if t > 0:
                    parts.append(trivial_sequence(ring, n, TrivialSpec(rank=t, position=j)))
            forms.append(direct_sum(*parts))
    return forms


def oracle_membership(x: NSequence, u: int) -> bool:
    """Brute-force membership in N_u: search an isomorphism onto some
    canonical form C ⊕ F(u*p)• with matching ranks."""
    for y in member_forms(x.ring, x.n, u, x.ranks):
        if exists_isomorphism(y, x):
            return True
    return False


# --- residue-level isomorphism search for minimal cores ---------------------

_KINV_CACHE: dict[tuple[int, int, int], dict[tuple[int, ...], tuple[int, ...]]] = {}
# (p, e, r, chain, residue of u) -> the answer of the full GL_r(k) search for
# that chain; each distinct chain is still searched in full once
_SEARCH_CACHE: dict[tuple, bool] = {}


def _leibniz_det(f: NaivePolyField, r: int, m) -> int:
    """Determinant of the r x r matrix with flat entries m, as the signed sum
    over all permutations; the code p - 1 is the scalar -1."""
    det = 0
    for perm in itertools.permutations(range(r)):
        term = 1
        for i, j in enumerate(perm):
            term = f.mul(term, m[i * r + j])
        inversions = sum(perm[a] > perm[b] for a in range(r) for b in range(a + 1, r))
        det = f.add(det, f.mul(f.p - 1, term) if inversions % 2 else term)
    return det


def k_invertibles_with_inverses(field, r: int) -> dict[tuple[int, ...], tuple[int, ...]]:
    """data tuple -> inverse data tuple, for every invertible r x r matrix:
    the matrices with nonzero Leibniz determinant, inverted as adj(M)/det(M)."""
    key = (field.p, field.e, r)
    if key not in _KINV_CACHE:
        f = NaivePolyField(field.order)
        table = {}
        for entries in itertools.product(range(f.q), repeat=r * r):
            det = _leibniz_det(f, r, entries)
            if det == 0:
                continue
            det_inv = next(y for y in range(1, f.q) if f.mul(det, y) == 1)
            inv = [0] * (r * r)
            for i in range(r):
                for j in range(r):
                    minor = [entries[a * r + b] for a in range(r) if a != i for b in range(r) if b != j]
                    cofactor = _leibniz_det(f, r - 1, minor)
                    if (i + j) % 2:
                        cofactor = f.mul(f.p - 1, cofactor)
                    inv[j * r + i] = f.mul(det_inv, cofactor)
            table[entries] = tuple(inv)
        _KINV_CACHE[key] = table
    return _KINV_CACHE[key]


def _kmul_flat(field, r: int, a, b):
    if field.e == 1:
        p = field.p
        out = []
        for i in range(r):
            for j in range(r):
                acc = 0
                for t in range(r):
                    acc += a[i * r + t] * b[t * r + j]
                out.append(acc % p)
        return tuple(out)
    add, mul = field.add, field.mul
    out = [0] * (r * r)
    for i in range(r):
        for j in range(r):
            acc = 0
            for t in range(r):
                acc = add(acc, mul(a[i * r + t], b[t * r + j]))
            out[i * r + j] = acc
    return tuple(out)


def oracle_minimal_core_in_nu(core: NSequence, u: int) -> bool:
    """Exhaustive isomorphism search between a minimal core and the standard
    generator, quotiented to the residue level.

    For minimal sequences (all maps p*B) a tuple ψ over R is an isomorphism
    iff its residue tuple satisfies the residue constraints, and every residue
    solution lifts; so searching all of GL_r(k) for ψ_1 and checking the
    closed chain is a complete search of all isomorphisms.  The recurrence
    ψ_{i+1} = c_i ψ_i B_i^{-1} is unfolded once: the wrap closes iff
    u * ψ_1 * (B_1^{-1} ... B_n^{-1}) == ψ_1.
    """
    ring, n = core.ring, core.n
    r = core.ranks[0]
    if any(rk != r for rk in core.ranks):
        return False
    k = ring.k
    inv_table = k_invertibles_with_inverses(k, r)
    factors = [m.p_part().data for m in core.maps]
    if any(f not in inv_table for f in factors):
        return False
    chain = inv_table[factors[0]]
    for f in factors[1:]:
        chain = _kmul_flat(k, r, chain, inv_table[f])
    key = (k.p, k.e, r, chain, ring.residue(u))
    if key not in _SEARCH_CACHE:
        _SEARCH_CACHE[key] = _search_closing_psi1(k, r, inv_table, chain, key[-1])
    return _SEARCH_CACHE[key]


def _search_closing_psi1(k, r: int, inv_table, chain, u_res: int) -> bool:
    """Whether some ψ_1 in GL_r(k) has u * ψ_1 * chain == ψ_1, by trying all."""
    for psi1 in inv_table:
        prod = _kmul_flat(k, r, psi1, chain)
        scaled = prod if u_res == 1 else tuple(k.mul(u_res, v) for v in prod)
        if scaled == psi1:
            return True
    return False
