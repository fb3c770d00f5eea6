"""Primitive idempotent decomposition in a finite-dimensional F_p-algebra.

Used to split modules and complexes through their endomorphism algebras.
The Jacobson radical is the radical of the trace form, which is valid
because the modulus is required to exceed the algebra dimension
(FieldTooSmall otherwise).  The semisimple quotient and every corner
e*S*e split off from it are held by structure constants: one table per
corner, table[a, b] = coordinates of basis_a * basis_b, solved once when
the corner is built, so a product is two contractions and never a linear
solve.  Splitting the semisimple quotient is the only randomized step:
random elements are drawn from a seeded generator and the minimal
polynomial is factored mod p, at most ``SPLIT_BUDGET`` times per corner.
The factoring is distinct-degree, then Cantor-Zassenhaus equal-degree
splitting (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 14).
"""

from __future__ import annotations

import random

import numpy as np

from .errors import (FieldTooSmall, Mismatch, NoSolution,
                     RandomBudgetExhausted)
from .linalg import modinv, null_space, rref, solve_right

# random elements drawn per corner before splitting gives up
SPLIT_BUDGET = 64


# -- polynomials mod p (coefficient lists, lowest degree first) -------------

def _pnorm(f, p):
    f = [c % p for c in f]
    while f and f[-1] == 0:
        f.pop()
    return f


def _pmul(f, g, p):
    if not f or not g:
        return []
    out = [0] * (len(f) + len(g) - 1)
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = (out[i + j] + a * b) % p
    return _pnorm(out, p)


def _pdivmod(f, g, p):
    f, n = list(f), len(g) - 1
    q = [0] * max(len(f) - n, 0)
    ginv = modinv(g[-1], p)
    for shift in range(len(f) - 1 - n, -1, -1):
        c = f[shift + n] * ginv % p
        if c:
            q[shift] = c
            for i, b in enumerate(g):
                f[shift + i] = (f[shift + i] - c * b) % p
    return _pnorm(q, p), _pnorm(f[:n], p)


def _psub(f, g, p):
    width = max(len(f), len(g))
    f = f + [0] * (width - len(f))
    g = g + [0] * (width - len(g))
    return _pnorm([a - b for a, b in zip(f, g)], p)


def _pxgcd(f, g, p):
    """Returns (d, u, v) with u f + v g = d, d monic."""
    r0, r1 = _pnorm(f, p), _pnorm(g, p)
    u0, u1 = [1], []
    v0, v1 = [], [1]
    while r1:
        q, r = _pdivmod(r0, r1, p)
        r0, r1 = r1, r
        u0, u1 = u1, _psub(u0, _pmul(q, u1, p), p)
        v0, v1 = v1, _psub(v0, _pmul(q, v1, p), p)
    lead = modinv(r0[-1], p)
    return ([c * lead % p for c in r0], [c * lead % p for c in u0],
            [c * lead % p for c in v0])


def _psquarefree(f, p):
    """Is f squarefree?  Its degree is below p, so f' is nonzero."""
    deriv = _pnorm([i * c for i, c in enumerate(f)][1:], p)
    return _pxgcd(f, deriv, p)[0] == [1]


def _peval_elem(f, x_coords, alg):
    """Evaluate a polynomial at an algebra element (coordinate form)."""
    acc = np.zeros_like(alg.unit)
    power = alg.unit.copy()
    for c in f:
        if c:
            acc = (acc + c * power) % alg.p
        power = alg.mult(power, x_coords)
    return acc % alg.p


def _ppowmod(f, e, m, p):
    """f^e mod m."""
    out, f = [1], _pdivmod(f, m, p)[1]
    while e:
        if e & 1:
            out = _pdivmod(_pmul(out, f, p), m, p)[1]
        e >>= 1
        if e:
            f = _pdivmod(_pmul(f, f, p), m, p)[1]
    return out


def _distinct_degree(f, p):
    """[(g, d)]: g is the product of f's irreducible factors of degree d.

    f is squarefree and monic.  The factors of degree d divide
    x^(p^d) - x, so each gcd with it takes them off f.
    """
    out, h, d = [], [0, 1], 0
    while len(f) - 1 >= 2 * (d + 1):
        d += 1
        h = _ppowmod(h, p, f, p)
        g = _pxgcd(f, _psub(h, [0, 1], p), p)[0]
        if len(g) > 1:
            out.append((g, d))
            f = _pdivmod(f, g, p)[0]
            h = _pdivmod(h, f, p)[1]
    if len(f) > 1:
        out.append((f, len(f) - 1))
    return out


def _equal_degree(g, d, p, rng):
    """Irreducible factors of g, a product of distinct ones of degree d.

    For a random a, a^((p^d - 1) / 2) is +-1 modulo each factor, each sign
    with probability about 1/2, so gcd(g, a^(...) - 1) splits g.
    """
    if len(g) - 1 == d:
        return [g]
    e = (p ** d - 1) // 2
    while True:
        a = _pnorm([rng.randrange(p) for _ in range(len(g) - 1)], p)
        h = _pxgcd(g, _psub(_ppowmod(a, e, g, p), [1], p), p)[0]
        if 1 < len(h) < len(g):
            return (_equal_degree(h, d, p, rng)
                    + _equal_degree(_pdivmod(g, h, p)[0], d, p, rng))


def factor_squarefree(f, p):
    """Sorted irreducible factors of a squarefree monic polynomial mod p.

    The splitting draws from a generator seeded by (p, f) and never from
    the caller's stream; sorted monic factors are unique, so the result
    does not depend on the draws.  p must be odd: the splitting takes
    square roots of 1.  Raises Mismatch when f is not squarefree.
    """
    if p == 2:
        raise ValueError("equal-degree splitting needs an odd p")
    f = [int(c) for c in _pnorm(f, p)]
    if not _psquarefree(f, p):
        raise Mismatch("semisimple splitting: minimal polynomial is not "
                       "squarefree")
    rng = random.Random(f"{p}:{f}")
    return sorted(fac for g, d in _distinct_degree(f, p)
                  for fac in _equal_degree(g, d, p, rng))


# -- algebras by structure constants ----------------------------------------

def _products(table, a, b, p):
    """out[i, j] = a[i] * b[j] for coordinate rows a, b under ``table``.

    table[x, y] holds the coordinates of basis_x * basis_y.  Each of the
    two contractions multiplies two reduced factors, so int64 holds them.
    """
    k = table.shape[0]
    left = (a @ table.reshape(k, -1)) % p
    return (b @ left.reshape(len(a), k, -1)) % p


class _Corner:
    """A corner e*S*e of the top algebra S, multiplying by its own table.

    ``top`` is S's structure-constant table; ``basis`` holds the corner's
    basis as columns in S's coordinates.  The unit and the products of all
    pairs of basis elements are solved into corner coordinates once, so
    table[a, b] holds the coordinates of basis_a * basis_b.
    """

    def __init__(self, top: np.ndarray, basis: np.ndarray,
                 unit_coords: np.ndarray, p: int):
        self.top, self.basis, self.p = top, basis, p
        self.dim = k = basis.shape[1]
        prods = _products(top, basis.T, basis.T, p).reshape(k * k, -1)
        sol = solve_right(basis, np.concatenate(
            [unit_coords.reshape(-1, 1), prods.T], axis=1), p)
        self.unit = sol[:, 0]
        self.table = sol[:, 1:].T.reshape(k, k, k)

    def to_parent(self, c):
        return (self.basis @ c) % self.p

    def mult(self, a, b):
        return _products(self.table, a[None], b[None], self.p)[0, 0]

    def is_commutative(self) -> bool:
        return np.array_equal(self.table, self.table.transpose(1, 0, 2))

    def random(self, rng) -> np.ndarray:
        return rng.integers(0, self.p, size=self.dim, dtype=np.int64)

    def min_poly(self, x: np.ndarray):
        """Monic minimal polynomial of x, lowest-degree-first coefficients."""
        vecs = [self.unit.copy()]
        power = self.unit.copy()
        while True:
            power = self.mult(power, x)
            basis = np.stack(vecs, axis=1)
            try:
                sol = solve_right(basis, power.reshape(-1, 1), self.p)
                coeffs = [(-int(c)) % self.p for c in sol[:, 0]] + [1]
                return coeffs
            except NoSolution:
                vecs.append(power.copy())
                if len(vecs) > self.dim + 1:
                    raise AssertionError("minimal polynomial search failed to close")


def _split_corner(corner: _Corner, rng):
    """Primitive orthogonal idempotents of a semisimple corner, top coords."""
    if corner.dim == 1:
        return [corner.to_parent(corner.unit)]
    commutative = corner.is_commutative()
    for _ in range(SPLIT_BUDGET):
        x = corner.random(rng)
        mp = corner.min_poly(x)
        if not commutative and not _psquarefree(mp, corner.p):
            continue  # x has a nilpotent part, as in a matrix block
        factors = factor_squarefree(mp, corner.p)
        if len(factors) >= 2:
            idems = []
            for fac in factors:
                rest, _ = _pdivmod(mp, fac, corner.p)
                _, u, _ = _pxgcd(rest, fac, corner.p)
                e = _peval_elem(_pmul(u, rest, corner.p), x, corner)
                idems.append(e)
            out = []
            for e in idems:
                sub = _corner_of(corner, e)
                out.extend(_split_corner(sub, rng))
            return out
        if commutative and len(factors) == 1 and len(mp) - 1 == corner.dim:
            # the corner is the field F_p[x]: primitive
            return [corner.to_parent(corner.unit)]
    raise RandomBudgetExhausted("semisimple splitting budget exhausted")


def _corner_of(corner: _Corner, e_coords):
    """Corner e*C*e of a corner, its basis rref'd in the top coordinates."""
    p = corner.p
    e = e_coords[None]
    eb = _products(corner.table, e, np.eye(corner.dim, dtype=np.int64), p)[0]
    ebe = _products(corner.table, eb, e, p)[:, 0]  # row i: e * basis_i * e
    red, piv = rref(ebe @ corner.basis.T % p, p)
    return _Corner(corner.top, red[: len(piv)].T, corner.to_parent(e_coords), p)


# -- main entry -------------------------------------------------------------

def trace_radical(mats: list[np.ndarray], p: int) -> np.ndarray:
    """Radical of the trace form on span(mats), as coordinate columns.

    This is the Jacobson radical of the algebra the matrices span, provided
    p exceeds its dimension; FieldTooSmall otherwise.
    """
    m = len(mats)
    if p <= m:
        raise FieldTooSmall(f"p = {p} must exceed dim End = {m}")
    gram = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        for j in range(i, m):
            tr = int(np.trace(mats[i] @ mats[j] % p)) % p
            gram[i, j] = tr
            gram[j, i] = tr
    return null_space(gram, p)


def primitive_idempotents(basis_mats: list[np.ndarray], p: int,
                          rng) -> list[np.ndarray]:
    """Primitive orthogonal idempotents summing to 1 in span(basis_mats).

    The input spans a unital subalgebra of End(V) containing the identity;
    returns honest idempotent matrices.  Raises FieldTooSmall when p is not
    larger than the algebra dimension (the trace-form radical criterion).
    """
    m = len(basis_mats)
    if m == 0:
        raise ValueError("empty algebra basis")
    nv = basis_mats[0].shape[0]
    ident = np.eye(nv, dtype=np.int64)
    rad = trace_radical(basis_mats, p)  # columns: radical elements, in coords
    flat = np.stack([b.reshape(-1) for b in basis_mats], axis=1) % p

    # semisimple quotient: the basis elements off the radical's pivots span
    # a complement; solve 1 and their products in [radical | complement]
    _, piv = rref(rad.T, p)
    comp = flat[:, [c for c in range(m) if c not in piv]]
    s = comp.shape[1]
    mats = comp.T.reshape(s, nv, nv)
    prods = (mats[:, None] @ mats[None]) % p
    sol = solve_right(np.concatenate([flat @ rad % p, comp], axis=1),
                      np.concatenate([ident.reshape(-1, 1),
                                      prods.reshape(s * s, -1).T], axis=1), p)
    quot = sol[m - s:]
    top = _Corner(quot[:, 1:].T.reshape(s, s, s), np.eye(s, dtype=np.int64),
                  quot[:, 0], p)
    prims_s = _split_corner(top, rng)

    # lift to honest orthogonal idempotents in the ambient algebra
    nilpotency = 1
    while (1 << nilpotency) < m + 1:
        nilpotency += 1
    out = []
    used = np.zeros((nv, nv), dtype=np.int64)
    for k, es in enumerate(prims_s):
        c = (ident - used) % p
        if k == len(prims_s) - 1:
            e = c
        else:
            x = (comp @ es % p).reshape(nv, nv)
            y = (c @ x % p) @ c % p
            for _ in range(nilpotency + 2):
                y2 = y @ y % p
                if np.array_equal(y2, y):
                    break
                y = (3 * y2 - 2 * (y2 @ y)) % p
            e = y
        if not np.array_equal(e @ e % p, e):
            raise Mismatch("idempotent lifting: lifted element is not "
                           "idempotent")
        out.append(e)
        used = (used + e) % p
    if not np.array_equal(used, ident):
        raise Mismatch("idempotent lifting: lifted idempotents do not sum "
                       "to the identity")
    return out
