"""Primitive idempotent decomposition in a finite-dimensional F_p-algebra.

Used to split modules and complexes through their endomorphism algebras.
The Jacobson radical is the radical of the trace form, which is valid
because the modulus is required to exceed the algebra dimension
(FieldTooSmall otherwise).  Splitting the semisimple quotient is the only
randomized step: random elements are drawn from a seeded generator and the
minimal polynomial is factored mod p; the retry budget is explicit.
"""

from __future__ import annotations

import numpy as np
from sympy import GF, Poly, symbols

from .errors import (FieldTooSmall, Mismatch, NoSolution,
                     RandomBudgetExhausted)
from .linalg import modinv, null_space, rref, solve_right

_T = symbols("t")

DEFAULT_SPLIT_BUDGET = 64


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
    f = list(f)
    q = [0] * max(len(f) - len(g) + 1, 0)
    ginv = modinv(g[-1], p)
    while len(f) >= len(g) and any(f):
        if f[-1] == 0:
            f.pop()
            continue
        shift = len(f) - len(g)
        c = (f[-1] * ginv) % p
        q[shift] = c
        for i, b in enumerate(g):
            f[shift + i] = (f[shift + i] - c * b) % p
        f = _pnorm(f, p)
        if not f:
            break
    return _pnorm(q, p), _pnorm(f, p)


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


def _peval_elem(f, x_coords, alg):
    """Evaluate a polynomial at an algebra element (coordinate form)."""
    acc = np.zeros_like(alg.unit)
    power = alg.unit.copy()
    for c in f:
        if c:
            acc = (acc + c * power) % alg.p
        power = alg.mult(power, x_coords)
    return acc % alg.p


def factor_squarefree(f, p):
    """Irreducible factors of a squarefree monic polynomial mod p."""
    poly = Poly.from_list(list(reversed(f)), _T, domain=GF(p))
    _, factors = poly.factor_list()
    out = []
    for fac, mult in factors:
        assert mult == 1, "minimal polynomial in a semisimple algebra must be squarefree"
        coeffs = [int(c) % p for c in reversed(fac.all_coeffs())]
        out.append(_pnorm(coeffs, p))
    return sorted(out)


# -- abstract algebra in coordinates ---------------------------------------

class CoordAlgebra:
    """A unital associative F_p-algebra given by structure data in coordinates."""

    def __init__(self, p: int, dim: int, mult, unit: np.ndarray):
        self.p = p
        self.dim = dim
        self.mult = mult  # (coords, coords) -> coords
        self.unit = unit % p

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


class _Corner:
    """A corner e*S*e of a coordinate algebra, with its own basis."""

    def __init__(self, parent: CoordAlgebra, basis: np.ndarray, unit_coords: np.ndarray):
        self.parent = parent
        self.basis = basis  # parent-coords columns
        self.p = parent.p
        self.dim = basis.shape[1]
        self.unit = solve_right(basis, unit_coords.reshape(-1, 1), self.p)[:, 0]

    def to_parent(self, c):
        return (self.basis @ c) % self.p

    def mult(self, a, b):
        prod = self.parent.mult(self.to_parent(a), self.to_parent(b))
        return solve_right(self.basis, prod.reshape(-1, 1), self.p)[:, 0]

    def as_algebra(self) -> CoordAlgebra:
        return CoordAlgebra(self.p, self.dim, self.mult, self.unit)

    def is_commutative(self) -> bool:
        for i in range(self.dim):
            a = np.zeros(self.dim, dtype=np.int64)
            a[i] = 1
            for j in range(i + 1, self.dim):
                b = np.zeros(self.dim, dtype=np.int64)
                b[j] = 1
                if not np.array_equal(self.mult(a, b), self.mult(b, a)):
                    return False
        return True


def _split_corner(corner: _Corner, rng, budget: int):
    """Primitive orthogonal idempotents of a semisimple corner, parent coords."""
    if corner.dim == 1:
        return [corner.to_parent(corner.unit)]
    alg = corner.as_algebra()
    commutative = corner.is_commutative()
    for _ in range(budget):
        x = alg.random(rng)
        mp = alg.min_poly(x)
        factors = factor_squarefree(mp, alg.p)
        if len(factors) >= 2:
            idems = []
            for fac in factors:
                rest, _ = _pdivmod(mp, fac, alg.p)
                _, u, _ = _pxgcd(rest, fac, alg.p)
                e = _peval_elem(_pmul(u, rest, alg.p), x, alg)
                idems.append(e)
            out = []
            for e in idems:
                sub = _corner_of(corner, e)
                out.extend(_split_corner(sub, rng, budget))
            return out
        if commutative and len(factors) == 1 and len(mp) - 1 == corner.dim:
            # the corner is the field F_p[x]: primitive
            return [corner.to_parent(corner.unit)]
    raise RandomBudgetExhausted("semisimple splitting budget exhausted")


def _corner_of(corner: _Corner, e_coords):
    """Corner e*C*e of a corner, everything in the ultimate parent's coords."""
    parent = corner.parent
    cols = []
    for i in range(corner.dim):
        b = np.zeros(corner.dim, dtype=np.int64)
        b[i] = 1
        v = corner.mult(corner.mult(e_coords, b), e_coords)
        cols.append(corner.to_parent(v))
    mat = np.stack(cols, axis=1) % parent.p
    red, piv = rref(mat.T, parent.p)
    basis = red[: len(piv)].T
    return _Corner(parent, basis, corner.to_parent(
        corner.mult(corner.mult(e_coords, corner.unit), e_coords)))


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


def primitive_idempotents(basis_mats: list[np.ndarray], p: int, rng,
                          budget: int = DEFAULT_SPLIT_BUDGET) -> list[np.ndarray]:
    """Primitive orthogonal idempotents summing to 1 in span(basis_mats).

    The input spans a unital subalgebra of End(V) containing the identity;
    returns honest idempotent matrices.  Raises FieldTooSmall when p is not
    larger than the algebra dimension (the trace-form radical criterion).
    """
    m = len(basis_mats)
    nv = basis_mats[0].shape[0]
    if m == 0:
        raise ValueError("empty algebra basis")
    rad = trace_radical(basis_mats, p)  # columns: radical elements, in coords
    rad_dim = rad.shape[1]
    flat = np.stack([b.reshape(-1) for b in basis_mats], axis=1) % p

    def coord(mat):
        return solve_right(flat, (mat % p).reshape(-1, 1), p)[:, 0]

    def from_coord(c):
        return ((flat @ c) % p).reshape(nv, nv)

    def mult(a, b):
        return coord(from_coord(a) @ from_coord(b) % p)

    unit = coord(np.eye(nv, dtype=np.int64))
    amb = CoordAlgebra(p, m, mult, unit)

    # semisimple quotient: complement of the radical inside the coord space
    if rad_dim:
        red, piv = rref(rad.T, p)
        free = [c for c in range(m) if c not in piv]
        comp = np.zeros((m, len(free)), dtype=np.int64)
        for k, fc in enumerate(free):
            comp[fc, k] = 1
        full = np.concatenate([rad, comp], axis=1)

        def project(c):
            sol = solve_right(full, c.reshape(-1, 1), p)[:, 0]
            return sol[rad_dim:]

        def s_mult(a, b):
            return project(mult((comp @ a) % p, (comp @ b) % p))

        squot = CoordAlgebra(p, len(free), s_mult, project(unit))

        def s_to_amb(c):
            return (comp @ c) % p
    else:
        squot = amb

        def s_to_amb(c):
            return c

    top = _Corner(squot, np.eye(squot.dim, dtype=np.int64), squot.unit)
    prims_s = _split_corner(top, rng, budget)

    # lift to honest orthogonal idempotents in the ambient algebra
    nilpotency = 1
    while (1 << nilpotency) < m + 1:
        nilpotency += 1
    out = []
    used = np.zeros((nv, nv), dtype=np.int64)
    for k, es in enumerate(prims_s):
        if k == len(prims_s) - 1:
            e = (np.eye(nv, dtype=np.int64) - used) % p
        else:
            c = (np.eye(nv, dtype=np.int64) - used) % p
            x = from_coord(s_to_amb(es))
            y = c @ x @ c % p
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
    if not np.array_equal(used, np.eye(nv, dtype=np.int64) % p):
        raise Mismatch("idempotent lifting: lifted idempotents do not sum "
                       "to the identity")
    return out
