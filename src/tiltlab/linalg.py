"""Dense exact linear algebra over the prime field F_p.

Matrices are numpy int64 arrays holding residues in [0, p).  All routines are
deterministic: pivots are chosen as the first nonzero entry scanning down the
column, and underdetermined solves set every free variable to zero.
``int_det`` is the one routine over the integers.
"""

from __future__ import annotations

import numpy as np

from .errors import NoSolution

DEFAULT_P = 1009


def modmat(a, p: int) -> np.ndarray:
    """Coerce array-like data to an int64 residue matrix mod p."""
    m = np.asarray(a, dtype=np.int64) % p
    if m.ndim == 1:
        m = m.reshape(-1, 1)
    return m


def zeros(rows: int, cols: int) -> np.ndarray:
    return np.zeros((rows, cols), dtype=np.int64)


def eye(n: int) -> np.ndarray:
    return np.eye(n, dtype=np.int64)


def modinv(a: int, p: int) -> int:
    a %= p
    if a == 0:
        raise ZeroDivisionError("inverse of 0 mod p")
    return pow(int(a), p - 2, p)


def rref(a, p: int):
    """Reduced row echelon form.

    Returns (R, pivots) where pivots is the list of pivot column indices.
    """
    m = modmat(a, p).copy()
    rows, cols = m.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r >= rows:
            break
        nz = np.nonzero(m[r:, c])[0]
        if nz.size == 0:
            continue
        pr = r + int(nz[0])
        if pr != r:
            m[[r, pr]] = m[[pr, r]]
        m[r] = (m[r] * modinv(int(m[r, c]), p)) % p
        other = np.nonzero(m[:, c])[0]
        other = other[other != r]
        if other.size:
            m[other] = (m[other] - np.outer(m[other, c], m[r])) % p
        pivots.append(c)
        r += 1
    return m, pivots


def rank(a, p: int) -> int:
    _, piv = rref(a, p)
    return len(piv)


def null_space(a, p: int) -> np.ndarray:
    """Columns form a basis of the right kernel; canonical (from the RREF)."""
    m = modmat(a, p)
    rows, cols = m.shape
    r, piv = rref(m, p)
    free = [c for c in range(cols) if c not in piv]
    basis = zeros(cols, len(free))
    for k, fc in enumerate(free):
        basis[fc, k] = 1
        for i, pc in enumerate(piv):
            basis[pc, k] = (-r[i, fc]) % p
    return basis


def solve_right(a, b, p: int) -> np.ndarray:
    """One solution X of A X = B, free variables zero.  Raises NoSolution."""
    m = modmat(a, p)
    rhs = modmat(b, p)
    rows, cols = m.shape
    if rhs.shape[0] != rows:
        raise ValueError(f"shape mismatch: {m.shape} vs {rhs.shape}")
    aug = np.concatenate([m, rhs], axis=1)
    r, piv = rref(aug, p)
    nb = rhs.shape[1]
    for c in piv:
        if c >= cols:
            raise NoSolution("inconsistent linear system")
    x = zeros(cols, nb)
    for i, pc in enumerate(piv):
        x[pc] = r[i, cols:]
    return x


def inv(a, p: int) -> np.ndarray:
    m = modmat(a, p)
    n = m.shape[0]
    if m.shape[0] != m.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    r, piv = rref(np.concatenate([m, eye(n)], axis=1), p)
    if len([c for c in piv if c < n]) != n:
        raise NoSolution("matrix is singular")
    return r[:, n:]


def is_invertible(a, p: int) -> bool:
    m = modmat(a, p)
    return m.shape[0] == m.shape[1] and rank(m, p) == m.shape[0]


def column_space(a, p: int) -> np.ndarray:
    """Canonical basis (RREF rows, transposed back) of the column space."""
    m = modmat(a, p)
    r, piv = rref(m.T, p)
    return r[: len(piv)].T


def in_span(vec, basis, p: int) -> bool:
    """Is vec in the column span of basis?"""
    try:
        solve_right(basis, vec, p)
        return True
    except NoSolution:
        return False


def span_union(*mats, p: int) -> np.ndarray:
    """Canonical basis of the sum of the column spaces."""
    parts = [modmat(m, p) for m in mats if m is not None and m.size]
    if not parts:
        rows = 0
        for m in mats:
            if m is not None:
                rows = modmat(m, p).shape[0]
                break
        return zeros(rows, 0)
    return column_space(np.concatenate(parts, axis=1), p)


def int_det(rows) -> int:
    """Determinant of a square integer matrix (a list of rows), exactly.

    Bareiss fraction-free elimination on Python ints: every division is
    exact, and no entry outgrows a minor of the input.
    """
    m = [[int(c) for c in r] for r in rows]
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1
