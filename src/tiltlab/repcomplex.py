"""Cochain complexes of quiver representations.

Complexes are stored on a finite window of degrees with differentials
raising degree by one.  Everything here works at the level of honest
representations; the projective / homotopy-category layer builds on top.
"""
from __future__ import annotations

from types import MappingProxyType

from .algebra import BoundQuiverAlgebra
from .linalg import column_space, rank, solve_right, zeros
from .memo import memo
from .repcat import (
    ModuleMap,
    Representation,
    direct_sum,
    kernel,
    quotient_by_subspaces,
    zero_map,
    zero_rep,
)


class RepComplex:
    """A bounded cochain complex of representations.

    ``terms[k]`` sits in degree ``lo + k``; ``diffs[k]`` maps
    ``terms[k] -> terms[k + 1]``.
    """

    def __init__(self, alg: BoundQuiverAlgebra, lo: int,
                 terms: list[Representation], diffs: list[ModuleMap]):
        if len(diffs) != max(len(terms) - 1, 0):
            raise ValueError("need exactly len(terms) - 1 differentials")
        self.alg = alg
        self.lo = int(lo)
        self.terms = list(terms)
        self.diffs = list(diffs)

    @property
    def hi(self) -> int:
        return self.lo + len(self.terms) - 1

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.terms)

    def content_key(self) -> tuple:
        """lo, the term dims and arrow matrices, and the differentials.

        Matrices enter as bytes: their shapes follow from the dims and they
        hold int64 residues, so equal keys mean equal complexes.  ``memo``
        shares one table per key.
        """
        return (self.lo,
                tuple((t.dims, tuple(m.tobytes() for m in t.mats))
                      for t in self.terms),
                tuple(tuple(m.tobytes() for m in d.vmaps)
                      for d in self.diffs))

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.terms))

    def term_at(self, q: int) -> Representation:
        if self.lo <= q <= self.hi:
            return self.terms[q - self.lo]
        return zero_rep(self.alg)

    def diff_at(self, q: int) -> ModuleMap:
        """The differential leaving degree q (zero map outside the window)."""
        if self.lo <= q < self.hi:
            return self.diffs[q - self.lo]
        return zero_map(self.term_at(q), self.term_at(q + 1))

    def validate(self) -> None:
        for k, d in enumerate(self.diffs):
            if d.src is not self.terms[k] or d.tgt is not self.terms[k + 1]:
                raise AssertionError(f"differential at degree {self.lo + k} "
                                     "does not join its terms")
            d.validate()
        for k in range(len(self.diffs) - 1):
            if not self.diffs[k + 1].after(self.diffs[k]).is_zero():
                raise AssertionError(f"d^2 != 0 leaving degree {self.lo + k}")

    def shift(self, s: int) -> "RepComplex":
        """X[s]: X^(q+s) in degree q, differentials times (-1)^s; X[0] is X."""
        if s == 0:
            return self
        diffs = self.diffs if s % 2 == 0 else [d.neg() for d in self.diffs]
        return RepComplex(self.alg, self.lo - s, self.terms, diffs)

    def pad(self, lo: int, hi: int) -> "RepComplex":
        """The same complex on an enlarged window, padded with zero terms."""
        if lo > self.lo or hi < self.hi:
            raise ValueError("pad window must contain the current window")
        terms = [self.term_at(q) for q in range(lo, hi + 1)]
        diffs = [self.diff_at(q) for q in range(lo, hi)]
        # reuse the padded terms so identity checks in validate() hold
        for k in range(hi - lo):
            diffs[k] = ModuleMap(terms[k], terms[k + 1], diffs[k].vmaps)
        return RepComplex(self.alg, lo, terms, diffs)

    def trim(self) -> "RepComplex":
        """Drop zero terms at both ends of the window; self when none."""
        k0, k1 = 0, len(self.terms)
        while k0 < k1 and self.terms[k0].is_zero():
            k0 += 1
        while k1 > k0 and self.terms[k1 - 1].is_zero():
            k1 -= 1
        if k0 == k1:
            return RepComplex(self.alg, 0, [zero_rep(self.alg)], [])
        if (k0, k1) == (0, len(self.terms)):
            return self
        return RepComplex(self.alg, self.lo + k0,
                          self.terms[k0:k1], self.diffs[k0:k1 - 1])


def stalk_complex(m: Representation, degree: int = 0) -> RepComplex:
    return RepComplex(m.alg, degree, [m], [])


class ComplexMap:
    """A degreewise map of complexes commuting with the differentials."""

    def __init__(self, src: RepComplex, tgt: RepComplex,
                 maps: dict[int, ModuleMap]):
        self.src = src
        self.tgt = tgt
        self.maps = dict(maps)

    def map_at(self, q: int) -> ModuleMap:
        if q in self.maps:
            return self.maps[q]
        return zero_map(self.src.term_at(q), self.tgt.term_at(q))

    def validate(self) -> None:
        for q, f in self.maps.items():
            if f.src is not self.src.term_at(q) \
                    or f.tgt is not self.tgt.term_at(q):
                raise AssertionError(f"map at degree {q} does not join the "
                                     "terms")
            f.validate()
        for q in range(min(self.src.lo, self.tgt.lo) - 1,
                       max(self.src.hi, self.tgt.hi) + 1):
            lhs = self.map_at(q + 1).after(self.src.diff_at(q))
            rhs = self.tgt.diff_at(q).after(self.map_at(q))
            if not lhs.add(rhs.neg()).is_zero():
                raise AssertionError(f"not a chain map at degree {q}")


def complex_cone(f: ComplexMap) -> RepComplex:
    """cone(f)^q = X^(q+1) + Y^q with d(x, y) = (-dx, f(x) + dy)."""
    alg = f.src.alg
    x, y = f.src, f.tgt
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    terms = [direct_sum([x.term_at(q + 1), y.term_at(q)], alg)
             for q in range(lo, hi + 1)]
    diffs = []
    for q in range(lo, hi):
        src, tgt = terms[q - lo], terms[q + 1 - lo]
        dx, dy = x.diff_at(q + 1), y.diff_at(q)
        fq = f.map_at(q + 1)
        vmaps = []
        for v in range(alg.n):
            blk = zeros(tgt.dims[v], src.dims[v])
            r0 = x.term_at(q + 2).dims[v]
            c0 = x.term_at(q + 1).dims[v]
            blk[:r0, :c0] = (-dx.vmaps[v]) % alg.p
            blk[r0:, :c0] = fq.vmaps[v]
            blk[r0:, c0:] = dy.vmaps[v]
            vmaps.append(blk)
        diffs.append(ModuleMap(src, tgt, vmaps))
    return RepComplex(alg, lo, terms, diffs)


def _coker_of(g: ModuleMap):
    alg = g.src.alg
    subs = [column_space(g.vmaps[v], alg.p) for v in range(alg.n)]
    return quotient_by_subspaces(g.tgt, subs)


def homology_at(c: RepComplex, q: int) -> Representation:
    """H^q(c) as a representation: both smart truncations at q."""
    return truncate_below(truncate_above(c, q), q).term_at(q)


def homology_dims(c: RepComplex) -> MappingProxyType[int, tuple]:
    """Nonzero homology dimension vectors, read off vertexwise ranks.

    dim H^q_v = dim C^q_v - rk d^q_v - rk d^(q-1)_v.  Counted once per
    complex and kept in ``memo(c)``; the result is read-only, since every
    caller shares it.
    """
    store, key = memo(c), ("homology_dims",)
    if key in store:
        return store[key]
    alg = c.alg
    out = {}
    entering = [0] * alg.n
    for k, term in enumerate(c.terms):
        leaving = [0] * alg.n
        if k < len(c.diffs):
            leaving = [rank(m, alg.p) if m.size else 0
                       for m in c.diffs[k].vmaps]
        dims = tuple(term.dims[v] - leaving[v] - entering[v]
                     for v in range(alg.n))
        if any(dims):
            out[c.lo + k] = dims
        entering = leaving
    store[key] = MappingProxyType(out)
    return store[key]


def truncate_above(c: RepComplex, qmax: int,
                   ker: tuple | None = None) -> RepComplex:
    """Smart truncation keeping homology in degrees <= qmax.

    The degree-qmax term is replaced by the kernel of the outgoing
    differential; a caller that already has it passes it as ``ker``, the
    pair (z, incl) returned by ``kernel``.
    """
    alg = c.alg
    if qmax >= c.hi:
        return c
    if qmax < c.lo:
        return RepComplex(alg, qmax, [zero_rep(alg)], [])
    z, incl = ker if ker is not None else kernel(c.diff_at(qmax))
    terms = [c.term_at(q) for q in range(c.lo, qmax)] + [z]
    diffs = [c.diff_at(q) for q in range(c.lo, qmax - 1)]
    if qmax > c.lo:
        d = c.diff_at(qmax - 1)
        co = [solve_right(incl.vmaps[v], d.vmaps[v], alg.p)
              for v in range(alg.n)]
        diffs.append(ModuleMap(terms[-2], z, co))
    return RepComplex(alg, c.lo, terms, diffs)


def truncate_below(c: RepComplex, qmin: int) -> RepComplex:
    """Smart truncation keeping homology in degrees >= qmin.

    The degree-qmin term is replaced by the cokernel of the incoming
    differential.
    """
    alg = c.alg
    if qmin <= c.lo:
        return c
    if qmin > c.hi:
        return RepComplex(alg, qmin, [zero_rep(alg)], [])
    q0, pi, secs = _coker_of(c.diff_at(qmin - 1))
    terms = [q0] + [c.term_at(q) for q in range(qmin + 1, c.hi + 1)]
    diffs = []
    if qmin < c.hi:
        d = c.diff_at(qmin)
        # induced map on the cokernel: well defined since d^2 = 0
        vmaps = [(d.vmaps[v] @ secs[v]) % alg.p for v in range(alg.n)]
        diffs.append(ModuleMap(q0, terms[1], vmaps))
        diffs.extend(c.diff_at(q) for q in range(qmin + 1, c.hi))
    return RepComplex(alg, qmin, terms, diffs)
