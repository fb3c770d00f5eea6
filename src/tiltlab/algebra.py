"""Bound quiver algebras kQ/I over F_p with monomial admissible ideals.

Paths compose right-to-left (function order): an arrow a: u -> v satisfies
a = e_v * a * e_u, and a path is stored by its walk, the tuple of arrow
indices in traversal order.  The product x * y concatenates the walk of y
followed by the walk of x when the endpoints match.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NotAdmissible, SpecError
from .linalg import DEFAULT_P

MAX_PATH_LEN = 64
# Residues below 2^21 have products below 2^42, so an int64 holds a sum of
# 2^21 of them exactly.  The longest sums here are matrix products over a
# vertex space, an End algebra or a hom layout, all far shorter.
MAX_P = 2 ** 21


def isprime(n: int) -> bool:
    """Trial division, quick for the n below MAX_P that a field may use."""
    return n >= 2 and all(n % k for k in range(2, math.isqrt(n) + 1))


@dataclass(frozen=True)
class Arrow:
    ident: int
    src: int  # 0-based internal vertex index
    tgt: int


@dataclass
class Quiver:
    """A finite quiver with 1-based external vertex labels."""

    n: int
    arrows: list[Arrow] = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise SpecError("quiver needs at least one vertex")
        seen = set()
        for a in self.arrows:
            if not (0 <= a.src < self.n and 0 <= a.tgt < self.n):
                raise SpecError(f"arrow {a.ident} endpoints out of range")
            if a.ident in seen:
                raise SpecError(f"duplicate arrow id {a.ident}")
            seen.add(a.ident)
        self._by_ident = {a.ident: i for i, a in enumerate(self.arrows)}

    def arrow_index(self, ident: int) -> int:
        try:
            return self._by_ident[ident]
        except KeyError:
            raise SpecError(f"unknown arrow id {ident}") from None

    def is_acyclic(self) -> bool:
        indeg = [0] * self.n
        for a in self.arrows:
            indeg[a.tgt] += 1
        stack = [v for v in range(self.n) if indeg[v] == 0]
        seen = 0
        while stack:
            v = stack.pop()
            seen += 1
            for a in self.arrows:
                if a.src == v:
                    indeg[a.tgt] -= 1
                    if indeg[a.tgt] == 0:
                        stack.append(a.tgt)
        return seen == self.n


@dataclass
class MonomialIdeal:
    """Monomial relations, each a walk of arrow indices (traversal order)."""

    walks: list[tuple[int, ...]] = field(default_factory=list)

    def validate(self, quiver: Quiver):
        for w in self.walks:
            if len(w) < 2:
                raise SpecError(f"relation {w} is not in rad^2")
            for i in range(len(w) - 1):
                a, b = quiver.arrows[w[i]], quiver.arrows[w[i + 1]]
                if a.tgt != b.src:
                    raise SpecError(f"relation {w} is not a composable path")


class BoundQuiverAlgebra:
    """A = kQ/I with its basis of surviving paths and its nonzero products."""

    def __init__(self, quiver: Quiver, ideal: MonomialIdeal, p: int = DEFAULT_P):
        if p >= MAX_P:
            raise SpecError(f"p = {p} is too large: p must be below "
                            f"2^21 = {MAX_P:,} for exact int64 arithmetic")
        if not isprime(p):
            raise SpecError(f"p = {p} is not prime; F_p must be a field")
        ideal.validate(quiver)
        self.quiver = quiver
        self.ideal = ideal
        self.p = p
        self.n = quiver.n
        self._forbidden = {tuple(w) for w in ideal.walks}
        self._enumerate_paths()
        self._build_product_table()

    # -- construction ------------------------------------------------------

    def _is_dead(self, walk: tuple[int, ...]) -> bool:
        """Does the walk end in a forbidden subword?  (Prefixes are alive.)"""
        for rel in self._forbidden:
            if len(rel) <= len(walk) and walk[-len(rel):] == rel:
                return True
        return False

    def _enumerate_paths(self):
        q = self.quiver
        out_arrows = [[] for _ in range(self.n)]
        for i, a in enumerate(q.arrows):
            out_arrows[a.src].append(i)
        paths = [((), v, v) for v in range(self.n)]  # (walk, src, tgt)
        frontier = list(paths)
        length = 0
        while frontier:
            length += 1
            if length > MAX_PATH_LEN:
                raise NotAdmissible(
                    f"paths of length {MAX_PATH_LEN} survive; ideal is not admissible "
                    "within the configured bound")
            nxt = []
            for walk, src, tgt in frontier:
                for ai in out_arrows[tgt]:
                    w2 = walk + (ai,)
                    if not self._is_dead(w2):
                        item = (w2, src, q.arrows[ai].tgt)
                        nxt.append(item)
            nxt.sort(key=lambda t: (t[1], t[0]))
            paths.extend(nxt)
            frontier = nxt
        paths.sort(key=lambda t: (len(t[0]), t[1], t[0]))
        self.paths = [t[0] for t in paths]
        self.path_src = np.array([t[1] for t in paths], dtype=np.int64)
        self.path_tgt = np.array([t[2] for t in paths], dtype=np.int64)
        self.dim = len(paths)
        # every enumerated walk avoids the relations, so a composable walk
        # survives exactly when it is a key here
        self._index = {t[0]: i for i, t in enumerate(paths) if t[0] != ()}
        by_ends: dict[tuple[int, int], list[int]] = {}
        for i, (_, src, tgt) in enumerate(paths):
            by_ends.setdefault((src, tgt), []).append(i)
        self._by_ends = {k: tuple(v) for k, v in by_ends.items()}
        # paths are sorted by length, so e_v comes first among v -> v
        self.e_index = [self._by_ends[(v, v)][0] for v in range(self.n)]
        # path b = last arrow o prefix; in a monomial algebra the prefix of
        # a surviving path survives and, being shorter, comes before b.
        # Trivial paths have neither (-1).  Tuples of ints: they are read
        # one entry at a time.
        self.path_prefix = tuple(
            -1 if not walk else self.e_index[src] if len(walk) == 1
            else self._index[walk[:-1]] for walk, src, _ in paths)
        self.path_arrow = tuple(walk[-1] if walk else -1
                                for walk, _, _ in paths)

    def _build_product_table(self):
        """Keep the nonzero products as triples (mult_a, mult_b, mult_c).

        paths[mult_a[t]] * paths[mult_b[t]] = paths[mult_c[t]], sorted by
        (c, a, b), one triple per nonzero product, so the table grows with
        the number of nonzero products.  Every path c is the product
        e_tgt(c) * c, so each c in range(dim) owns one nonempty run of
        triples, starting at ``_mult_starts[c]``.
        """
        starting_at = [[] for _ in range(self.n)]
        for a in range(self.dim):
            starting_at[int(self.path_src[a])].append(a)
        triples = []
        for b in range(self.dim):
            for a in starting_at[int(self.path_tgt[b])]:
                walk = self.paths[b] + self.paths[a]
                # an empty walk is e_v * e_v = e_v, and b is that e_v
                c = self._index.get(walk) if walk else b
                if c is not None:
                    triples.append((c, a, b))
        triples.sort()
        self.mult_c, self.mult_a, self.mult_b = \
            np.array(triples, dtype=np.int64).reshape(-1, 3).T.copy()
        self._mult_starts = np.searchsorted(self.mult_c, np.arange(self.dim))

    # -- basic queries -----------------------------------------------------

    def reduce_walk(self, walk: tuple[int, ...]):
        """Basis index of a nonempty walk, or None if it dies in the ideal."""
        return self._index.get(walk)

    def path_indices(self, src: int, tgt: int) -> tuple[int, ...]:
        """Basis indices of paths src -> tgt, i.e. a basis of e_tgt A e_src."""
        return self._by_ends.get((src, tgt), ())

    def unit_coeffs(self, v: int) -> np.ndarray:
        c = np.zeros(self.dim, dtype=np.int64)
        c[self.e_index[v]] = 1
        return c

    def contract(self, terms: np.ndarray) -> np.ndarray:
        """Sum product terms into paths, reduced mod p.

        ``terms[..., t]`` is what the t-th nonzero product contributes to
        paths[mult_c[t]]; the last axis of the result runs over the basis.
        """
        return np.add.reduceat(terms, self._mult_starts, axis=-1) % self.p

    def mult_coeffs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        return self.contract(x.take(self.mult_a) * y.take(self.mult_b))

    def is_hereditary(self) -> bool:
        return not self.ideal.walks and self.quiver.is_acyclic()

    def __repr__(self):
        return (f"BoundQuiverAlgebra(n={self.n}, arrows={len(self.quiver.arrows)}, "
                f"relations={len(self.ideal.walks)}, dim={self.dim}, p={self.p})")


def build_algebra(n: int, arrows: list[tuple[int, int, int]],
                  relations: list[list[int]] | None = None,
                  p: int = DEFAULT_P) -> BoundQuiverAlgebra:
    """Build kQ/I from 1-based vertex data.

    Args:
        n: number of vertices (labelled 1..n externally).
        arrows: triples (id, src, tgt) with 1-based vertices.
        relations: arrow-id walks in traversal order.
    """
    if n < 1:
        raise SpecError("vertex count must be positive")
    arr = []
    for ident, src, tgt in arrows:
        if not (1 <= src <= n and 1 <= tgt <= n):
            raise SpecError(f"arrow {ident} endpoints out of 1..{n}")
        arr.append(Arrow(ident, src - 1, tgt - 1))
    quiver = Quiver(n, arr)
    walks = []
    for rel in relations or []:
        walks.append(tuple(quiver.arrow_index(i) for i in rel))
    return BoundQuiverAlgebra(quiver, MonomialIdeal(walks), p=p)
