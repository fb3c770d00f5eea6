"""Bound quiver algebras kQ/I over F_p with monomial admissible ideals.

Paths compose right-to-left (function order): an arrow a: u -> v satisfies
a = e_v * a * e_u, and a path is stored by its walk, the tuple of arrow
indices in traversal order.  The product x * y concatenates the walk of y
followed by the walk of x when the endpoints match.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from sympy import isprime

from .errors import NotAdmissible, SpecError
from .linalg import DEFAULT_P

MAX_PATH_LEN = 64


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
    """A = kQ/I with its basis of surviving paths and multiplication table."""

    def __init__(self, quiver: Quiver, ideal: MonomialIdeal, p: int = DEFAULT_P,
                 max_path_len: int = MAX_PATH_LEN):
        if not isprime(p):
            raise SpecError(f"p = {p} is not prime; F_p must be a field")
        ideal.validate(quiver)
        self.quiver = quiver
        self.ideal = ideal
        self.p = p
        self.n = quiver.n
        self._forbidden = {tuple(w) for w in ideal.walks}
        self._enumerate_paths(max_path_len)
        self._build_mult_tensor()

    # -- construction ------------------------------------------------------

    def _is_dead(self, walk: tuple[int, ...]) -> bool:
        """Does the walk end in a forbidden subword?  (Prefixes are alive.)"""
        for rel in self._forbidden:
            if len(rel) <= len(walk) and walk[-len(rel):] == rel:
                return True
        return False

    def _enumerate_paths(self, max_path_len: int):
        q = self.quiver
        out_arrows = [[] for _ in range(self.n)]
        for i, a in enumerate(q.arrows):
            out_arrows[a.src].append(i)
        paths = [((), v, v) for v in range(self.n)]  # (walk, src, tgt)
        frontier = list(paths)
        length = 0
        while frontier:
            length += 1
            if length > max_path_len:
                raise NotAdmissible(
                    f"paths of length {max_path_len} survive; ideal is not admissible "
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
        self._index = {t[0]: i for i, t in enumerate(paths) if t[0] != ()}
        self.e_index = [self._path_lookup((), v) for v in range(self.n)]

    def _path_lookup(self, walk, src):
        for i, w in enumerate(self.paths):
            if w == walk and self.path_src[i] == src:
                return i
        return None

    def _build_mult_tensor(self):
        d = self.dim
        t = np.zeros((d, d, d), dtype=np.int64)
        for a in range(d):
            for b in range(d):
                c = self.mult_index(a, b)
                if c is not None:
                    t[a, b, c] = 1
        self.mult_tensor = t

    # -- basic queries -----------------------------------------------------

    def mult_index(self, a: int, b: int):
        """Index of paths[a] * paths[b] (b traversed first), or None."""
        if self.path_src[a] != self.path_tgt[b]:
            return None
        walk = self.paths[b] + self.paths[a]
        lw = len(walk)
        for rel in self._forbidden:
            lr = len(rel)
            if lr <= lw and any(walk[i:i + lr] == rel for i in range(lw - lr + 1)):
                return None
        if walk == ():
            return self.e_index[int(self.path_src[b])]
        return self._index[walk]

    def reduce_walk(self, walk: tuple[int, ...]):
        """Basis index of a nonempty walk, or None if it dies in the ideal."""
        lw = len(walk)
        for rel in self._forbidden:
            lr = len(rel)
            if lr <= lw and any(walk[i:i + lr] == rel for i in range(lw - lr + 1)):
                return None
        return self._index[walk]

    def path_indices(self, src: int, tgt: int) -> list[int]:
        """Basis indices of paths src -> tgt, i.e. a basis of e_tgt A e_src."""
        return [i for i in range(self.dim)
                if self.path_src[i] == src and self.path_tgt[i] == tgt]

    def hom_proj_dim(self, i: int, j: int) -> int:
        """dim Hom(P(i), P(j)) = dim e_i A e_j = #paths j -> i."""
        return len(self.path_indices(j, i))

    def unit_coeffs(self, v: int) -> np.ndarray:
        c = np.zeros(self.dim, dtype=np.int64)
        c[self.e_index[v]] = 1
        return c

    def mult_coeffs(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Product of two coefficient vectors."""
        return np.einsum("a,b,abc->c", x, y, self.mult_tensor) % self.p

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
