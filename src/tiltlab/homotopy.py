"""Bounded complexes of projectives and their homotopy category.

A ``ProjComplex`` keeps, per degree, an ordered list of vertices (one per
indecomposable projective summand) and stores differentials as matrices of
algebra elements: entry (r, c) of a differential is a coefficient vector
over the path basis, supported on paths from the target summand's vertex
to the source summand's vertex.  Expanding everything to honest
representations is available but most computations stay in algebra
coordinates, which keeps hom spaces, cones and Gaussian elimination small.

A hom space Hom(X, C[i]) is a ``HomPackage``: maps out of X are recorded
by the images of X's summand generators, one operator g -> d g +- g d gives
both the chain-map equations and the null-homotopies, and one pivot pass
picks the class representatives.
"""
from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra
from .endsplit import primitive_idempotents, trace_radical
from .errors import (FieldTooSmall, Mismatch, NoSolution,
                     RandomBudgetExhausted, WindowViolation)
from .linalg import (column_space, eye, in_span, inv, null_space, rref,
                     solve_right, span_union, zeros)
from .memo import memo
from .repcat import (
    ModuleMap,
    ProjSum,
    alg_matrix_of_map,
    map_of_alg_matrix,
    projective_cover,
    sub_from_subspaces,
)
from .repcomplex import ComplexMap, RepComplex


# -- algebra-coefficient matrices ------------------------------------------

def azeros(alg: BoundQuiverAlgebra, r: int, c: int) -> np.ndarray:
    return np.zeros((r, c, alg.dim), dtype=np.int64)


def aidentity(alg: BoundQuiverAlgebra, summands: list[int]) -> np.ndarray:
    m = azeros(alg, len(summands), len(summands))
    for k, v in enumerate(summands):
        m[k, k, alg.e_index[v]] = 1
    return m


def amul(alg: BoundQuiverAlgebra, second: np.ndarray,
         first: np.ndarray) -> np.ndarray:
    """Matrix of the composite map (first applied first).

    Composition of maps between projectives multiplies the representing
    algebra elements in the opposite order, so entry (r, c) is
    sum_k first[k, c] * second[r, k].
    """
    if not (first.size and second.size):
        return azeros(alg, second.shape[0], first.shape[1])
    return alg.contract(np.einsum("kct,rkt->rct",
                                  first.take(alg.mult_a, axis=2),
                                  second.take(alg.mult_b, axis=2)))


def _support_ok(alg: BoundQuiverAlgebra, mat: np.ndarray,
                src_summands: list[int], tgt_summands: list[int]) -> bool:
    for r, vr in enumerate(tgt_summands):
        for c, vc in enumerate(src_summands):
            for b in np.nonzero(mat[r, c])[0]:
                if alg.path_src[b] != vr or alg.path_tgt[b] != vc:
                    return False
    return True


def elem_inverse(alg: BoundQuiverAlgebra, u: np.ndarray, v: int) -> np.ndarray:
    """Inverse of u in e_v A e_v; u must have a nonzero scalar part."""
    lam = int(u[alg.e_index[v]]) % alg.p
    if not lam:
        raise ValueError("element has no scalar part")
    lam_inv = pow(lam, alg.p - 2, alg.p)
    rad = u.copy()
    rad[alg.e_index[v]] = 0
    # geometric series: (lam(e + lam^-1 r))^-1 = lam^-1 sum (-lam^-1 r)^k
    out = alg.unit_coeffs(v)
    term = alg.unit_coeffs(v)
    step = (-lam_inv * rad) % alg.p
    while True:
        term = alg.mult_coeffs(term, step)
        if not np.any(term):
            break
        out = (out + term) % alg.p
    return (lam_inv * out) % alg.p


# -- the complexes ----------------------------------------------------------

class ProjComplex:
    """A bounded complex of projectives in algebra coordinates.

    ``summands[k]`` lists the projective summands (by vertex) in degree
    ``lo + k``; ``dmats[k]`` is the algebra matrix of the differential
    from degree ``lo + k`` to ``lo + k + 1``.
    """

    def __init__(self, alg: BoundQuiverAlgebra, lo: int,
                 summands: list[list[int]], dmats: list[np.ndarray]):
        if len(dmats) != max(len(summands) - 1, 0):
            raise ValueError("need exactly len(summands) - 1 differentials")
        self.alg = alg
        self.lo = int(lo)
        self.summands = [list(map(int, s)) for s in summands]
        self.dmats = [np.asarray(m, dtype=np.int64) % alg.p for m in dmats]

    @property
    def hi(self) -> int:
        return self.lo + len(self.summands) - 1

    def degrees(self) -> range:
        return range(self.lo, self.lo + len(self.summands))

    def count(self, q: int) -> int:
        if self.lo <= q <= self.hi:
            return len(self.summands[q - self.lo])
        return 0

    def summands_at(self, q: int) -> list[int]:
        if self.lo <= q <= self.hi:
            return self.summands[q - self.lo]
        return []

    def dmat_at(self, q: int) -> np.ndarray:
        if self.lo <= q < self.hi:
            return self.dmats[q - self.lo]
        return azeros(self.alg, self.count(q + 1), self.count(q))

    @property
    def total_count(self) -> int:
        return sum(len(s) for s in self.summands)

    def is_zero(self) -> bool:
        return self.total_count == 0

    def graded_mults(self) -> dict[int, tuple[int, ...]]:
        out = {}
        for q in self.degrees():
            s = self.summands_at(q)
            if s:
                m = [0] * self.alg.n
                for v in s:
                    m[v] += 1
                out[q] = tuple(m)
        return out

    def shape_key(self):
        t = self.trim()
        return (t.lo, tuple(tuple(sorted(s)) for s in t.summands))

    def psum_at(self, q: int) -> ProjSum:
        return ProjSum.of(self.alg, self.summands_at(q))

    def expansion(self) -> RepComplex:
        store, key = memo(self), ("expansion",)
        if key not in store:
            psums = [self.psum_at(q) for q in self.degrees()]
            diffs = [map_of_alg_matrix(self.dmats[k], psums[k], psums[k + 1])
                     for k in range(len(self.dmats))]
            store[key] = RepComplex(self.alg, self.lo,
                                    [ps.rep for ps in psums], diffs)
        return store[key]

    def validate(self) -> None:
        for k, m in enumerate(self.dmats):
            if m.shape != (len(self.summands[k + 1]), len(self.summands[k]),
                           self.alg.dim) or not _support_ok(
                    self.alg, m, self.summands[k], self.summands[k + 1]):
                raise AssertionError(f"differential at degree {self.lo + k} "
                                     "has bad shape or support")
        for k in range(len(self.dmats) - 1):
            comp = amul(self.alg, self.dmats[k + 1], self.dmats[k])
            if np.any(comp):
                raise AssertionError(f"d^2 != 0 leaving degree {self.lo + k}")

    def shift(self, s: int) -> "ProjComplex":
        """X[s], with differentials scaled by (-1)^s; X[0] is X itself."""
        if s == 0:
            return self
        dmats = self.dmats if s % 2 == 0 else [-m for m in self.dmats]
        return ProjComplex(self.alg, self.lo - s, self.summands, dmats)

    def pad(self, lo: int, hi: int) -> "ProjComplex":
        if lo > self.lo or hi < self.hi:
            raise ValueError("pad window must contain the current window")
        summands = [self.summands_at(q) for q in range(lo, hi + 1)]
        dmats = [self.dmat_at(q) for q in range(lo, hi)]
        return ProjComplex(self.alg, lo, summands, dmats)

    def trim(self) -> "ProjComplex":
        """Drop empty degrees at both ends; self when there are none."""
        k0, k1 = 0, len(self.summands)
        while k0 < k1 and not self.summands[k0]:
            k0 += 1
        while k1 > k0 and not self.summands[k1 - 1]:
            k1 -= 1
        if k0 == k1:
            return ProjComplex(self.alg, 0, [[]], [])
        if (k0, k1) == (0, len(self.summands)):
            return self
        return ProjComplex(self.alg, self.lo + k0,
                           self.summands[k0:k1], self.dmats[k0:k1 - 1])

    def __repr__(self):
        parts = ", ".join(f"{q}:{self.summands_at(q)}" for q in self.degrees())
        return f"ProjComplex({parts})"


def proj_stalk(alg: BoundQuiverAlgebra, v: int, degree: int = 0) -> ProjComplex:
    return ProjComplex(alg, degree, [[v]], [])


def proj_zero(alg: BoundQuiverAlgebra) -> ProjComplex:
    return ProjComplex(alg, 0, [[]], [])


def proj_direct_sum(parts: list[ProjComplex],
                    alg: BoundQuiverAlgebra | None = None) -> ProjComplex:
    parts = [x for x in parts if not x.is_zero()]
    if not parts:
        return proj_zero(alg)
    alg = parts[0].alg
    lo = min(x.lo for x in parts)
    hi = max(x.hi for x in parts)
    padded = [x.pad(lo, hi) for x in parts]
    summands = [sum((x.summands_at(q) for x in padded), [])
                for q in range(lo, hi + 1)]
    dmats = []
    for q in range(lo, hi):
        blk = azeros(alg, len(summands[q + 1 - lo]), len(summands[q - lo]))
        ro = co = 0
        for x in padded:
            r, c = x.count(q + 1), x.count(q)
            blk[ro:ro + r, co:co + c] = x.dmat_at(q)
            ro += r
            co += c
        dmats.append(blk)
    return ProjComplex(alg, lo, summands, dmats)


class ChainMap:
    """A degreewise map of projective complexes, in algebra coordinates."""

    def __init__(self, src: ProjComplex, tgt: ProjComplex,
                 mats: dict[int, np.ndarray]):
        self.src = src
        self.tgt = tgt
        self.alg = src.alg
        self.mats = {int(q): np.asarray(m, dtype=np.int64) % self.alg.p
                     for q, m in mats.items()}

    def map_at(self, q: int) -> np.ndarray:
        if q in self.mats:
            return self.mats[q]
        return azeros(self.alg, self.tgt.count(q), self.src.count(q))

    def validate(self) -> None:
        for q, m in self.mats.items():
            if m.shape != (self.tgt.count(q), self.src.count(q),
                           self.alg.dim) or not _support_ok(
                    self.alg, m, self.src.summands_at(q),
                    self.tgt.summands_at(q)):
                raise AssertionError(f"map at degree {q} has bad shape or "
                                     "support")
        for q in range(min(self.src.lo, self.tgt.lo) - 1,
                       max(self.src.hi, self.tgt.hi) + 1):
            lhs = amul(self.alg, self.map_at(q + 1), self.src.dmat_at(q))
            rhs = amul(self.alg, self.tgt.dmat_at(q), self.map_at(q))
            if not np.array_equal(lhs, rhs):
                raise AssertionError(f"not a chain map at degree {q}")

    def compose(self, other: "ChainMap") -> "ChainMap":
        """self o other (other applied first)."""
        out = {}
        for q in range(max(self.src.lo, other.src.lo) - 1,
                       min(self.src.hi, other.src.hi) + 2):
            m = amul(self.alg, self.map_at(q), other.map_at(q))
            if np.any(m):
                out[q] = m
        return ChainMap(other.src, self.tgt, out)

    def shift(self, s: int) -> "ChainMap":
        return ChainMap(self.src.shift(s), self.tgt.shift(s),
                        {q - s: m for q, m in self.mats.items()})

    def expand(self) -> ComplexMap:
        # psum_at(q).rep is the expansion's term at q, for every q
        maps = {q: map_of_alg_matrix(self.map_at(q), self.src.psum_at(q),
                                     self.tgt.psum_at(q))
                for q in range(min(self.src.lo, self.tgt.lo),
                               max(self.src.hi, self.tgt.hi) + 1)}
        return ComplexMap(self.src.expansion(), self.tgt.expansion(), maps)


def chain_identity(x: ProjComplex) -> ChainMap:
    return ChainMap(x, x, {q: aidentity(x.alg, x.summands_at(q))
                           for q in x.degrees()})


def proj_cone(f: ChainMap) -> ProjComplex:
    """cone(f)^q = X^(q+1) + Y^q with d(x, y) = (-dx, f(x) + dy)."""
    alg = f.alg
    x, y = f.src, f.tgt
    lo = min(x.lo - 1, y.lo)
    hi = max(x.hi - 1, y.hi)
    summands = [x.summands_at(q + 1) + y.summands_at(q)
                for q in range(lo, hi + 1)]
    dmats = []
    for q in range(lo, hi):
        blk = azeros(alg, len(summands[q + 1 - lo]), len(summands[q - lo]))
        r0, c0 = x.count(q + 2), x.count(q + 1)
        blk[:r0, :c0] = (-x.dmat_at(q + 1)) % alg.p
        blk[r0:, :c0] = f.map_at(q + 1)
        blk[r0:, c0:] = y.dmat_at(q)
        dmats.append(blk)
    return ProjComplex(alg, lo, summands, dmats)


def cocone_with_maps(g: ChainMap):
    """(cocone V, connecting map target -> V[1]).

    V[1] = cone(g), and the connecting map is the inclusion of the target.
    """
    c = proj_cone(g)
    x, y = g.src, g.tgt
    conn = ChainMap(y, c, {
        q: np.concatenate([azeros(g.alg, x.count(q + 1), y.count(q)),
                           aidentity(g.alg, y.summands_at(q))], axis=0)
        for q in y.degrees()})
    return c.shift(-1), conn


# -- hom spaces in the homotopy category -----------------------------------

def _layout(x: ProjComplex, c: RepComplex, offset: int):
    """Generator-image coordinates for maps g^q : X^q -> C^(q+offset).

    Returns ({(q, s): (v, slice)}, total): summand s of X^q, at vertex v,
    owns coords[slice], the image of its generator in C^(q+offset) at v.
    """
    blocks, total = {}, 0
    for q in x.degrees():
        dims = c.term_at(q + offset).dims
        for s, v in enumerate(x.summands_at(q)):
            blocks[(q, s)] = (v, slice(total, total + dims[v]))
            total += dims[v]
    return blocks, total


class HomPackage:
    """Hom(X, C[i]) for X a complex of projectives.

    Maps out of X live in generator-image coordinates (``_layout``).  The
    operator g -> d_C g + sign g d_X at degree 0, sign -1 has the chain
    maps as kernel (``chain_space``); at degree -1, sign +1 it is the
    homotopy operator ``_bmat``.  One elimination of [_bmat | chain_space]
    picks both bases: its pivot columns in ``_bmat`` span the homotopy image
    (``homotopy_image``), and those past ``_bmat`` leave the span of all
    columns before them: they are the class representatives.  The pivots
    depend only on the spans before each column, so these are the columns a
    pivot pass over [any basis of the image | chain_space] would pick.
    ``dim`` is the hom space in the homotopy (= derived) category.
    """

    def __init__(self, x: ProjComplex, target, i: int, cs: RepComplex):
        p = x.alg.p
        self.x = x
        self.target = target
        self.i = i
        self.cs = cs
        self.layout = _layout(x, cs, 0)
        if not self.layout[1]:
            # no generator of X has an image in C: the hom space is zero
            # and nothing needs eliminating
            self._bmat = zeros(0, _layout(x, cs, -1)[1])
            self.chain_space = self.homotopy_image = self._basis = zeros(0, 0)
            self.rep_coords, self.dim = [], 0
            return
        below, above = _layout(x, cs, -1), _layout(x, cs, 1)
        z = self.chain_space = null_space(
            self._operator(self.layout, above, 0, -1), p)
        self._bmat = self._operator(below, self.layout, -1, 1)
        nb = self._bmat.shape[1]
        if not np.any(self._bmat):
            # the columns of Z are independent: each is a pivot
            piv = list(range(nb, nb + z.shape[1]))
        elif z.shape[1]:
            _, piv = rref(np.concatenate([self._bmat, z], axis=1), p)
        else:
            piv = None
        if piv is None or len(piv) != z.shape[1]:
            raise Mismatch("hom package: the homotopy image is not inside "
                           "the chain space")
        image = [k for k in piv if k < nb]
        reps = [k - nb for k in piv if k >= nb]
        self.dim = len(reps)
        # the image and the representatives are views into one array
        self._basis = np.concatenate([self._bmat[:, image], z[:, reps]],
                                     axis=1)
        self.homotopy_image = self._basis[:, :len(image)]
        self.rep_coords = list(self._basis[:, len(image):].T)

    def _operator(self, src, dst, offset: int, sign: int) -> np.ndarray:
        """Matrix of g -> d_C o g + sign * g o d_X.

        It takes maps X^q -> C^(q+offset) (layout ``src``) to maps
        X^q -> C^(q+offset+1) (layout ``dst``).
        """
        x, cs = self.x, self.cs
        (sblocks, ncols), (dblocks, nrows) = src, dst
        out = zeros(nrows, ncols)
        for (q, s), (v, rows) in dblocks.items():
            if rows.start == rows.stop:
                continue
            cols = sblocks[(q, s)][1]
            if cols.start != cols.stop:
                out[rows, cols] += cs.diff_at(q + offset).vmaps[v]
            term = cs.term_at(q + offset + 1)
            dx = x.dmat_at(q)
            for r, vr in enumerate(x.summands_at(q + 1)):
                cols = sblocks[(q + 1, r)][1]
                if cols.start != cols.stop and np.any(dx[r, s]):
                    out[rows, cols] += sign * term.act_elem(dx[r, s], vr, v)
        return out % x.alg.p

    def reduce(self, coords: np.ndarray) -> np.ndarray:
        """Coordinates of a chain map's homotopy class in the chosen basis."""
        sol = solve_right(self._basis, coords.reshape(-1, 1), self.x.alg.p)
        return sol[self.homotopy_image.shape[1]:, 0]

    def class_coords(self, f) -> np.ndarray:
        return self.reduce(self.coords_of(f))

    def coords_of(self, f) -> np.ndarray:
        """Generator-image coordinates of a chain map (arrays pass through)."""
        if isinstance(f, np.ndarray):
            return f
        blocks, total = self.layout
        out = np.zeros(total, dtype=np.int64)
        for (q, s), (v, sl) in blocks.items():
            if sl.start != sl.stop:
                ps = self.target.psum_at(q + self.i)
                out[sl] = ps.vector(f.map_at(q)[:, s], v)
        return out

    def chainmap_of(self, coords: np.ndarray) -> ChainMap:
        """Assemble an algebra-coordinate chain map from solver coordinates."""
        ts = self.target.shift(self.i)
        mats: dict[int, np.ndarray] = {}
        for (q, s), (v, sl) in self.layout[0].items():
            if sl.start == sl.stop:
                continue
            if q not in mats:
                mats[q] = azeros(self.x.alg, ts.count(q), self.x.count(q))
            ps = self.target.psum_at(q + self.i)
            mats[q][:, s] = ps.coeffs(coords[sl], v)
        return ChainMap(self.x, ts, mats)

    def combine(self, coeffs, cols: np.ndarray | None = None) -> ChainMap:
        """The chain map sum_k coeffs[k] * cols[:, k], summed in coordinates.

        ``cols`` holds layout columns and defaults to the class
        representatives, so ``coeffs`` are then class coordinates.
        """
        if cols is None:
            cols = self._basis[:, self.homotopy_image.shape[1]:]
        coeffs = np.asarray(coeffs, dtype=np.int64)
        return self.chainmap_of(cols @ coeffs % self.x.alg.p)

    def chain_reps(self) -> list[ChainMap]:
        """The class representatives, built once; rep k has class e_k."""
        store, key = memo(self), ("chain_reps",)
        if key not in store:
            store[key] = [self.chainmap_of(c) for c in self.rep_coords]
        return store[key]

    def is_nullhomotopic(self, f) -> bool:
        """Is f, a chain map or its layout coordinates, null-homotopic?"""
        return not np.any(self.class_coords(f))

    def nullhomotopy(self, f):
        """Solve f = dh + hd; returns h-coordinates or None."""
        coords = self.coords_of(f)
        try:
            sol = solve_right(self._bmat, coords.reshape(-1, 1), self.x.alg.p)
        except NoSolution:
            return None
        return sol[:, 0]


def hom_package(x: ProjComplex, target, i: int = 0) -> HomPackage:
    """Hom(X, target[i]), built once per live (x, target, i).

    Kept in ``memo(target)`` keyed by x itself (the package holds x), so a
    short-lived target takes its packages with it.
    """
    store, key = memo(target), ("hom_package", x, i)
    if key not in store:
        cs = (target.expansion() if isinstance(target, ProjComplex)
              else target).shift(i)
        store[key] = HomPackage(x, target, i, cs)
    return store[key]


def hom_k(x: ProjComplex, target, i: int = 0) -> int:
    """dim Hom(X, target[i]) in the homotopy (= derived) category."""
    return hom_package(x, target, i).dim


# -- minimization (Gaussian elimination on invertible entries) --------------

def _find_unit(alg: BoundQuiverAlgebra, summands: list[list[int]],
               dmats: list[np.ndarray]):
    """(k, r, c) of the first invertible entry of dmats[k], or None."""
    for k, m in enumerate(dmats):
        for r, vr in enumerate(summands[k + 1]):
            for c, vc in enumerate(summands[k]):
                if vr == vc and m[r, c, alg.e_index[vr]] % alg.p:
                    return k, r, c
    return None


def is_minimal(x: ProjComplex) -> bool:
    return _find_unit(x.alg, x.summands, x.dmats) is None


def minimize(x: ProjComplex) -> ProjComplex:
    """A homotopy-equivalent complex with radical differentials.

    Repeatedly cancels differential entries that are invertible algebra
    elements (nonzero scalar part on a matching vertex), then trims empty
    degrees.  A minimal x comes back as ``x.trim()``, which is x itself
    when x has no empty end degree.
    """
    alg = x.alg
    summands, dmats = list(x.summands), list(x.dmats)
    while (found := _find_unit(alg, summands, dmats)) is not None:
        k, r, c = found
        m = dmats[k]
        v = summands[k][c]
        a_inv = elem_inverse(alg, m[r, c], v)
        keep_r = [i for i in range(m.shape[0]) if i != r]
        keep_c = [j for j in range(m.shape[1]) if j != c]
        beta = m[[r]][:, keep_c]     # remaining sources -> P(v)
        gamma = m[keep_r][:, [c]]    # P(v) -> remaining targets
        # correction gamma o a_inv o beta: beta first, then a_inv, then gamma
        corr = amul(alg, gamma, amul(alg, a_inv[None, None], beta))
        dmats[k] = (m[np.ix_(keep_r, keep_c)] - corr) % alg.p
        if k > 0:
            dmats[k - 1] = dmats[k - 1][keep_c]
        if k + 1 < len(dmats):
            dmats[k + 1] = dmats[k + 1][:, keep_r]
        summands[k] = [vv for j, vv in enumerate(summands[k]) if j != c]
        summands[k + 1] = [vv for i, vv in enumerate(summands[k + 1])
                           if i != r]
    if summands == x.summands:      # nothing cancelled
        return x.trim()
    return ProjComplex(alg, x.lo, summands, dmats).trim()


# -- Grothendieck-group data ------------------------------------------------

def k0_vector(x: ProjComplex) -> np.ndarray:
    """Alternating sum of projective multiplicities, as integers."""
    out = np.zeros(x.alg.n, dtype=np.int64)
    for q in x.degrees():
        sign = 1 if q % 2 == 0 else -1
        for v in x.summands_at(q):
            out[v] += sign
    return out


# -- endomorphisms, decomposition, isomorphism ------------------------------

def _total_matrix(f: ChainMap) -> np.ndarray:
    """Block-diagonal matrix of the expansion over all degrees."""
    fe = f.expand()
    blocks = [fe.map_at(q).total_matrix()
              for q in range(f.src.lo, f.src.hi + 1)]
    n = sum(b.shape[0] for b in blocks)
    out = zeros(n, n)
    at = 0
    for b in blocks:
        out[at:at + b.shape[0], at:at + b.shape[1]] = b
        at += b.shape[0]
    return out


def decompose_complex(x: ProjComplex, seed: int = 0):
    """Indecomposable summands of a complex, with multiplicities.

    Returns a tuple of (ProjComplex, multiplicity), canonically ordered.
    The input is minimized first; idempotents of the chain endomorphism
    algebra split the minimized complex degreewise.  The result is kept in
    ``memo()`` of the minimized complex per seed, so a repeat returns the
    same summand objects.
    """
    xm = minimize(x)
    store, key = memo(xm), ("decompose_complex", seed)
    if key not in store:
        store[key] = tuple(_decompose_minimal(xm, seed))
    return store[key]


def _decompose_minimal(xm: ProjComplex, seed: int):
    alg = xm.alg
    if xm.is_zero():
        return []
    # the honest chain endomorphisms (no homotopy quotient) span chain_space
    pkg = hom_package(xm, xm, 0)
    endos = pkg.chain_space
    if endos.shape[1] == 1:
        return [(xm, 1)]
    rng = np.random.default_rng(seed)
    mats = [_total_matrix(pkg.chainmap_of(c)) for c in endos.T]
    idems = primitive_idempotents(mats, alg.p, rng)
    coords = solve_right(np.column_stack([m.reshape(-1) for m in mats]),
                         np.column_stack([e.reshape(-1) for e in idems]), alg.p)
    parts = [_split_off(xm, pkg.combine(c, endos)) for c in coords.T]
    groups: list[list] = []
    for part in parts:
        for g in groups:
            ok, _, _ = _indec_iso_k(g[0], part)
            if ok:
                g.append(part)
                break
        else:
            groups.append([part])
    out = [(g[0], len(g)) for g in groups]
    out.sort(key=lambda t: t[0].shape_key())
    return out


def _split_off(x: ProjComplex, e: ChainMap) -> ProjComplex:
    """The summand of x carried by the idempotent chain map e."""
    alg = x.alg
    ee = e.expand()
    xe = x.expansion()
    subs, incls, psums, covers = {}, {}, {}, {}
    for q in x.degrees():
        mq = ee.map_at(q)
        spaces = [column_space(mq.vmaps[v], alg.p) for v in range(alg.n)]
        sub, incl = sub_from_subspaces(xe.term_at(q), spaces)
        ps, cover = projective_cover(sub)
        if not cover.is_iso():
            raise Mismatch("idempotent splitting: the image of an idempotent "
                           "is not projective")
        subs[q], incls[q], psums[q], covers[q] = sub, incl, ps, cover
    summands = [psums[q].summands for q in x.degrees()]
    dmats = []
    for q in range(x.lo, x.hi):
        d = xe.diff_at(q).after(incls[q])
        dsub = ModuleMap(subs[q], subs[q + 1],
                         [solve_right(incls[q + 1].vmaps[v], d.vmaps[v], alg.p)
                          for v in range(alg.n)])
        inv_next = ModuleMap(subs[q + 1], psums[q + 1].rep,
                             [inv(mm, alg.p) if mm.size else mm.T
                              for mm in covers[q + 1].vmaps])
        big = inv_next.after(dsub.after(covers[q]))
        dmats.append(alg_matrix_of_map(
            ModuleMap(psums[q].rep, psums[q + 1].rep, big.vmaps),
            psums[q], psums[q + 1]))
    return ProjComplex(alg, x.lo, summands, dmats).trim()


def _end_radical(pkg: HomPackage):
    """Radical of End_K(X) in the package's class coordinates.

    Returns (rad_basis, left_mult) where rad_basis has radical classes as
    columns and left_mult maps a class vector to its regular-representation
    matrix.
    """
    store, key = memo(pkg), ("end_radical",)
    if key in store:
        return store[key]
    alg = pkg.x.alg
    reps = pkg.chain_reps()
    m = len(reps)
    lmats = []
    for f in reps:
        cols = [pkg.class_coords(f.compose(g)) for g in reps]
        lmats.append(np.column_stack(cols) if cols else zeros(0, 0))
    rad = trace_radical(lmats, alg.p)

    def left_mult(vec: np.ndarray) -> np.ndarray:
        out = zeros(m, m)
        for i in range(m):
            if vec[i] % alg.p:
                out = (out + int(vec[i]) * lmats[i]) % alg.p
        return out

    store[key] = (rad, left_mult)
    return rad, left_mult


def _indec_iso_k(x: ProjComplex, y: ProjComplex, want_witness: bool = False):
    """Isomorphism test for minimal complexes with indecomposable x.

    Returns (isomorphic, fwd, bwd); the witnesses are chain maps whose
    composites are homotopic to the identities (computed only on request).
    """
    if x.graded_mults() != y.graded_mults():
        return False, None, None
    pxy = hom_package(x, y, 0)
    pyx = hom_package(y, x, 0)
    if pxy.dim == 0 or pyx.dim == 0:
        return False, None, None
    pe = hom_package(x, x, 0)
    rad, left_mult = _end_radical(pe)
    alg = x.alg
    for f in pxy.chain_reps():
        for g in pyx.chain_reps():
            u = pe.class_coords(g.compose(f))
            if not np.any(u) or in_span(u, rad, alg.p):
                continue
            if not want_witness:
                return True, None, None
            # invert u in End_K(x) and correct g
            ident = pe.class_coords(chain_identity(x))
            uinv = solve_right(left_mult(u), ident.reshape(-1, 1),
                               alg.p)[:, 0]
            gc = pe.combine(uinv).compose(g)
            # each composite minus the identity, in layout coordinates
            for name, pkg, loop in (
                    ("bwd o fwd", pe, gc.compose(f)),
                    ("fwd o bwd", hom_package(y, y, 0), f.compose(gc))):
                diff = pkg.coords_of(loop) - pkg.coords_of(
                    chain_identity(pkg.x))
                if not pkg.is_nullhomotopic(diff % alg.p):
                    raise Mismatch(f"iso witness: {name} is not homotopic "
                                   "to the identity")
            return True, f, gc
    return False, None, None


class IsoResult:
    def __init__(self, verdict: str, reason: str = "", fwd=None, bwd=None):
        if verdict not in ("yes", "no", "unknown"):
            raise ValueError(f"unknown iso verdict {verdict!r}")
        self.verdict = verdict
        self.reason = reason
        self.fwd = fwd
        self.bwd = bwd

    def __bool__(self):
        return self.verdict == "yes"

    def __repr__(self):
        return f"IsoResult({self.verdict!r}, {self.reason!r})"


def iso_k(x: ProjComplex, y: ProjComplex, seed: int = 0,
          want_witness: bool = False) -> IsoResult:
    """Decide isomorphism in the homotopy category.

    Minimizes both sides, splits them into indecomposables, and matches
    the summand multisets.
    """
    xm, ym = minimize(x), minimize(y)
    gx, gy = xm.graded_mults(), ym.graded_mults()
    if gx != gy:
        return IsoResult("no", f"graded multiplicities differ: {gx} vs {gy}")
    if xm.is_zero():
        return IsoResult("yes", "both zero")
    try:
        dx = decompose_complex(xm, seed=seed)
        dy = decompose_complex(ym, seed=seed)
    except (RandomBudgetExhausted, FieldTooSmall) as exc:
        # endomorphism splitting is randomized and needs p > dim End
        return IsoResult("unknown", f"decomposition failed: {exc}")
    if len(dx) == 1 and dx[0][1] == 1 and len(dy) == 1 and dy[0][1] == 1:
        ok, fwd, bwd = _indec_iso_k(dx[0][0], dy[0][0], want_witness)
        if ok:
            return IsoResult("yes", "indecomposable match", fwd, bwd)
        return IsoResult("no", "non-isomorphic indecomposables")
    remaining = [(c, m) for (c, m) in dy]
    for (cx, mx) in dx:
        hit = None
        for idx, (cy, my) in enumerate(remaining):
            ok, _, _ = _indec_iso_k(cx, cy)
            if ok:
                hit = idx
                break
        if hit is None or remaining[hit][1] != mx:
            return IsoResult("no", "summand multisets differ")
        remaining.pop(hit)
    if remaining:
        return IsoResult("no", "summand multisets differ")
    return IsoResult("yes", "matching summand decompositions")


# -- minimal approximations -------------------------------------------------

def _approximation(parts: list[ProjComplex], z: ProjComplex, minimal: bool,
                  right: bool):
    """The add(parts)-approximation of z on the given side.

    A right approximation is E -> Z, built from maps parts[j] -> Z, and a
    map u between parts acts on them by precomposition.  A left one is
    Z -> E, built from maps Z -> parts[j], with u acting by composition
    afterwards.  The two sides differ in nothing else.
    """
    alg = z.alg

    def hom(a, b):      # Hom(a, b) on the right side, Hom(b, a) on the left
        return hom_package(a, b, 0) if right else hom_package(b, a, 0)

    def act(u, f):      # f o u on the right side, u o f on the left
        return f.compose(u) if right else u.compose(f)

    packages = [hom(t, z) for t in parts]
    chosen: list[tuple[int, ChainMap]] = []
    if minimal:
        end_pkgs = [hom(t, t) for t in parts]
        end_rads = [_end_radical(pkg) for pkg in end_pkgs]
        for j, pj in enumerate(packages):
            if pj.dim == 0:
                continue
            # classes of composites through a radical map between parts
            w_cols = []
            for l in range(len(parts)):
                if l == j:
                    rad, _ = end_rads[j]
                    us = [end_pkgs[j].combine(c) for c in rad.T]
                else:
                    us = hom(parts[j], parts[l]).chain_reps()
                fs = packages[l].chain_reps()
                w_cols += [pj.class_coords(act(u, f)) for u in us for f in fs]
            w = (column_space(np.column_stack(w_cols), alg.p)
                 if w_cols else zeros(pj.dim, 0))
            for coords, f in zip(eye(pj.dim), pj.chain_reps()):
                if in_span(coords, w, alg.p):
                    continue
                chosen.append((j, f))
                orbit = [coords]
                for u in end_pkgs[j].chain_reps():
                    orbit.append(pj.class_coords(act(u, f)))
                w = span_union(w, np.column_stack(orbit), p=alg.p)
    else:
        for j, pkg in enumerate(packages):
            for f in pkg.chain_reps():
                chosen.append((j, f))
    e = proj_direct_sum([parts[j] for j, _ in chosen], alg)
    mats: dict[int, np.ndarray] = {}
    lo = min([z.lo] + [parts[j].lo for j, _ in chosen])
    hi = max([z.hi] + [parts[j].hi for j, _ in chosen])
    for q in range(lo, hi + 1):
        if z.count(q) == 0 or e.count(q) == 0:
            continue
        mats[q] = np.concatenate([f.map_at(q) for _, f in chosen],
                                 axis=1 if right else 0)
    g = ChainMap(e, z, mats) if right else ChainMap(z, e, mats)
    return e, g, chosen


def right_approximation(parts: list[ProjComplex], z: ProjComplex,
                        minimal: bool = True):
    """A right add(parts)-approximation g: E -> Z.

    Returns (E, g, chosen) where chosen lists (part index, component chain
    map).  With minimal=True the approximation covers Hom(-, Z) modulo
    radical composites, summand by summand.
    """
    return _approximation(parts, z, minimal, right=True)


def left_approximation(parts: list[ProjComplex], z: ProjComplex,
                       minimal: bool = True):
    """A left add(parts)-approximation g: Z -> E; dual of the right case."""
    return _approximation(parts, z, minimal, right=False)


# -- silting mutation -------------------------------------------------------

def left_mutation(cluster: list[ProjComplex], k: int, d: int,
                  seed: int = 0) -> list[ProjComplex]:
    """Replace cluster[k] by the cone over its minimal left approximation.

    Raises WindowViolation when the mutated summand leaves the degree
    window [-d, 0].
    """
    rest = [c for i, c in enumerate(cluster) if i != k]
    e, g, _ = left_approximation(rest, cluster[k], minimal=True)
    new = minimize(proj_cone(g))
    return rest + _window_checked_parts(new, d, seed)


def right_mutation(cluster: list[ProjComplex], k: int, d: int,
                   seed: int = 0) -> list[ProjComplex]:
    """Replace cluster[k] by the cocone over its minimal right approximation."""
    rest = [c for i, c in enumerate(cluster) if i != k]
    e, g, _ = right_approximation(rest, cluster[k], minimal=True)
    new = minimize(proj_cone(g).shift(-1))
    return rest + _window_checked_parts(new, d, seed)


def _window_checked_parts(x: ProjComplex, d: int, seed: int):
    if x.is_zero():
        raise WindowViolation("mutation produced a zero summand")
    if x.lo < -d or x.hi > 0:
        raise WindowViolation(
            f"mutated summand lives in [{x.lo}, {x.hi}], outside [-{d}, 0]")
    return [c for c, mult in decompose_complex(x, seed=seed)
            for _ in range(mult)]
