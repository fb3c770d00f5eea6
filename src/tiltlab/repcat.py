"""Finite-dimensional left modules over a bound quiver algebra.

A module is a representation: one F_p-space per vertex and one matrix per
arrow, shaped (target_dim, source_dim).  Projectives P(i) = Ae_i carry the
paths starting at i; injectives are duals of the paths ending at i.
"""

from __future__ import annotations

import numpy as np

from .algebra import BoundQuiverAlgebra
from .endsplit import primitive_idempotents
from .errors import ResolutionDepthExceeded
from .linalg import (column_space, eye, is_invertible, null_space, rank,
                     solve_right, span_union, zeros)
from .memo import memo

RESOLUTION_SIZE_BUDGET = 4096


class Representation:
    """A representation of the bound quiver: vertex spaces plus arrow maps.

    Each arrow matrix must already hold int64 residues in [0, p): it is
    kept as given (reshaped to (target_dim, source_dim), which checks its
    size), neither copied nor reduced.  Callers that build matrices reduce
    them; ``serialize`` reduces user input.
    """

    def __init__(self, alg: BoundQuiverAlgebra, dims, mats):
        self.alg = alg
        self.dims = tuple(int(d) for d in dims)
        self.mats = [np.asarray(m, dtype=np.int64).reshape(self.dims[a.tgt],
                                                           self.dims[a.src])
                     for a, m in zip(alg.quiver.arrows, mats)]

    @property
    def total_dim(self) -> int:
        return sum(self.dims)

    def is_zero(self) -> bool:
        return self.total_dim == 0

    def act_walk(self, walk, src: int) -> np.ndarray:
        """Matrix of the path with the given walk acting out of vertex src."""
        m = eye(self.dims[src])
        for ai in walk:
            m = self.mats[ai] @ m % self.alg.p
        return m

    def act_path(self, path_idx: int) -> np.ndarray:
        """Matrix of basis path path_idx acting out of its source vertex.

        Kept in ``memo(self)`` under ``("act_path", path_idx)`` and built as
        the last arrow's matrix times the action of the prefix
        (``alg.path_prefix``), a basis path with its own entry.  The result
        is shared: never write into it.
        """
        store, key = memo(self), ("act_path", path_idx)
        out = store.get(key)
        if out is None:
            a = self.alg
            prefix = a.path_prefix[path_idx]
            if prefix < 0:
                out = eye(self.dims[int(a.path_src[path_idx])])
            else:
                out = (self.mats[a.path_arrow[path_idx]]
                       @ self.act_path(prefix) % a.p)
            store[key] = out
        return out

    def act_elem(self, coeffs: np.ndarray, src: int, tgt: int) -> np.ndarray:
        """Matrix of an algebra element supported on paths src -> tgt."""
        a = self.alg
        out = zeros(self.dims[tgt], self.dims[src])
        for b in np.nonzero(coeffs)[0]:
            if a.path_src[b] != src or a.path_tgt[b] != tgt:
                raise ValueError(f"path {b} does not run from {src} to {tgt}")
            out = (out + int(coeffs[b]) * self.act_path(int(b))) % a.p
        return out

    def broken_relation(self):
        """A relation (as arrow idents) acting by nonzero; None for a module."""
        arrows = self.alg.quiver.arrows
        for w in self.alg.ideal.walks:
            if np.any(self.act_walk(w, arrows[w[0]].src)):
                return [arrows[a].ident for a in w]
        return None

    def validate(self):
        w = self.broken_relation()
        if w is not None:
            raise AssertionError(f"relation {w} does not act by zero")

    def __repr__(self):
        return f"Representation(dims={self.dims})"


class ModuleMap:
    """A homomorphism of representations, one matrix per vertex.

    As for ``Representation``, each vertex matrix must already hold int64
    residues in [0, p); it is kept as given, reshaped to (target_dim,
    source_dim).
    """

    def __init__(self, src: Representation, tgt: Representation, vmaps):
        self.src = src
        self.tgt = tgt
        self.vmaps = [np.asarray(m, dtype=np.int64).reshape(tgt.dims[v],
                                                            src.dims[v])
                      for v, m in enumerate(vmaps)]

    @property
    def alg(self):
        return self.src.alg

    def after(self, other: "ModuleMap") -> "ModuleMap":
        """self o other (other applied first)."""
        p = self.alg.p
        return ModuleMap(other.src, self.tgt,
                         [a @ b % p for a, b in zip(self.vmaps, other.vmaps)])

    def add(self, other: "ModuleMap") -> "ModuleMap":
        p = self.alg.p
        return ModuleMap(self.src, self.tgt,
                         [(a + b) % p for a, b in zip(self.vmaps, other.vmaps)])

    def scale(self, c: int) -> "ModuleMap":
        p = self.alg.p
        return ModuleMap(self.src, self.tgt, [c * m % p for m in self.vmaps])

    def neg(self) -> "ModuleMap":
        return self.scale(-1)

    def is_zero(self) -> bool:
        return all(not m.size or not np.any(m) for m in self.vmaps)

    def is_iso(self) -> bool:
        p = self.alg.p
        return all(is_invertible(m, p) if m.size else m.shape[0] == m.shape[1]
                   for m in self.vmaps)

    def validate(self):
        p = self.alg.p
        for a_idx, a in enumerate(self.alg.quiver.arrows):
            lhs = self.tgt.mats[a_idx] @ self.vmaps[a.src] % p
            rhs = self.vmaps[a.tgt] @ self.src.mats[a_idx] % p
            if not np.array_equal(lhs, rhs):
                raise AssertionError(f"map does not intertwine arrow {a.ident}")

    def total_matrix(self) -> np.ndarray:
        """Block-diagonal matrix on the direct sum of the vertex spaces."""
        n_s, n_t = self.src.total_dim, self.tgt.total_dim
        out = zeros(n_t, n_s)
        ro = co = 0
        for v in range(self.alg.n):
            dt, ds = self.tgt.dims[v], self.src.dims[v]
            out[ro:ro + dt, co:co + ds] = self.vmaps[v]
            ro += dt
            co += ds
        return out


def zero_map(src: Representation, tgt: Representation) -> ModuleMap:
    return ModuleMap(src, tgt, [zeros(tgt.dims[v], src.dims[v])
                                for v in range(src.alg.n)])


def identity_map(m: Representation) -> ModuleMap:
    return ModuleMap(m, m, [eye(d) for d in m.dims])


def zero_rep(alg: BoundQuiverAlgebra) -> Representation:
    """The zero representation; one shared object per algebra."""
    store, key = memo(alg), ("zero_rep",)
    if key not in store:
        store[key] = Representation(alg, [0] * alg.n,
                                    [zeros(0, 0) for _ in alg.quiver.arrows])
    return store[key]


def direct_sum(reps: list[Representation], alg=None) -> Representation:
    if not reps:
        return zero_rep(alg)
    alg = reps[0].alg
    dims = [sum(r.dims[v] for r in reps) for v in range(alg.n)]
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        m = zeros(dims[a.tgt], dims[a.src])
        ro = co = 0
        for r in reps:
            dt, ds = r.dims[a.tgt], r.dims[a.src]
            m[ro:ro + dt, co:co + ds] = r.mats[ai]
            ro += dt
            co += ds
        mats.append(m)
    return Representation(alg, dims, mats)


# -- projectives, injectives, simples --------------------------------------

def proj_basis(alg: BoundQuiverAlgebra, v: int) -> list[list[int]]:
    """Per-vertex lists of global path indices forming the basis of P(v)."""
    return [alg.path_indices(v, w) for w in range(alg.n)]


def projective(alg: BoundQuiverAlgebra, v: int) -> Representation:
    """P(v) = A e_v, basis the surviving paths out of v."""
    store, key = memo(alg), ("projective", v)
    if key in store:
        return store[key]
    basis = proj_basis(alg, v)
    pos = [{b: k for k, b in enumerate(bs)} for bs in basis]
    dims = [len(bs) for bs in basis]
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        m = zeros(dims[a.tgt], dims[a.src])
        for col, b in enumerate(basis[a.src]):
            idx = alg.reduce_walk(alg.paths[b] + (ai,))
            if idx is not None:
                m[pos[a.tgt][idx], col] = 1
        mats.append(m)
    store[key] = Representation(alg, dims, mats)
    return store[key]


def injective(alg: BoundQuiverAlgebra, v: int) -> Representation:
    """J(v) = D(e_v A), dual of the paths into v."""
    basis = [alg.path_indices(w, v) for w in range(alg.n)]
    pos = [{b: k for k, b in enumerate(bs)} for bs in basis]
    dims = [len(bs) for bs in basis]
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        m = zeros(dims[a.tgt], dims[a.src])
        for row, x in enumerate(basis[a.tgt]):
            idx = alg.reduce_walk((ai,) + alg.paths[x])
            if idx is not None:
                m[row, pos[a.src][idx]] = 1
        mats.append(m)
    return Representation(alg, dims, mats)


def simple(alg: BoundQuiverAlgebra, v: int) -> Representation:
    dims = [1 if w == v else 0 for w in range(alg.n)]
    mats = [zeros(dims[a.tgt], dims[a.src]) for a in alg.quiver.arrows]
    return Representation(alg, dims, mats)


# -- hom spaces -------------------------------------------------------------

def hom_space_matrix(m: Representation, n: Representation) -> np.ndarray:
    """Constraint matrix whose kernel is Hom(M, N) in flattened coordinates.

    Coordinates: row-major flattenings of the vertex matrices f_v, vertex by
    vertex.  One block row of constraints per arrow a: u -> w, the entries
    of N_a f_u - f_w M_a: the Kronecker products N_a (x) I on the f_u
    columns minus I (x) M_a^T on the f_w columns, written by broadcasting
    into one array.
    """
    alg = m.alg
    offsets = [0]
    for v in range(alg.n):
        offsets.append(offsets[-1] + n.dims[v] * m.dims[v])
    arrows = alg.quiver.arrows
    out = zeros(sum(n.dims[a.tgt] * m.dims[a.src] for a in arrows),
                offsets[-1])
    r = 0
    for ai, a in enumerate(arrows):
        u, w = a.src, a.tgt
        nrow = n.dims[w] * m.dims[u]
        if nrow == 0:
            continue
        out[r:r + nrow, offsets[u]:offsets[u + 1]] = (
            n.mats[ai][:, None, :, None] * eye(m.dims[u])[None, :, None, :]
        ).reshape(nrow, -1)
        out[r:r + nrow, offsets[w]:offsets[w + 1]] -= (
            eye(n.dims[w])[:, None, :, None] * m.mats[ai].T[None, :, None, :]
        ).reshape(nrow, -1)
        r += nrow
    return out % alg.p


def _unflatten(m: Representation, n: Representation, vec) -> ModuleMap:
    alg = m.alg
    vmaps = []
    at = 0
    for v in range(alg.n):
        size = n.dims[v] * m.dims[v]
        vmaps.append(np.asarray(vec[at:at + size]).reshape(n.dims[v], m.dims[v]))
        at += size
    return ModuleMap(m, n, vmaps)


def hom_basis(m: Representation, n: Representation) -> list[ModuleMap]:
    """Basis of Hom_A(M, N), deterministic."""
    sys = hom_space_matrix(m, n)
    ker = null_space(sys, m.alg.p)
    return [_unflatten(m, n, ker[:, k]) for k in range(ker.shape[1])]


def hom_dim(m: Representation, n: Representation) -> int:
    sys = hom_space_matrix(m, n)
    return sys.shape[1] - rank(sys, m.alg.p)


# -- kernels, images, quotients --------------------------------------------

def sub_from_subspaces(m: Representation, bases: list[np.ndarray]):
    """Subrepresentation on given invariant vertex subspaces (column bases)."""
    alg = m.alg
    dims = [b.shape[1] for b in bases]
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        if not (dims[a.src] and dims[a.tgt]):
            mats.append(zeros(dims[a.tgt], dims[a.src]))
            continue
        img = m.mats[ai] @ bases[a.src] % alg.p
        mats.append(solve_right(bases[a.tgt], img, alg.p))
    sub = Representation(alg, dims, mats)
    incl = ModuleMap(sub, m, bases)
    return sub, incl


def quotient_by_subspaces(m: Representation, bases: list[np.ndarray]):
    """Quotient by an invariant family of vertex subspaces.

    Returns (Q, projection, section) where section is a vertexwise right
    inverse of the projection (not a module map in general).

    Each basis must be canonical, as ``column_space`` and ``span_union``
    return it (or None for the zero subspace): column k has its first
    nonzero entry, a 1, on pivot row k and zeros on the other pivot rows.
    The pivots are read off, not eliminated again, and the unit vectors off
    the pivot rows span a complement.  Every x is b x[piv] + e_free (x[free]
    - b[free] x[piv]), so the projection is E_free - b[free] E_piv and the
    section is e_free.
    """
    alg = m.alg
    projs, secs = [], []
    for v in range(alg.n):
        d, b = m.dims[v], bases[v]
        if b is None or not b.shape[1]:
            # nothing to divide out: both maps are the identity
            projs.append(eye(d))
            secs.append(projs[-1])
            continue
        piv = (b != 0).argmax(axis=0)
        taken = set(piv.tolist())
        free = [r for r in range(d) if r not in taken]
        units = range(len(free))
        proj = zeros(len(free), d)
        proj[units, free] = 1
        proj[:, piv] = -b[free] % alg.p
        sec = zeros(d, len(free))
        sec[free, units] = 1
        projs.append(proj)
        secs.append(sec)
    dims = [pmat.shape[0] for pmat in projs]
    mats = []
    for ai, a in enumerate(alg.quiver.arrows):
        if dims[a.src] and dims[a.tgt]:
            mats.append(projs[a.tgt] @ m.mats[ai] @ secs[a.src] % alg.p)
        else:
            mats.append(zeros(dims[a.tgt], dims[a.src]))
    q = Representation(alg, dims, mats)
    pi = ModuleMap(m, q, projs)
    return q, pi, secs


def kernel(f: ModuleMap):
    bases = [null_space(fv, f.alg.p) if fv.shape[1] else zeros(0, 0)
             for fv in f.vmaps]
    return sub_from_subspaces(f.src, bases)


def image(f: ModuleMap):
    bases = [column_space(f.vmaps[v], f.alg.p) for v in range(f.alg.n)]
    return sub_from_subspaces(f.tgt, bases)


def cokernel(f: ModuleMap):
    bases = [column_space(f.vmaps[v], f.alg.p) for v in range(f.alg.n)]
    q, pi, _ = quotient_by_subspaces(f.tgt, bases)
    return q, pi


def radical_subspaces(m: Representation) -> list[np.ndarray]:
    """Canonical bases (``span_union``) of the radical, vertex by vertex."""
    alg = m.alg
    out = []
    for v in range(alg.n):
        if not m.dims[v]:
            out.append(zeros(0, 0))
            continue
        imgs = [m.mats[ai] for ai, a in enumerate(alg.quiver.arrows)
                if a.tgt == v]
        out.append(span_union(*imgs, p=alg.p) if imgs else
                   zeros(m.dims[v], 0))
    return out


# -- projective sums and covers --------------------------------------------

class ProjSum:
    """An explicit ordered direct sum of indecomposable projectives P(v).

    ``ProjSum.of`` hands out one shared object per algebra and summand
    list, so complexes with equal terms share their modules.  That is safe
    because no ``Representation`` or ``ModuleMap`` array is written in place
    after construction anywhere in tiltlab; keep it that way.
    """

    def __init__(self, alg: BoundQuiverAlgebra, summands: list[int]):
        self.alg = alg
        self.summands = [int(v) for v in summands]
        self.mults = np.bincount(self.summands, minlength=alg.n)
        # _pbasis[v][w]: path indices of P(v)'s basis at vertex w
        self._pbasis = {v: proj_basis(alg, v) for v in self.summands}
        # offsets[s][w]: start of summand s's block inside vertex space w
        self.offsets = []
        cursor = [0] * alg.n
        for v in self.summands:
            self.offsets.append(list(cursor))
            for w, basis in enumerate(self._pbasis[v]):
                cursor[w] += len(basis)
        self.rep = direct_sum([projective(alg, v) for v in self.summands], alg)
        self._plan = None

    @classmethod
    def of(cls, alg: BoundQuiverAlgebra, summands) -> "ProjSum":
        """The shared ProjSum of alg with these summands, in this order."""
        store, key = memo(alg), ("proj_sum", tuple(map(int, summands)))
        if key not in store:
            store[key] = cls(alg, summands)
        return store[key]

    @property
    def count(self) -> int:
        return len(self.summands)

    def gen_column(self, s: int) -> tuple[int, int]:
        """(vertex, column) of the generator e_v of summand s.

        e_v comes first among the paths v -> v (``alg.e_index``).
        """
        v = self.summands[s]
        return v, self.offsets[s][v]

    def vector(self, coeffs: np.ndarray, w: int) -> np.ndarray:
        """Vertex-w vector of algebra coefficients, one row per summand."""
        out = np.zeros(self.rep.dims[w], dtype=np.int64)
        for s, v in enumerate(self.summands):
            paths = list(self._pbasis[v][w])
            start = self.offsets[s][w]
            out[start:start + len(paths)] = coeffs[s, paths]
        return out % self.alg.p

    def coeffs(self, vec: np.ndarray, w: int) -> np.ndarray:
        """Algebra coefficients, one row per summand, of a vertex-w vector."""
        out = np.zeros((self.count, self.alg.dim), dtype=np.int64)
        for s, v in enumerate(self.summands):
            paths = list(self._pbasis[v][w])
            start = self.offsets[s][w]
            out[s, paths] = vec[start:start + len(paths)]
        return out % self.alg.p

    def _extend_plan(self):
        """Per vertex v of a summand: (v, summands at v, walk) in path order.

        ``walk`` lists (b, w, cols) for every path b out of v: its basis
        vector sits at vertex w, in column cols[i] for the i-th summand at
        v.  Paths are sorted by length, so a prefix comes before its path.
        """
        plan = self._plan
        if plan is None:
            plan = self._plan = []
            for v in dict.fromkeys(self.summands):
                rows = [s for s, u in enumerate(self.summands) if u == v]
                walk = [(b, w, [self.offsets[s][w] + k for s in rows])
                        for w, basis in enumerate(self._pbasis[v])
                        for k, b in enumerate(basis)]
                walk.sort()
                plan.append((v, rows, walk))
        return plan

    def extend(self, m: Representation, gens) -> ModuleMap:
        """The map P -> M sending summand s's generator to vector gens[s].

        An empty ``gens`` gives the zero map.  The image of path b applied
        to the generators at v is M(last arrow of b) times the image of
        b's prefix (``alg.path_prefix``), one product per path out of v for
        all summands at v together; no ``act_path`` matrix is built.
        """
        alg = self.alg
        vmaps = [zeros(m.dims[w], self.rep.dims[w]) for w in range(alg.n)]
        if not len(gens):
            return ModuleMap(self.rep, m, vmaps)
        prefix, arrow = alg.path_prefix, alg.path_arrow
        for v, rows, walk in self._extend_plan():
            images = {}
            for b, w, cols in walk:
                if prefix[b] < 0:
                    img = np.array([gens[s] for s in rows]).T % alg.p
                else:
                    img = m.mats[arrow[b]] @ images[prefix[b]] % alg.p
                images[b] = vmaps[w][:, cols] = img
        return ModuleMap(self.rep, m, vmaps)


def alg_matrix_of_map(f: ModuleMap, src: ProjSum, tgt: ProjSum) -> np.ndarray:
    """Algebra-coefficient matrix (tgt.count, src.count, dim A) of f."""
    out = np.zeros((tgt.count, src.count, src.alg.dim), dtype=np.int64)
    for c in range(src.count):
        v, col = src.gen_column(c)
        out[:, c] = tgt.coeffs(f.vmaps[v][:, col], v)
    return out


def map_of_alg_matrix(mat: np.ndarray, src: ProjSum, tgt: ProjSum) -> ModuleMap:
    """Expand an algebra-coefficient matrix to the honest module map.

    Column c of ``mat`` is where summand c's generator goes, so this is
    ``src.extend`` at those images.
    """
    return src.extend(tgt.rep, [tgt.vector(mat[:, c], v)
                                for c, v in enumerate(src.summands)])


def projective_cover(m: Representation):
    """(ProjSum P, cover map P -> M), read off the radical basis.

    ``radical_subspaces`` gives each radical in canonical form: an RREF
    basis whose column k has its first nonzero entry, a 1, on pivot row k
    and zeros on the other pivot rows.  The unit vectors off the pivot rows
    span a complement, so they map onto a basis of top(M)_v; they are the
    generators, vertex by vertex in row order, and their count is the
    multiplicity of P(v).
    """
    alg = m.alg
    summands, gens = [], []
    for v, b in enumerate(radical_subspaces(m)):
        d = m.dims[v]
        if b.shape[1] == d:
            continue        # M_v is all radical: no generator at v
        piv = set((b != 0).argmax(axis=0).tolist())
        for r in range(d):
            if r not in piv:
                unit = np.zeros(d, dtype=np.int64)
                unit[r] = 1
                summands.append(v)
                gens.append(unit)
    psum = ProjSum.of(alg, summands)
    return psum, psum.extend(m, gens)


def minimal_resolution(m: Representation, depth: int):
    """Minimal projective resolution to the requested depth.

    Returns (sums, diffs): sums[t] is the ProjSum in homological degree t,
    diffs[t] the algebra matrix of sums[t+1] -> sums[t].  Stops early when
    the resolution terminates.
    """
    sums, diffs = [], []
    current = m
    prev_sum = None
    total = 0
    for t in range(depth + 1):
        if current.is_zero():
            break
        psum, cover = projective_cover(current)
        total += psum.rep.total_dim
        if total > RESOLUTION_SIZE_BUDGET:
            raise ResolutionDepthExceeded(f"resolution size {total} exceeds "
                                          f"budget {RESOLUTION_SIZE_BUDGET}")
        if prev_sum is not None:
            # cover of the syzygy composed with its inclusion into prev_sum
            comp = prev_incl.after(cover)
            diffs.append(alg_matrix_of_map(comp, psum, prev_sum))
        sums.append(psum)
        if t == depth:
            break   # the syzygy past the requested depth is not kept
        syz, syz_incl = kernel(cover)
        prev_sum = psum
        prev_incl = syz_incl
        current = syz
    return sums, diffs


def ext_dim(m: Representation, n: Representation, i: int) -> int:
    """dim Ext^i(M, N) from a minimal projective resolution."""
    if i < 0:
        return 0
    alg = m.alg
    sums, diffs = minimal_resolution(m, i + 1)
    if i >= len(sums):
        return 0

    def hom_coords_dim(t):
        return sum(n.dims[v] for v in sums[t].summands)

    def dmat(t):
        """Matrix of Hom(R_t, N) -> Hom(R_{t+1}, N), f -> f o d_t."""
        if t + 1 >= len(sums):
            return zeros(0, hom_coords_dim(t))
        src_ps, tgt_ps = sums[t], sums[t + 1]
        out = zeros(hom_coords_dim(t + 1), hom_coords_dim(t))
        col = 0
        for r, vr in enumerate(src_ps.summands):
            ro = 0
            for c, vc in enumerate(tgt_ps.summands):
                if np.any(diffs[t][r, c]):
                    out[ro:ro + n.dims[vc], col:col + n.dims[vr]] = \
                        n.act_elem(diffs[t][r, c], vr, vc)
                ro += n.dims[vc]
            col += n.dims[vr]
        return out

    di = dmat(i)
    nullity = di.shape[1] - rank(di, alg.p)
    if i == 0:
        return nullity
    return nullity - rank(dmat(i - 1), alg.p)


# -- decomposition and isomorphism -----------------------------------------

def _idempotent_blocks(m: Representation, e_total: np.ndarray):
    """Split a total-space idempotent into per-vertex column bases."""
    bases = []
    at = 0
    for v in range(m.alg.n):
        d = m.dims[v]
        bases.append(column_space(e_total[at:at + d, at:at + d], m.alg.p))
        at += d
    return bases


def split_by_idempotents(m: Representation, idems: list[np.ndarray]):
    return [sub_from_subspaces(m, _idempotent_blocks(m, e)) for e in idems]


def end_algebra_mats(m: Representation) -> list[np.ndarray]:
    return [f.total_matrix() for f in hom_basis(m, m)]


def decompose(m: Representation, seed: int = 0):
    """Indecomposable summands with multiplicities: list of (rep, mult).

    Deterministic given the seed; each part has a local endomorphism algebra
    over F_p.
    """
    if m.is_zero():
        return []
    rng = np.random.default_rng(seed)
    ends = end_algebra_mats(m)
    if len(ends) == 1:
        return [(m, 1)]
    idems = primitive_idempotents(ends, m.alg.p, rng)
    parts = [sub for sub, _ in split_by_idempotents(m, idems)]
    groups: list[list[Representation]] = []
    for part in parts:
        for g in groups:
            if module_iso(g[0], part) is not None:
                g.append(part)
                break
        else:
            groups.append([part])
    groups.sort(key=lambda g: (g[0].total_dim, g[0].dims))
    return [(g[0], len(g)) for g in groups]


def in_add(m: Representation, parts: list[Representation], rng) -> bool:
    """One-sided certificate that M lies in add(parts); False proves nothing.

    Let e: X -> M be the evaluation map of X = sum of x^Hom(x, M) over the
    parts x.  Each f in the hom basis of Hom(x, M) gets its own random
    combination g_f of the hom basis of Hom(M, x); if s = sum f o g_f is an
    automorphism of M then e is a split epi and M is a summand of X.  When
    M is in add(parts), e is split and a random g succeeds with high
    probability.  Parts whose dimension vector exceeds M's somewhere are
    not summands and are left out.
    """
    p = m.alg.p
    return all(not sv.size or is_invertible(sv, p)
               for sv in _add_endomorphism(m, parts, rng))


def _add_endomorphism(m: Representation, parts: list[Representation],
                      rng) -> list[np.ndarray]:
    """The vertex matrices of the endomorphism s of M that ``in_add`` tests.

    The hom bases are kernel columns of ``hom_space_matrix``: vertex v's
    block of a column is f_v row-major, (M_v, x_v) for Hom(x, M) and
    (x_v, M_v) for Hom(M, x).  Row f of one draw C combines g_f.
    """
    p = m.alg.p
    s = [zeros(d, d) for d in m.dims]
    for x in parts:
        if any(a > b for a, b in zip(x.dims, m.dims)):
            continue
        kf = null_space(hom_space_matrix(x, m), p)
        if not kf.shape[1]:
            continue
        kg = null_space(hom_space_matrix(m, x), p)
        if not kg.shape[1]:
            continue
        c = rng.integers(0, p, size=(kf.shape[1], kg.shape[1]))
        g = kg @ c.T % p
        at = 0
        for v, (d, xv) in enumerate(zip(m.dims, x.dims)):
            size = d * xv
            if size:
                f_v = kf[at:at + size].reshape(d, xv, -1)
                g_v = g[at:at + size].reshape(xv, d, -1)
                s[v] = (s[v] + np.einsum("aif,ibf->ab", f_v, g_v)) % p
            at += size
    return s


def certify_isomorphic(m: Representation, n: Representation, rng) -> bool:
    """One-sided certificate that M and N are isomorphic; False proves nothing.

    Draws one random element f of Hom(M, N), a combination of the kernel
    columns of ``hom_space_matrix``, and accepts when every vertex matrix
    f_v is invertible: f is then an isomorphism.  When M and N are
    isomorphic, prod_v det f_v is a nonzero polynomial of degree dim M on
    Hom(M, N), so a random f fails with probability at most dim M / p
    (Schwartz-Zippel).
    """
    if m.dims != n.dims:
        return False
    p = m.alg.p
    k = null_space(hom_space_matrix(m, n), p)
    if not k.shape[1]:
        return m.is_zero()
    f = k @ rng.integers(0, p, size=k.shape[1]) % p
    at = 0
    for d in m.dims:
        if d and not is_invertible(f[at:at + d * d].reshape(d, d), p):
            return False
        at += d * d
    return True


def is_indecomposable(m: Representation, seed: int = 0) -> bool:
    parts = decompose(m, seed=seed)
    return len(parts) == 1 and parts[0][1] == 1


def module_iso(m: Representation, n: Representation):
    """An isomorphism M -> N, or None (certified), for indecomposables.

    Deterministic: the first invertible map of the hom basis of Hom(M, N).
    For indecomposable M and an isomorphism u: M -> N, the maps M -> N
    that are not isomorphisms are u o rad End(M), a proper subspace of
    Hom(M, N) (End(M) is local).  A basis cannot lie in a proper subspace,
    so it holds an isomorphism, and a basis with no invertible map proves
    M and N are not isomorphic.  Decomposable inputs void the argument:
    the elementary matrices of Hom(S + S, S + S) are all singular.
    """
    if m.dims != n.dims:
        return None
    if m.is_zero():
        return identity_map(m)
    return next((f for f in hom_basis(m, n) if f.is_iso()), None)


def is_isomorphic(m: Representation, n: Representation,
                  seed: int = 0) -> bool:
    """M and N are isomorphic: equal multisets of indecomposable summands.

    A hom basis element that is already invertible settles it at once;
    otherwise both sides are decomposed and matched with ``module_iso``.
    """
    if m.dims != n.dims:
        return False
    if any(f.is_iso() for f in hom_basis(m, n)):
        return True
    rest = decompose(n, seed=seed)
    for a, k in decompose(m, seed=seed):
        hit = next((i for i, (b, _) in enumerate(rest)
                    if module_iso(a, b) is not None), None)
        if hit is None or rest[hit][1] != k:
            return False
        rest.pop(hit)
    return not rest
