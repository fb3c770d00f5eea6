"""Independent brute-force oracles used to freeze expected values.

Deliberately share no code with the library: plain Python lists and a naive
mod-p elimination, plus the Euler-form shortcut for first extensions over
hereditary algebras, the hom system written with numpy's Kronecker
product, and path products read off the walks and relations.  The one
exception is ``eager_fac_membership``, which builds every Fac stage from
library pieces but decides surjectivity another way than the library.
"""

import numpy as np


def _gauss_rank(rows, p):
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        piv = None
        for r in range(rank, len(rows)):
            if rows[r][col] % p:
                piv = r
                break
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][col] % p, p - 2, p)
        rows[rank] = [(x * inv) % p for x in rows[rank]]
        for r in range(len(rows)):
            if r != rank and rows[r][col] % p:
                f = rows[r][col] % p
                rows[r] = [(a - f * b) % p for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def oracle_hom_dim(m, n, p):
    """dim Hom(M, N) by writing out the intertwining system longhand."""
    nverts = len(m.dims)
    sizes = [n.dims[v] * m.dims[v] for v in range(nverts)]
    offsets = [0]
    for s in sizes:
        offsets.append(offsets[-1] + s)
    total = offsets[-1]
    rows = []
    for ai, arrow in enumerate(m.alg.quiver.arrows):
        u, w = arrow.src, arrow.tgt
        na = [[int(x) for x in row] for row in n.mats[ai]]
        ma = [[int(x) for x in row] for row in m.mats[ai]]
        for i in range(n.dims[w]):
            for j in range(m.dims[u]):
                row = [0] * total
                # (N_a f_u)_{ij} = sum_k (N_a)_{ik} (f_u)_{kj}
                for k in range(n.dims[u]):
                    row[offsets[u] + k * m.dims[u] + j] += na[i][k]
                # (f_w M_a)_{ij} = sum_k (f_w)_{ik} (M_a)_{kj}
                for k in range(m.dims[w]):
                    row[offsets[w] + i * m.dims[w] + k] -= ma[k][j]
                rows.append([x % p for x in row])
    if not rows:
        return total
    return total - _gauss_rank(rows, p)


def kron_hom_space_matrix(m, n, p):
    """The Hom(M, N) constraint matrix from the Kronecker-product formula.

    Columns are the row-major entries of the vertex maps f_v, vertex by
    vertex; one block row per arrow a: u -> w with nonzero N_w (x) M_u,
    holding vec(N_a f_u - f_w M_a) = (N_a (x) I) vec(f_u) - (I (x) M_a^T)
    vec(f_w).
    """
    sizes = [n.dims[v] * m.dims[v] for v in range(len(m.dims))]
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(int)
    rows = []
    for ai, arrow in enumerate(m.alg.quiver.arrows):
        u, w = arrow.src, arrow.tgt
        nrow = n.dims[w] * m.dims[u]
        if nrow == 0:
            continue
        block = np.zeros((nrow, offsets[-1]), dtype=np.int64)
        block[:, offsets[u]:offsets[u + 1]] = np.kron(
            n.mats[ai], np.eye(m.dims[u], dtype=np.int64))
        block[:, offsets[w]:offsets[w + 1]] -= np.kron(
            np.eye(n.dims[w], dtype=np.int64), m.mats[ai].T)
        rows.append(block % p)
    if not rows:
        return np.zeros((0, offsets[-1]), dtype=np.int64)
    return np.concatenate(rows, axis=0)


def euler_form(alg, dv, dw):
    """<v, w> = sum v_i w_i - sum over arrows v_src w_tgt (hereditary)."""
    val = sum(int(a) * int(b) for a, b in zip(dv, dw))
    for arrow in alg.quiver.arrows:
        val -= int(dv[arrow.src]) * int(dw[arrow.tgt])
    return val


def oracle_ext1_hereditary(m, n, p):
    """dim Ext^1 over a hereditary algebra: hom minus the Euler form."""
    assert m.alg.is_hereditary()
    return oracle_hom_dim(m, n, p) - euler_form(m.alg, m.dims, n.dims)


def fuss_catalan(n, d):
    """Number of (d+1)-term silting classes of linear A_n.

    The Fuss-Catalan number C((d+1)(n+1), n+1) / (d(n+1)+1) (Fomin-Reading,
    generalized cluster complexes), in plain integer arithmetic.
    """
    top, k = (d + 1) * (n + 1), n + 1
    binom = 1
    for j in range(k):
        binom = binom * (top - j) // (j + 1)
    count, rest = divmod(binom, d * (n + 1) + 1)
    assert rest == 0
    return count


def dynkin_exponents(kind, n):
    """(Coxeter number h, exponents) of the simply-laced Dynkin type kind_n.

    Written out from the standard tables (Bourbaki, Lie groups, ch. VI).
    """
    if kind == "A" and n >= 1:
        return n + 1, list(range(1, n + 1))
    if kind == "D" and n >= 4:
        return 2 * n - 2, list(range(1, 2 * n - 2, 2)) + [n - 1]
    tables = {6: (12, [1, 4, 5, 7, 8, 11]),
              7: (18, [1, 5, 7, 9, 11, 13, 17]),
              8: (30, [1, 7, 11, 13, 17, 19, 23, 29])}
    if kind == "E" and n in tables:
        return tables[n]
    raise ValueError(f"no simply-laced Dynkin type {kind}_{n}")


def dynkin_silting_count(kind, n, d):
    """Number of (d+1)-term silting classes of a Dynkin quiver of type kind_n.

    They match the d-cluster tilting objects (Buan-Reiten-Thomas, *Three
    kinds of mutation*, 2011), whose number is the product over the
    exponents e of (d h + e + 1) / (e + 1) (Fomin-Reading, *Generalized
    cluster complexes and Coxeter combinatorics*, 2005), for every
    orientation.  Plain integer arithmetic: the product is divided once.
    """
    h, exps = dynkin_exponents(kind, n)
    top = bottom = 1
    for e in exps:
        top *= d * h + e + 1
        bottom *= e + 1
    count, rest = divmod(top, bottom)
    assert rest == 0
    return count


def order_from_vanishing(classes, vanishes):
    """The relation T >= U on silting classes, from Hom-vanishing alone.

    Classes are tuples of item ids; ``vanishes(a, b)`` says Hom(a, b[s]) = 0
    for s = 1..d.  T >= U iff Hom(T, U[>0]) = 0 (Aihara-Iyama, *Silting
    mutation in triangulated categories*, 2012), so it holds when it holds
    for every item a of T and b of U.  Returns the set of pairs (T, U).
    """
    return {(t, u) for t in classes for u in classes
            if all(vanishes(a, b) for a in t for b in u)}


def covering_pairs(classes, ge):
    """The pairs (T, U) with T > U and no class strictly between them."""
    gt = {(t, u) for t, u in ge if t != u}
    return {(t, u) for t, u in gt
            if not any((t, w) in gt and (w, u) in gt for w in classes)}


def reference_product(alg, a, b):
    """paths[a] * paths[b] from the walks and relations alone, or None."""
    if alg.path_src[a] != alg.path_tgt[b]:
        return None
    walk = alg.paths[b] + alg.paths[a]
    for rel in alg.ideal.walks:
        if any(walk[i:i + len(rel)] == rel
               for i in range(len(walk) - len(rel) + 1)):
            return None
    return next(i for i in range(alg.dim) if alg.paths[i] == walk
                and alg.path_src[i] == alg.path_src[b])


def _summand_blocks(alg, summands):
    """(start, paths v -> w) of each summand P(v) in each vertex space w."""
    cursor = [0] * alg.n
    blocks = []
    for v in summands:
        row = []
        for w in range(alg.n):
            paths = [i for i in range(alg.dim)
                     if alg.path_src[i] == v and alg.path_tgt[i] == w]
            row.append((cursor[w], paths))
            cursor[w] += len(paths)
        blocks.append(row)
    return blocks, cursor


def reference_map_of_alg_matrix(alg, mat, src, tgt):
    """Vertex matrices of the map between sums of projectives P(v).

    ``src`` and ``tgt`` list the summands' vertices; ``mat[r, c]`` holds the
    path coefficients of where summand c's generator goes in summand r.
    Basis path b of summand c goes to the sum of mat[r, c, u] * (b * u),
    one path product at a time.
    """
    src_blocks, src_dims = _summand_blocks(alg, src)
    tgt_blocks, tgt_dims = _summand_blocks(alg, tgt)
    vmaps = [np.zeros((tgt_dims[w], src_dims[w]), dtype=np.int64)
             for w in range(alg.n)]
    for c in range(len(src)):
        for r in range(len(tgt)):
            for u in np.nonzero(mat[r, c])[0]:
                for w in range(alg.n):
                    col0, cols = src_blocks[c][w]
                    row0, rows = tgt_blocks[r][w]
                    for k, b in enumerate(cols):
                        prod = reference_product(alg, b, int(u))
                        if prod is not None:
                            row = row0 + rows.index(prod)
                            vmaps[w][row, col0 + k] = (
                                vmaps[w][row, col0 + k] + mat[r, c, u]) \
                                % alg.p
    return vmaps


def eager_fac_membership(gens, x, d, s=None):
    """``heart.fac_membership`` with every stage built in full, kept nowhere.

    Each stage builds the universal approximation f: E -> C from fresh
    hom packages, its cocone k and the window truncation, and reads
    surjectivity on H^0 off H^1(k) = coker H^0(f) (the models have no term
    above degree 0).  The middle comes from the packages' dimensions.
    """
    from tiltlab.heart import (FacResult, FacStep, _check_homology_window,
                               _map_from, generator_models, to_window)
    from tiltlab.homotopy import HomPackage, proj_direct_sum
    from tiltlab.repcomplex import complex_cone, homology_dims

    if s is None:
        s = d
    _check_homology_window(x, d)
    models = generator_models(gens, d)
    cur = x.trim()
    steps = []
    for stage in range(1, s + 1):
        if not homology_dims(cur):
            break
        chosen, images, middle = [], {}, []
        for gi, g in enumerate(models):
            pkg = HomPackage(g, cur, 0)
            if pkg.dim:
                middle.append((gi, pkg.dim))
            for coords in pkg.rep_coords:
                chosen.append(g)
                for (q, _), (_, sl) in pkg.layout[0].items():
                    images.setdefault(q, []).append(coords[sl])
        f = _map_from(proj_direct_sum(chosen, cur.alg), cur, images)
        k = complex_cone(f).shift(-1)
        if 1 in homology_dims(k):
            steps.append(FacStep(stage, middle, homology_dims(cur), False))
            return FacResult(
                "not_in" if stage == 1 else "not_in_approx", steps,
                detail=f"approximation not surjective on H^0 at stage {stage}")
        cur = to_window(k, d)
        steps.append(FacStep(stage, middle, homology_dims(cur), True))
    return FacResult("in", steps)
