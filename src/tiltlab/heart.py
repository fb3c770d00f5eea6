"""The d-extended heart: window complexes, resolutions and Fac-chains.

Heart objects are complexes with terms in degrees [-d+1, 0].  Every
derived-category computation routes through projective models built by
stepwise covers, so hom and extension groups reduce to the chain-level
solvers in :mod:`tiltlab.homotopy`.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import HomologyOutsideWindow, ResolutionDepthExceeded, \
    SpecError, WindowViolation
from .homotopy import ProjComplex, decompose_complex, hom_k, hom_package, \
    minimize, proj_zero
from .linalg import rank, solve_right, zeros
from .memo import memo
from .repcat import (ModuleMap, ProjSum, Representation, alg_matrix_of_map,
                     cokernel, is_isomorphic, kernel, minimal_resolution,
                     projective_cover, zero_rep)
from .repcomplex import (ComplexMap, RepComplex, complex_cone,
                         complex_direct_sum, homology_at, homology_dims,
                         stalk_complex, truncate_above, truncate_below)


def module_stalk(m: Representation) -> RepComplex:
    """A module viewed in the heart, concentrated in degree 0."""
    return stalk_complex(m, 0)


def in_window(c: RepComplex, d: int) -> bool:
    t = c.trim()
    return t.is_zero() or (t.lo >= -d + 1 and t.hi <= 0)


def to_window(c: RepComplex, d: int) -> RepComplex:
    """Smart truncation into [-d+1, 0]; homology outside is an error."""
    hd = homology_dims(c)
    for q in hd:
        if q < -d + 1 or q > 0:
            raise HomologyOutsideWindow(q)
    return truncate_below(truncate_above(c, 0), -d + 1).trim()


def resolution_of_module(m: Representation, depth: int) -> ProjComplex:
    """The minimal projective resolution, as a complex in degrees <= 0."""
    sums, diffs = minimal_resolution(m, depth=depth)
    if not sums:
        return proj_zero(m.alg)
    lo = -(len(sums) - 1)
    return ProjComplex(m.alg, lo, [s.summands for s in reversed(sums)],
                       list(reversed(diffs)))


def p_presentation(m, d: int) -> ProjComplex:
    """A (d+1)-term complex of projectives whose window truncation is m.

    Brutal truncation at degree -d of a projective model; accepts a module
    or any complex with homology inside the window.  The round trip is
    verified degreewise before returning.
    """
    if isinstance(m, Representation):
        out = resolution_of_module(m, d)
        target = stalk_complex(m, 0)
    else:
        target = to_window(m, d)
        r, complete = _resolution_cached(target, 2 * d + 3)
        if not complete:
            raise ResolutionDepthExceeded(
                "projective model did not terminate inside the depth budget")
        out = _proj_truncate_at(r, -d)
    got = truncate_window(out, d)
    for q in range(-d + 1, 1):
        if not is_isomorphic(homology_at(got, q), homology_at(target, q)):
            raise SpecError(
                f"presentation round trip failed in degree {q}")
    return out


def _proj_truncate_at(x: ProjComplex, q0: int) -> ProjComplex:
    """Drop all terms of x below degree q0 (brutal truncation)."""
    t = x.trim()
    if t.lo >= q0:
        return t
    cut = q0 - t.lo
    return ProjComplex(t.alg, q0, [list(s) for s in t.summands[cut:]],
                       [m.copy() for m in t.dmats[cut:]])


def truncate_window(s: ProjComplex, d: int) -> RepComplex:
    """The heart object carried by a silting-window complex.

    Applies sigma^(>= -d+1) to the expansion; the input must live in
    degrees [-d, 0].
    """
    t = s.trim()
    if not t.is_zero() and (t.lo < -d or t.hi > 0):
        raise WindowViolation(
            f"complex occupies [{t.lo}, {t.hi}], expected [-{d}, 0]")
    return truncate_below(s.expansion(), -d + 1).trim()


# -- resolving arbitrary complexes -----------------------------------------

def _lift_cover(cover: ModuleMap, pi: ModuleMap, psum: ProjSum) -> ModuleMap:
    """A map q: P -> C0 with pi o q = cover, built on the generators."""
    p = psum.alg.p
    gens = []
    for s in range(psum.count):
        v, col = psum.gen_column(s)
        gens.append(solve_right(pi.vmaps[v], cover.vmaps[v][:, col], p)[:, 0])
    return psum.extend(pi.src, gens)


def resolution_of_complex(c: RepComplex, depth: int):
    """A complex of projectives quasi-isomorphic to c.

    Iteratively covers the degree-zero homology and passes to the smartly
    truncated cocone.  Returns (ProjComplex, complete); when the depth
    budget stops the process early the result is the brutal truncation of
    a resolution and ``complete`` is False.
    """
    alg = c.alg
    cur = c.trim()
    if cur.is_zero() or not homology_dims(cur):
        return proj_zero(alg), True
    if cur.hi != 0:
        s, complete = resolution_of_complex(cur.shift(cur.hi), depth)
        return s.shift(-cur.hi), complete
    covers: list[ProjSum] = []
    dmaps: list[np.ndarray] = []
    prev_to_cover: ModuleMap | None = None
    prev_psum: ProjSum | None = None
    complete = False
    for _ in range(depth + 1):
        if not homology_dims(cur):
            complete = True
            break
        # cur.hi == 0, so every element of C^0 is a cycle and H^0 is the
        # cokernel of the incoming differential
        h0, pi0 = cokernel(cur.diff_at(-1))
        psum, cover = projective_cover(h0)
        q0 = _lift_cover(cover, pi0, psum)
        if prev_psum is not None:
            comp = prev_to_cover.after(q0)
            dmaps.append(alg_matrix_of_map(comp, psum, prev_psum))
        covers.append(psum)
        g = ComplexMap(stalk_complex(psum.rep, 0), cur, {0: q0})
        k = complex_cone(g).shift(-1)
        z, z_incl = kernel(k.diff_at(0))
        nxt = truncate_above(k, 0, (z, z_incl))
        prev_psum = psum
        # degree-0 term of nxt is z; its inclusion's first block is the cover
        prev_to_cover = ModuleMap(
            nxt.term_at(0), psum.rep,
            [z_incl.vmaps[v][: psum.rep.dims[v], :] for v in range(alg.n)])
        cur = nxt
    s = ProjComplex(alg, -(len(covers) - 1),
                    [ps.summands for ps in reversed(covers)],
                    list(reversed(dmaps)))
    return minimize(s), complete


# -- extension groups in the heart ------------------------------------------

def _resolution_cached(x: RepComplex, depth: int):
    store, key = memo(x), ("resolution", depth)
    if key not in store:
        store[key] = resolution_of_complex(x, depth)
    return store[key]


def e_ext(x: RepComplex, y: RepComplex, i: int, d: int,
          depth: int | None = None) -> int:
    """dim Hom_D(X, Y[i]) for heart objects, via a projective model of X."""
    if depth is None:
        depth = 2 * d + 3
    rx, complete = _resolution_cached(x, depth)
    if not complete and i > depth - d - 1:
        # the truncated tail of the model could contribute at this shift
        raise ResolutionDepthExceeded(
            f"resolution depth {depth} insufficient for ext degree {i}")
    return hom_k(rx, y, i)


def heart_hom(x: RepComplex, y: RepComplex, d: int,
              depth: int | None = None) -> int:
    return e_ext(x, y, 0, d, depth)


# -- Fac-chains and torsion-pair membership ---------------------------------

@dataclass
class FacStep:
    stage: int
    middle: list[tuple[int, int]]       # (generator index, multiplicity)
    kernel_dims: dict
    surjective: bool


@dataclass
class FacResult:
    verdict: str                        # "in" | "not_in" | "not_in_approx"
    steps: list[FacStep] = field(default_factory=list)
    detail: str = ""

    def __bool__(self):
        return self.verdict == "in"


def generator_models(gens, d: int,
                     depth: int | None = None) -> list[ProjComplex]:
    """Projective models of the generators.

    Accepts silting summands (complexes of projectives, modelled through
    their window truncations) or heart objects directly.
    """
    if depth is None:
        depth = 2 * d + 3
    out = []
    for g in gens:
        if isinstance(g, ProjComplex):
            r, complete = _resolution_cached_proj(g, d, depth)
        else:
            r, complete = _resolution_cached(g, depth)
        if not complete:
            raise ResolutionDepthExceeded("generator resolution incomplete")
        out.append(r)
    return out


def _resolution_cached_proj(s: ProjComplex, d: int, depth: int):
    store, key = memo(s), ("window_resolution", d, depth)
    if key not in store:
        store[key] = resolution_of_complex(truncate_window(s, d), depth)
    return store[key]


def fac_membership(gens, x: RepComplex, d: int, s: int | None = None,
                   depth: int | None = None) -> FacResult:
    """Decide whether x is an s-factor of the generators inside the heart.

    Builds the chain of universal right approximations; at every stage
    the approximation must be surjective on degree-zero homology.  A
    first-stage failure certifies non-membership (every quotient
    extriangle factors through the universal approximation); failures on
    deeper cocones are only approximate evidence.
    """
    if s is None:
        s = d
    if depth is None:
        depth = 2 * d + 3
    try:
        models = generator_models(gens, d, depth)
    except ResolutionDepthExceeded as exc:
        return FacResult("not_in_approx", detail=str(exc))
    cur = x.trim()
    out_steps: list[FacStep] = []
    for stage in range(1, s + 1):
        if cur.is_zero() or not homology_dims(cur):
            break
        comps: list[tuple[int, ComplexMap]] = []
        for gi, g in enumerate(models):
            pkg = hom_package(g, cur, 0, cache=False)
            for coords in pkg.rep_coords:
                comps.append((gi, pkg.complexmap_of(coords)))
        middle: list[tuple[int, int]] = []
        for gi, _ in comps:
            if middle and middle[-1][0] == gi:
                middle[-1] = (gi, middle[-1][1] + 1)
            else:
                middle.append((gi, 1))
        if not _h0_surjective(comps, cur):
            out_steps.append(FacStep(stage, middle, homology_dims(cur), False))
            verdict = "not_in" if stage == 1 else "not_in_approx"
            return FacResult(
                verdict, out_steps,
                detail=f"approximation not surjective on H^0 at stage {stage}")
        f = _assemble_sum_map([c for _, c in comps], cur)
        k = complex_cone(f).shift(-1)
        try:
            nxt = to_window(k, d)
        except HomologyOutsideWindow as exc:
            out_steps.append(FacStep(stage, middle, homology_dims(cur), True))
            return FacResult("not_in_approx", out_steps,
                             detail=f"cocone left the window: {exc}")
        out_steps.append(FacStep(stage, middle, homology_dims(nxt), True))
        cur = nxt
    return FacResult("in", out_steps)


def _h0_surjective(comps, cur: RepComplex) -> bool:
    """Do the degree-0 components of comps map onto H^0(cur)?

    The models live in degrees <= 0, so every f^0 lands in the cycles.
    The maps are onto H^0 exactly when, at each vertex, the boundaries
    and their images together span the cycles.
    """
    alg = cur.alg
    d_in, d_out = cur.diff_at(-1), cur.diff_at(0)
    f0s = [cm.map_at(0) for _, cm in comps]
    for v in range(alg.n):
        cycles = cur.term_at(0).dims[v] - rank(d_out.vmaps[v], alg.p)
        if cycles == 0:
            continue
        span = np.concatenate([d_in.vmaps[v]] + [f.vmaps[v] for f in f0s],
                              axis=1)
        if rank(span, alg.p) != cycles:
            return False
    return True


def _assemble_sum_map(maps: list[ComplexMap], tgt: RepComplex) -> ComplexMap:
    """Combine maps with common target into one map from the direct sum."""
    alg = tgt.alg
    if not maps:
        z = RepComplex(alg, 0, [zero_rep(alg)], [])
        return ComplexMap(z, tgt, {})
    src = maps[0].src
    for m in maps[1:]:
        src = complex_direct_sum(src, m.src)
    lo = min(src.lo, tgt.lo)
    hi = max(src.hi, tgt.hi)
    out = {}
    for q in range(lo, hi + 1):
        term = src.term_at(q)
        vmaps = [zeros(tgt.term_at(q).dims[v], term.dims[v])
                 for v in range(alg.n)]
        at = [0] * alg.n
        for m in maps:
            mv = m.map_at(q)
            for v in range(alg.n):
                w = mv.vmaps[v].shape[1]
                vmaps[v][:, at[v]:at[v] + w] = mv.vmaps[v]
                at[v] += w
        out[q] = ModuleMap(term, tgt.term_at(q), vmaps)
    return ComplexMap(src, tgt, out)


def t_class_membership(parts: list[ProjComplex], x: RepComplex,
                       d: int) -> bool:
    """T(S)-membership: positive shifts against the summands vanish.

    Shifts above d vanish for window reasons; d + 1 is checked anyway.
    """
    return all(hom_k(s, x, i) == 0
               for s in parts for i in range(1, d + 2))


def f_class_membership(parts: list[ProjComplex], x: RepComplex,
                       d: int) -> bool:
    """F(S)-membership: vanishing against shifts i <= 0.

    Shifts below -d+1 vanish for window reasons; -d is checked anyway.
    """
    return all(hom_k(s, x, i) == 0
               for s in parts for i in range(-d, 1))


# -- decomposition inside the heart ----------------------------------------

def decompose_window(x: RepComplex, d: int, seed: int = 0,
                     depth: int | None = None):
    """Indecomposable heart summands of x, with multiplicities."""
    if depth is None:
        depth = 2 * d + 3
    r, complete = _resolution_cached(x, depth)
    if not complete:
        raise ResolutionDepthExceeded(
            "cannot decompose: resolution budget exhausted")
    return [(to_window(c.expansion(), d), mult)
            for c, mult in decompose_complex(r, seed=seed)]
