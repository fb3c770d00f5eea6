"""The d-extended heart: window complexes, resolutions and Fac-chains.

Heart objects are complexes with terms in degrees [-d+1, 0].  Every
derived-category computation routes through projective models built by
stepwise covers, so hom and extension groups reduce to the chain-level
solvers in :mod:`tiltlab.homotopy`.  Covers and Fac-chain approximations
are maps out of a complex of projectives, given by the images of its
generators; ``_map_from`` builds them, one ``ProjSum.extend`` per degree.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from .errors import HomologyOutsideWindow, Mismatch, \
    ResolutionDepthExceeded, WindowViolation
from .homotopy import ProjComplex, decompose_complex, hom_k, hom_package, \
    minimize, proj_direct_sum, proj_zero
from .linalg import rank, solve_right
from .memo import memo
from .repcat import (ModuleMap, ProjSum, Representation, alg_matrix_of_map,
                     cokernel, is_isomorphic, kernel, minimal_resolution,
                     projective_cover)
from .repcomplex import (ComplexMap, RepComplex, complex_cone, homology_at,
                         homology_dims, stalk_complex, truncate_above,
                         truncate_below)


def module_stalk(m: Representation) -> RepComplex:
    """A module viewed in the heart, concentrated in degree 0."""
    return stalk_complex(m, 0)


def _check_homology_window(c: RepComplex, d: int) -> None:
    """Raise ``HomologyOutsideWindow`` unless H^q(c) = 0 off [-d+1, 0]."""
    for q in homology_dims(c):
        if q < -d + 1 or q > 0:
            raise HomologyOutsideWindow(q)


def to_window(c: RepComplex, d: int) -> RepComplex:
    """Smart truncation into [-d+1, 0]; homology outside is an error."""
    _check_homology_window(c, d)
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
    verified degreewise once, and the result is kept in ``memo(m)``.
    """
    store, key = memo(m), ("presentation", d)
    if key in store:
        return store[key]
    if isinstance(m, Representation):
        out = resolution_of_module(m, d)
        target = stalk_complex(m, 0)
    else:
        target = to_window(m, d)
        out = projective_model(target, d)
        if out.lo < -d:     # brutal truncation of the trimmed model
            cut = -d - out.lo
            out = ProjComplex(m.alg, -d, out.summands[cut:], out.dmats[cut:])
    got = truncate_window(out, d)
    for q in range(-d + 1, 1):
        if not is_isomorphic(homology_at(got, q), homology_at(target, q)):
            raise Mismatch(
                f"presentation round trip failed in degree {q}")
    store[key] = out
    return out


def truncate_window(s: ProjComplex, d: int) -> RepComplex:
    """The heart object carried by a silting-window complex.

    Applies sigma^(>= -d+1) to the expansion; the input must live in
    degrees [-d, 0].  The result is kept in ``memo(s)``.
    """
    store, key = memo(s), ("truncate_window", d)
    if key not in store:
        t = s.trim()
        if not t.is_zero() and (t.lo < -d or t.hi > 0):
            raise WindowViolation(
                f"complex occupies [{t.lo}, {t.hi}], expected [-{d}, 0]")
        store[key] = truncate_below(s.expansion(), -d + 1).trim()
    return store[key]


# -- resolving arbitrary complexes -----------------------------------------

def _map_from(e: ProjComplex, c: RepComplex, images: dict) -> ComplexMap:
    """The map e.expansion() -> c that sends generators to given images.

    ``images[q]`` holds one vertex vector of c^q per summand of e^q, in
    e's order; a degree missing from ``images`` maps to zero.
    """
    return ComplexMap(e.expansion(), c, {
        q: e.psum_at(q).extend(c.term_at(q), images.get(q, []))
        for q in e.degrees()})


def resolution_of_complex(c: RepComplex, depth: int):
    """A complex of projectives quasi-isomorphic to c.

    Iteratively covers the degree-zero homology and passes to the smartly
    truncated cocone, at most depth + 1 times.  Returns (ProjComplex,
    complete); when the depth budget stops the process early the result is
    the brutal truncation of a resolution and ``complete`` is False:
    the syzygy after the last cover is not zero.  A stalk complex gets
    the minimal resolution of its one term (``resolution_of_module``),
    with the same number of covers; that one raises
    ``ResolutionDepthExceeded`` past ``repcat.RESOLUTION_SIZE_BUDGET``,
    which the loop does not check.
    """
    alg = c.alg
    cur = c.trim()
    if not homology_dims(cur):
        return proj_zero(alg), True
    if cur.hi != 0:
        s, complete = resolution_of_complex(cur.shift(cur.hi), depth)
        return s.shift(-cur.hi), complete
    if cur.lo == 0:
        m = cur.term_at(0)
        s = resolution_of_module(m, depth)
        # dim Omega^(t+1) = dim P_t - dim Omega^t, from Omega^0 = m
        syz = np.array(m.dims)
        for q in reversed(s.degrees()):
            syz = np.subtract(s.psum_at(q).rep.dims, syz)
        return s, not syz.any()
    covers: list[ProjSum] = []
    dmaps: list[np.ndarray] = []
    complete = False
    for _ in range(depth + 1):
        if not homology_dims(cur):
            complete = True
            break
        # cur.hi == 0, so every element of C^0 is a cycle and H^0 is the
        # cokernel of the incoming differential; the cover's generator
        # images lift from H^0 to C^0
        h0, pi0 = cokernel(cur.diff_at(-1))
        psum, cover = projective_cover(h0)
        gens = [solve_right(pi0.vmaps[v], cover.vmaps[v][:, col], alg.p)[:, 0]
                for v, col in map(psum.gen_column, range(psum.count))]
        g = _map_from(ProjComplex(alg, 0, [psum.summands], []), cur, {0: gens})
        if covers:
            comp = prev_to_cover.after(g.map_at(0))
            dmaps.append(alg_matrix_of_map(comp, psum, covers[-1]))
        covers.append(psum)
        k = complex_cone(g).shift(-1)
        z, z_incl = kernel(k.diff_at(0))
        cur = truncate_above(k, 0, (z, z_incl))
        # z is the new degree-0 term; its inclusion's first block is the cover
        prev_to_cover = ModuleMap(
            z, psum.rep,
            [z_incl.vmaps[v][: psum.rep.dims[v], :] for v in range(alg.n)])
    else:
        # the last allowed cover may have finished the model
        complete = not homology_dims(cur)
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


def projective_model(x, d: int) -> ProjComplex:
    """The projective model of a heart object, resolved to depth 2d+3.

    Accepts a module complex, or a complex of projectives through its
    window truncation; an incomplete model raises.
    """
    if isinstance(x, ProjComplex):
        x = truncate_window(x, d)
    r, complete = _resolution_cached(x, 2 * d + 3)
    if not complete:
        raise ResolutionDepthExceeded(
            "projective model did not terminate inside the depth budget")
    return r


def e_ext(x: RepComplex, y: RepComplex, i: int, d: int,
          depth: int | None = None) -> int:
    """dim Hom_D(X, Y[i]) for heart objects, via a projective model of X.

    x or y with homology outside [-d+1, 0] raises ``HomologyOutsideWindow``
    on entry, as in ``fac_membership``.
    """
    _check_homology_window(x, d)
    _check_homology_window(y, d)
    if depth is None:
        depth = 2 * d + 3
    rx, complete = _resolution_cached(x, depth)
    if not complete and i > depth - d - 1:
        # the truncated tail of the model could contribute at this shift
        raise ResolutionDepthExceeded(
            f"resolution depth {depth} insufficient for ext degree {i}")
    return hom_k(rx, y, i)


# -- Fac-chains and torsion-pair membership ---------------------------------

@dataclass
class FacStep:
    """One stage of a Fac-chain.

    ``kernel_dims`` is ``homology_dims`` of the stage's cocone in the
    window (the next C) for a surjective stage, and of C itself for the
    stage that is not.  The last step of a chain that ends "in" reads it
    from ``_fac_stage`` on first access, so the cocone is built only if
    someone asks.
    """
    stage: int
    middle: list[tuple[int, int]]       # (generator index, multiplicity)
    kernel_dims: Mapping[int, tuple]    # homology_dims, read-only
    surjective: bool


class _NextDims(Mapping):
    """homology_dims of ``_fac_stage(cur, used, d)``, built on first read."""

    def __init__(self, cur: RepComplex, used: tuple, d: int):
        self._stage = (cur, used, d)
        self._dims = None

    def _read(self) -> Mapping[int, tuple]:
        if self._dims is None:
            self._dims = homology_dims(_fac_stage(*self._stage))
        return self._dims

    def __getitem__(self, q):
        return self._read()[q]

    def __iter__(self):
        return iter(self._read())

    def __len__(self):
        return len(self._read())

    def __repr__(self):
        return repr(dict(self._read()))


@dataclass
class FacResult:
    verdict: str                        # "in" | "not_in" | "not_in_approx"
    steps: list[FacStep] = field(default_factory=list)
    detail: str = ""

    def __bool__(self):
        return self.verdict == "in"


def generator_models(gens, d: int) -> list[ProjComplex]:
    """Projective models of the generators, resolved to depth 2d+3.

    Accepts silting summands (complexes of projectives, modelled through
    their window truncations) or heart objects directly.
    """
    return [projective_model(g, d) for g in gens]


def _approximation_images(cur: RepComplex, used: tuple[ProjComplex, ...]):
    """The source and generator images of the universal approximation.

    Returns (chosen, images): one copy of a model per class
    representative of Hom(model, cur), in order, and per degree q the
    images in cur^q of the generators of their direct sum (``_map_from``).
    """
    chosen: list[ProjComplex] = []
    images: dict[int, list[np.ndarray]] = {}
    for g in used:
        pkg = hom_package(g, cur, 0)
        for coords in pkg.rep_coords:
            chosen.append(g)
            for (q, _), (_, sl) in pkg.layout[0].items():
                images.setdefault(q, []).append(coords[sl])
    return chosen, images


def _fac_onto(cur: RepComplex, used: tuple[ProjComplex, ...]) -> bool:
    """Is the universal approximation f: E -> cur onto H^0(cur)?

    Kept in ``memo(cur)`` under ``("fac_onto", used)``.  The models have
    no term above degree 0, so E^1 = 0, and the cocone k of f has
    k^1 = C^0 with d_k^0 = (f^0, d_C^(-1)) up to sign and d_k^1 = d_C^0.
    So f is onto H^0 exactly when, at every vertex v,
    rank [d_C^(-1) | f^0]_v = dim Z^0(C)_v = dim C^0_v - rank (d_C^0)_v;
    the last rank is 0 unless C has a term above degree 0.  f^0 is one
    ``ProjSum.extend`` of the class representatives' degree-0 generator
    images; null-homotopic maps would only add columns inside the image
    of d_C^(-1).  With H^0(C) = 0 (always so for an empty ``used``) f is
    onto and nothing is built.
    """
    store, key = memo(cur), ("fac_onto", used)
    out = store.get(key)
    if out is None:
        out = 0 not in homology_dims(cur)
        if not out and used:
            chosen, images = _approximation_images(cur, used)
            summands = [v for g in chosen for v in g.summands_at(0)]
            c0, p = cur.term_at(0), cur.alg.p
            f0 = ProjSum.of(cur.alg, summands).extend(
                c0, images.get(0, [])).vmaps
            # H^0 != 0, so cur.hi >= 0 and d_C^(-1) exists when cur.lo < 0
            into = cur.diff_at(-1).vmaps if cur.lo < 0 else None
            out_of = cur.diff_at(0).vmaps if cur.hi > 0 else None
            out = all(
                rank(f0[v] if into is None
                     else np.concatenate([into[v], f0[v]], axis=1), p)
                == dim - (rank(out_of[v], p) if out_of else 0)
                for v, dim in enumerate(c0.dims) if dim)
        store[key] = out
    return out


def _fac_stage(cur: RepComplex, used: tuple[ProjComplex, ...], d: int):
    """The next C after an onto stage over cur, kept in ``memo(cur)``.

    ``used`` lists the generator models with Hom(model, cur) != 0, in
    model order.  Builds the universal approximation f: E -> cur and
    returns its cocone moved into the window.  It is asked for only once
    ``_fac_onto`` has passed, so a cocone with H^1 = coker H^0(f) raises
    ``Mismatch``.
    """
    store = memo(cur)
    key = ("fac_stage", used, d)
    if key in store:
        return store[key]
    chosen, images = _approximation_images(cur, used)
    f = _map_from(proj_direct_sum(chosen, cur.alg), cur, images)
    k = complex_cone(f).shift(-1)
    if 1 in homology_dims(k):
        raise Mismatch("Fac stage: the rank test passed an approximation "
                       "that is not onto H^0")
    out = store[key] = to_window(k, d)
    return out


def fac_membership(gens, x: RepComplex, d: int,
                   s: int | None = None) -> FacResult:
    """Decide whether x is an s-factor of the generators inside the heart.

    x and the generators must lie in the heart: a generator model with a
    term above degree 0 raises ``WindowViolation``, and an x with homology
    outside [-d+1, 0] raises ``HomologyOutsideWindow`` on entry (one
    memoized ``homology_dims``).  Without that check the first stage could
    certify a verdict for such an x: for S(0) in degrees 0 and 1 over A_2
    and the generator P(1), f = 0 is not onto H^0, and the stage stops
    before any truncation sees the cocone's H^2.

    Walks the chain of universal right approximations f: E -> C; at every
    stage f must be onto H^0(C).  The long exact sequence of the cocone
    k -> E -> C puts H^q(k) in [-d+1, 1] when E and C lie in the heart,
    with H^1(k) = coker H^0(f); ``_fac_onto`` decides it with one rank
    test per vertex in degree 0, and then ``to_window(k, d)`` is the next
    C and cannot raise.  A first-stage failure certifies non-membership
    (every quotient extriangle factors through the universal
    approximation); failures on deeper cocones are only approximate
    evidence.

    Only an onto stage with a later stage builds f and its cocone
    (``_fac_stage``); the last step of an "in" chain reads its
    ``kernel_dims`` from that stage on first access.  Both are kept in
    ``memo(C)``, under ``("fac_onto", used)`` and ``("fac_stage", used,
    d)``, with ``used`` the generator models g with Hom(g, C) != 0, in
    model order.  A model with Hom(g, C) = 0 adds no column to f, and the
    hom packages are deterministic and kept in ``memo(C)`` by model, so
    the test, f, its cocone and the truncation depend on (C, used, d)
    alone: generator lists that differ only by models with no map into C
    share the stage.  f and its source are not kept.  The steps, verdict
    and detail are built per call.
    """
    if s is None:
        s = d
    _check_homology_window(x, d)
    try:
        models = generator_models(gens, d)
    except ResolutionDepthExceeded as exc:
        return FacResult("not_in_approx", detail=str(exc))
    if any(g.trim().hi > 0 for g in models):
        raise WindowViolation("a generator model has a term above degree 0")
    cur = x.trim()
    out_steps: list[FacStep] = []
    for stage in range(1, s + 1):
        if not homology_dims(cur):
            break
        dims = [hom_k(g, cur, 0) for g in models]
        middle = [(gi, dim) for gi, dim in enumerate(dims) if dim]
        used = tuple(g for g, dim in zip(models, dims) if dim)
        if not _fac_onto(cur, used):
            out_steps.append(FacStep(stage, middle, homology_dims(cur), False))
            verdict = "not_in" if stage == 1 else "not_in_approx"
            return FacResult(
                verdict, out_steps,
                detail=f"approximation not surjective on H^0 at stage {stage}")
        if stage == s:
            out_steps.append(FacStep(stage, middle, _NextDims(cur, used, d),
                                     True))
            break
        cur = _fac_stage(cur, used, d)
        out_steps.append(FacStep(stage, middle, homology_dims(cur), True))
    return FacResult("in", out_steps)


def t_class_membership(parts: list[ProjComplex], x: RepComplex,
                       d: int) -> bool:
    """T(S)-membership: positive shifts against the summands vanish.

    Shifts above d vanish for window reasons; d + 1 is checked anyway.
    An x outside the heart raises ``HomologyOutsideWindow`` on entry.
    """
    _check_homology_window(x, d)
    return all(hom_k(s, x, i) == 0
               for s in parts for i in range(1, d + 2))


def f_class_membership(parts: list[ProjComplex], x: RepComplex,
                       d: int) -> bool:
    """F(S)-membership: vanishing against shifts i <= 0.

    Shifts below -d+1 vanish for window reasons; -d is checked anyway.
    An x outside the heart raises ``HomologyOutsideWindow`` on entry.
    """
    _check_homology_window(x, d)
    return all(hom_k(s, x, i) == 0
               for s in parts for i in range(-d, 1))


# -- decomposition inside the heart ----------------------------------------

def decompose_window(x: RepComplex, d: int, seed: int = 0):
    """Indecomposable heart summands of x, with multiplicities.

    Split once per (d, seed) and kept in ``memo(x)``.
    """
    store, key = memo(x), ("decompose_window", d, seed)
    if key not in store:
        parts = decompose_complex(projective_model(x, d), seed=seed)
        store[key] = tuple((to_window(c.expansion(), d), m) for c, m in parts)
    return store[key]
