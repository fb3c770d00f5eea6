"""Checkers for AIR tilting, quasi-tilting and tilting generators.

The subcategory equalities behind these notions quantify over the whole
heart, so every checker works relative to an explicit finite universe of
window complexes plus seeded random extriangle generation.  Reports name
their universe; a verdict is only as strong as the sampling frame, except
where an exact certificate (silting towers, stage-one approximation
failures) is available.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from .errors import (HomologyOutsideWindow, Mismatch, ResolutionDepthExceeded,
                     SpecError, UndecidedIso)
from .heart import (_resolution_cached, decompose_window, e_ext,
                    f_class_membership, fac_membership, generator_models,
                    module_stalk, p_presentation, projective_model,
                    t_class_membership, to_window, truncate_window)
from .homotopy import (ProjComplex, decompose_complex, hom_k, hom_package,
                       iso_k, left_approximation, minimize, proj_cone,
                       proj_direct_sum, proj_stalk, right_approximation)
from .linalg import zeros
from .repcat import (ModuleMap, ProjSum, Representation, alg_matrix_of_map,
                     certify_isomorphic, decompose, hom_basis, in_add,
                     injective, kernel, module_iso, simple)
from .repcomplex import (RepComplex, homology_dims, truncate_above,
                         truncate_below)
from .silting import (ComplexRegistry, SiltingResult, _k0_is_basis,
                      _random_rep, enumerate_silting, is_presilting,
                      is_silting)


def _as_heart(x) -> RepComplex:
    if isinstance(x, Representation):
        return module_stalk(x)
    return x


def _in_window_dims(hd, d: int) -> bool:
    return all(-d + 1 <= q <= 0 for q in hd)


def presentation_parts(gens, d: int, seed: int = 0) -> list[ProjComplex]:
    """The indecomposable summands of each generator's d-presentation.

    A decomposable generator enters every check as its summands, as it
    does in its additive class.  ``decompose_complex`` minimizes first.
    """
    return [c for g in gens
            for c, _mult in decompose_complex(p_presentation(g, d),
                                              seed=seed)]


def _pd_within(p: ProjComplex, d: int) -> bool:
    """Projective dimension at most d, read off a d-presentation.

    Heart objects have no homology below -d+1, so H^{-d} of the
    presentation is the syzygy kernel, nonzero exactly when the resolution
    did not end by depth d.
    """
    return -d not in homology_dims(p.expansion())


# -- the sampling universe ---------------------------------------------------

# random representations drawn per dimension vector of the universe grid
REPS_PER_DIMS = 2


@dataclass
class UniverseMember:
    key: int
    obj: RepComplex
    model: ProjComplex
    tag: str


@dataclass
class Universe:
    """A finite, summand-closed family of heart objects.

    Members carry canonical minimized projective models; ``key`` is stable
    under isomorphism within one universe (registry interning).
    """
    alg: object
    d: int
    seed: int
    members: list[UniverseMember] = field(default_factory=list)
    registry: ComplexRegistry = None

    def __iter__(self):
        return iter(self.members)

    def __len__(self):
        return len(self.members)


def _random_map(src: Representation, tgt: Representation, rng) -> ModuleMap:
    """A random combination of hom_basis(src, tgt), one draw per basis map."""
    p = src.alg.p
    vmaps = [zeros(t, s) for s, t in zip(src.dims, tgt.dims)]
    for b in hom_basis(src, tgt):
        c = int(rng.integers(p))
        vmaps = [(m + c * bm) % p for m, bm in zip(vmaps, b.vmaps)]
    return ModuleMap(src, tgt, vmaps)


def _random_proj_3step(alg, rng) -> ProjComplex:
    """P_{-2} -> P_{-1} -> P_0 with honest differentials.

    The top map is random; the bottom one is a random map into its
    kernel, so the composite vanishes while middle homology usually
    survives (covering the kernel instead would kill it and leave the
    complex quasi-isomorphic to a module).
    """
    s0 = [int(rng.integers(alg.n)) for _ in range(1 + int(rng.integers(2)))]
    s1 = [int(rng.integers(alg.n)) for _ in range(1 + int(rng.integers(2)))]
    s2 = [int(rng.integers(alg.n)) for _ in range(1 + int(rng.integers(2)))]
    ps0, ps1, ps2 = (ProjSum.of(alg, s) for s in (s0, s1, s2))
    f = _random_map(ps1.rep, ps0.rep, rng)
    ker_rep, incl = kernel(f)
    comp = incl.after(_random_map(ps2.rep, ker_rep, rng))
    return ProjComplex(alg, -2, [s2, s1, s0],
                       [alg_matrix_of_map(comp, ps2, ps1),
                        alg_matrix_of_map(f, ps1, ps0)])


def build_universe(alg, d: int, seed: int = 0, dim_bound: int = 3,
                   n_complexes: int = 6,
                   depth: int | None = None) -> Universe:
    """Assemble the default sampling universe.

    Indecomposable modules are harvested by decomposing random
    representations over the dimension-vector grid (draws that break a
    relation are not modules and are skipped); each gets its window
    shifts.  Each module isoclass is resolved once: a draw that
    ``repcat.certify_isomorphic`` certifies isomorphic to the previous
    settled draw of the same dimension vector, or that ``repcat.in_add``
    certifies to lie in add(parts found so far), is not decomposed, and a
    part isomorphic to one found earlier is dropped.  No skip changes the
    members.  Random three-step projective complexes are truncated into
    the window, and their heart summands are added; that closes the family
    under direct summands, since the module members are indecomposable.
    """
    rng = np.random.default_rng(seed)
    registry = ComplexRegistry(seed)
    uni = Universe(alg, d, seed, [], registry)
    if depth is None:
        depth = 2 * d + 3

    def admit(obj: RepComplex, tag: str) -> UniverseMember | None:
        t = obj.trim()
        if not homology_dims(t):
            return None
        r, complete = _resolution_cached(t, depth)
        if not complete:
            return None
        known = len(registry.items)
        key = registry.intern(r)
        if key < known:
            return None
        member = UniverseMember(key, t, registry.items[key], tag)
        uni.members.append(member)
        return member

    # every indecomposable part tried so far: a part isomorphic to one of
    # them has the same resolution and registry class, so admitting it
    # could only return None.  A draw that in_add places in add(tried), or
    # that is isomorphic to a settled draw, has only such parts and is not
    # decomposed; both certificates draw from a generator of their own, so
    # the draws and their parts never depend on their answers.
    tried: list[Representation] = []
    cert_rng = np.random.default_rng([seed, 1])
    modules: list[Representation] = []
    for dims in product(range(dim_bound + 1), repeat=alg.n):
        if not any(dims):
            continue
        ref = None      # the previous settled draw of these dims
        for _ in range(REPS_PER_DIMS):
            draw = _random_rep(alg, dims, rng)
            if draw.broken_relation() is not None:
                continue
            if ref is not None and certify_isomorphic(ref, draw, cert_rng):
                continue
            ref = draw
            if in_add(draw, tried, cert_rng):
                continue
            for m, _mult in decompose(draw, seed=seed):
                if any(o.dims == m.dims and module_iso(m, o) is not None
                       for o in tried):
                    continue
                tried.append(m)
                if admit(module_stalk(m), "module") is not None:
                    modules.append(m)
    for m in modules:
        for j in range(1, d):
            admit(module_stalk(m).shift(j), "module-shift")
    for _ in range(n_complexes):
        x = _random_proj_3step(alg, rng).expansion()
        admit(truncate_below(truncate_above(x, 0), -d + 1), "complex")
    # a module part has local End, so it and its shifts are indecomposable
    # and admitting their own summands could only return None
    for member in [m for m in uni.members if m.tag == "complex"]:
        for s, _mult in decompose_window(member.obj, d, seed=seed):
            admit(s, "summand")
    return uni


# -- canonical heart classes -------------------------------------------------

class HeartStore:
    """Certified ids for indecomposable heart objects.

    ``class_of`` returns the sorted ids of an object's indecomposable
    summands, cached per object (which it keeps alive); ``window_class``
    does the same for the window truncation of a silting summand (kept in
    the summand's memo).  ``image`` joins the window classes of several
    summands.
    """

    def __init__(self, d: int, seed: int = 0):
        self.d = d
        self.seed = seed
        self.registry = ComplexRegistry(seed)
        self.reps: dict[int, RepComplex] = {}
        self._by_obj: dict[object, tuple[int, ...]] = {}

    def class_of(self, x: RepComplex) -> tuple[int, ...]:
        if x in self._by_obj:
            return self._by_obj[x]
        t = x.trim()
        if not homology_dims(t):
            out: tuple[int, ...] = ()
        else:
            ids = set()
            for c, _mult in decompose_complex(projective_model(t, self.d),
                                              seed=self.seed):
                i = self.registry.intern(c)
                if i not in self.reps:
                    self.reps[i] = to_window(c.expansion(), self.d)
                ids.add(i)
            out = tuple(sorted(ids))
        self._by_obj[x] = out
        return out

    def window_class(self, part: ProjComplex) -> tuple[int, ...]:
        return self.class_of(truncate_window(part, self.d))

    def image(self, parts: list[ProjComplex]) -> tuple[int, ...]:
        """Sorted ids of the heart summands of all the parts' truncations."""
        return tuple(sorted({i for part in parts
                             for i in self.window_class(part)}))


# -- AIR tilting -------------------------------------------------------------

@dataclass
class AirTiltingReport:
    verdict: str                      # "yes" | "no" | "unknown" | "mismatch"
    silting: SiltingResult
    table: list[dict] = field(default_factory=list)
    mismatches: list[dict] = field(default_factory=list)
    image_ids: tuple[int, ...] = ()

    def __bool__(self):
        return self.verdict == "yes"


def check_air_tilting(m_gens, s_parts: list[ProjComplex], universe: Universe,
                      silting_result: SiltingResult | None = None,
                      store: HeartStore | None = None) -> AirTiltingReport:
    """Is M AIR tilting with respect to the presentation S?

    The verdict is the exact silting certificate for S; the sampled
    equality between the vanishing class of S and the d-factor class of M
    is tabulated over the universe.  When S is certified silting any
    sampled mismatch is a hard failure ("mismatch"), never absorbed; when
    S is refuted the table is kept as corroborating evidence.
    """
    d = universe.d
    gens = [_as_heart(g) for g in m_gens]
    if store is None:
        store = HeartStore(d, universe.seed)
    image = store.image(s_parts)
    given = {i for g in gens for i in store.class_of(g)}
    if set(image) != given:
        raise SpecError("the candidate presentation does not generate the "
                        "same additive class as the generators")
    res = silting_result if silting_result is not None \
        else is_silting(s_parts, d)
    table: list[dict] = []
    mismatches: list[dict] = []
    for mem in universe:
        t = t_class_membership(s_parts, mem.obj, d)
        fr = fac_membership(gens, mem.obj, d)
        row = {"key": mem.key, "tag": mem.tag, "t_class": bool(t),
               "fac": fr.verdict}
        table.append(row)
        if t != bool(fr):
            mismatches.append({**row, "detail": fr.detail})
    if res.verdict in ("no", "unknown"):
        verdict = res.verdict
    else:
        verdict = "yes" if not mismatches else "mismatch"
    return AirTiltingReport(verdict, res, table, mismatches, image)


# -- quasi-tilting -----------------------------------------------------------

@dataclass
class QuasiTiltingReport:
    verdict: str         # "certified_via_silting" | "verified_on_sample"
    #                    # | "refuted"
    witness: dict | None = None
    air: AirTiltingReport | None = None
    qt1_checked: int = 0
    qt2_checked: int = 0
    chains_sampled: int = 0
    chains_skipped: int = 0
    anomalies: list = field(default_factory=list)

    def __bool__(self):
        return self.verdict != "refuted"


def _random_class_map(pkg, rng):
    weights = rng.integers(0, pkg.x.alg.p, size=pkg.dim) if pkg.dim else []
    return pkg.combine(weights)


def check_quasi_tilting(m_gens, universe: Universe, sample_budget: int = 100,
                        seed: int = 0) -> QuasiTiltingReport:
    """Test E-projectivity in Fac_d and level-(d)/(d+1) agreement.

    A passing silting certificate for the derived presentation settles the
    question outright; otherwise both axioms are sampled over the universe
    and over freshly generated random cocone chains.  Refutations always
    carry a certified witness; uncertified disagreements are listed as
    anomalies instead of being upgraded to refutations.
    """
    d = universe.d
    gens = [_as_heart(g) for g in m_gens]
    air = None
    try:
        parts = presentation_parts(gens, d, seed)
    except ResolutionDepthExceeded:
        parts = None
    if parts is not None:
        air = check_air_tilting(gens, parts, universe)
        if air.verdict == "mismatch":
            raise Mismatch("silting certificate and sampled factor class "
                           "disagree; this is a bug, not a verdict")
        if air.verdict == "yes":
            return QuasiTiltingReport("certified_via_silting", air=air)

    report = QuasiTiltingReport("verified_on_sample", air=air)
    # one level-(d+1) run per member: its first d stages are the level-d
    # run, so a failure at stage d+1 leaves the member in at level d
    levels = {}
    for mem in universe:
        rd1 = fac_membership(gens, mem.obj, d, s=d + 1)
        late = not rd1 and bool(rd1.steps) and rd1.steps[-1].stage > d
        levels[mem.key] = ("in" if late else rd1.verdict, rd1.verdict)
    for mem in universe:
        if levels[mem.key][0] != "in":
            continue
        for j, g in enumerate(gens):
            dim = e_ext(g, mem.obj, 1, d)
            report.qt1_checked += 1
            if dim:
                report.verdict = "refuted"
                report.witness = {"axiom": "QT1", "generator": j,
                                  "member": int(mem.key), "dim": int(dim)}
                return report

    models = generator_models(gens, d) if gens else []
    rng = np.random.default_rng(seed)
    pool = [mem.model for mem in universe]
    for _ in range(sample_budget):
        if not models or not pool:
            break
        cur = pool[int(rng.integers(len(pool)))]
        ok = True
        for _step in range(d):
            mults = rng.integers(0, 2, size=len(models))
            if not mults.any():
                mults[int(rng.integers(len(models)))] = 1
            chosen = [m for m, k in zip(models, mults) for _ in range(int(k))]
            em = proj_direct_sum(chosen, universe.alg)
            f = _random_class_map(hom_package(cur, em, 0), rng)
            cand = minimize(proj_cone(f))
            if not _in_window_dims(homology_dims(cand.expansion()), d):
                ok = False
                break
            cur = cand
        if not ok:
            report.chains_skipped += 1
            continue
        report.chains_sampled += 1
        obj = to_window(cur.expansion(), d)
        for j, g in enumerate(gens):
            dim = e_ext(g, obj, 1, d)
            report.qt1_checked += 1
            if dim:
                report.verdict = "refuted"
                report.witness = {"axiom": "QT1", "generator": j,
                                  "member": "chain", "dim": int(dim)}
                return report

    for mem in universe:
        rd, rd1 = levels[mem.key]
        report.qt2_checked += 1
        if (rd == "in") == (rd1 == "in"):
            continue
        entry = {"axiom": "QT2", "member": int(mem.key),
                 "level_d": rd, "level_d1": rd1}
        if "not_in" in (rd, rd1):
            report.verdict = "refuted"
            report.witness = entry
            return report
        report.anomalies.append(entry)
    return report


# -- tilting -----------------------------------------------------------------

@dataclass
class TiltingReport:
    verdict: str                     # "tilting" | "not_tilting" | "unknown"
    reason: str = ""
    route_a: dict = field(default_factory=dict)
    route_b: dict = field(default_factory=dict)

    def __bool__(self):
        return self.verdict == "tilting"


def check_tilting(m_gens, d: int, seed: int = 0) -> TiltingReport:
    """Decide the tilting property along two independent routes.

    Route A presents every generator, checks projective dimension via the
    leftmost syzygy, and certifies the assembled candidate as silting; it
    is authoritative.  Route B tests the three axioms directly: depth-wise
    vanishing against simples, pairwise higher-extension vanishing, and a
    bounded coresolution search from each indecomposable projective.  A
    disagreement between decided routes is an error, never a verdict.
    """
    gens = [_as_heart(g) for g in m_gens]
    if not gens:
        raise SpecError("no generators supplied")
    alg = gens[0].alg

    sa = None
    try:
        parts = presentation_parts(gens, d, seed)
        pd_flags = [_pd_within(p, d) for p in parts]
    except ResolutionDepthExceeded as exc:
        a_verdict = "unknown"
        route_a = {"error": str(exc)}
    else:
        if all(pd_flags):
            sa = is_silting(parts, d)
            a_verdict = {"yes": "tilting", "no": "not_tilting",
                         "unknown": "unknown"}[sa.verdict]
        else:
            a_verdict = "not_tilting"
        route_a = {"pd_ok": pd_flags, "silting": sa}

    failures: list[tuple[str, dict]] = []
    try:
        models = generator_models(gens, d)
    except ResolutionDepthExceeded as exc:
        b_verdict = "unknown"
        route_b = {"error": str(exc)}
    else:
        stalks = [module_stalk(simple(alg, v)) for v in range(alg.n)]
        for j, g in enumerate(gens):
            for v in range(alg.n):
                for i in range(d + 1, 2 * d + 4):
                    dim = e_ext(g, stalks[v], i, d)
                    if dim:
                        failures.append(("T1", {"generator": j, "vertex": v,
                                                "degree": i, "dim": int(dim)}))
        for i, gi in enumerate(gens):
            for j, gj in enumerate(gens):
                for k in range(1, d + 1):
                    dim = e_ext(gi, gj, k, d)
                    if dim:
                        failures.append(("T2", {"pair": (i, j), "degree": k,
                                                "dim": int(dim)}))
        pool = ComplexRegistry(seed)
        for m in models:
            for c, _mult in decompose_complex(m, seed=seed):
                pool.intern(c)
        t3: dict[int, dict] = {}
        try:
            for v in range(alg.n):
                y = proj_stalk(alg, v)
                entry = {"resolved": False, "steps": 0, "detail": ""}
                for step in range(d + 3):
                    if all(pool.find(c) is not None
                           for c, _ in decompose_complex(y, seed=seed)):
                        entry["resolved"] = True
                        entry["steps"] = step
                        break
                    if step == d + 2:
                        entry["detail"] = "coresolution bound exceeded"
                        break
                    _, gmap, _ = left_approximation(pool.items, y,
                                                    minimal=True)
                    cand = minimize(proj_cone(gmap))
                    if not _in_window_dims(
                            homology_dims(cand.expansion()), d):
                        entry["detail"] = (
                            f"cone homology left the window at step {step}")
                        break
                    y = cand
                t3[v] = entry
                if not entry["resolved"]:
                    failures.append(("T3", {"vertex": v,
                                            "detail": entry["detail"]}))
            b_verdict = "tilting" if not failures else "not_tilting"
        except UndecidedIso as exc:
            b_verdict = "unknown"
            t3 = {"error": str(exc)}
        route_b = {"failures": failures, "t3": t3}

    if {"tilting", "not_tilting"} <= {a_verdict, b_verdict}:
        raise Mismatch(
            f"tilting routes disagree: presentation route says {a_verdict}, "
            f"axiom route says {b_verdict}")
    if a_verdict == "unknown":
        return TiltingReport("unknown", "presentation route undecided",
                             route_a, route_b)
    if a_verdict == "tilting":
        reason = ("certified by both routes" if b_verdict == "tilting"
                  else "presentation route certified; axiom route undecided")
    elif failures:
        label, w = failures[0]
        reason = f"{label} fails: {w}"
    elif sa is not None:
        reason = f"silting refutation: {sa.reason}"
    else:
        reason = "a generator has projective dimension above d"
    return TiltingReport(a_verdict, reason, route_a, route_b)


# -- cross-checker equivalence ----------------------------------------------

@dataclass
class EquivalenceReport:
    legs: dict
    consistent: bool
    witnesses: dict = field(default_factory=dict)
    tilting: TiltingReport = None
    air: AirTiltingReport = None
    quasi: QuasiTiltingReport = None


def check_equivalence(m_gens, universe: Universe, seed: int = 0,
                      sample_budget: int = 60) -> EquivalenceReport:
    """Run the three checkers on one object and compare their verdicts.

    The compared legs: the two-route tilting verdict, whether the derived
    presentation is itself silting, the sampled equality of the vanishing
    and factor classes, and quasi-tilting together with every shifted
    injective landing in the factor class.  All legs that reach a decision
    must agree; sampled or anomalous legs may stay undecided but must not
    contradict a decided one.
    """
    d = universe.d
    gens = [_as_heart(g) for g in m_gens]
    witnesses: dict = {}

    tilt = check_tilting(gens, d, seed=seed)
    leg_tilt = {"tilting": True, "not_tilting": False,
                "unknown": None}[tilt.verdict]

    # an AIR "mismatch" never reaches here: check_quasi_tilting raises
    quasi = check_quasi_tilting(gens, universe, sample_budget=sample_budget,
                                seed=seed)
    air = quasi.air
    leg_self = (None if air is None else
                {"yes": True, "no": False, "unknown": None}[air.verdict])

    leg_tfac: bool | None = True
    if air is not None:
        soft = []
        for row in air.table:
            if row["t_class"] == (row["fac"] == "in"):
                continue
            if row["fac"] == "not_in_approx" and row["t_class"]:
                soft.append(row)
                continue
            leg_tfac = False
            witnesses.setdefault("t_equals_fac", row)
            break
        if leg_tfac and soft:
            leg_tfac = None
            witnesses["t_equals_fac_soft"] = soft[0]
    else:
        leg_tfac = None

    if quasi.verdict == "refuted":
        leg_quasi = False
        witnesses["quasi"] = quasi.witness
    elif quasi.anomalies:
        leg_quasi = None
        witnesses["quasi_anomalies"] = quasi.anomalies
    else:
        leg_quasi = True
    alg = universe.alg
    leg_inj: bool | None = True
    for v in range(alg.n):
        jobj = module_stalk(injective(alg, v)).shift(d - 1)
        fr = fac_membership(gens, jobj, d)
        if fr.verdict == "not_in":
            leg_inj = False
            witnesses["injectives"] = {"vertex": v, "verdict": fr.verdict}
            break
        if fr.verdict == "not_in_approx":
            leg_inj = None
            witnesses.setdefault("injectives_soft",
                                 {"vertex": v, "verdict": fr.verdict})
    if leg_quasi is False or leg_inj is False:
        leg_qi: bool | None = False
    elif leg_quasi is None or leg_inj is None:
        leg_qi = None
    else:
        leg_qi = True

    legs = {"tilting": leg_tilt, "self_presentation_silting": leg_self,
            "t_equals_fac": leg_tfac, "quasi_plus_injectives": leg_qi}
    decided = {v for v in legs.values() if v is not None}
    return EquivalenceReport(legs, len(decided) <= 1, witnesses, tilt, air,
                             quasi)


# -- theorem verifiers -------------------------------------------------------

@dataclass
class BijectionEntry:
    ids: tuple[int, ...]
    image: tuple[int, ...]
    air_verdict: str
    mismatches: int
    rederived: bool
    supports: tuple[int, ...]


@dataclass
class BijectionReport:
    d: int
    count: int
    entries: list[BijectionEntry]
    injective: bool
    failures: list[dict]
    unknowns: list[dict]
    enumeration: object

    @property
    def ok(self) -> bool:
        return self.injective and not self.failures and not self.unknowns


def compatible_stalks(core: list[ProjComplex], stalks: dict,
                      d: int) -> list:
    """The sorted keys of the stalks that keep the core presilting.

    Shifted projectives P_u[d], P_v[d] have no homs in nonzero shifts, so
    core plus a set of them is presilting exactly when core plus each one
    is; one ``is_presilting`` per stalk decides every completion.  Outside
    the supports of a silting class this is empty, because a silting
    object is maximal among presilting ones (Aihara-Iyama 2012).
    """
    return sorted(k for k, x in stalks.items()
                  if is_presilting(core + [x], d)[0])


def verify_bijection(alg, d: int, universe: Universe, seed: int = 0,
                     method: str = "mutation") -> BijectionReport:
    """Walk the silting-to-heart correspondence and test both directions.

    Every enumerated class is truncated into the heart and re-verified as
    AIR tilting with its source as presentation; images must be pairwise
    distinct additive classes; and re-presenting each image (with a search
    over the shifted-projective completions compatible with it) must
    recover exactly the source class.
    """
    enum = enumerate_silting(alg, d, method=method, seed=seed)
    store = HeartStore(d, seed)
    reg = enum.registry
    sid = {reg.intern(proj_stalk(alg, v).shift(d)): v for v in range(alg.n)}

    entries: list[BijectionEntry] = []
    failures: list[dict] = []
    unknowns: list[dict] = []
    for rec in enum.clusters:
        image_ids = store.image(rec.parts)
        m_gens = [store.reps[i] for i in image_ids]
        air = check_air_tilting(m_gens, rec.parts, universe,
                                silting_result=rec.result, store=store)
        if air.verdict == "unknown":
            unknowns.append({"ids": rec.ids, "stage": "air"})
        elif air.verdict != "yes":
            failures.append({"ids": rec.ids, "stage": "air",
                             "verdict": air.verdict,
                             "mismatches": air.mismatches})

        idset = set(rec.ids)
        supports = tuple(sorted(i for i in idset if i in sid))
        core = {reg.intern(c) for c in presentation_parts(m_gens, d, seed)}
        rederived = core == idset - set(supports)
        if not rederived:
            failures.append({"ids": rec.ids, "stage": "re-presentation",
                             "derived": tuple(sorted(core))})
        elif supports:
            core_items = [reg.items[i] for i in sorted(core)]
            others = compatible_stalks(
                core_items, {i: reg.items[i] for i in sid
                             if i not in supports}, d)
            for combo in combinations(sorted(others + list(supports)),
                                      len(supports)):
                if set(combo) == set(supports):
                    continue
                cand = core_items + [reg.items[i] for i in combo]
                ok, _w = _k0_is_basis(cand, alg.n)
                if not ok:
                    continue
                other = is_silting(cand, d)
                if other.verdict == "unknown":
                    unknowns.append({"ids": rec.ids, "stage": "uniqueness",
                                     "candidate": combo})
                elif other:
                    rederived = False
                    failures.append({"ids": rec.ids, "stage": "uniqueness",
                                     "other_supports": combo})
                    break
        entries.append(BijectionEntry(rec.ids, image_ids, air.verdict,
                                      len(air.mismatches), rederived,
                                      supports))

    images = [frozenset(e.image) for e in entries]
    injective = len(set(images)) == len(images)
    if not injective:
        for i, j in combinations(range(len(entries)), 2):
            if images[i] == images[j]:
                failures.append({"stage": "injectivity",
                                 "ids": (entries[i].ids, entries[j].ids)})
    return BijectionReport(d, len(entries), entries, injective, failures,
                           unknowns, enum)


@dataclass
class TorsionReport:
    image_ids: tuple[int, ...]
    t_members: list[int]
    f_members: list[int]
    orthogonality_failures: list[dict]
    perp_mismatches: list[dict]
    eproj_mismatches: list[dict]
    injective_verdicts: list[dict]
    tilting_case: bool

    @property
    def ok(self) -> bool:
        hard = (self.orthogonality_failures or self.perp_mismatches
                or self.eproj_mismatches)
        if hard:
            return False
        if self.tilting_case:
            return all(e["fac"] == "in" for e in self.injective_verdicts)
        return True


def verify_torsion_reports(s_parts: list[ProjComplex], universe: Universe,
                           silting_result: SiltingResult | None = None,
                           store: HeartStore | None = None) -> TorsionReport:
    """Audit the torsion pair induced by a silting candidate.

    Checks orthogonality between the sampled torsion and torsion-free
    members, the two descriptions of the torsion-free class, the match
    between sampled E-projectives and the truncated additive class, and
    (in the tilting case) that every shifted injective is a d-factor.
    """
    d = universe.d
    alg = universe.alg
    res = silting_result if silting_result is not None \
        else is_silting(s_parts, d)
    if res.verdict != "yes":
        raise SpecError(f"torsion reports require a certified silting "
                        f"candidate; got {res.verdict}")
    if store is None:
        store = HeartStore(d, universe.seed)
    image_ids = store.image(s_parts)
    gens = [store.reps[i] for i in image_ids]

    t_members, f_members = [], []
    for mem in universe:
        if t_class_membership(s_parts, mem.obj, d):
            t_members.append(mem)
        if f_class_membership(s_parts, mem.obj, d):
            f_members.append(mem)

    orth: list[dict] = []
    for x in t_members:
        for y in f_members:
            for i in (0, -1):
                dim = hom_k(x.model, y.obj, i)
                if dim:
                    orth.append({"t": int(x.key), "f": int(y.key),
                                 "shift": i, "dim": int(dim)})

    perp: list[dict] = []
    for mem in universe:
        by_parts = f_class_membership(s_parts, mem.obj, d)
        by_gens = all(e_ext(g, mem.obj, i, d) == 0
                      for g in gens for i in range(-d, 1))
        if by_parts != by_gens:
            perp.append({"member": int(mem.key), "via_parts": by_parts,
                         "via_truncation": by_gens})

    classes = {mem.key: store.class_of(mem.obj) for mem in universe}
    # the truncated generators are themselves torsion members, so they
    # belong in the ext-vanishing family even when the sampled universe
    # misses their iso classes
    targets = [z.obj for z in t_members] + gens
    eproj: list[dict] = []
    for x in t_members:
        sampled = all(e_ext(x.obj, t, 1, d) == 0 for t in targets)
        in_image = all(i in image_ids for i in classes[x.key])
        if sampled != in_image:
            eproj.append({"member": int(x.key), "e_projective": sampled,
                          "in_image": in_image})

    inj_verdicts: list[dict] = []
    for v in range(alg.n):
        jobj = module_stalk(injective(alg, v)).shift(d - 1)
        fr = fac_membership(gens, jobj, d)
        inj_verdicts.append({"vertex": v, "fac": fr.verdict,
                             "detail": fr.detail})
    tilting_case = all(_pd_within(part, d) for part in s_parts)
    return TorsionReport(image_ids, [int(m.key) for m in t_members],
                         [int(m.key) for m in f_members], orth, perp, eproj,
                         inj_verdicts, tilting_case)


# -- randomized closure trials ----------------------------------------------

@dataclass
class TrialReport:
    kinds: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return all(not k["failures"] for k in self.kinds.values())


def qtilt_closure_trials(m_gens, universe: Universe, n_trials: int = 500,
                         seed: int = 0) -> TrialReport:
    """Seeded random trials for the closure properties of Fac_d(M).

    Extension, cocone and kernel trials realize random extriangles with
    the hypothesis members in the factor class and test the concluded
    member; summand trials split members; d-factor trials feed factor
    chains through intermediate generator sets.  Trials whose extriangle
    leaves the window, or whose side hypothesis fails, are skipped; every
    performed trial must conclude "in".
    """
    d = universe.d
    gens = [_as_heart(g) for g in m_gens]
    models = generator_models(gens, d) if gens else []
    fac_in = {mem.key: fac_membership(gens, mem.obj, d) for mem in universe}
    pool = [mem for mem in universe if fac_in[mem.key]]
    report = TrialReport()

    def run(name: str, trial) -> None:
        kind = {"performed": 0, "skipped": 0, "failures": []}
        report.kinds[name] = kind
        rng = np.random.default_rng([seed, len(report.kinds)])
        if not pool or not models:
            return
        for _ in range(n_trials):
            trial(kind, rng)

    def conclude(kind, obj, context) -> None:
        kind["performed"] += 1
        fr = fac_membership(gens, obj, d)
        if not fr:
            kind["failures"].append({**context, "verdict": fr.verdict,
                                     "detail": fr.detail})

    def extension(kind, rng):
        x = pool[int(rng.integers(len(pool)))]
        y = pool[int(rng.integers(len(pool)))]
        delta = _random_class_map(hom_package(x.model, y.model, 1), rng)
        e = minimize(proj_cone(delta).shift(-1))
        try:
            obj = to_window(e.expansion(), d)
        except HomologyOutsideWindow as exc:
            # the long exact sequence pins the middle term inside the window
            kind["failures"].append({"x": int(x.key), "y": int(y.key),
                                     "detail": f"window escape: {exc}"})
            return
        conclude(kind, obj, {"x": int(x.key), "y": int(y.key)})

    def cocone(kind, rng):
        z = pool[int(rng.integers(len(pool)))]
        minimal = bool(rng.integers(2))
        _e, g, _ = right_approximation(models, z.model, minimal=minimal)
        y = minimize(proj_cone(g).shift(-1))
        try:
            obj = to_window(y.expansion(), d)
        except HomologyOutsideWindow as exc:
            kind["failures"].append({"z": int(z.key),
                                     "detail": f"window escape: {exc}"})
            return
        conclude(kind, obj, {"z": int(z.key)})

    def kernel_side(kind, rng):
        y = pool[int(rng.integers(len(pool)))]
        z = pool[int(rng.integers(len(pool)))]
        g = _random_class_map(hom_package(y.model, z.model, 0), rng)
        x = minimize(proj_cone(g).shift(-1))
        try:
            obj = to_window(x.expansion(), d)
        except HomologyOutsideWindow:
            kind["skipped"] += 1
            return
        if any(e_ext(gen, obj, 1, d) for gen in gens):
            kind["skipped"] += 1
            return
        conclude(kind, obj, {"y": int(y.key), "z": int(z.key)})

    def summand(kind, rng):
        mem = pool[int(rng.integers(len(pool)))]
        parts = decompose_window(mem.obj, d, seed=seed)
        s, _mult = parts[int(rng.integers(len(parts)))]
        conclude(kind, s, {"member": int(mem.key)})

    def dfactor(kind, rng):
        size = 1 + int(rng.integers(min(3, len(pool))))
        picks = rng.choice(len(pool), size=size, replace=False)
        inter = [pool[int(i)].obj for i in picks]
        mem = universe.members[int(rng.integers(len(universe.members)))]
        if not fac_membership(inter, mem.obj, d):
            kind["skipped"] += 1
            return
        kind["performed"] += 1
        if not fac_in[mem.key]:
            kind["failures"].append(
                {"member": int(mem.key),
                 "via": [int(pool[int(i)].key) for i in picks],
                 "verdict": fac_in[mem.key].verdict})

    run("extension", extension)
    run("cocone", cocone)
    run("kernel", kernel_side)
    run("summand", summand)
    run("dfactor", dfactor)
    return report


def schanuel_trials(parts: list[ProjComplex], pool: list[ProjComplex],
                    n_trials: int = 100, seed: int = 0) -> TrialReport:
    """Dual approximation triangles onto a common target.

    Each trial compares the minimal right approximation with a padded,
    reordered one and certifies the exchange isomorphism of the two
    cocones; any non-"yes" isomorphism verdict is a failure.
    """
    alg = parts[0].alg
    rng = np.random.default_rng(seed)
    kind = {"performed": 0, "skipped": 0, "failures": []}
    for trial in range(n_trials):
        z = pool[int(rng.integers(len(pool)))]
        e1, g1, _ = right_approximation(parts, z, minimal=True)
        order = [int(i) for i in rng.permutation(len(parts))]
        extra = int(rng.integers(len(parts)))
        parts_b = [parts[i] for i in order] + [parts[extra]]
        e2, g2, _ = right_approximation(parts_b, z, minimal=False)
        y1 = minimize(proj_cone(g1).shift(-1))
        y2 = minimize(proj_cone(g2).shift(-1))
        lhs = minimize(proj_direct_sum([y1, e2], alg))
        rhs = minimize(proj_direct_sum([y2, e1], alg))
        res = iso_k(lhs, rhs, seed=int(rng.integers(1 << 30)))
        kind["performed"] += 1
        if res.verdict != "yes":
            kind["failures"].append({"trial": trial, "verdict": res.verdict,
                                     "reason": res.reason})
    return TrialReport({"schanuel": kind})
