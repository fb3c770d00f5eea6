"""Silting objects in the (d+1)-term window: certification and enumeration.

A candidate is a list of complexes of projectives supported in degrees
[-d, 0].  ``is_silting`` certifies the silting property constructively:
besides the vanishing conditions it shows that the summands generate
K^b(proj A).  A candidate with no history gets, for every indecomposable
projective P(i), a tower of approximation triangles whose composite
connecting map is null-homotopic; the homotopy is kept as a witness.  A
class the mutation search reached from a certified class carries a
``MutationLineage`` instead: mutation keeps the thick closure, and the
lineage replays the one mutation that produced it.

Two independent enumerators produce the complete list of silting objects
up to isomorphism: a mutation search and, for hereditary algebras, a
clique search over a pool of rigid indecomposables.
"""
from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .algebra import BoundQuiverAlgebra
from .errors import (BudgetExceeded, Mismatch, PoolConstructionUnsupported,
                     RandomBudgetExhausted, SpecError, UndecidedIso,
                     WindowViolation)
from .homotopy import (ChainMap, ProjComplex, cocone_with_maps, hom_k,
                       hom_package, iso_k, k0_vector, left_mutation, minimize,
                       proj_stalk, right_approximation, right_mutation)
from .linalg import int_det
from .repcat import Representation, ext_dim, hom_dim
from .repcomplex import homology_dims

SILTING_WINDOW_NOTE = "terms must live in degrees [-d, 0]"
# nodes the mutation search may visit before it gives up (BudgetExceeded)
MAX_NODES = 4096
# rigid modules: dimension vectors up to this bound, random tries per vector
RIGID_DIM_BOUND = 3
RIGID_TRIES = 16


# -- presilting and K0 -------------------------------------------------------

def is_presilting(parts: list[ProjComplex], d: int):
    """No positive-shift homs between any two summands.

    Checks shifts 1..d, which suffice for window complexes, plus d+1 as a
    consistency probe.  Returns (ok, witness) with witness =
    (src_index, tgt_index, shift, dim) on failure.
    """
    for i, x in enumerate(parts):
        for j, y in enumerate(parts):
            for s in range(1, d + 2):
                dim = hom_k(x, y, s)
                if dim:
                    return False, (i, j, s, dim)
    return True, None


def k0_matrix(parts: list[ProjComplex]) -> list[list[int]]:
    """Classes of the summands in K0(proj), as columns of integer rows."""
    if not parts:
        return []
    cols = [k0_vector(x) for x in parts]
    return [[int(c[v]) for c in cols] for v in range(parts[0].alg.n)]


def _k0_is_basis(parts: list[ProjComplex], n: int):
    classes = [list(c) for c in zip(*k0_matrix(parts))]
    if len(parts) != n:
        return False, {"classes": classes, "reason": "size"}
    det = int_det(classes)
    if abs(det) != 1:
        return False, {"classes": classes, "det": det}
    return True, None


# -- the generation tower ----------------------------------------------------

@dataclass
class TowerStage:
    approx: list[tuple[int, int]]     # (summand index, multiplicity) in E_t
    z_shape: tuple                    # shape key of the stage target Z_t


@dataclass
class GeneratorTower:
    """Certificate that P(vertex) lies in the thick closure of the summands.

    The tower realizes P(vertex)[d] as an iterated extension of shifted
    summands up to the final connecting composite phi; ``witness`` solves
    the null-homotopy equation for phi against the retained operator.
    """
    vertex: int
    stages: list[TowerStage]
    phi_coords: np.ndarray
    witness: np.ndarray | None = None
    _bmat: np.ndarray | None = field(default=None, repr=False)
    _p: int = 0

    def replay(self) -> bool:
        if self.phi_coords.size == 0:
            return True
        if self.witness is None or self._bmat is None:
            return False
        lhs = (self._bmat @ self.witness) % self._p
        return not np.any((lhs - self.phi_coords) % self._p)


@dataclass
class MutationLineage:
    """Certificate that a class is one silting mutation of a certified class.

    The exchange triangle X_k -> E -> Y -> X_k[1] of a left mutation, with
    E in add of the other summands, puts X_k in thick(T/X_k + Y); the
    right mutation is dual.  Splitting Y into indecomposables keeps the
    thick closure, so the mutated class generates K^b(proj A) when its
    parent does (Aihara-Iyama, *Silting mutation in triangulated
    categories*, 2012, 2.6), and generation follows by induction along the
    path back to a tower-certified seed.
    """
    parent: tuple[int, ...]           # registry state of the parent class
    k: int                            # mutated index into the parent's parts
    side: str                         # "left" | "right"
    d: int
    ids: tuple[int, ...] = ()         # the class's own state, once interned

    def replay(self, registry: "ComplexRegistry",
               parent: "ClusterRecord") -> bool:
        """Re-run the mutation from the parent's parts and compare states."""
        if parent.ids != self.parent:
            return False
        mutate = left_mutation if self.side == "left" else right_mutation
        try:
            parts = mutate(parent.parts, self.k, self.d, registry.seed)
        except WindowViolation:
            return False
        ids = [registry.find(x) for x in parts]
        return None not in ids and tuple(sorted(ids)) == self.ids


@dataclass
class SiltingResult:
    verdict: str                      # "yes" | "no" | "unknown"
    reason: str = ""
    towers: list[GeneratorTower] = field(default_factory=list)
    refutation: dict | None = None
    lineage: MutationLineage | None = None

    def __bool__(self):
        return self.verdict == "yes"


def _tower_for_vertex(parts: list[ProjComplex], v: int, d: int):
    """Run the approximation tower from P(v)[d]; returns (tower, certified)."""
    alg = parts[0].alg
    z = proj_stalk(alg, v).shift(d)
    z0 = z
    phi: ChainMap | None = None
    stages: list[TowerStage] = []
    for t in range(d + 1):
        e, g, chosen = right_approximation(parts, z, minimal=True)
        counts: list[tuple[int, int]] = []
        for pi, _ in chosen:
            if counts and counts[-1][0] == pi:
                counts[-1] = (pi, counts[-1][1] + 1)
            else:
                counts.append((pi, 1))
        stages.append(TowerStage(counts, z.shape_key()))
        vt, conn = cocone_with_maps(g)
        step = conn.shift(t)           # Z_t[t] -> V_t[t+1]
        phi = step if phi is None else step.compose(phi)
        z = vt
    pkg = hom_package(z0, phi.tgt, 0)
    coords = pkg.coords_of(phi)
    tower = GeneratorTower(v, stages, coords, _p=alg.p)
    if pkg.is_nullhomotopic(coords):
        tower.witness = pkg.nullhomotopy(coords)
        tower._bmat = pkg._bmat
        return tower, True
    return tower, False


def is_silting(parts: list[ProjComplex], d: int,
               lineage: MutationLineage | None = None) -> SiltingResult:
    """Certify or refute the silting property for a window candidate.

    "no" answers carry a refutation (a nonvanishing hom or a K0 failure);
    "yes" answers carry one generation tower per vertex, or, when the
    caller built the candidate by the mutation that ``lineage`` names from
    a certified class, that lineage in place of the towers.  "unknown"
    means all checks passed except that some tower composite was not
    recognized as null-homotopic.
    """
    if not parts:
        return SiltingResult("no", "empty candidate")
    alg = parts[0].alg
    for i, x in enumerate(parts):
        t = x.trim()
        if not t.is_zero() and (t.lo < -d or t.hi > 0):
            return SiltingResult(
                "no", f"summand {i} occupies [{t.lo}, {t.hi}]; "
                + SILTING_WINDOW_NOTE)
    ok, witness = is_presilting(parts, d)
    if not ok:
        i, j, s, dim = witness
        return SiltingResult(
            "no", f"Hom(X{i}, X{j}[{s}]) has dimension {dim}",
            refutation={"kind": "presilting", "pair": (i, j),
                        "shift": s, "dim": dim})
    basic = ComplexRegistry()
    for x in parts:
        basic.intern(x)
    ok, refut = _k0_is_basis(basic.items, alg.n)
    if not ok:
        return SiltingResult(
            "no", "summand classes are not a Z-basis of K0",
            refutation={"kind": "k0", **refut})
    if lineage is not None:
        return SiltingResult("yes", "certified", lineage=lineage)
    towers = []
    for v in range(alg.n):
        tower, certified = _tower_for_vertex(basic.items, v, d)
        towers.append(tower)
        if not certified:
            return SiltingResult(
                "unknown", f"generation tower for P({v}) did not close",
                towers=towers)
    return SiltingResult("yes", "certified", towers=towers)


# -- interning registry ------------------------------------------------------

class ComplexRegistry:
    """Stable integer ids for homotopy classes of complexes.

    A new object is minimized and compared by ``iso_k`` with the items
    that share its fingerprint (shape and homology dimensions).  A match
    is usually settled by ``iso_k``'s degreewise certificate, which builds
    only Hom(item -> object), in the object's memo table, and leaves the
    item's as it was.

    ``_by_obj`` remembers, by the object itself, every object the registry
    has resolved: each stored representative, each interned input and each
    input that ``find`` matched (a miss is never remembered).  Looking such
    an object up again is one dict lookup.  So is a new object whose
    minimized form is remembered: ``minimize`` returns the live
    representative of its content (``memo.canon``), and ``_scan`` returns
    at once when that is in ``_by_obj``.  An object the registry has
    resolved must not be mutated in place afterwards -- the invariant that
    ``ProjSum.of`` relies on too.  The dict keeps these objects alive.
    It stays on the registry rather than in ``memo``: ``is_silting``
    builds a throwaway registry on every call, and the CLI a throwaway
    ``HeartStore`` per record, so a memo key per registry would leave a
    dead entry per call in the memo table of every long-lived object.
    """

    def __init__(self, seed: int = 0):
        self.items: list[ProjComplex] = []
        self.seed = seed
        self._by_fp: dict = {}
        self._by_obj: dict[ProjComplex, int] = {}

    @staticmethod
    def fingerprint(xm: ProjComplex):
        hdd = tuple(sorted(homology_dims(xm.expansion()).items()))
        return (xm.shape_key(), hdd)

    def _scan(self, x: ProjComplex):
        """(minimized x, its fingerprint, id of its class or None).

        The fingerprint is None when the minimized x is already resolved.
        """
        xm = minimize(x)
        idx = self._by_obj.get(xm)
        if idx is not None:     # xm is the representative of a resolved one
            return xm, None, idx
        fp = self.fingerprint(xm)
        for idx in self._by_fp.get(fp, ()):
            r = iso_k(self.items[idx], xm, seed=self.seed)
            if r.verdict == "unknown":
                raise UndecidedIso(r.reason)
            if r:
                return xm, fp, idx
        return xm, fp, None

    def find(self, x: ProjComplex) -> int | None:
        """The id of x's class, or None when it has not been interned."""
        idx = self._by_obj.get(x)
        if idx is None:
            idx = self._scan(x)[2]
            if idx is not None:
                self._by_obj[x] = idx
        return idx

    def intern(self, x: ProjComplex) -> int:
        if x in self._by_obj:
            return self._by_obj[x]
        xm, fp, idx = self._scan(x)
        if idx is None:
            idx = len(self.items)
            self.items.append(xm)
            self._by_fp.setdefault(fp, []).append(idx)
            self._by_obj[xm] = idx
        self._by_obj[x] = idx
        return idx

    def state(self, parts: list[ProjComplex]) -> tuple[int, ...]:
        return tuple(sorted(self.intern(x) for x in parts))


# -- enumeration -------------------------------------------------------------

@dataclass
class ClusterRecord:
    ids: tuple[int, ...]
    parts: list[ProjComplex]
    result: SiltingResult


@dataclass
class EnumerationResult:
    method: str
    d: int
    clusters: list[ClusterRecord]
    unknown: list[ClusterRecord]
    visited: int
    budget_exceeded: bool
    registry: ComplexRegistry
    stats: dict = field(default_factory=dict)
    # mutation search: (state, summand id, side) -> the state that edge
    # reaches, or WindowViolation; filled from the edges it computed
    edges: dict = field(default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.clusters)


def _new_class(parts: list[ProjComplex], d: int, registry: ComplexRegistry,
               seen: set, stats: dict,
               lineage: MutationLineage | None = None) -> ClusterRecord | None:
    """Certify a candidate and return its record when its class is new.

    The candidate's state is looked up first (``find`` interns nothing),
    and a class already in ``seen`` gives None without certification:
    it was certified when it was first seen, and silting is a property of
    the class.  Only an unseen state runs ``is_silting``, so each class is
    certified once.  A refuted candidate is counted as "not_silting" and
    gives None; a new class has its parts interned and is added to
    ``seen``, and its lineage, if any, learns the class's state.
    """
    ids = [registry.find(x) for x in parts]
    if None not in ids and tuple(sorted(ids)) in seen:
        return None
    res = is_silting(parts, d, lineage=lineage)
    if res.verdict == "no":
        stats["not_silting"] += 1
        return None
    state = registry.state(parts)
    seen.add(state)
    if res.lineage is not None:
        res.lineage.ids = state
    return ClusterRecord(state, [registry.items[i] for i in state], res)


def _seed_clusters(alg: BoundQuiverAlgebra, d: int):
    projs = [proj_stalk(alg, v) for v in range(alg.n)]
    for mask in range(2 ** alg.n):
        yield [projs[v].shift(d) if (mask >> v) & 1 else projs[v]
               for v in range(alg.n)]


def enumerate_mutation(alg: BoundQuiverAlgebra, d: int,
                       seed: int = 0) -> EnumerationResult:
    """Breadth-first mutation search from the shifted-projective seeds.

    Seeds are certified with generation towers; a class first reached by
    mutating a certified class is certified by that mutation's lineage.

    Each exchange edge is walked once.  Silting mutation is invertible:
    if T' = mu^L_X(T) with new summand Y, then mu^R_Y(T') = T, and dually
    (Aihara-Iyama, *Silting mutation in triangulated categories*, 2012,
    Thm 2.35).  So every computed edge fills ``edges`` at its far end with
    (state, summand id, side) -> the state it reaches, and the search
    skips a dequeued edge found there: it leads back to a visited class,
    where ``admit`` would stop.  At d=1 exactly one of mu^L_X(T) and
    mu^R_X(T) is 2-term (Adachi-Iyama-Reiten, *tau-tilting theory*, 2014,
    Thm 2.18 with Cor. 3.8), so once one side of (T, X) is known to stay
    in the window the other is recorded as leaving it.  A skipped edge
    is counted under the outcome it is known to have, so ``stats`` match
    a search that computes every edge.
    """
    registry = ComplexRegistry(seed)
    queue: deque = deque()
    visited: set = set()
    records: list[ClusterRecord] = []
    unknowns: list[ClusterRecord] = []
    stats = {"mutations": 0, "window_rejected": 0, "not_silting": 0,
             "seeds_accepted": 0}
    edges: dict = {}
    other = {"left": "right", "right": "left"}

    def admit(parts, lineage=None) -> None:
        rec = _new_class(parts, d, registry, visited, stats, lineage)
        if rec is not None and rec.result.verdict == "unknown":
            unknowns.append(rec)
        elif rec is not None:
            records.append(rec)
            queue.append(rec)

    for cluster in _seed_clusters(alg, d):
        before = len(records)
        admit(cluster)
        if len(records) > before:
            stats["seeds_accepted"] += 1

    budget_exceeded = False
    while queue:
        if len(visited) > MAX_NODES:
            budget_exceeded = True
            break
        rec = queue.popleft()
        for k, x_id in enumerate(rec.ids):
            for side, mutate in (("left", left_mutation),
                                 ("right", right_mutation)):
                stats["mutations"] += 1
                if (rec.ids, x_id, side) in edges:
                    if edges[(rec.ids, x_id, side)] is WindowViolation:
                        stats["window_rejected"] += 1
                    continue
                try:
                    new_parts = mutate(rec.parts, k, d, seed)
                except WindowViolation:
                    stats["window_rejected"] += 1
                    continue
                admit(new_parts, MutationLineage(rec.ids, k, side, d))
                if d == 1:
                    edges[(rec.ids, x_id, other[side])] = WindowViolation
                # the state T' reached and its new summand Y
                ids = [registry.find(y) for y in new_parts]
                new_ids = set(ids) - set(rec.ids)
                state = tuple(sorted(ids)) if None not in ids else None
                if state in visited and len(new_ids) == 1:
                    y_id, = new_ids
                    edges[(state, y_id, other[side])] = rec.ids
                    if d == 1:
                        edges[(state, y_id, side)] = WindowViolation

    records.sort(key=lambda r: r.ids)
    return EnumerationResult("mutation", d, records, unknowns, len(visited),
                             budget_exceeded, registry, stats, edges)


# -- rigid pool + clique search (hereditary algebras) ------------------------

def euler_form(alg: BoundQuiverAlgebra, v: np.ndarray) -> int:
    q = sum(int(x) * int(x) for x in v)
    for a in alg.quiver.arrows:
        q -= int(v[a.src]) * int(v[a.tgt])
    return q


def _random_rep(alg: BoundQuiverAlgebra, dims, rng) -> Representation:
    mats = [rng.integers(0, alg.p, size=(dims[a.tgt], dims[a.src]))
            .astype(np.int64) for a in alg.quiver.arrows]
    return Representation(alg, list(dims), mats)


def rigid_indecomposables(alg: BoundQuiverAlgebra, seed: int = 0):
    """Rigid modules with one-dimensional endomorphism ring, one per
    admissible dimension vector with Euler form 1.

    Uses generic realizations: random matrices certified by End and Ext^1.
    """
    if not alg.is_hereditary():
        raise PoolConstructionUnsupported(
            "rigid pool construction needs a hereditary algebra")
    rng = np.random.default_rng(seed)
    found = []
    grid = product(range(RIGID_DIM_BOUND + 1), repeat=alg.n)
    for dims in sorted(v for v in grid if any(v) and euler_form(alg, v) == 1):
        for _ in range(RIGID_TRIES):
            m = _random_rep(alg, dims, rng)
            if hom_dim(m, m) == 1 and ext_dim(m, m, 1) == 0:
                found.append(m)
                break
        else:
            raise RandomBudgetExhausted(
                f"no rigid realization found for dimension vector {dims}")
    return found


def rigid_pool(alg: BoundQuiverAlgebra, d: int, seed: int = 0):
    """Window complexes that can appear in a silting object: shifted
    presentations of rigid indecomposables plus the far-shifted projectives."""
    from .heart import p_presentation
    pool = []
    for m in rigid_indecomposables(alg, seed=seed):
        pres = minimize(p_presentation(m, d))
        for j in range(d):
            shifted = pres.shift(j)
            if shifted.trim().lo >= -d:
                pool.append(shifted)
    for v in range(alg.n):
        pool.append(proj_stalk(alg, v).shift(d))
    return pool


def _bron_kerbosch(adj: list[set]):
    """All maximal cliques, deterministically ordered."""
    cliques: list[list[int]] = []

    def expand(r: set, p: set, x: set) -> None:
        if not p and not x:
            cliques.append(sorted(r))
            return
        pivot = min(sorted(p | x), key=lambda u: (-len(adj[u] & p), u))
        for v in sorted(p - adj[pivot]):
            expand(r | {v}, p & adj[v], x & adj[v])
            p = p - {v}
            x = x | {v}

    expand(set(), set(range(len(adj))), set())
    return cliques


def enumerate_clique(alg: BoundQuiverAlgebra, d: int,
                     seed: int = 0) -> EnumerationResult:
    """Independent enumeration: maximal compatible sets in the rigid pool."""
    pool = rigid_pool(alg, d, seed=seed)
    m = len(pool)
    compatible = [set() for _ in range(m)]
    for i in range(m):
        for j in range(i + 1, m):
            if all(hom_k(pool[i], pool[j], s) == 0
                   and hom_k(pool[j], pool[i], s) == 0
                   for s in range(1, d + 1)):
                compatible[i].add(j)
                compatible[j].add(i)
    registry = ComplexRegistry(seed)
    records: list[ClusterRecord] = []
    unknowns: list[ClusterRecord] = []
    seen: set = set()
    stats = {"pool": m, "maximal_cliques": 0, "oversized": 0,
             "undersized": 0, "not_silting": 0}
    for clique in _bron_kerbosch(compatible):
        stats["maximal_cliques"] += 1
        if len(clique) > alg.n:
            stats["oversized"] += 1
            continue
        if len(clique) < alg.n:
            stats["undersized"] += 1
            continue
        rec = _new_class([pool[i] for i in clique], d, registry, seen, stats)
        if rec is not None:
            (unknowns if rec.result.verdict == "unknown"
             else records).append(rec)
    records.sort(key=lambda r: r.ids)
    return EnumerationResult("clique", d, records, unknowns, len(seen), False,
                             registry, stats)


def _states_match(a: EnumerationResult, b: EnumerationResult):
    """Match b's clusters against a's registry; returns (ok, missing, extra)."""
    states_a = {rec.ids for rec in a.clusters}
    states_b = {a.registry.state(rec.parts) for rec in b.clusters}
    return states_a == states_b, sorted(states_a - states_b), \
        sorted(states_b - states_a)


def enumerate_silting(alg: BoundQuiverAlgebra, d: int,
                      method: str = "mutation",
                      seed: int = 0) -> EnumerationResult:
    """Enumerate silting objects in the (d+1)-term window.

    method "both" runs the mutation and clique searches and requires them
    to produce identical lists up to isomorphism.
    """
    if method == "mutation":
        out = enumerate_mutation(alg, d, seed=seed)
    elif method == "clique":
        out = enumerate_clique(alg, d, seed=seed)
    elif method == "both":
        a = enumerate_mutation(alg, d, seed=seed)
        b = enumerate_clique(alg, d, seed=seed)
        ok, missing, extra = _states_match(a, b)
        if not ok:
            raise Mismatch(
                "enumeration methods disagree: "
                f"mutation-only={missing}, clique-only={extra}")
        out = EnumerationResult(
            "both", d, a.clusters, a.unknown + b.unknown, a.visited,
            a.budget_exceeded, a.registry,
            {"mutation": a.stats, "clique": b.stats})
    else:
        raise SpecError(f"unknown enumeration method: {method}")
    if out.budget_exceeded:
        raise BudgetExceeded(
            f"mutation search exceeded {MAX_NODES} nodes; partial count "
            f"{out.count}")
    return out
