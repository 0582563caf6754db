"""Coupling database: cached field simulations for component pairs.

The paper's point about complexity: *"(n (n-1) / 2) minimum distances can be
defined"* and every coupling simulation costs field-solver time, so results
are cached per coupling problem.

"The same coupling problem" is defined once, by
:func:`repro.parallel.pair_key`: both component fingerprints, the pair's
*relative* pose (coupling is invariant under a rigid in-plane motion of
the pair) quantised to 0.1 mm / 1 degree with both sides and both
standoffs, the ground-plane height and the pair quadrature order
(:data:`repro.peec.PAIR_ORDER`).  Two cache tiers share that key:

* the **in-memory** dict keyed by the tuple itself (this module), free to
  probe, gone with the process;
* an optional **persistent** tier (:class:`repro.parallel.
  PersistentCouplingCache`) whose entries are named by the key's SHA-256
  — survives restarts and is shared across runs.

Every lookup — :meth:`CouplingDatabase.coupling`,
:meth:`CouplingDatabase.pairwise_couplings` and the sweeps of
:mod:`repro.coupling.sweep` — goes through one batch routine,
:meth:`CouplingDatabase.lookup`.  It probes both tiers under the request's
own key (a request in the other argument order is a different key),
solves the misses in request order as one array batch, validates and
stores them, and counts hits and misses at one point.

A part's air-core self-inductance is a pure function of its geometry
as well, so it sits behind the same two tiers:
:meth:`CouplingDatabase.self_inductance` keys it by the part's
fingerprint and the self-inductance quadrature order, solves a miss
once and seeds the part with the value, so the circuit ESLs and every
pair solve read that one number.

The fitted law of a distance sweep (the input of a PEMD rule) is a pure
function of its inputs too, and of neither the threshold it is later
inverted at nor the caller: :meth:`CouplingDatabase.distance_law` keys
it by :func:`repro.parallel.law_key`, runs the sweep and the fit once
and serves every later derivation from the tiers.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import asdict, dataclass, field, replace
from itertools import combinations

import numpy as np

from ..components import Component
from ..geometry import Placement2D
from ..obs import get_tracer
from ..parallel import (
    LawKey,
    PairKey,
    PersistentCouplingCache,
    SelfKey,
    cache_name,
    law_key,
    pair_key,
)
from ..peec import PAIR_ORDER, SELF_INDUCTANCE_ORDER
from ..units import Degrees, Dimensionless, Henries, Meters
from .fit import PowerLawFit, fit_power_law
from .pair import CouplingResult, PlacedPair, component_couplings

__all__ = ["CacheStats", "CouplingDatabase", "COUPLING_CLAMP_TOLERANCE", "DistanceLaw"]

#: Numerical overshoot of |k| beyond 1.0 that the database clamps back to
#: +-1 instead of rejecting (quadrature error on nearly coincident
#: paths); anything larger raises.  Lives here (not in repro.check) so
#: the clamp and the CPL001 rule that audits it share one number without
#: the coupling layer importing the check layer above it (ARCH002).
COUPLING_CLAMP_TOLERANCE = 0.02


def _validated(
    result: CouplingResult, part_a: str, part_b: str
) -> CouplingResult:
    """Enforce |k| <= 1 before a result enters the cache.

    Quadrature error on nearly coincident paths can push |k| marginally
    past 1; such results are clamped back to +-1.  A gross violation is a
    non-physical field model and is rejected — letting it through would
    poison the MNA inductance matrix much later (rule CPL001).

    Raises:
        ValueError: when |k| exceeds 1 beyond the numerical tolerance.
    """
    if abs(result.k) <= 1.0:
        return result
    if abs(result.k) <= 1.0 + COUPLING_CLAMP_TOLERANCE:
        return replace(result, k=math.copysign(1.0, result.k))
    raise ValueError(
        f"[CPL001] non-physical coupling factor k = {result.k:.4f} for pair "
        f"{part_a}/{part_b} (|k| must be <= 1): the component field models "
        f"overlap or are degenerate at this relative pose"
    )


def _result_from_payload(payload: dict) -> CouplingResult:
    """A stored pair result; raises ``KeyError``/``TypeError``/``ValueError`` if malformed."""
    return CouplingResult(
        k=float(payload["k"]),
        mutual_h=float(payload["mutual_h"]),
        self_a_h=float(payload["self_a_h"]),
        self_b_h=float(payload["self_b_h"]),
        shielded=bool(payload["shielded"]),
    )


def _self_from_payload(payload: dict) -> Henries:
    """A stored self-inductance [H]; raises ``ValueError`` if not positive and finite."""
    value = float(payload["self_h"])
    if value > 0.0 and math.isfinite(value):
        return value
    raise ValueError(f"unusable stored self-inductance {value!r}")


@dataclass(frozen=True)
class DistanceLaw:
    """The fitted coupling law of one distance sweep.

    Attributes:
        fit: ``|k| = c * d^-n`` over the sweep, ``None`` when the sweep
            has fewer than 3 usable points (:func:`fit_power_law` raised).
        peak_k: largest unsigned coupling factor of the sweep [-].
    """

    fit: PowerLawFit | None
    peak_k: Dimensionless


def _law_from_payload(payload: dict) -> DistanceLaw:
    """A stored distance law; raises ``KeyError``/``TypeError``/``ValueError`` if unusable."""
    peak_k = float(payload["peak_k"])
    values = (payload["c"], payload["n"], payload["r2"])
    fit = None if values == (None, None, None) else PowerLawFit(*map(float, values))
    usable_fit = fit is None or (
        fit.c > 0.0 and fit.n > 0.0 and all(map(math.isfinite, (fit.c, fit.n, fit.r_squared)))
    )
    if peak_k >= 0.0 and math.isfinite(peak_k) and usable_fit:
        return DistanceLaw(fit, peak_k)
    raise ValueError(f"unusable stored distance law {payload!r}")


def _law_payload(law: DistanceLaw) -> dict:
    """The JSON form of a distance law (a float round-trips exactly)."""
    fit = law.fit
    c, n, r2 = (None, None, None) if fit is None else (fit.c, fit.n, fit.r_squared)
    return {"c": c, "n": n, "r2": r2, "peak_k": law.peak_k}


def solve_couplings(
    pairs: Sequence[PlacedPair], ground_plane_z: Meters | None
) -> list[CouplingResult]:
    """Field simulations of placed pairs in request order, validated.

    The pairs are one array batch
    (:func:`repro.coupling.pair.component_couplings`) under one
    ``coupling.field_solve`` span.  Every result passes the CPL001 check
    (:func:`_validated`) before it is returned; no cache is involved.

    Raises:
        ValueError: when a solve gives |k| beyond the clamp tolerance
            (rule CPL001).
    """
    if not pairs:
        return []
    with get_tracer().span("coupling.field_solve"):
        results = component_couplings(pairs, ground_plane_z)
    return [
        _validated(result, comp_a.part_number, comp_b.part_number)
        for result, (comp_a, _, comp_b, _) in zip(results, pairs, strict=True)
    ]


@dataclass(frozen=True)
class CacheStats:
    """Hit/miss accounting of a :class:`CouplingDatabase`.

    Attributes:
        hits: lookups answered from a cache (in-memory or persistent).
        misses: lookups that ran a field simulation.
        size: number of field simulations held in memory.
        persistent_hits: entries read from the on-disk tier — pair
            results (a subset of ``hits``) and distance laws (a subset of
            ``law_hits``); 0 when no persistent cache is attached.
        law_hits: distance laws answered from a cache tier.
        law_fits: distance laws swept and fitted.
    """

    hits: int
    misses: int
    size: int
    persistent_hits: int = 0
    law_hits: int = 0
    law_fits: int = 0

    @property
    def lookups(self) -> int:
        """Total number of coupling requests."""
        return self.hits + self.misses

    @property
    def hit_rate(self) -> Dimensionless:
        """Fraction of lookups served from the cache [-] (0 when unused)."""
        total = self.lookups
        return self.hits / total if total else 0.0


@dataclass
class CouplingDatabase:
    """Caching front-end for :func:`component_coupling`.

    Attributes:
        ground_plane_z: shielding-plane height [m] above the board used by
            :meth:`coupling` and :meth:`pairwise_couplings` (``None`` = no
            plane, no image currents).  Sweeps pass their own height.
        persistent: optional on-disk cache tier consulted on in-memory
            misses and written through on every solve (``None`` = memory
            only; see docs/PERFORMANCE.md for the key semantics).
        hits, misses, persistent_hits: pair lookups answered from a
            cache, pair lookups solved, and the entries (pair results and
            distance laws) read from disk; the ``coupling.cache_hits`` / ``coupling.cache_misses``
            tracer counters are bumped at the same point.  Part
            self-inductances (:meth:`self_inductance`) are not counted
            here: a solve counts ``peec.self_inductance_evals``, a disk
            read the persistent tier's ``cache.*`` counters.
        law_hits, law_fits: the same accounting for
            :meth:`distance_law` (tracer counters ``coupling.law_hits`` /
            ``coupling.law_fits``); the sweep of a fitted law counts its
            pair lookups above as well.
    """

    ground_plane_z: Meters | None = None
    persistent: PersistentCouplingCache | None = None
    _cache: dict[PairKey, CouplingResult] = field(default_factory=dict)
    _self_cache: dict[SelfKey, Henries] = field(default_factory=dict)
    _law_cache: dict[LawKey, DistanceLaw] = field(default_factory=dict)
    hits: int = 0
    misses: int = 0
    persistent_hits: int = 0
    law_hits: int = 0
    law_fits: int = 0

    def _probe(self, key: PairKey) -> CouplingResult | None:
        """Cached result for ``key`` or ``None`` — never solves.

        Probes memory, then disk, once each; a disk hit is promoted into
        memory.
        """
        hit = self._cache.get(key)
        if hit is not None or self.persistent is None:
            return hit
        hit = self.persistent.get(cache_name("pair", key), _result_from_payload)
        if hit is not None:
            self._cache[key] = hit
            self.persistent_hits += 1
        return hit

    def lookup(
        self, pairs: Sequence[PlacedPair], ground_plane_z: Meters | None
    ) -> list[CouplingResult]:
        """Coupling for each placed pair, from a cache tier or a field solve.

        The one lookup path of the database: each pair is probed in both
        tiers under its own :func:`repro.parallel.pair_key`; the misses are
        solved in request order, validated (rule CPL001) and written
        through every tier.
        Hits and misses are counted here and only here.

        Args:
            pairs: ``(comp_a, placement_a, comp_b, placement_b)`` per
                request (local-frame field models; positions [m],
                rotations [rad]).
            ground_plane_z: shielding-plane height [m] of every request,
                ``None`` for free space — part of the cache key and the
                height the misses are solved with.

        Returns:
            One validated :class:`CouplingResult` per request, in order.

        Raises:
            ValueError: when a solve gives |k| beyond the clamp tolerance
                (rule CPL001); that result is not cached.
        """
        keys = [
            pair_key(comp_a, placement_a, comp_b, placement_b, ground_plane_z, PAIR_ORDER)
            for comp_a, placement_a, comp_b, placement_b in pairs
        ]
        results = [self._probe(key) for key in keys]
        pending = [i for i, hit in enumerate(results) if hit is None]
        hits, misses = len(pairs) - len(pending), len(pending)
        self.hits += hits
        self.misses += misses
        tracer = get_tracer()
        if hits:
            tracer.count("coupling.cache_hits", hits)
        if misses:
            tracer.count("coupling.cache_misses", misses)
        solved = solve_couplings([pairs[i] for i in pending], ground_plane_z)
        for i, result in zip(pending, solved, strict=True):
            self._cache[keys[i]] = result
            if self.persistent is not None:
                self.persistent.put(cache_name("pair", keys[i]), asdict(result))
            results[i] = result
        return results  # type: ignore[return-value]

    def self_inductance(self, component: Component) -> Henries:
        """Air-core self-inductance of a part [H], from a cache tier or one solve.

        Probes memory, then disk, under ``(component.fingerprint,
        SELF_INDUCTANCE_ORDER)``.  A miss is solved once through the
        part's own :attr:`~repro.components.Component.geometric_inductance`
        (no solve at all if the part already holds it) and written
        through both tiers.  Either way the part is seeded with the
        value, so its ESL and every pair solve of it read this number.
        """
        key: SelfKey = (component.fingerprint, SELF_INDUCTANCE_ORDER)
        value = self._self_cache.get(key)
        if value is None and self.persistent is not None:
            value = self.persistent.get(cache_name("self", key), _self_from_payload)
        if value is None:
            value = component.geometric_inductance
            if self.persistent is not None:
                self.persistent.put(cache_name("self", key), {"self_h": value})
        self._self_cache[key] = value
        component.seed_geometric_inductance(value)
        return value

    def distance_law(
        self,
        comp_a: Component,
        comp_b: Component,
        distances: np.ndarray,
        rotation_b_deg: Degrees,
        direction_deg: Degrees,
        ground_plane_z: Meters | None,
    ) -> DistanceLaw:
        """Fitted ``|k|(d)`` law of one distance sweep, from a cache tier or one fit.

        Probes memory, then disk, under :func:`repro.parallel.law_key`.
        A miss runs :func:`repro.coupling.distance_sweep` (A at the
        origin, rotation 0; its points go through :meth:`lookup`), fits
        it once with :func:`fit_power_law` and writes ``{c, n, r2,
        peak_k}`` through both tiers.  A malformed stored payload is
        refitted (the persistent tier counts it ``cache.stale``).

        Args:
            comp_a, comp_b: the swept parts (local-frame field models).
            distances: centre-to-centre distances [m], strictly increasing.
            rotation_b_deg: B's rotation [deg].
            direction_deg: bearing of B from A [deg].
            ground_plane_z: shielding-plane height [m], ``None`` for free space.
        """
        key = law_key(
            comp_a, comp_b, distances, rotation_b_deg, direction_deg, ground_plane_z, PAIR_ORDER
        )
        tracer = get_tracer()
        law = self._law_cache.get(key)
        if law is None and self.persistent is not None:
            law = self.persistent.get(cache_name("law", key), _law_from_payload)
            if law is not None:
                self.persistent_hits += 1
        if law is not None:
            self.law_hits += 1
            tracer.count("coupling.law_hits")
        else:
            from .sweep import distance_sweep  # the sweep module builds on this one

            couplings = distance_sweep(
                comp_a,
                comp_b,
                distances,
                rotation_b_deg=rotation_b_deg,
                direction_deg=direction_deg,
                ground_plane_z=ground_plane_z,
                database=self,
            )
            try:
                fit: PowerLawFit | None = fit_power_law(distances, couplings)
            except ValueError:
                fit = None
            law = DistanceLaw(fit, float(np.max(couplings)))
            self.law_fits += 1
            tracer.count("coupling.law_fits")
            if self.persistent is not None:
                self.persistent.put(cache_name("law", key), _law_payload(law))
        self._law_cache[key] = law
        return law

    def coupling(
        self,
        comp_a: Component,
        placement_a: Placement2D,
        comp_b: Component,
        placement_b: Placement2D,
    ) -> CouplingResult:
        """Coupling for a placed pair above :attr:`ground_plane_z`, cached.

        Args:
            comp_a, comp_b: the components (field models in their local
                frames; linear dimensions in metres).
            placement_a, placement_b: board placements (positions [m],
                rotations [rad]).

        Returns:
            The validated :class:`CouplingResult` — coupling factor ``k``
            [-], mutual and self inductances [H] (``self_a_h`` is
            ``comp_a``'s).
        """
        pair = (comp_a, placement_a, comp_b, placement_b)
        return self.lookup([pair], self.ground_plane_z)[0]

    def pairwise_couplings(
        self, placed: list[tuple[str, Component, Placement2D]]
    ) -> dict[tuple[str, str], CouplingResult]:
        """All-pairs coupling map above :attr:`ground_plane_z`.

        Args:
            placed: the placed components as (refdes, component,
                placement); placements in board coordinates (positions
                [m], rotations [rad]).

        Returns:
            A dict keyed by the (refdes_a, refdes_b) pair with
            refdes_a < refdes_b lexicographically; ``self_a_h`` is the
            self-inductance of ``refdes_a``.  Each pair is solved (and
            cached) in ``placed`` order, and a result of a pair listed
            larger refdes first has its two self-inductances swapped.
        """
        both = list(combinations(placed, 2))
        pairs = [(comp_a, pl_a, comp_b, pl_b) for (_, comp_a, pl_a), (_, comp_b, pl_b) in both]
        out = {}
        for ((ref_a, _, _), (ref_b, _, _)), result in zip(
            both, self.lookup(pairs, self.ground_plane_z), strict=True
        ):
            if ref_a < ref_b:
                out[(ref_a, ref_b)] = result
            else:
                out[(ref_b, ref_a)] = replace(
                    result, self_a_h=result.self_b_h, self_b_h=result.self_a_h
                )
        return out

    def cache_size(self) -> int:
        """Number of field simulations held in memory."""
        return len(self._cache)

    @property
    def stats(self) -> CacheStats:
        """Current hit/miss accounting as an immutable snapshot."""
        return CacheStats(
            hits=self.hits,
            misses=self.misses,
            size=len(self._cache),
            persistent_hits=self.persistent_hits,
            law_hits=self.law_hits,
            law_fits=self.law_fits,
        )

    def clear(self) -> None:
        """Drop the in-memory cache and counters (the disk tier survives)."""
        self._cache.clear()
        self._self_cache.clear()
        self._law_cache.clear()
        self.hits = 0
        self.misses = 0
        self.persistent_hits = 0
        self.law_hits = 0
        self.law_fits = 0
