"""Persistence layer for the coupling hot path.

The paper's workflow pays for many pairwise field simulations (the
Figs. 5–8 sweeps, the auto-placement verifications); this package makes
each one cheap to repeat across runs:

* :class:`PersistentCouplingCache` — on-disk, content-hash-keyed store of
  field-simulation results with versioned invalidation;
* :mod:`~repro.parallel.fingerprint` — :func:`pair_key`, the one
  definition of "the same coupling problem" that both cache tiers use,
  :func:`law_key` for a fitted distance law, and :func:`cache_name`,
  the on-disk name of a pair, self-inductance or law key.

The layer is physics-free by design: it never imports the solvers it
accelerates, so :mod:`repro.coupling` can build on it without cycles.
Wiring into the flow is documented in ``docs/PERFORMANCE.md``.
"""

from .cache import PersistentCouplingCache, default_cache_dir
from .fingerprint import (
    CACHE_SCHEMA_VERSION,
    LawKey,
    PairKey,
    SelfKey,
    cache_name,
    component_fingerprint,
    law_key,
    pair_key,
    relative_pose_key,
)

__all__ = [
    "CACHE_SCHEMA_VERSION",
    "LawKey",
    "PairKey",
    "PersistentCouplingCache",
    "SelfKey",
    "cache_name",
    "component_fingerprint",
    "default_cache_dir",
    "law_key",
    "pair_key",
    "relative_pose_key",
]
