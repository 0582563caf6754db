"""The end-to-end EMI design flow — the paper's methodology as one object.

The chain (sections 2-5 of the paper):

1. **system simulation** of the converter with parasitics (no couplings);
2. **sensitivity analysis**: probe coupling factors pairwise, rank their
   influence on the LISN interference, keep the relevant pairs;
3. **design-rule derivation**: per relevant pair, sweep coupling versus
   distance with the PEEC engine, fit, invert at the tolerable coupling
   level -> pairwise minimum distances PEMD;
4. **placement**: run the automatic placer under those rules (and the
   EMI-unaware baseline for comparison);
5. **verification**: field-simulate the placed pairs, insert the couplings
   into the circuit, predict the spectrum, check against CISPR 25.

:class:`EmiDesignFlow` runs any prefix of that chain and caches shared
artefacts, so the benchmarks (one per paper figure) stay small.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from ..check import CheckReport, DesignCheckError, run_checks
from ..converters import (
    BoostConverterDesign,
    BuckConverterDesign,
    layout_couplings,
    synthesize_measurement,
)
from ..coupling import CacheStats, CouplingDatabase
from ..emi import CISPR25_CLASS3_PEAK, EmiReceiver, LimitLine, Spectrum
from ..obs import get_tracer
from ..parallel import PersistentCouplingCache
from ..placement import (
    AutoPlacer,
    BaselinePlacer,
    DesignRuleChecker,
    PlacementProblem,
    PlacementReport,
)
from ..rules import MinDistanceRule, RuleSet, derive_rule_set
from ..sensitivity import SensitivityAnalyzer, SensitivityEntry, relevant_pairs

__all__ = ["LayoutEvaluation", "EmiDesignFlow"]


@dataclass
class LayoutEvaluation:
    """Verification artefacts for one concrete layout."""

    name: str
    problem: PlacementProblem
    couplings: dict[tuple[str, str], float]
    spectrum: Spectrum
    violations: int
    worst_margin_db: float

    def passes_limits(self) -> bool:
        """CISPR compliance of the predicted spectrum."""
        return self.worst_margin_db >= 0.0


@dataclass
class EmiDesignFlow:
    """Orchestrates prediction, sensitivity, rules, placement, verification.

    Attributes:
        design: the converter under design.  Its ``coupling_branches``
            (circuit inductor branch -> refdes) are the pairs the flow
            ranks, derives rules for and field-simulates.
        k_threshold: tolerable coupling factor for rule derivation (the
            paper notes k = 0.1 already severely degrades a pi filter;
            the default leaves a 10x margin below that).
        sensitivity_threshold_db: minimum probe impact for a pair to count
            as relevant.
        limit: CISPR limit line used in verification.
        precheck: when True, statically validate the design (circuit and
            placement problem, see :mod:`repro.check`) before the first
            solve and refuse to run on error-level diagnostics.
        cache_dir: when set, attach a persistent on-disk coupling cache
            rooted here; ``None`` keeps the flow memory-only.  The cache
            also holds every part's self-inductance: the first stage
            that builds the circuit seeds ``design.parts()`` from it.
    """

    design: BuckConverterDesign | BoostConverterDesign
    k_threshold: float = 0.01
    sensitivity_threshold_db: float = 3.0
    limit: LimitLine = field(default_factory=lambda: CISPR25_CLASS3_PEAK)
    ground_plane_z: float | None = None
    precheck: bool = False
    cache_dir: str | Path | None = None
    _sensitivity: list[SensitivityEntry] | None = field(default=None, init=False)
    _rules: list[MinDistanceRule] | None = field(default=None, init=False)
    _db: CouplingDatabase = field(default_factory=CouplingDatabase, init=False)
    _precheck_report: CheckReport | None = field(default=None, init=False)
    _parts_seeded: bool = field(default=False, init=False)

    def __post_init__(self) -> None:
        self._db.ground_plane_z = self.ground_plane_z
        if self.cache_dir is not None:
            self._db.persistent = PersistentCouplingCache(cache_dir=self.cache_dir)

    @property
    def coupling_stats(self) -> CacheStats:
        """Cache accounting of the flow's shared coupling database."""
        return self._db.stats

    def _seed_parts(self) -> None:
        """Serve every part's self-inductance from the coupling cache, once."""
        if not self._parts_seeded:
            for component in self.design.parts().values():
                self._db.self_inductance(component)
            self._parts_seeded = True

    # -- step 0: static validation (opt-in) ---------------------------------

    def run_precheck(self) -> CheckReport:
        """Statically validate the design without solving (cached).

        Lints the EMI circuit and the bare placement problem through
        :func:`repro.check.run_checks`.  Called automatically before the
        first solve when ``precheck=True``.

        Raises:
            DesignCheckError: on any error-level diagnostic.
        """
        if self._precheck_report is None:
            self._seed_parts()
            tracer = get_tracer()
            with tracer.stage("check"), tracer.span("flow.precheck"):
                circuit, _meas = self.design.emi_circuit()
                self._precheck_report = run_checks(
                    problem=self.design.placement_problem(),
                    circuit=circuit,
                    subject=type(self.design).__name__,
                )
        if self._precheck_report.errors():
            raise DesignCheckError(self._precheck_report)
        return self._precheck_report

    def _gate(self) -> None:
        self._seed_parts()
        if self.precheck:
            self.run_precheck()

    # -- step 1: prediction -------------------------------------------------

    def predict(
        self, couplings: dict[tuple[str, str], float] | None = None
    ) -> Spectrum:
        """Interference spectrum with optional layout couplings."""
        self._gate()
        tracer = get_tracer()
        with tracer.stage("prediction"), tracer.span("flow.simulate"):
            return self.design.emission_spectrum(couplings)

    # -- step 2: sensitivity --------------------------------------------------

    def sensitivity_frequencies(self) -> np.ndarray:
        """Decimated harmonic grid for the (many) sensitivity solves."""
        harmonics = self.design.harmonic_frequencies()
        return harmonics[:: max(1, len(harmonics) // 40)]

    def run_sensitivity(self) -> list[SensitivityEntry]:
        """Rank all coupling-branch pairs by interference impact (cached)."""
        self._gate()
        if self._sensitivity is None:
            tracer = get_tracer()
            with tracer.stage("sensitivity"), tracer.span("flow.sensitivity"):
                circuit, meas = self.design.emi_circuit()
                analyzer = SensitivityAnalyzer(
                    circuit,
                    meas,
                    self.sensitivity_frequencies(),
                    k_probe=self.k_threshold,
                )
                pairs = list(combinations(sorted(self.design.coupling_branches), 2))
                self._sensitivity = analyzer.rank(pairs)
            tracer.gauge("flow.pairs_ranked", len(self._sensitivity))
        return self._sensitivity

    def relevant_pairs(self) -> list[SensitivityEntry]:
        """The pairs above the sensitivity threshold."""
        return relevant_pairs(self.run_sensitivity(), self.sensitivity_threshold_db)

    # -- step 3: rules -----------------------------------------------------------

    def derive_rules(self) -> list[MinDistanceRule]:
        """PEMD rules for every relevant pair (cached)."""
        if self._rules is None:
            relevant = self.relevant_pairs()
            tracer = get_tracer()
            with tracer.stage("rules"), tracer.span("flow.rules"):
                self._rules = derive_rule_set(
                    self.design.parts(),
                    relevant,
                    self.design.coupling_branches,
                    k_threshold_db_map=self.k_threshold,
                    ground_plane_z=self.ground_plane_z,
                    database=self._db,
                )
            tracer.gauge("flow.pairs_relevant", len(relevant))
            tracer.gauge("flow.rules_derived", len(self._rules))
        return self._rules

    def problem_with_rules(self) -> PlacementProblem:
        """A fresh placement problem carrying the derived rule set."""
        problem = self.design.placement_problem()
        problem.rules = RuleSet(min_distance=list(self.derive_rules()))
        return problem

    # -- step 4: placement ----------------------------------------------------------

    def place_baseline(self) -> tuple[PlacementProblem, PlacementReport]:
        """EMI-unaware compact layout (the paper's Fig. 1 situation)."""
        self._gate()
        problem = self.problem_with_rules()
        tracer = get_tracer()
        with tracer.stage("placement", {"layout": "baseline"}), tracer.span(
            "flow.placement"
        ):
            report = BaselinePlacer(problem).run()
        return problem, report

    def place_optimized(self) -> tuple[PlacementProblem, PlacementReport]:
        """EMI-aware automatic layout (the paper's Fig. 2 / Fig. 16)."""
        self._gate()
        problem = self.problem_with_rules()
        tracer = get_tracer()
        with tracer.stage("placement", {"layout": "optimized"}), tracer.span(
            "flow.placement"
        ):
            report = AutoPlacer(problem).run()
        return problem, report

    # -- step 5: verification -----------------------------------------------------

    def evaluate(self, name: str, problem: PlacementProblem) -> LayoutEvaluation:
        """Field-simulate a layout, predict its spectrum, check limits."""
        self._seed_parts()
        tracer = get_tracer()
        with tracer.stage("verification", {"layout": name}), tracer.span(
            "flow.verification"
        ):
            couplings = layout_couplings(
                problem,
                refdes_of_interest=list(self.design.coupling_branches.values()),
                ground_plane_z=self.ground_plane_z,
                database=self._db,
            )
            spectrum = self.predict(couplings)
            checker = DesignRuleChecker(problem)
            violations = len(checker.check_min_distances())
            margin = self.limit.worst_margin_db(spectrum)
        tracer.gauge(f"flow.worst_margin_db.{name}", margin)
        return LayoutEvaluation(
            name=name,
            problem=problem,
            couplings=couplings,
            spectrum=spectrum,
            violations=violations,
            worst_margin_db=margin,
        )

    def measurement_for(
        self, evaluation: LayoutEvaluation, seed: int = 2008
    ) -> Spectrum:
        """The synthetic bench measurement for a layout (see DESIGN.md)."""
        return synthesize_measurement(self.design, evaluation.couplings, seed=seed)

    def receiver_trace(self, spectrum: Spectrum, points: int = 160) -> Spectrum:
        """Display-binned receiver trace of a line spectrum."""
        receiver = EmiReceiver("peak", noise_floor_dbuv=5.0)
        grid = receiver.standard_grid(points=points)
        return receiver.display_trace(spectrum, grid)

    # -- headline comparison -------------------------------------------------------

    def compare_layouts(self) -> dict[str, LayoutEvaluation]:
        """Baseline versus optimised — the Fig. 1 / Fig. 2 experiment."""
        baseline_problem, _ = self.place_baseline()
        optimized_problem, _ = self.place_optimized()
        return {
            "baseline": self.evaluate("baseline", baseline_problem),
            "optimized": self.evaluate("optimized", optimized_problem),
        }
