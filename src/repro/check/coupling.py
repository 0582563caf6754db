"""Coupling analyzer: coupling factors and the inductance matrix.

Validates coupling data wherever it can enter the flow: the mutual
couplings of a circuit (which may have been mutated after construction),
externally supplied coupling maps (refdes-pair -> k, as produced by layout
extraction), and the ``K`` metadata of board-file minimum-distance rules.

The positive-definiteness check calls the solver's own
:func:`~repro.circuit.mna.branch_inductance_matrix` but never solves anything —
one symmetric eigenvalue decomposition of a small matrix.
"""

from __future__ import annotations

import numpy as np

from ..circuit import Circuit
from ..circuit.mna import branch_inductance_matrix
from ..placement import PlacementProblem
from .diagnostics import Diagnostic
from .limits import NEAR_UNITY_K, PSD_RELATIVE_TOLERANCE
from .registry import finding

__all__ = ["check_couplings", "check_coupling_map", "check_rule_couplings"]


def check_couplings(circuit: Circuit) -> list[Diagnostic]:
    """Run all CPL0xx rules over a circuit's mutual couplings."""
    out: list[Diagnostic] = []
    inductor_names = {e.name for e in circuit.inductors()}

    seen_pairs: dict[tuple[str, str], str] = {}
    orphaned: set[str] = set()
    for coupling in circuit.couplings:
        obj = f"circuit/coupling:{coupling.name}"
        if not -1.0 <= coupling.k <= 1.0:
            out.append(
                finding(
                    "CPL001",
                    f"coupling {coupling.name!r} has k = {coupling.k:g} "
                    f"(|k| must be <= 1)",
                    obj=obj,
                    hint="re-extract the coupling or fix the sign/scale of k",
                )
            )
        elif abs(coupling.k) >= NEAR_UNITY_K:
            out.append(
                finding(
                    "CPL005",
                    f"coupling {coupling.name!r} has |k| = {abs(coupling.k):g} "
                    f">= {NEAR_UNITY_K:g} — implausibly tight for stray coupling",
                    obj=obj,
                    hint="verify the extraction; transformers should be modelled "
                    "explicitly",
                )
            )
        missing = [
            branch
            for branch in (coupling.inductor_a, coupling.inductor_b)
            if branch not in inductor_names
        ]
        if missing:
            orphaned.add(coupling.name)
            out.append(
                finding(
                    "CPL002",
                    f"coupling {coupling.name!r} references missing inductor(s) "
                    f"{', '.join(repr(m) for m in missing)}",
                    obj=obj,
                    hint="rename the coupling's branches to existing inductors",
                )
            )
        pair = (
            min(coupling.inductor_a, coupling.inductor_b),
            max(coupling.inductor_a, coupling.inductor_b),
        )
        if pair in seen_pairs:
            out.append(
                finding(
                    "CPL003",
                    f"couplings {seen_pairs[pair]!r} and {coupling.name!r} both "
                    f"define the pair {pair[0]!r}-{pair[1]!r}",
                    obj=obj,
                    hint="keep a single coupling entry per inductor pair",
                )
            )
        else:
            seen_pairs[pair] = coupling.name

    out.extend(_psd_check(circuit, orphaned))
    return out


def _psd_check(circuit: Circuit, skip_couplings: set[str]) -> list[Diagnostic]:
    inductors = circuit.inductors()
    if not inductors or not circuit.couplings:
        return []
    lmat = branch_inductance_matrix(
        inductors, [c for c in circuit.couplings if c.name not in skip_couplings]
    )
    eigenvalues = np.linalg.eigvalsh(lmat)
    tolerance = PSD_RELATIVE_TOLERANCE * float(np.max(np.diag(lmat)))
    smallest = float(eigenvalues[0])
    if smallest < -tolerance:
        return [
            finding(
                "CPL004",
                f"branch inductance matrix is not positive definite "
                f"(smallest eigenvalue {smallest:.3e} H)",
                obj="circuit/inductance-matrix",
                hint="the combination of couplings stores negative energy; "
                "reduce the k values or remove contradictory couplings",
            )
        ]
    return []


def check_coupling_map(
    couplings: dict[tuple[str, str], float], source: str = "couplings"
) -> list[Diagnostic]:
    """CPL0xx rules over an external refdes-pair -> k map."""
    out: list[Diagnostic] = []
    for (ref_a, ref_b), k in sorted(couplings.items()):
        obj = f"{source}/pair:{ref_a}-{ref_b}"
        if ref_a == ref_b:
            out.append(
                finding(
                    "CPL002",
                    f"pair {ref_a!r}-{ref_b!r} couples a component to itself",
                    obj=obj,
                )
            )
        if not -1.0 <= k <= 1.0:
            out.append(
                finding(
                    "CPL001",
                    f"pair {ref_a!r}-{ref_b!r} has k = {k:g} (|k| must be <= 1)",
                    obj=obj,
                    hint="re-run the field extraction for this pair",
                )
            )
        elif abs(k) >= NEAR_UNITY_K:
            out.append(
                finding(
                    "CPL005",
                    f"pair {ref_a!r}-{ref_b!r} has |k| = {abs(k):g} >= "
                    f"{NEAR_UNITY_K:g} — implausibly tight for stray coupling",
                    obj=obj,
                )
            )
    return out


def check_rule_couplings(problem: PlacementProblem) -> list[Diagnostic]:
    """CPL001 over the ``K`` metadata of minimum-distance rules.

    Board files carry the tolerable coupling level of each PEMD rule; a
    value above 1 cannot be a coupling factor and would silently disable
    the rule's physical meaning.
    """
    out: list[Diagnostic] = []
    for rule in problem.rules.min_distance:
        if abs(rule.k_threshold) > 1.0:
            out.append(
                finding(
                    "CPL001",
                    f"rule {rule.ref_a}-{rule.ref_b} declares coupling "
                    f"threshold k = {rule.k_threshold:g} (|k| must be <= 1)",
                    obj=f"problem/rule:{rule.ref_a}-{rule.ref_b}",
                    hint="the K field is a coupling factor, not a percentage",
                )
            )
    return out
