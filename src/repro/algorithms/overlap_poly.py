"""Polynomial period computation for OVERLAP ONE-PORT (Theorem 1).

Under the OVERLAP model the TPN's cycles never leave their column, so::

    P = max( max_i  comp-column(i),  max_i  comm-column(i) )

where the computation column of ``S_i`` contributes
``max_u (w_i/Pi_u) / m_i`` and the communication column of ``F_i``
contributes ``max_g ratio(pattern G'_g) / lcm(m_i, m_{i+1})`` over its
``gcd(m_i, m_{i+1})`` connected components (see
:mod:`repro.petri.reduction` for the pattern construction).

Total cost ``O(sum_i (m_i * m_{i+1})^3)`` — polynomial in the mapping
size even when the full net has ``lcm(m_i)`` rows (Example C: pattern
graphs of 63 cells stand in for a 10395-row net).

Pattern plans
-------------
A pattern's plan is a function of ``(u, v)`` only: every component is
the same ``u x v`` torus, and the transfer times are only its edge
weights (``np.repeat(durations.ravel(), 2)``, see
:func:`~repro.petri.reduction.pattern_graph`).  The structural Howard
preparation of each torus is therefore built once per process
(:func:`_torus_plan`, read-only) and :func:`overlap_period_many` solves
every component of every instance of a call against it, bucketed by
``(u, v)``: buckets of at least :data:`LOCKSTEP_MIN_ROWS` rows go
through the lockstep :func:`~repro.maxplus.howard.solve_prepared_many`,
smaller ones through :func:`~repro.maxplus.howard.solve_prepared`.
Rows are bit-identical either way, and equal to
``max_cycle_ratio(pattern.to_ratio_graph()).value`` — which stays the
independent oracle (:meth:`~repro.petri.reduction.CommPattern.critical_ratio`).
Pattern solves are always cold, so results never depend on what was
evaluated before or alongside.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Sequence

import numpy as np

from ..core.instance import Instance
from ..errors import SolverError
from ..maxplus import howard
from ..maxplus.howard import HowardPlan
from ..petri.reduction import (
    CommPattern,
    CompColumn,
    comm_patterns,
    computation_column,
    pattern_graph,
)
from ..telemetry import TELEMETRY

__all__ = [
    "ColumnContribution",
    "LOCKSTEP_MIN_ROWS",
    "OverlapBreakdown",
    "overlap_period",
    "overlap_period_many",
]

#: Smallest ``(u, v)`` bucket solved in lockstep.  Below it the scalar
#: solve is faster (the lockstep kernel's per-round setup does not
#: amortise over a handful of rows); results are identical either way.
LOCKSTEP_MIN_ROWS = 8


@dataclass(frozen=True)
class ColumnContribution:
    """Per-data-set period contribution of one TPN column.

    Attributes
    ----------
    column:
        TPN column index (``2i`` computation, ``2i + 1`` communication).
    kind:
        ``"comp"`` or ``"comm"``.
    stage_or_file:
        Stage index (computation) or file index (communication).
    value:
        The contribution — the period is the max over all columns.
    comp:
        Detailed :class:`CompColumn` for computation columns.
    patterns:
        The component pattern graphs for communication columns.
    """

    column: int
    kind: str
    stage_or_file: int
    value: float
    comp: CompColumn | None = None
    patterns: tuple[CommPattern, ...] = ()

    def describe(self) -> str:
        """One-line human-readable summary."""
        if self.kind == "comp":
            return (
                f"column {self.column} (S{self.stage_or_file} computation): "
                f"{self.value:g} — slowest replica P{self.comp.critical_proc}"
            )
        return (
            f"column {self.column} (F{self.stage_or_file} transmission): "
            f"{self.value:g} over {len(self.patterns)} component(s)"
        )


@dataclass(frozen=True)
class OverlapBreakdown:
    """Full column decomposition backing an OVERLAP period value.

    Attributes
    ----------
    period:
        The per-data-set period ``P`` (max of contributions).
    columns:
        Per-column contributions, in column order.
    """

    period: float
    columns: tuple[ColumnContribution, ...]

    @property
    def critical_columns(self) -> tuple[ColumnContribution, ...]:
        """Columns attaining the period (the critical part of the net)."""
        tol = 1e-9 * max(self.period, 1.0)
        return tuple(c for c in self.columns if abs(c.value - self.period) <= tol)


@lru_cache(maxsize=256)
def _torus_plan(u: int, v: int) -> HowardPlan:
    """Read-only Howard plan of the ``u x v`` pattern torus.

    Built from unit weights: a plan depends only on the graph structure,
    which :func:`~repro.petri.reduction.pattern_graph` fixes for given
    ``(u, v)``.  The arrays are shared by every caller, so they are
    frozen against accidental writes.
    """
    plan = howard.prepare_howard(pattern_graph(u, v, np.ones((u, v))))
    for part in (plan, *plan.components):
        for f in fields(part):
            arr = getattr(part, f.name)
            if isinstance(arr, np.ndarray):
                arr.setflags(write=False)
    return plan


def _solve_bucket(plan: HowardPlan, pats: list[CommPattern]) -> list[float]:
    """Critical ratios of same-``(u, v)`` patterns, cold, in row order.

    If Howard fails on the bucket, every row falls back to the generic
    ``"auto"`` path (Howard, then Lawler), like ``critical_ratio``.
    """
    weights = np.repeat(np.stack([pat.durations.ravel() for pat in pats]), 2, axis=1)
    try:
        if len(pats) >= LOCKSTEP_MIN_ROWS:
            rows = howard.solve_prepared_many(plan, weights, counters="poly.lockstep")
            return [res.value for res in rows]
        return [howard.solve_prepared(plan, w).value for w in weights]
    except SolverError:
        return [pat.critical_ratio() for pat in pats]


def overlap_period_many(
    instances: Sequence[Instance],
    plans: dict[tuple[int, int], HowardPlan] | None = None,
) -> list[OverlapBreakdown]:
    """Theorem 1 for a batch of instances: one breakdown per instance.

    Every communication component of every instance is bucketed by its
    ``(u, v)`` torus (first-seen order) and each bucket is solved
    against the torus's cached plan — in lockstep when it holds at
    least :data:`LOCKSTEP_MIN_ROWS` rows.  Entry ``k`` equals
    ``overlap_period(instances[k])`` field for field, whatever else is
    in the batch.

    ``plans`` is an optional caller-owned plan cache (the batch engine
    keeps one per engine); missing tori are fetched from the
    process-wide cache and counted on ``poly.plan_builds``, so that
    counter is a deterministic function of what the owner evaluated.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a, example_b
    >>> [round(b.period, 2) for b in overlap_period_many([example_a(), example_b()])]
    [189.0, 291.67]
    """
    comps: list[list[CompColumn]] = []
    files: list[list[tuple[CommPattern, ...]]] = []
    flat: list[CommPattern] = []
    buckets: dict[tuple[int, int], list[int]] = {}
    for inst in instances:
        n = inst.n_stages
        comps.append([computation_column(inst, i) for i in range(n)])
        per_file = [tuple(comm_patterns(inst, i)) for i in range(n - 1)]
        files.append(per_file)
        for pats in per_file:
            for pat in pats:
                buckets.setdefault((pat.u, pat.v), []).append(len(flat))
                flat.append(pat)

    ratios = [0.0] * len(flat)
    for (u, v), rows in buckets.items():
        if plans is None:
            plan = _torus_plan(u, v)
        else:
            cached = plans.get((u, v))
            if cached is None:
                cached = plans[(u, v)] = _torus_plan(u, v)
                if TELEMETRY.enabled:
                    TELEMETRY.count("poly.plan_builds")
            plan = cached
        for r, value in zip(rows, _solve_bucket(plan, [flat[r] for r in rows])):
            ratios[r] = value
    if TELEMETRY.enabled:
        TELEMETRY.count("poly.pattern_rows", len(flat))

    out: list[OverlapBreakdown] = []
    k = 0
    for comp_cols, per_file in zip(comps, files):
        cols: list[ColumnContribution] = []
        for i, comp in enumerate(comp_cols):
            cols.append(
                ColumnContribution(
                    column=2 * i,
                    kind="comp",
                    stage_or_file=i,
                    value=comp.contribution,
                    comp=comp,
                )
            )
            if i < len(per_file):
                pats = per_file[i]
                value = max(ratios[k + g] / pat.window for g, pat in enumerate(pats))
                k += len(pats)
                cols.append(
                    ColumnContribution(
                        column=2 * i + 1,
                        kind="comm",
                        stage_or_file=i,
                        value=value,
                        patterns=pats,
                    )
                )
        period = max(c.value for c in cols)
        out.append(OverlapBreakdown(period=period, columns=tuple(cols)))
    return out


def overlap_period(
    inst: Instance, plans: dict[tuple[int, int], HowardPlan] | None = None
) -> OverlapBreakdown:
    """Theorem 1: the OVERLAP ONE-PORT period in polynomial time.

    ``overlap_period_many([inst], plans)[0]`` — one code path.

    Examples
    --------
    Example B of the paper — no critical resource, ``P = 291.66...``
    strictly above the cycle-time bound 258.33:

    >>> from repro.experiments.examples_paper import example_b
    >>> round(overlap_period(example_b()).period, 2)
    291.67
    """
    return overlap_period_many([inst], plans)[0]
