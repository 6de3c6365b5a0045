"""Campaign analytics: per-axis pivots and cross-model deltas.

The ``campaign report`` CLI subcommand's engine: join a (possibly
merged, possibly multi-host) store with the spec and aggregate the
result set along each scenario axis.  Everything is computed from
:func:`repro.campaign.executor.campaign_rows`, so a report over a store
assembled by ``store push/pull/merge`` from N hosts is byte-identical
to a report over a store computed by one process — the acceptance
contract the fabric CI job verifies.

Determinism rules: rows are aggregated in spec order (fixed float
summation order), group keys are emitted sorted, and the JSON export
goes through :func:`repro.utils.canonical_json`.

Cross-model deltas compare **cell means**, not paired draws: a cell's
seed tree is keyed by its model (see
:meth:`repro.campaign.spec.CampaignSpec.expand`), so the overlap and
strict points of one scenario cell are independent draws of the same
distribution — the honest comparison is between their per-cell
aggregates.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping, Sequence

from ..objectives.base import OBJECTIVE_SENSES
from ..objectives.pareto import dominates
from ..utils import canonical_json
from .executor import campaign_rows, _require_complete
from .spec import CampaignSpec
from .store import ResultStore

__all__ = [
    "campaign_report_data",
    "export_campaign_report",
    "render_report_text",
]

#: The scenario axes a report pivots on (row key -> pivot name).
_AXES = ("application", "platform", "replication", "model")


def _aggregate(rows: Sequence[Mapping[str, Any]]) -> dict[str, Any]:
    """Deterministic summary statistics of one group of rows."""
    n = len(rows)
    periods = [float(r["period"]) for r in rows]
    gaps = [float(r["gap"]) for r in rows]
    return {
        "n": n,
        "period_mean": sum(periods) / n,
        "period_min": min(periods),
        "period_max": max(periods),
        "mct_mean": sum(float(r["mct"]) for r in rows) / n,
        "gap_mean": sum(gaps) / n,
        "gap_max": max(gaps),
        "critical_fraction": sum(bool(r["critical"]) for r in rows) / n,
    }


def campaign_report_data(
    spec: CampaignSpec,
    store: ResultStore,
    allow_partial: bool = False,
    counters: Mapping[str, int] | None = None,
) -> dict[str, Any]:
    """The report payload: totals, per-axis pivots, cross-model deltas.

    Structure::

        {"campaign": ..., "total": ..., "rows": ..., "missing": ...,
         "pivots": {axis: [{"label": ..., <aggregates>}, ...], ...},
         "model_deltas": [{"application": ..., "platform": ...,
                           "replication": ..., "model_a": ..., ...}]}

    ``pivots`` aggregates the whole result set along each scenario axis
    (labels sorted).  ``model_deltas`` compares, per (application,
    platform, replication) cell, every pair of models present: the
    delta and ratio of the cells' mean periods, and the gap between
    their critical-resource fractions.

    A multi-objective spec adds an ``"objectives"`` section: its
    objective names, per-axis pivots of each extra objective
    (mean/min/max of latency and/or reliability per label), and the
    ``"pareto"`` export — the non-dominated rows of the whole result
    set in minimization space (reliability negated), sorted by vector.
    The key is **absent** for period-only specs, so their report bytes
    are unchanged.

    ``counters`` — a deterministic-counter mapping, typically the
    ``counters`` of a :func:`repro.telemetry.merge_traces` result —
    adds a ``"telemetry"`` section (the counters, sorted, plus derived
    engine cache/lockstep figures).  The key is **absent** when no
    counters are passed, so default report bytes are independent of
    whether a run was traced (the fabric CI byte-compare relies on
    this).
    """
    rows, missing = campaign_rows(spec, store)
    _require_complete(missing, allow_partial)

    pivots: dict[str, list[dict[str, Any]]] = {}
    for axis in _AXES:
        groups: dict[str, list[dict[str, Any]]] = {}
        for row in rows:
            groups.setdefault(str(row[axis]), []).append(row)
        pivots[axis] = [
            {"label": label, **_aggregate(groups[label])}
            for label in sorted(groups)
        ]

    cells: dict[tuple[str, str, str], dict[str, list[dict[str, Any]]]] = {}
    for row in rows:
        cell = (str(row["application"]), str(row["platform"]),
                str(row["replication"]))
        cells.setdefault(cell, {}).setdefault(str(row["model"]), []).append(row)

    deltas: list[dict[str, Any]] = []
    for cell in sorted(cells):
        by_model = cells[cell]
        models = sorted(by_model)
        for i, model_a in enumerate(models):
            for model_b in models[i + 1:]:
                agg_a = _aggregate(by_model[model_a])
                agg_b = _aggregate(by_model[model_b])
                deltas.append({
                    "application": cell[0],
                    "platform": cell[1],
                    "replication": cell[2],
                    "model_a": model_a,
                    "model_b": model_b,
                    "n_a": agg_a["n"],
                    "n_b": agg_b["n"],
                    "period_mean_a": agg_a["period_mean"],
                    "period_mean_b": agg_b["period_mean"],
                    "period_delta": agg_b["period_mean"] - agg_a["period_mean"],
                    "period_ratio": (agg_b["period_mean"] / agg_a["period_mean"]
                                     if agg_a["period_mean"] else None),
                    "critical_fraction_delta": (agg_b["critical_fraction"]
                                                - agg_a["critical_fraction"]),
                })

    data: dict[str, Any] = {
        "campaign": spec.name,
        "total": len(rows) + len(missing),
        "rows": len(rows),
        "missing": len(missing),
        "pivots": pivots,
        "model_deltas": deltas,
    }
    if spec.objectives != ("period",):
        data["objectives"] = _objectives_section(rows, spec.objectives)
    if counters is not None:
        data["telemetry"] = _telemetry_section(counters)
    return data


def _objective_pivots(
    rows: Sequence[Mapping[str, Any]], extra: Sequence[str]
) -> dict[str, list[dict[str, Any]]]:
    """Per-axis mean/min/max of each non-period objective (labels sorted)."""
    pivots: dict[str, list[dict[str, Any]]] = {}
    for axis in _AXES:
        groups: dict[str, list[Mapping[str, Any]]] = {}
        for row in rows:
            groups.setdefault(str(row[axis]), []).append(row)
        entries: list[dict[str, Any]] = []
        for label in sorted(groups):
            entry: dict[str, Any] = {"label": label, "n": len(groups[label])}
            for name in extra:
                values = [float(r[name]) for r in groups[label]]
                entry[f"{name}_mean"] = sum(values) / len(values)
                entry[f"{name}_min"] = min(values)
                entry[f"{name}_max"] = max(values)
            entries.append(entry)
        pivots[axis] = entries
    return pivots


def _pareto_rows(
    rows: Sequence[Mapping[str, Any]], objectives: Sequence[str]
) -> list[dict[str, Any]]:
    """Non-dominated rows of the result set (deterministic front).

    Vectors are minimization-space (reliability negated); exact-tie
    duplicates keep the first row in spec order, and the front is
    emitted sorted by ``(vector, point)`` so serial, ``n_jobs`` and
    fabric stores export identical bytes.
    """
    vectors = [
        tuple(
            -float(row[name]) if OBJECTIVE_SENSES[name] == "max"
            else float(row[name])
            for name in objectives
        )
        for row in rows
    ]
    front: list[int] = []
    for i, v in enumerate(vectors):
        if any(dominates(vectors[j], v) or vectors[j] == v for j in front):
            continue
        front = [j for j in front if not dominates(v, vectors[j])]
        front.append(i)
    front.sort(key=lambda i: (vectors[i], int(rows[i]["point"])))
    return [
        {
            "point": rows[i]["point"],
            "application": rows[i]["application"],
            "platform": rows[i]["platform"],
            "replication": rows[i]["replication"],
            "model": rows[i]["model"],
            "draw": rows[i]["draw"],
            **{name: float(rows[i][name]) for name in objectives},
            "vector": list(vectors[i]),
        }
        for i in front
    ]


def _objectives_section(
    rows: Sequence[Mapping[str, Any]], objectives: tuple[str, ...]
) -> dict[str, Any]:
    """The report's multi-objective block (absent for period-only specs)."""
    extra = [name for name in objectives if name != "period"]
    return {
        "names": list(objectives),
        "pivots": _objective_pivots(rows, extra),
        "pareto": _pareto_rows(rows, objectives),
    }


def _telemetry_section(counters: Mapping[str, int]) -> dict[str, Any]:
    """Engine-efficiency digest of a run's deterministic counters.

    Derived figures the raw counters bury: the skeleton-cache hit rate,
    how many points the lockstep (group) path solved versus the scalar
    path, how many group solves fell back to scalar row-by-row
    evaluation, and the Theorem-1 pattern solves.  Pattern rows are
    components, not points, so they are kept apart from the TPN
    ``lockstep_rows``: ``lockstep_rows + scalar_points == points``.
    """
    def get(name: str) -> int:
        return int(counters.get(name, 0))

    builds = get("engine.skeleton_builds")
    hits = get("engine.cache_hits")
    lookups = builds + hits
    return {
        "counters": {name: int(counters[name]) for name in sorted(counters)},
        "engine": {
            "cache_hits": hits,
            "cache_hit_rate": hits / lookups if lookups else None,
            "skeleton_builds": builds,
            "group_solves": get("engine.group_solves"),
            "group_rows": get("engine.group_rows"),
            "group_fallbacks": get("engine.group_fallbacks"),
            "group_fallback_rows": get("engine.group_fallback_rows"),
            "lockstep_solves": get("howard.lockstep_solves"),
            "lockstep_rows": get("howard.lockstep_rows"),
            "scalar_points": get("engine.points") - get("engine.group_rows"),
            "pattern_rows": get("poly.pattern_rows"),
            "pattern_lockstep_rows": get("poly.lockstep_rows"),
            "pattern_plan_builds": get("poly.plan_builds"),
        },
    }


def export_campaign_report(
    spec: CampaignSpec,
    store: ResultStore,
    path: str | Path | None = None,
    allow_partial: bool = False,
) -> str:
    """Byte-deterministic JSON report artifact; writes ``path`` if given."""
    text = canonical_json(
        campaign_report_data(spec, store, allow_partial=allow_partial),
        indent=2,
    ) + "\n"
    if path is not None:
        Path(path).write_text(text, newline="")
    return text


def _format_row(values: Sequence[object], widths: Sequence[int]) -> str:
    return "  ".join(str(v).rjust(w) if i else str(v).ljust(w)
                     for i, (v, w) in enumerate(zip(values, widths)))


def render_report_text(data: Mapping[str, Any]) -> str:
    """Terminal rendering of :func:`campaign_report_data`'s payload."""
    lines: list[str] = [
        f"campaign       : {data['campaign']}",
        f"rows           : {data['rows']} / {data['total']}"
        + (f"  ({data['missing']} missing)" if data["missing"] else ""),
    ]
    header = ("label", "n", "period mean", "min", "max",
              "gap mean", "crit%")
    for axis in _AXES:
        entries = data["pivots"].get(axis, [])
        if not entries:
            continue
        table = [header] + [
            (e["label"], e["n"], f"{e['period_mean']:.4g}",
             f"{e['period_min']:.4g}", f"{e['period_max']:.4g}",
             f"{e['gap_mean']:.3g}",
             f"{100 * e['critical_fraction']:.0f}")
            for e in entries
        ]
        widths = [max(len(str(row[c])) for row in table)
                  for c in range(len(header))]
        lines.append("")
        lines.append(f"by {axis}:")
        lines.extend("  " + _format_row(row, widths) for row in table)
    if data["model_deltas"]:
        lines.append("")
        lines.append("cross-model deltas (per cell, mean period):")
        for d in data["model_deltas"]:
            ratio = (f"x{d['period_ratio']:.3f}"
                     if d["period_ratio"] is not None else "n/a")
            lines.append(
                f"  {d['application']} | {d['platform']} | "
                f"{d['replication']}: {d['model_b']} vs {d['model_a']} = "
                f"{d['period_delta']:+.4g} ({ratio})"
            )
    if "objectives" in data:
        section = data["objectives"]
        extra = [n for n in section["names"] if n != "period"]
        for name in extra:
            entries = section["pivots"].get("model", [])
            if not entries:
                continue
            obj_header = ("model", "n", f"{name} mean", "min", "max")
            obj_table = [obj_header] + [
                (e["label"], e["n"], f"{e[name + '_mean']:.4g}",
                 f"{e[name + '_min']:.4g}", f"{e[name + '_max']:.4g}")
                for e in entries
            ]
            obj_widths = [max(len(str(row[c])) for row in obj_table)
                          for c in range(len(obj_header))]
            lines.append("")
            lines.append(f"{name} by model:")
            lines.extend("  " + _format_row(row, obj_widths)
                         for row in obj_table)
        lines.append("")
        lines.append(
            f"pareto front ({', '.join(section['names'])}): "
            f"{len(section['pareto'])} non-dominated point(s)"
        )
        for p in section["pareto"]:
            values = ", ".join(
                f"{name}={p[name]:.6g}" for name in section["names"]
            )
            lines.append(
                f"  point {p['point']}: {p['application']} | "
                f"{p['platform']} | {p['replication']} | {p['model']} "
                f"({values})"
            )
    if "telemetry" in data:
        engine = data["telemetry"]["engine"]
        rate = engine["cache_hit_rate"]
        lines.append("")
        lines.append("engine telemetry:")
        lines.append(
            f"  skeleton cache : {engine['cache_hits']} hits / "
            f"{engine['skeleton_builds']} builds"
            + (f"  ({100.0 * rate:.0f}% hit rate)" if rate is not None else "")
        )
        lines.append(
            f"  lockstep solves: {engine['lockstep_solves']} "
            f"({engine['lockstep_rows']} rows); "
            f"{engine['scalar_points']} scalar point(s)"
        )
        lines.append(
            f"  group fallbacks: {engine['group_fallbacks']} "
            f"({engine['group_fallback_rows']} rows re-solved scalar)"
        )
        lines.append(
            f"  Theorem-1 patterns: {engine['pattern_rows']} rows "
            f"({engine['pattern_lockstep_rows']} lockstep); "
            f"{engine['pattern_plan_builds']} torus plan(s)"
        )
    return "\n".join(lines)
