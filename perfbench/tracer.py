"""In-memory span tracer that wraps the program's public layer functions.

The benchmark measures layers from the outside: each traced name is
replaced, at the attribute its caller looks up, by a wrapper that records
one span ``(id, name, start, end, parent)`` per call, and the original is
put back when tracing stops.  No program code changes.

A name must be wrapped where it is *resolved*: ``run_campaign`` calls
``instance_digest`` through the ``repro.campaign.executor`` module
globals, so patching ``repro.campaign.store.instance_digest`` would miss
every call.  Methods are wrapped on their class.
"""

from __future__ import annotations

import importlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

#: Traced call sites: span name -> (module, attribute path).  Each span
#: name is one layer boundary of the benchmark's per-layer table.
TRACED: dict[str, tuple[str, str]] = {
    "campaign.run_campaign": ("repro.campaign.executor", "run_campaign"),
    "campaign.export_json": ("repro.campaign.executor", "export_campaign_json"),
    "campaign.export_csv": ("repro.campaign.executor", "export_campaign_csv"),
    "search.portfolio_search": ("repro.search.portfolio", "portfolio_search"),
    "spec.expand": ("repro.campaign.spec", "CampaignSpec.expand"),
    "spec.instance": ("repro.campaign.spec", "CampaignPoint.instance"),
    "store.digest": ("repro.campaign.executor", "instance_digest"),
    "store.encode": ("repro.campaign.executor", "payload_from_result"),
    "store.put": ("repro.campaign.store", "ResultStore.put"),
    "store.commit": ("repro.campaign.store", "ResultStore.commit"),
    "store.get": ("repro.campaign.store", "ResultStore.get"),
    "executor.order": ("repro.campaign.executor", "order_for_engine"),
    "executor.export_rows": ("repro.campaign.executor", "campaign_rows"),
    "engine.evaluate": ("repro.engine.batch", "BatchEngine.evaluate"),
    "engine.signature": ("repro.engine.batch", "topology_signature"),
    "engine.signature.executor": ("repro.campaign.executor", "topology_signature"),
    "skeleton.build": ("repro.engine.batch", "build_skeleton"),
    "skeleton.stamp": ("repro.engine.skeleton", "TpnSkeleton.stamp_weights"),
    "skeleton.stamp_many": ("repro.engine.skeleton", "TpnSkeleton.stamp_weights_many"),
    "classify.plan_build": ("repro.engine.batch", "build_cycle_time_plan"),
    "classify.verdict": ("repro.engine.classify", "CycleTimePlan.verdict"),
    "classify.verdict_many": ("repro.engine.classify", "CycleTimePlan.verdict_many"),
    "poly.period": ("repro.engine.batch", "overlap_period"),
    "howard.scalar": ("repro.engine.skeleton", "solve_prepared"),
    "howard.lockstep": ("repro.engine.skeleton", "solve_prepared_many"),
}

#: Workload entry points: their own self time is the drain loop's
#: bookkeeping, which no layer metric names, so it is left out of
#: ``trace.coverage``.
UNNAMED_SELF = ("campaign.run_campaign",)


@dataclass
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None


@dataclass
class Tracer:
    """Collects spans and exact per-call counts while installed."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, int] = field(default_factory=dict)
    signatures: set[Any] = field(default_factory=set)
    _stack: list[int] = field(default_factory=list)
    _saved: list[tuple[Any, str, Any]] = field(default_factory=list)

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def _wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        tracer = self
        observe = _OBSERVERS.get(name)

        def traced(*args: Any, **kwargs: Any) -> Any:
            span_id = len(tracer.spans)
            span = Span(span_id, name, time.perf_counter(), 0.0,
                        tracer._stack[-1] if tracer._stack else None)
            tracer.spans.append(span)
            tracer._stack.append(span_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._stack.pop()
                span.end = time.perf_counter()
            tracer.count(name + ".calls")
            if observe is not None:
                observe(tracer, args, result)
            return result

        traced.__wrapped__ = fn  # type: ignore[attr-defined]
        return traced

    def install(self) -> None:
        """Replace every traced attribute by its wrapper."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        for name, (module_name, path) in TRACED.items():
            owner: Any = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        """Put every original back (in reverse order of installation)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.signatures.clear()

    def self_times(self) -> dict[str, float]:
        """Summed self time per span name: duration minus child spans."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] += span.end - span.start
        out: dict[str, float] = {}
        for span in self.spans:
            own = span.end - span.start - child_time[span.id]
            out[span.name] = out.get(span.name, 0.0) + own
        return out

    def total_times(self) -> dict[str, float]:
        """Summed inclusive duration per span name."""
        out: dict[str, float] = {}
        for span in self.spans:
            out[span.name] = out.get(span.name, 0.0) + span.end - span.start
        return out

    def write(self, path: Path) -> None:
        """Write the recorded spans as JSON lines."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"id": s.id, "name": s.name,
                                     "start": s.start, "end": s.end,
                                     "parent": s.parent}) + "\n")


def _n_instances(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    # BatchEngine.evaluate(self, instances, ...): one Instance or a sequence.
    tracer.count("engine.points",
                 len(result) if isinstance(result, list) else 1)


def _signature(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.signatures.add(result)


def _scalar_rounds(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.count("howard.rounds", result.n_rounds)


def _lockstep_rows(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.count("howard.lockstep_rows", len(result))
    tracer.count("howard.rounds", sum(r.n_rounds for r in result))


def _evaluations(tracer: Tracer, args: tuple[Any, ...], result: Any) -> None:
    tracer.count("search.evaluations", result.evaluations)


_OBSERVERS: dict[str, Callable[[Tracer, tuple[Any, ...], Any], None]] = {
    "engine.evaluate": _n_instances,
    "engine.signature": _signature,
    "engine.signature.executor": _signature,
    "howard.scalar": _scalar_rounds,
    "howard.lockstep": _lockstep_rows,
    "search.portfolio_search": _evaluations,
}


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced run.

    Every ``*_s`` time is a self time (span duration minus its child
    spans), so the times of different layers never overlap, except
    ``engine.evaluate_s``, which is the whole evaluate call.
    """
    own = tracer.self_times()
    counts = tracer.counts

    def self_s(*names: str) -> float:
        return sum(own.get(name, 0.0) for name in names)

    def calls(name: str) -> int:
        return counts.get(name + ".calls", 0)

    tpn_points = calls("howard.scalar") + counts.get("howard.lockstep_rows", 0)
    builds = calls("skeleton.build")
    covered = sum(t for name, t in own.items() if name not in UNNAMED_SELF)
    return {
        "spec.expand_s": self_s("spec.expand"),
        "spec.instance_s": self_s("spec.instance"),
        "spec.instance_calls": calls("spec.instance"),
        "store.digest_s": self_s("store.digest"),
        "store.digest_calls": calls("store.digest"),
        "store.encode_s": self_s("store.encode"),
        "store.put_s": self_s("store.put"),
        "store.commit_s": self_s("store.commit"),
        "store.commits": calls("store.commit"),
        "store.get_s": self_s("store.get"),
        "store.get_calls": calls("store.get"),
        "executor.order_s": self_s("executor.order"),
        "executor.export_rows_s": self_s("executor.export_rows"),
        "executor.serialize_s": self_s("campaign.export_json",
                                       "campaign.export_csv"),
        "engine.evaluate_s": tracer.total_times().get("engine.evaluate", 0.0),
        "engine.evaluate_self_s": self_s("engine.evaluate"),
        "engine.signature_s": self_s("engine.signature",
                                     "engine.signature.executor"),
        "engine.points": counts.get("engine.points", 0),
        "engine.distinct_signatures": len(tracer.signatures),
        # base: TPN points, i.e. skeleton lookups (hits + builds)
        "engine.cache_hit_ratio": 1.0 - builds / tpn_points if tpn_points else 0.0,
        "skeleton.build_s": self_s("skeleton.build"),
        "skeleton.builds": builds,
        "skeleton.stamp_s": self_s("skeleton.stamp", "skeleton.stamp_many"),
        "classify.plan_build_s": self_s("classify.plan_build"),
        "classify.plan_builds": calls("classify.plan_build"),
        "classify.verdict_s": self_s("classify.verdict", "classify.verdict_many"),
        "poly.period_s": self_s("poly.period"),
        "poly.calls": calls("poly.period"),
        "howard.scalar_s": self_s("howard.scalar"),
        "howard.scalar_calls": calls("howard.scalar"),
        "howard.lockstep_s": self_s("howard.lockstep"),
        "howard.lockstep_calls": calls("howard.lockstep"),
        "howard.lockstep_rows": counts.get("howard.lockstep_rows", 0),
        "howard.rounds": counts.get("howard.rounds", 0),
        # base: TPN points (scalar solves + lockstep rows)
        "howard.lockstep_share": (counts.get("howard.lockstep_rows", 0)
                                  / tpn_points if tpn_points else 0.0),
        "search.evaluations": counts.get("search.evaluations", 0),
        "search.self_s": self_s("search.portfolio_search"),
        "trace.coverage": covered / wall_s,
    }
