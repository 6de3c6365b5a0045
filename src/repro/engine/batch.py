"""Batch evaluation: skeleton cache, group lockstep solves, sharding.

:class:`BatchEngine` is the per-process cache of
:class:`~repro.engine.skeleton.TpnSkeleton` objects keyed by
:func:`~repro.engine.signature.topology_signature`.  Its
:meth:`BatchEngine.evaluate` is the one evaluate surface: a single
instance takes the scalar cache path, a sequence is evaluated in order
(same-topology runs locksteped) and, when ``n_jobs`` asks for workers,
sharded across processes.  The module-level :func:`evaluate` is a thin
wrapper that evaluates through a fresh engine.

**Group evaluation** is the hot path: consecutive TPN-method pairs that
share a topology signature are stamped into one ``(B, E)`` weight
matrix and solved in lockstep by
:func:`repro.maxplus.howard.solve_prepared_many`.  It kicks in for runs
of at least :data:`MIN_GROUP_ROWS` same-signature pairs and slabs huge
groups at :data:`MAX_GROUP_ROWS` rows to bound the weight-matrix
footprint.  Cold group results are bit-identical to per-pair
:meth:`BatchEngine.evaluate` calls.  Runs of polynomial-method OVERLAP
pairs, whatever their signatures, are batched the same way through
:func:`repro.algorithms.overlap_poly.overlap_period_many`, whose
Theorem-1 pattern components share one cached plan per ``(u, v)``
torus and are lockstep-solved per torus bucket.

Sharding is deterministic: the input order is cut into contiguous
chunks, mapped in order over a ``ProcessPoolExecutor`` and collected
in submission order.  Contiguous chunks deliberately preserve the
caller's grouping — a sweep that emits instances topology-by-topology
gets near-perfect skeleton cache hit rates *and* full-chunk lockstep
groups inside every worker.  Each worker process keeps one long-lived
:class:`BatchEngine` built with the calling engine's ``max_rows`` and
``warm_start``, so the cache survives across the chunks it evaluates.

Every evaluation is a pure function of ``(instance, model, method)``:
results are bit-identical whatever ``n_jobs``.  The one opt-in
exception is ``warm_start=True``, which seeds Howard's policy iteration
from the previous instance (or, on the group path, the previous
*group*) of a topology group: period *values* are unchanged, but the
extracted critical cycle (and hence ``tpn_solution.ratio.cycle_nodes``)
may depend on evaluation history — see :class:`BatchEngine`.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence, overload

import numpy as np
import numpy.typing as npt

from ..algorithms.general_tpn import TpnSolution
from ..algorithms.overlap_poly import (
    OverlapBreakdown,
    overlap_period,
    overlap_period_many,
)
from ..core.instance import Instance
from ..core.models import CommModel
from ..core.throughput import PeriodResult, compute_period
from ..errors import ValidationError
from ..faults import FAULTS
from ..maxplus.howard import HowardPlan, HowardState
from ..petri.builder import DEFAULT_MAX_ROWS
from ..telemetry import TELEMETRY
from .classify import CycleTimePlan, build_cycle_time_plan
from .signature import slot_processors, topology_signature
from .skeleton import TpnSkeleton, build_skeleton

__all__ = [
    "BatchEngine",
    "EngineStats",
    "evaluate",
    "MIN_GROUP_ROWS",
    "MAX_GROUP_ROWS",
]

#: Below this many pairs a process pool costs more than it saves; the
#: batch stays on the calling engine.
_MIN_SHARD_PAIRS = 4

#: Smallest same-signature run routed through the lockstep group solver;
#: a single pair goes through the scalar path (identical results, no
#: batch setup cost).
MIN_GROUP_ROWS = 2

#: Largest number of rows stamped into one lockstep solve.  Bounds the
#: ``(B, E)`` weight matrix; longer runs are solved in consecutive slabs of this size.
MAX_GROUP_ROWS = 256


@dataclass
class EngineStats:
    """Cache counters of one :class:`BatchEngine` (diagnostics only).

    ``hits``/``misses``/``evaluated`` are the PR-1 cache stats;
    ``scalar_solves``/``group_solves``/``group_rows`` split the
    evaluations between the per-pair path and the lockstep group path
    (PR 8, surfaced by ``campaign report``).  All fields are exact
    integers, deterministic for a fixed evaluation order.
    """

    hits: int = 0
    misses: int = 0
    evaluated: int = 0
    scalar_solves: int = 0
    group_solves: int = 0
    group_rows: int = 0

    @property
    def groups(self) -> int:
        """Number of distinct topology groups seen (= cache misses)."""
        return self.misses


@dataclass
class BatchEngine:
    """Skeleton-caching period evaluator, drop-in for ``compute_period``.

    Parameters
    ----------
    max_rows:
        Row budget on ``m = lcm(m_i)`` for TPN-based methods, enforced
        per evaluation exactly like the scalar path (``None`` disables).
    cache_limit:
        Maximum number of cached skeletons; the oldest entry is evicted
        beyond it (sweeps use a handful of topologies, but a mapping
        *search* streams through thousands — the bound keeps memory
        flat).  ``None`` disables eviction.
    warm_start:
        Opt-in: seed Howard's policy iteration from the previous
        evaluation of the same topology group
        (:class:`~repro.maxplus.howard.HowardState` per cached
        skeleton).  On slowly-varying neighborhoods — a mapping-search
        trajectory, a sweep of nearby instances — the previous policy
        is typically one improvement round from the new fixed point.
        Period *values* are identical to cold start; the extracted
        critical cycle may differ when several cycles tie exactly,
        which is why the flag defaults to off (cold evaluation stays a
        pure function of ``(instance, model, method)``).

    Notes
    -----
    ``evaluate`` returns :class:`PeriodResult` objects whose numeric
    fields (``period``, ``throughput``, ``mct``, ``relative_gap``,
    ``has_critical_resource``, ``m``, ``method``, ``model``) and
    ``breakdown`` / ``tpn_solution.ratio`` payloads are bit-identical
    to ``compute_period(inst, model, method)``.  The only difference:
    TPN results carry ``tpn_solution.net = None`` because the engine
    never materializes the per-instance net object.
    """

    max_rows: int | None = DEFAULT_MAX_ROWS
    cache_limit: int | None = 1024
    warm_start: bool = False
    stats: EngineStats = field(default_factory=EngineStats)
    _skeletons: dict[tuple, TpnSkeleton] = field(default_factory=dict)
    _warm_states: dict[tuple, HowardState] = field(default_factory=dict)
    _ct_plans: dict[tuple, CycleTimePlan] = field(default_factory=dict)
    #: Theorem-1 pattern plans by ``(u, v)`` torus (shared read-only
    #: plans from the process-wide cache).  No eviction: ``u`` and ``v``
    #: are coprime replication quotients, so an engine meets few tori.
    _torus_plans: dict[tuple[int, int], HowardPlan] = field(default_factory=dict)

    def skeleton(self, inst: Instance, model: CommModel | str) -> TpnSkeleton:
        """Fetch (or build and cache) the topology group's skeleton."""
        return self._skeleton_for(topology_signature(inst, model), inst, model)

    def _skeleton_for(
        self, key: tuple[object, ...], inst: Instance, model: CommModel | str
    ) -> TpnSkeleton:
        sk = self._skeletons.get(key)
        if sk is None:
            sk = build_skeleton(inst, model, max_rows=self.max_rows)
            if self.cache_limit is not None and len(self._skeletons) >= self.cache_limit:
                oldest = next(iter(self._skeletons))
                self._skeletons.pop(oldest)
                self._warm_states.pop(oldest, None)
            self._skeletons[key] = sk
            self.stats.misses += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("engine.skeleton_builds")
        else:
            self.stats.hits += 1
            if TELEMETRY.enabled:
                TELEMETRY.count("engine.cache_hits")
        return sk

    def _ct_plan_for(
        self, key: tuple[object, ...], inst: Instance, model: CommModel
    ) -> CycleTimePlan:
        """Fetch (or build) the topology group's cycle-time plan.

        Cached independently of the skeletons: the polynomial path needs
        the plan but never builds a skeleton.  Same bound, same oldest-
        entry eviction.
        """
        plan = self._ct_plans.get(key)
        if plan is None:
            plan = build_cycle_time_plan(inst, model)
            if self.cache_limit is not None and len(self._ct_plans) >= self.cache_limit:
                self._ct_plans.pop(next(iter(self._ct_plans)))
            self._ct_plans[key] = plan
        return plan

    # -- the evaluate surface ------------------------------------------
    @overload
    def evaluate(
        self,
        instances: Instance,
        models: CommModel | str,
        method: str = ...,
        n_firings: int | None = ...,
        *,
        n_jobs: int | None = ...,
    ) -> PeriodResult: ...

    @overload
    def evaluate(
        self,
        instances: Sequence[Instance] | Iterable[Instance],
        models: CommModel | str | Sequence[CommModel | str],
        method: str = ...,
        n_firings: int | None = ...,
        *,
        n_jobs: int | None = ...,
    ) -> list[PeriodResult]: ...

    def evaluate(
        self,
        instances: Instance | Sequence[Instance] | Iterable[Instance],
        models: CommModel | str | Sequence[CommModel | str],
        method: str = "auto",
        n_firings: int | None = None,
        *,
        n_jobs: int | None = None,
    ) -> PeriodResult | list[PeriodResult]:
        """Evaluate one instance or a sequence of instances.

        One :class:`~repro.core.instance.Instance` evaluates through the
        scalar cache path and returns one result.  A sequence evaluates
        in order and returns a list aligned with the input; consecutive
        same-topology TPN runs are lockstep-solved and consecutive
        polynomial OVERLAP runs share Theorem-1 pattern solves.

        ``n_jobs`` (keyword-only) shards a sequence across worker
        processes: ``None``/``1`` evaluates in this engine, ``0`` uses
        every core, ``k > 1`` uses ``k`` workers.  Batches of fewer
        than four pairs always stay on this engine.  Sharded pairs are
        evaluated by one long-lived engine per worker with this
        engine's ``max_rows`` and ``warm_start``, so results are
        bit-identical whatever the worker count (critical cycles may
        depend on chunk boundaries under ``warm_start``), but this
        engine's cache and :attr:`stats` do not see them.  Telemetry
        counters of the workers merge into the caller's collector.

        Method selection, validation errors and the
        ``ReplicationExplosionError`` budget behave exactly like
        :func:`repro.core.throughput.compute_period`.
        """
        if n_jobs is not None and n_jobs < 0:
            raise ValidationError(
                f"n_jobs must be None, 0 (all cores) or a positive worker "
                f"count, got {n_jobs}"
            )
        if isinstance(instances, Instance):
            if isinstance(models, (list, tuple)):
                raise ValidationError(
                    "a single instance takes a single model, not a sequence"
                )
            return self._evaluate_point(
                instances, models, method=method, n_firings=n_firings
            )
        pairs = _normalize_pairs(instances, models)
        workers = (os.cpu_count() or 1) if n_jobs == 0 else (n_jobs or 1)
        if workers > 1 and len(pairs) >= _MIN_SHARD_PAIRS:
            return self._evaluate_sharded(pairs, method, n_firings, workers)
        return list(self._evaluate_sequence(
            pairs, method=method, n_firings=n_firings
        ))

    def _evaluate_sharded(
        self,
        pairs: list[tuple[Instance, CommModel]],
        method: str,
        n_firings: int | None,
        workers: int,
    ) -> list[PeriodResult]:
        """Map contiguous chunks of ``pairs`` over a worker pool, in order."""
        size = -(-len(pairs) // (workers * 4))  # about four chunks per worker
        telemetry_on = TELEMETRY.enabled
        payloads = [
            (pairs[i: i + size], method, n_firings, self.max_rows,
             self.warm_start, telemetry_on)
            for i in range(0, len(pairs), size)
        ]
        results: list[PeriodResult] = []
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk_results, counters in pool.map(_evaluate_chunk, payloads):
                if counters is not None:
                    TELEMETRY.merge_counters(counters)
                results.extend(chunk_results)
        return results

    def _count_point(self, inst: Instance, method: str) -> None:
        """One point's fault hit, stats and contract counters (every path)."""
        if FAULTS.enabled:
            # A stall here models a slow machine: the worker's lease
            # heartbeats arrive late and the fabric's watchdog path
            # (stale takeover) is exercised end-to-end.
            FAULTS.hit("engine.evaluate")
        self.stats.evaluated += 1
        self.stats.scalar_solves += 1
        if TELEMETRY.enabled:
            # Contract counters: one per point, split by resolved
            # method, plus the point's path count — all pure functions
            # of the point, so totals are partition-invariant.
            TELEMETRY.count("engine.points")
            TELEMETRY.count("engine.points." + method)
            TELEMETRY.count("engine.paths", inst.num_paths)

    def _classified(
        self,
        key: tuple[object, ...],
        inst: Instance,
        model: CommModel,
        method: str,
        period: float,
        procs: npt.NDArray[np.int64],
        breakdown: OverlapBreakdown | None = None,
        solution: TpnSolution | None = None,
    ) -> PeriodResult:
        """Classify one period through the cached plan and package it."""
        # Classification through the cached index-array plan: bit-identical
        # to classify_critical_resource, ~3x cheaper per evaluation.
        mct, has_critical, _ = self._ct_plan_for(key, inst, model).verdict(
            inst, period, procs=procs
        )
        return PeriodResult(
            period=period,
            throughput=1.0 / period if period > 0 else float("inf"),
            model=model,
            method=method,
            m=inst.num_paths,
            mct=mct,
            has_critical_resource=has_critical,
            breakdown=breakdown,
            tpn_solution=solution,
        )

    def _evaluate_point(
        self,
        inst: Instance,
        model: CommModel | str,
        method: str = "auto",
        n_firings: int | None = None,
    ) -> PeriodResult:
        """Evaluate one pair through the cache (scalar-path semantics)."""
        model = CommModel.parse(model)
        method = _resolve(method, model)
        self._count_point(inst, method)
        key = topology_signature(inst, model)
        # One gather per evaluation, shared by the stamp and the verdict.
        procs = slot_processors(inst)
        breakdown: OverlapBreakdown | None = None
        solution: TpnSolution | None = None
        if method == "polynomial":
            if not model.overlap:
                raise ValidationError(
                    "the polynomial algorithm (Theorem 1) only applies to the "
                    "OVERLAP ONE-PORT model; use method='tpn' for STRICT"
                )
            breakdown = overlap_period(inst, self._torus_plans)
            period = breakdown.period
        elif method == "tpn":
            sk = self._skeleton_for(key, inst, model)
            sk.check_budget(self.max_rows)
            state = self._warm_states.setdefault(key, HowardState()) \
                if self.warm_start else None
            ratio = sk.solve(inst, state=state, procs=procs)
            period = ratio.value / sk.m
            solution = TpnSolution(period=period, ratio=ratio, net=None)
        elif method == "simulation":
            # No structure worth caching: the simulator walks the full net.
            return compute_period(
                inst, model, method="simulation",
                max_rows=self.max_rows, n_firings=n_firings,
            )
        else:
            raise ValidationError(
                f"unknown method {method!r}; expected auto/polynomial/tpn/simulation"
            )
        return self._classified(key, inst, model, method, period, procs,
                                breakdown=breakdown, solution=solution)

    def _evaluate_overlap_slab(
        self, instances: Sequence[Instance], model: CommModel
    ) -> list[PeriodResult]:
        """Theorem 1 for a run of OVERLAP pairs, any signatures.

        Every point keeps its fault hit, stats and contract counters
        (in input order, before the solve); the patterns of the whole
        slab are solved together by
        :func:`~repro.algorithms.overlap_poly.overlap_period_many`,
        whose breakdowns equal per-point ``overlap_period`` calls.
        """
        for inst in instances:
            self._count_point(inst, "polynomial")
        breakdowns = overlap_period_many(instances, self._torus_plans)
        return [
            self._classified(topology_signature(inst, model), inst, model,
                             "polynomial", bd.period, slot_processors(inst),
                             breakdown=bd)
            for inst, bd in zip(instances, breakdowns)
        ]

    def _evaluate_tpn_group(
        self, key: tuple[object, ...], instances: Sequence[Instance], model: CommModel
    ) -> list[PeriodResult]:
        """One lockstep slab: stamp, solve, classify, package."""
        if FAULTS.enabled:
            FAULTS.hit("engine.evaluate")
        B = len(instances)
        self.stats.evaluated += B
        self.stats.group_solves += 1
        self.stats.group_rows += B
        sk = self._skeleton_for(key, instances[0], model)
        # Cache-lookup parity with B scalar evaluations of the group.
        self.stats.hits += B - 1
        if TELEMETRY.enabled:
            TELEMETRY.count("engine.points", B)
            TELEMETRY.count("engine.points.tpn", B)
            TELEMETRY.count("engine.paths", sk.m * B)
            TELEMETRY.count("engine.cache_hits", B - 1)
            TELEMETRY.count("engine.group_solves")
            TELEMETRY.count("engine.group_rows", B)
        sk.check_budget(self.max_rows)
        state = self._warm_states.setdefault(key, HowardState()) \
            if self.warm_start else None
        procs = slot_processors(instances)
        with TELEMETRY.span("group-solve", rows=B):
            ratios = sk.solve_many(list(instances), state=state, procs=procs)
        periods = [r.value / sk.m for r in ratios]
        ct_plan = self._ct_plan_for(key, instances[0], model)
        mcts, crits, _ = ct_plan.verdict_many(
            list(instances), np.asarray(periods), procs=procs
        )
        out = []
        for b, inst in enumerate(instances):
            period = periods[b]
            out.append(PeriodResult(
                period=period,
                throughput=1.0 / period if period > 0 else float("inf"),
                model=model,
                method="tpn",
                m=sk.m,  # == inst.num_paths for every group member
                mct=float(mcts[b]),
                has_critical_resource=bool(crits[b]),
                breakdown=None,
                tpn_solution=TpnSolution(period=period, ratio=ratios[b], net=None),
            ))
        return out

    def _evaluate_sequence(
        self,
        pairs: list[tuple[Instance, CommModel]],
        method: str = "auto",
        n_firings: int | None = None,
    ) -> Iterator[PeriodResult]:
        """Evaluate pairs in order, locksteping same-topology runs.

        The drop-in batched counterpart of calling the scalar path in a
        loop: consecutive TPN pairs whose ``(model, signature)`` match
        form a group and go through the lockstep slabs; consecutive
        polynomial-method OVERLAP pairs, whatever their signatures, go
        through :meth:`_evaluate_overlap_slab`; everything else
        (singleton TPN runs, simulation) takes the scalar path.  Both
        kinds of slab hold at most :data:`MAX_GROUP_ROWS` pairs.
        Results align with the input and are bit-identical to the
        per-pair loop on a cold engine.
        """
        for i, j, model, key in _signature_runs(pairs, method):
            if _resolve(method, model) == "polynomial" and model.overlap:
                for k in range(i, j, MAX_GROUP_ROWS):
                    yield from self._evaluate_overlap_slab(
                        [p[0] for p in pairs[k: min(j, k + MAX_GROUP_ROWS)]], model
                    )
            elif key is None or j - i < MIN_GROUP_ROWS:
                for inst, _ in pairs[i:j]:
                    yield self._evaluate_point(inst, model, method=method,
                                               n_firings=n_firings)
            else:
                group = [p[0] for p in pairs[i:j]]
                for k in range(0, len(group), MAX_GROUP_ROWS):
                    yield from self._evaluate_tpn_group(
                        key, group[k: k + MAX_GROUP_ROWS], model
                    )


def _resolve(method: str, model: CommModel) -> str:
    """``method="auto"`` resolved like :func:`compute_period`."""
    if method != "auto":
        return method
    return "polynomial" if model.overlap else "tpn"


def _signature_runs(
    pairs: list[tuple[Instance, CommModel]], method: str
) -> Iterator[tuple[int, int, CommModel, tuple | None]]:
    """Contiguous ``[i, j)`` segments of a pair list, for group dispatch.

    TPN-method pairs extend their segment while model and topology
    signature match (``key`` is the shared signature); polynomial-method
    OVERLAP pairs extend theirs over every following OVERLAP pair, any
    signature (Theorem 1 batches by pattern torus, not by topology);
    other pairs yield singleton segments.  Non-TPN segments carry
    ``key = None``.  The single owner of the run-boundary predicate (see
    :meth:`BatchEngine._evaluate_sequence`).
    """
    i = 0
    while i < len(pairs):
        inst, model = pairs[i]
        resolved = _resolve(method, model)
        if resolved != "tpn":
            j = i + 1
            if resolved == "polynomial" and model.overlap:
                while j < len(pairs) and pairs[j][1].overlap:
                    j += 1
            yield i, j, model, None
            i = j
            continue
        key = topology_signature(inst, model)
        j = i + 1
        while j < len(pairs) and pairs[j][1] == model \
                and topology_signature(pairs[j][0], model) == key:
            j += 1
        yield i, j, model, key
        i = j


def _normalize_pairs(
    instances: Sequence[Instance] | Iterable[Instance],
    models: CommModel | str | Sequence[CommModel | str],
) -> list[tuple[Instance, CommModel]]:
    instances = list(instances)
    if isinstance(models, (CommModel, str)):
        parsed = CommModel.parse(models)
        return [(inst, parsed) for inst in instances]
    models = [CommModel.parse(m) for m in models]
    if len(models) != len(instances):
        raise ValidationError(
            f"got {len(instances)} instances but {len(models)} models; pass "
            f"a single model or one per instance"
        )
    return list(zip(instances, models))


# ----------------------------------------------------------------------
# worker-process plumbing
# ----------------------------------------------------------------------
#: One engine per worker process, reused across chunks so the skeleton
#: cache amortizes over the whole batch, not a single chunk.
_WORKER_ENGINE: BatchEngine | None = None


def _evaluate_chunk(
    payload: tuple[list[tuple[Instance, CommModel]], str, int | None,
                   int | None, bool, bool],
) -> tuple[list[PeriodResult], dict[str, int] | None]:
    """Module-level trampoline for process pools (picklable).

    Returns the chunk's results plus, when the parent runs with
    telemetry on, this chunk's counter snapshot.  Counters merge by
    summation, so the parent's totals are independent of chunk
    completion order (NUM205-safe).  The collector is re-enabled (reset)
    or disabled explicitly per chunk: forked workers inherit the
    parent's collector state, which must never double-count.
    """
    global _WORKER_ENGINE
    chunk, method, n_firings, max_rows, warm_start, telemetry_on = payload
    if telemetry_on:
        TELEMETRY.enable("chunk")
    else:
        TELEMETRY.disable()
    if (
        _WORKER_ENGINE is None
        or _WORKER_ENGINE.max_rows != max_rows
        or _WORKER_ENGINE.warm_start != warm_start
    ):
        _WORKER_ENGINE = BatchEngine(max_rows=max_rows, warm_start=warm_start)
    results = list(_WORKER_ENGINE._evaluate_sequence(
        chunk, method=method, n_firings=n_firings
    ))
    counters = TELEMETRY.counter_snapshot() if telemetry_on else None
    return results, counters


def evaluate(
    instances: Sequence[Instance] | Iterable[Instance],
    models: CommModel | str | Sequence[CommModel | str],
    method: str = "auto",
    *,
    max_rows: int | None = DEFAULT_MAX_ROWS,
    n_jobs: int | None = None,
    warm_start: bool = False,
) -> list[PeriodResult]:
    """Evaluate pairs through a fresh :class:`BatchEngine`.

    Drop-in replacement for ``[compute_period(i, m, method) for i, m in
    pairs]`` — same values, same exceptions — with skeleton caching and
    optional multi-process sharding.  ``models`` is one model for every
    instance or one per instance; ``max_rows`` and ``warm_start``
    configure the engine and ``n_jobs`` is
    :meth:`BatchEngine.evaluate`'s.  To reuse a cache across calls,
    keep a :class:`BatchEngine` and call its ``evaluate``.

    Examples
    --------
    >>> from repro.experiments.examples_paper import example_a
    >>> from repro.core.throughput import compute_period
    >>> batch = evaluate([example_a()] * 3, "overlap")
    >>> [r.period for r in batch]
    [189.0, 189.0, 189.0]
    >>> batch[0].period == compute_period(example_a(), "overlap").period
    True
    """
    return BatchEngine(max_rows=max_rows, warm_start=warm_start).evaluate(
        list(instances), models, method, n_jobs=n_jobs
    )
