"""Pareto-archive portfolio: multi-criteria mapping search.

:func:`pareto_portfolio_search` generalizes
:func:`repro.search.portfolio_search` from the period alone to the
(period, latency, reliability) plane of :mod:`repro.objectives`.  The
shape is the same — diversified restarts dealt a shared evaluation pool
by a :class:`~repro.search.allocator.BudgetAllocator` — but each restart
is now a **scalarization direction**: a deterministic reduction of the
objective vector to one comparable score, climbed by first-improvement
local search over the same swap/move/rotate neighborhoods as the
period-only search.  Two direction families exist, selected by the
allocator (:class:`~repro.search.allocator.EpsilonConstraintAllocator`
/ :class:`~repro.search.allocator.WeightedScalarizationAllocator`):

* **epsilon-constraint** — optimize the primary objective (the first in
  canonical order, i.e. the period when present) subject to a bound on
  one secondary objective, the bounds swept across the probed objective
  ranges; scores compare as ``(constraint violation, primary value)``
  tuples, so feasibility always beats optimality.
* **weighted-sum** — minimize ``w · v`` over range-normalized
  minimization-space vectors, weight vectors on a deterministic simplex
  grid.

Every evaluated mapping — probes, climb starts, every neighborhood
candidate the serial scan reaches — is offered to one shared
:class:`~repro.objectives.ParetoArchive` in direction-major order.
Because the scan order, budget charging and archive offers all follow
the *serial* trajectory (the batched neighborhood path refunds and
discards evaluations past the first improving move, exactly like
:func:`repro.extensions.mapping_opt.local_search_mapping`), the archive
contents are bit-identical at any ``n_jobs``.

Determinism inventory: probe mappings are the two
:func:`repro.objectives.replication_policy_mapping` policies plus
seeded random draws; objective ranges come from the probe vectors; the
direction schedule is integer arithmetic on those ranges; restart seeds
derive from ``crc32("pareto|" + app.name)`` through a
:class:`numpy.random.SeedSequence` tree (prefix-stable, the
:func:`repro.search.portfolio.portfolio_seeds` scheme).  No wall clock,
no ``hash()``, no dict-order dependence anywhere.
"""

from __future__ import annotations

import zlib
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb
from typing import Any

import numpy as np

from ..core.application import Application
from ..core.instance import Instance
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..core.platform import Platform
from ..engine import BatchEngine
from ..errors import ValidationError
from ..extensions.mapping_opt import _neighborhood_moves, random_mapping
from ..objectives import (
    DEFAULT_LATENCY_DATASETS,
    REPLICATION_POLICIES,
    EvalResult,
    ParetoArchive,
    ParetoEntry,
    attach_objectives,
    parse_objectives,
    replication_policy_mapping,
)
from ..objectives.evaluate import ObjectiveEvaluator
from ..telemetry import TELEMETRY
from ..utils import canonical_json
from .allocator import (
    BudgetAllocator,
    Climb,
    ParetoAllocator,
    resolve_allocator,
)
from .budget import EvaluationBudget

__all__ = [
    "Direction",
    "DirectionRecord",
    "ParetoPortfolioResult",
    "pareto_seeds",
    "scalarization_directions",
    "pareto_portfolio_search",
]

#: Score of an unevaluated / infeasible candidate (compares worst).
_INF_SCORE = (float("inf"), float("inf"))


def _normalized(value: float, lo: float, hi: float) -> float:
    """``value`` mapped into the probed range (0 when the range is flat)."""
    if hi > lo:
        return (value - lo) / (hi - lo)
    return 0.0


@dataclass(frozen=True)
class Direction:
    """One scalarization direction of the multi-criteria portfolio.

    A direction reduces a minimization-space objective vector to a
    totally ordered score tuple ``(violation, value)``:

    * weighted directions have no constraints (``violation = 0``) and
      ``value = w · normalized(v)``;
    * epsilon directions sum the range-normalized excess over each
      ``(objective index, bound)`` pair into ``violation`` and use the
      primary objective as ``value`` — lexicographic comparison, so
      restoring feasibility always dominates improving the primary.

    ``lo``/``hi`` are the probed per-objective ranges the normalization
    uses; they are baked into the direction so scoring is a pure
    function of the vector.
    """

    index: int
    kind: str
    label: str
    weights: tuple[float, ...] = ()
    primary: int = 0
    bounds: tuple[tuple[int, float], ...] = ()
    lo: tuple[float, ...] = ()
    hi: tuple[float, ...] = ()

    def score(self, vector: Sequence[float]) -> tuple[float, float]:
        """The direction's score of one minimization-space vector."""
        if self.kind == "weighted":
            total = 0.0
            for k, weight in enumerate(self.weights):
                total += weight * _normalized(
                    float(vector[k]), self.lo[k], self.hi[k]
                )
            return (0.0, total)
        violation = 0.0
        for j, bound in self.bounds:
            value = float(vector[j])
            if value > bound:
                span = self.hi[j] - self.lo[j]
                violation += (value - bound) / span if span > 0.0 else 1.0
        return (violation, float(vector[self.primary]))


@dataclass(frozen=True)
class DirectionRecord:
    """Trace of one scalarized climb, in schedule order.

    ``best_vector`` is the minimization-space vector of the climb's
    incumbent (``None`` when the climb starved before its first
    evaluation); ``accepted`` counts accepted moves including the start
    evaluation.
    """

    index: int
    kind: str
    label: str
    seed: int
    evaluations: int
    accepted: int
    best_vector: tuple[float, ...] | None
    assignments: tuple[tuple[int, ...], ...]

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation."""
        return {
            "index": self.index,
            "kind": self.kind,
            "label": self.label,
            "seed": self.seed,
            "evaluations": self.evaluations,
            "accepted": self.accepted,
            "best_vector": None
            if self.best_vector is None
            else list(self.best_vector),
            "assignments": [list(s) for s in self.assignments],
        }


@dataclass(frozen=True)
class ParetoPortfolioResult:
    """Outcome of a multi-criteria portfolio search.

    Attributes
    ----------
    objectives:
        Canonical objective tuple the run optimized.
    model:
        Communication model value ("overlap"/"strict").
    allocator:
        Registry name of the Pareto allocator that dealt the pool.
    budget:
        The evaluation allowance (``None`` = unlimited).
    evaluations:
        Oracle calls actually spent (never exceeds ``budget``).
    archive:
        The shared :class:`~repro.objectives.ParetoArchive` — its
        :meth:`~repro.objectives.ParetoArchive.front` is the result.
    records:
        Per-direction climb records, in schedule order.
    directions:
        Direction labels, in schedule order.
    """

    objectives: tuple[str, ...]
    model: str
    allocator: str
    budget: int | None
    evaluations: int
    archive: ParetoArchive
    records: tuple[DirectionRecord, ...]
    directions: tuple[str, ...]

    def front(self) -> list[ParetoEntry]:
        """The non-dominated entries in deterministic export order."""
        return self.archive.front()

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready representation (front in deterministic order)."""
        return {
            "objectives": list(self.objectives),
            "model": self.model,
            "allocator": self.allocator,
            "budget": self.budget,
            "evaluations": self.evaluations,
            "directions": list(self.directions),
            "records": [r.to_dict() for r in self.records],
            "front": [e.to_dict() for e in self.archive.front()],
        }

    def to_json(self, indent: int | None = 2) -> str:
        """Canonical-JSON text of :meth:`to_dict` (byte-deterministic)."""
        return canonical_json(self.to_dict(), indent=indent)


def pareto_seeds(
    app: Application,
    model: CommModel | str,
    n: int,
    root_seed: int = 20090302,
) -> list[int]:
    """Deterministic seed entropies of the multi-criteria portfolio.

    Child 0 drives the probe phase, children ``1 .. n - 1`` the
    scalarized climbs.  Keyed by ``crc32("pareto|" + app.name)`` plus
    the model bit — the :func:`repro.search.portfolio.portfolio_seeds`
    scheme on an independent stream (prefix-stable: growing ``n`` never
    reshuffles earlier seeds).
    """
    model = CommModel.parse(model)
    key = zlib.crc32(f"pareto|{app.name}".encode()) & 0x7FFFFFFF
    ss = np.random.SeedSequence([root_seed, key, 0 if model.overlap else 1])
    return [int(child.generate_state(1)[0]) for child in ss.spawn(n)]


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """All ordered compositions of ``total`` into ``parts`` non-negative
    integers, in lexicographic order."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head, *rest)


def _weight_grid(m: int, n_directions: int) -> list[tuple[float, ...]]:
    """``n_directions`` weight vectors on the smallest simplex grid that
    holds them, picked at evenly spaced lexicographic positions."""
    if m == 1:
        return [(1.0,)] * n_directions
    granularity = 1
    while comb(granularity + m - 1, m - 1) < n_directions:
        granularity += 1
    grid = list(_compositions(granularity, m))
    count = len(grid)
    if n_directions == 1:
        picks = [count // 2]
    else:
        picks = [
            i * (count - 1) // (n_directions - 1) for i in range(n_directions)
        ]
    return [
        tuple(part / granularity for part in grid[pick]) for pick in picks
    ]


def scalarization_directions(
    strategy: str,
    objectives: Sequence[str] | str,
    n_directions: int,
    lo: Sequence[float],
    hi: Sequence[float],
) -> list[Direction]:
    """The deterministic direction schedule of one Pareto portfolio.

    ``strategy`` is an allocator's
    :attr:`~repro.search.allocator.ParetoAllocator.strategy`
    (``"epsilon"`` / ``"weighted"``); ``lo``/``hi`` are the probed
    per-objective ranges in minimization space.  Pure integer/float
    arithmetic — the schedule is a function of its arguments only.

    >>> dirs = scalarization_directions(
    ...     "weighted", ("period", "latency"), 3, (0.0, 0.0), (1.0, 1.0))
    >>> [d.weights for d in dirs]
    [(0.0, 1.0), (0.5, 0.5), (1.0, 0.0)]
    >>> dirs = scalarization_directions(
    ...     "epsilon", ("period", "latency"), 2, (10.0, 4.0), (20.0, 8.0))
    >>> [d.label for d in dirs]
    ['epsilon:latency<=5.33333', 'epsilon:latency<=6.66667']
    """
    names = parse_objectives(objectives)
    if n_directions < 1:
        raise ValidationError("n_directions must be at least 1")
    lo_t = tuple(float(x) for x in lo)
    hi_t = tuple(float(x) for x in hi)
    if len(lo_t) != len(names) or len(hi_t) != len(names):
        raise ValidationError("lo/hi must have one bound per objective")
    directions: list[Direction] = []
    if strategy == "weighted":
        for index, weights in enumerate(_weight_grid(len(names), n_directions)):
            label = "weighted:" + "/".join(f"{w:.3f}" for w in weights)
            directions.append(
                Direction(
                    index=index,
                    kind="weighted",
                    label=label,
                    weights=weights,
                    lo=lo_t,
                    hi=hi_t,
                )
            )
        return directions
    if strategy != "epsilon":
        raise ValidationError(
            f"unknown scalarization strategy {strategy!r} "
            "(expected epsilon/weighted)"
        )
    others = list(range(1, len(names)))
    if not others:
        return [
            Direction(
                index=index,
                kind="epsilon",
                label=f"epsilon:{names[0]}",
                primary=0,
                lo=lo_t,
                hi=hi_t,
            )
            for index in range(n_directions)
        ]
    counts = [
        n_directions // len(others) + (1 if t < n_directions % len(others) else 0)
        for t in range(len(others))
    ]
    # Interleave the constrained objectives so a truncated schedule
    # still covers every secondary objective early.
    index = 0
    for level in range(max(counts)):
        for t, j in enumerate(others):
            if level >= counts[t]:
                continue
            frac = (level + 1) / (counts[t] + 1)
            bound = lo_t[j] + (hi_t[j] - lo_t[j]) * frac
            directions.append(
                Direction(
                    index=index,
                    kind="epsilon",
                    label=f"epsilon:{names[j]}<={bound:.6g}",
                    primary=0,
                    bounds=((j, bound),),
                    lo=lo_t,
                    hi=hi_t,
                )
            )
            index += 1
    return directions


class _BudgetSlice:
    """One climb's capped slice of the shared pool (see
    :class:`repro.search.portfolio._BudgetSlice` — duplicated here to
    keep the module import-light)."""

    def __init__(self, pool: EvaluationBudget, cap: int | None) -> None:
        self._pool = pool
        self._cap = cap
        self._used = 0

    def take(self, n: int = 1) -> int:
        if self._cap is not None:
            n = min(n, self._cap - self._used)
        granted = self._pool.take(n) if n > 0 else 0
        self._used += granted
        return granted

    def refund(self, n: int) -> None:
        self._used -= n
        self._pool.refund(n)


class _ParetoDriver:
    """Launch/resume services for the Pareto portfolio's allocator.

    Implements :class:`repro.search.allocator.ClimbDriver`: ``launch``
    runs one scalarized first-improvement climb under a budget cap and
    offers every serially reached evaluation to the shared archive;
    multi-criteria climbs do not checkpoint, so ``resume`` is a no-op
    (fair-share dealing never resumes anyway).
    """

    def __init__(
        self,
        app: Application,
        plat: Platform,
        model: CommModel,
        evaluator: ObjectiveEvaluator,
        archive: ParetoArchive,
        pool: EvaluationBudget,
        directions: Sequence[Direction],
        root_seed: int,
        n_restarts: int,
        max_iters: int,
        max_paths: int,
        n_jobs: int | None,
    ) -> None:
        self.app = app
        self.plat = plat
        self.model = model
        self.evaluator = evaluator
        self.archive = archive
        self.pool = pool
        self.directions = list(directions)
        self.root_seed = root_seed
        self.n_restarts = n_restarts
        self.max_iters = max_iters
        self.max_paths = max_paths
        self.n_jobs = n_jobs
        self.records: list[DirectionRecord] = []
        self._seeds = pareto_seeds(
            app, model, n_restarts + 1, root_seed=root_seed
        )

    def _seed(self, index: int) -> int:
        """Seed entropy of climb ``index`` (child 0 is the probe phase)."""
        child = index + 1
        if child >= len(self._seeds):
            self._seeds = pareto_seeds(
                self.app, self.model, child + 1, root_seed=self.root_seed
            )
        return self._seeds[child]

    def _start_mapping(
        self, direction: Direction, rng: np.random.Generator
    ) -> Mapping:
        """The direction's climb start: the archive entry scoring best
        under the direction (deterministic front order), or a seeded
        random draw when the archive is still empty."""
        front = self.archive.front()
        if front:
            best = min(
                enumerate(front),
                key=lambda item: (direction.score(item[1].vector), item[0]),
            )[1]
            return Mapping(
                best.assignments, n_processors=self.plat.n_processors
            )
        return random_mapping(self.app, self.plat, rng, self.max_paths)

    def _evaluate_one(self, mapping: Mapping) -> EvalResult:
        inst = Instance(self.app, self.plat, mapping)
        return self.evaluator.evaluate(inst, self.model)

    def launch(self, index: int, cap: int | None) -> Climb:
        """Run one scalarized climb under a budget cap."""
        direction = self.directions[index % len(self.directions)]
        seed = self._seed(index)
        rng = np.random.default_rng(np.random.SeedSequence(seed))
        slice_budget = _BudgetSlice(self.pool, cap)
        climb = Climb(index=index, kind=direction.kind, seed=seed)

        mapping = self._start_mapping(direction, rng)
        best_score = _INF_SCORE
        best_result: EvalResult | None = None
        evaluations = 0
        trace: list[float] = []

        starved = slice_budget.take(1) == 0
        if not starved:
            evaluations += 1
            if mapping.num_paths <= self.max_paths:
                result = self._evaluate_one(mapping)
                self.archive.add(
                    result, mapping.assignments, source=direction.label
                )
                best_score = direction.score(result.vector())
                best_result = result
                trace.append(float(result.vector()[0]))

        iteration = 0
        while not starved and iteration < self.max_iters:
            assign = [list(s) for s in mapping.assignments]
            moves = _neighborhood_moves(assign)
            order = rng.permutation(len(moves))
            candidates: list[Mapping] = []
            for k in order:
                try:
                    candidates.append(
                        Mapping(
                            [tuple(s) for s in moves[int(k)]],
                            n_processors=self.plat.n_processors,
                        )
                    )
                except ValidationError:
                    continue
            grant = slice_budget.take(len(candidates))
            scan = candidates[:grant]
            feasible = [m2 for m2 in scan if m2.num_paths <= self.max_paths]
            insts = [Instance(self.app, self.plat, m2) for m2 in feasible]
            # Periods are n_jobs-invariant (engine guarantee); latency
            # and reliability attach in this process as each scanned
            # candidate is reached, so the archive offers — and the
            # accepted move — follow the serial trajectory exactly.
            periods = self.evaluator.engine.evaluate(
                insts, self.model, n_jobs=self.n_jobs
            )
            by_id = {
                id(m2): (inst, pr)
                for m2, inst, pr in zip(feasible, insts, periods)
            }
            charged = grant
            improved = False
            for pos, m2 in enumerate(scan):
                pair = by_id.get(id(m2))
                if pair is None:
                    continue  # path-budget infeasible: charged, score inf
                inst, period_result = pair
                result = attach_objectives(
                    inst,
                    period_result,
                    self.evaluator.objectives,
                    latency_mode=self.evaluator.latency_mode,
                    latency_datasets=self.evaluator.latency_datasets,
                )
                self.archive.add(
                    result, m2.assignments, source=direction.label
                )
                score = direction.score(result.vector())
                if score < best_score:
                    mapping, best_score, best_result = m2, score, result
                    trace.append(float(result.vector()[0]))
                    improved = True
                    # Serial-equivalent cost: refund the grant past the
                    # move the sequential scan would have stopped at.
                    slice_budget.refund(grant - (pos + 1))
                    charged = pos + 1
                    break
            evaluations += charged
            if not improved:
                if grant < len(candidates):
                    starved = True
                break
            iteration += 1

        climb.period = (
            float(best_result.vector()[0])
            if best_result is not None
            else float("inf")
        )
        climb.evaluations = evaluations
        climb.trace = tuple(trace)
        climb.mapping = mapping
        climb.rungs = (evaluations,)
        self.records.append(
            DirectionRecord(
                index=index,
                kind=direction.kind,
                label=direction.label,
                seed=seed,
                evaluations=evaluations,
                accepted=len(trace),
                best_vector=None
                if best_result is None
                else best_result.vector(),
                assignments=mapping.assignments,
            )
        )
        return climb

    def resume(self, climb: Climb, cap: int | None) -> None:
        """Multi-criteria climbs do not checkpoint — nothing to resume."""
        return


def pareto_portfolio_search(
    app: Application,
    plat: Platform,
    model: CommModel | str = "overlap",
    objectives: Sequence[str] | str = ("period", "latency"),
    n_restarts: int = 6,
    budget: int | None = 1500,
    root_seed: int = 20090302,
    max_iters: int = 100,
    max_paths: int = 3000,
    n_probes: int = 6,
    engine: BatchEngine | None = None,
    n_jobs: int | None = None,
    warm_start: bool = False,
    allocator: str | BudgetAllocator = "epsilon-constraint",
    latency_mode: str = "bound",
    latency_datasets: int = DEFAULT_LATENCY_DATASETS,
) -> ParetoPortfolioResult:
    """Multi-criteria portfolio search into a shared Pareto archive.

    The run has two deterministic phases charged to one shared
    evaluation pool:

    1. **Probe** — the two replication-policy mappings
       (:func:`repro.objectives.replication_policy_mapping`, one per
       end of the throughput/reliability trade-off) plus seeded random
       draws, up to ``n_probes``; their objective vectors set the
       per-objective ranges the direction schedule normalizes against.
    2. **Climb** — ``n_restarts`` scalarization directions (the
       allocator's strategy: epsilon sweeps or simplex-grid weights),
       each a first-improvement local search from the archive's best
       point under that direction, dealt even budget slices.

    Every evaluation the serial trajectory reaches is offered to the
    archive in direction-major order; ``n_jobs`` fans neighborhood
    period computations out to workers but charges, accepts and offers
    exactly like the serial scan — archive contents are bit-identical
    at any worker count.

    Parameters mirror :func:`repro.search.portfolio_search`; the
    additions are ``objectives`` (see
    :func:`repro.objectives.parse_objectives`), ``n_probes``,
    ``latency_mode``/``latency_datasets`` (see
    :class:`repro.objectives.ObjectiveEvaluator`) and the default
    ``allocator`` (``"epsilon-constraint"``; ``"weighted-sum"`` is the
    other multi-criteria strategy — plain period-only allocators are
    rejected here).

    Examples
    --------
    >>> from repro import Application, Platform
    >>> app = Application(works=[4.0, 9.0], file_sizes=[1.0], name="doc")
    >>> plat = Platform.homogeneous(3, speed=1.0, bandwidth=10.0)
    >>> res = pareto_portfolio_search(app, plat, "overlap",
    ...                               objectives="period,latency",
    ...                               n_restarts=2, budget=80)
    >>> res.objectives
    ('period', 'latency')
    >>> len(res.front()) >= 1
    True
    >>> res.evaluations <= 80
    True
    """
    model = CommModel.parse(model)
    names = parse_objectives(objectives)
    alloc = resolve_allocator(allocator)
    if not isinstance(alloc, ParetoAllocator):
        raise ValidationError(
            f"pareto_portfolio_search needs a Pareto allocator "
            f"(epsilon-constraint / weighted-sum), got {alloc.name!r}"
        )
    if plat.n_processors < app.n_stages:
        raise ValidationError(
            f"no valid mapping: {app.n_stages} stages need at least "
            f"{app.n_stages} processors, platform has {plat.n_processors}"
        )
    eng = (
        engine
        if engine is not None
        else BatchEngine(max_rows=max_paths + 1, warm_start=warm_start)
    )
    evaluator = ObjectiveEvaluator(
        engine=eng,
        objectives=names,
        latency_mode=latency_mode,
        latency_datasets=latency_datasets,
    )
    archive = ParetoArchive(names)
    pool = EvaluationBudget(budget)

    # Phase 1: probes — policy mappings first, seeded random fill.
    probe_seed = pareto_seeds(app, model, 1, root_seed=root_seed)[0]
    probe_rng = np.random.default_rng(np.random.SeedSequence(probe_seed))
    probes: list[Mapping] = [
        replication_policy_mapping(app, plat, policy, max_paths=max_paths)
        for policy in REPLICATION_POLICIES
    ]
    while len(probes) < n_probes:
        probes.append(random_mapping(app, plat, probe_rng, max_paths))
    vectors: list[tuple[float, ...]] = []
    with TELEMETRY.span("pareto-probe", probes=len(probes)):
        for probe in probes[:n_probes]:
            if pool.take(1) == 0:
                break
            if probe.num_paths > max_paths:
                continue
            result = evaluator.evaluate(
                Instance(app, plat, probe), model
            )
            archive.add(result, probe.assignments, source="probe")
            vectors.append(result.vector())
    if vectors:
        lo = tuple(min(v[k] for v in vectors) for k in range(len(names)))
        hi = tuple(max(v[k] for v in vectors) for k in range(len(names)))
    else:
        lo = hi = (0.0,) * len(names)

    # Phase 2: scalarized climbs dealt by the allocator.
    directions = scalarization_directions(
        alloc.strategy, names, n_restarts, lo, hi
    )
    driver = _ParetoDriver(
        app,
        plat,
        model,
        evaluator,
        archive,
        pool,
        directions,
        root_seed,
        n_restarts,
        max_iters,
        max_paths,
        n_jobs,
    )
    with TELEMETRY.span(
        "pareto-allocate", allocator=alloc.name, restarts=n_restarts
    ):
        alloc.allocate(driver)

    if TELEMETRY.enabled:
        TELEMETRY.count("search.pareto_portfolios")
        TELEMETRY.count("search.restarts", len(driver.records))
        TELEMETRY.count("search.evaluations", pool.spent)

    return ParetoPortfolioResult(
        objectives=names,
        model=model.value,
        allocator=alloc.name,
        budget=budget,
        evaluations=pool.spent,
        archive=archive,
        records=tuple(driver.records),
        directions=tuple(d.label for d in directions),
    )
