"""Mapping search heuristics (extension — the NP-hard problem of [3]).

Given an application and a platform, *choose* the replicated mapping that
minimizes the period.  The decision problem is NP-hard even without
replication (Benoit & Robert, JPDC 2008, reference [3] of the paper), so
this module offers baselines rather than exact optimization:

* :func:`random_mapping` — uniform random replication/assignment
  (the generator used for Table 2);
* :func:`greedy_mapping` — allocate processors one at a time to the stage
  whose current contribution to the period is worst;
* :func:`local_search_mapping` — hill-climbing over swap/move/reorder
  neighborhoods, scored by the exact period oracle.

All heuristics use the exact period as a black-box objective,
demonstrating the intended downstream use of the library's evaluator.
Candidate evaluation runs through a shared
:class:`~repro.engine.batch.BatchEngine` (pass your own via ``engine=``
to share its topology cache across searches): re-proposed mappings hit
the skeleton cache instead of rebuilding their TPN, and
:func:`local_search_mapping` can fan a whole neighborhood out to worker
processes with ``n_jobs`` while preserving the serial search trajectory.
Neighborhoods evaluate as one sequence, which locksteps any
same-topology runs among the candidates through the batched Howard
solver (see :func:`repro.maxplus.howard.solve_prepared_many`).

Restart hooks
-------------
:mod:`repro.search` composes these heuristics into a multi-start
portfolio.  Two hooks exist for that composition and for any caller with
a fixed oracle allowance:

* ``budget=`` — an :class:`repro.search.EvaluationBudget` (or any object
  with its ``take(n) -> int`` / ``refund(n)`` protocol) checked before
  every oracle call; when the shared pool runs dry the search stops
  gracefully and returns its incumbent instead of overdrawing.
* :func:`perturb_mapping` — a seeded kick of an elite mapping (random
  swap/move/rotate moves) used to diversify restarts around the current
  best solution.
* ``checkpoint=`` — resume a climb that a budget slice truncated.  When
  the pool dries mid-climb, :func:`local_search_mapping` returns a
  :class:`SearchCheckpoint` (incumbent mapping, RNG state, neighborhood
  scan cursor) on the result; passing it back resumes the climb exactly
  where it paused.  The **resume invariant**: a climb paused and resumed
  any number of times visits the same evaluations, accepts the same
  moves and reaches the same incumbent as one uninterrupted climb given
  the same total grant — racing allocators
  (:class:`repro.search.allocator.RacingAllocator`) rely on this to
  truncate restarts without losing their progress.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from ..core.application import Application
from ..core.instance import Instance
from ..core.mapping import Mapping
from ..core.models import CommModel
from ..core.platform import Platform
from ..engine import BatchEngine
from ..errors import ValidationError
from ..experiments.generator import random_replication

__all__ = [
    "MappingSearchResult",
    "SearchCheckpoint",
    "random_mapping",
    "greedy_mapping",
    "local_search_mapping",
    "perturb_mapping",
]


class _Budget(Protocol):
    """Structural type of the ``budget=`` hook (no import of repro.search)."""

    def take(self, n: int = 1) -> int: ...

    def refund(self, n: int) -> None: ...


class _BudgetExhausted(Exception):
    """Internal control flow: the shared evaluation pool ran dry."""


def _charge(budget: _Budget | None, n: int = 1) -> int:
    """Grant up to ``n`` evaluations from ``budget`` (all of them if None)."""
    if budget is None:
        return n
    granted = budget.take(n)
    if granted == 0 and n > 0:
        raise _BudgetExhausted
    return granted


@dataclass(frozen=True)
class SearchCheckpoint:
    """Resumable state of a budget-paused :func:`local_search_mapping`.

    Captures everything the climb needs to continue exactly where a
    truncated budget slice stopped it: the incumbent mapping, the RNG
    state (*after* the current neighborhood permutation was drawn), and
    the scan cursor into that shuffled neighborhood.  Passing the
    checkpoint back via ``local_search_mapping(checkpoint=...)`` resumes
    the climb bit-identically: the interrupted-and-resumed trajectory
    equals the uninterrupted one at equal total grants.

    Attributes
    ----------
    assignments:
        The climb's current mapping (incumbent once ``started``).
    period:
        Best period reached so far (``inf`` before the first
        evaluation completed).
    evaluations:
        Cumulative oracle calls across all grants of this climb.
    trace:
        Cumulative accepted-period trace across all grants.
    iteration:
        Completed improving iterations (counts against ``max_iters``).
    cursor:
        Next position to evaluate in the current neighborhood's
        shuffled candidate list.
    order:
        The current neighborhood's shuffled scan order (``None`` when
        paused before the first iteration's permutation draw).
    rng_state:
        ``numpy`` bit-generator state to restore on resume.
    started:
        Whether the start mapping's own evaluation completed (a climb
        can starve before its very first oracle call).
    """

    assignments: tuple[tuple[int, ...], ...]
    period: float
    evaluations: int
    trace: tuple[float, ...]
    iteration: int
    cursor: int
    order: tuple[int, ...] | None
    rng_state: dict
    started: bool


def _restore_rng(state: dict) -> np.random.Generator:
    """Rebuild a Generator from a stored bit-generator state dict."""
    bit_generator = getattr(np.random, state["bit_generator"])()
    bit_generator.state = state
    return np.random.Generator(bit_generator)


@dataclass(frozen=True)
class MappingSearchResult:
    """Outcome of a mapping search.

    Attributes
    ----------
    mapping:
        Best mapping found.
    period:
        Its exact period.
    evaluations:
        Number of period-oracle calls spent *by this call* (a resumed
        climb reports only the evaluations of the resuming grant; the
        checkpoint carries the cumulative count).
    trace:
        Periods of successive accepted solutions (monotone for the
        hill-climbers; useful for convergence plots).  Like
        ``evaluations``, only this call's accepted moves.
    checkpoint:
        ``None`` when the climb finished (converged or hit
        ``max_iters``); a :class:`SearchCheckpoint` when a budget dried
        up mid-climb and the search can be resumed.
    """

    mapping: Mapping
    period: float
    evaluations: int
    trace: tuple[float, ...]
    checkpoint: SearchCheckpoint | None = None


def _evaluate(
    app: Application,
    plat: Platform,
    mapping: Mapping,
    model: CommModel,
    max_paths: int,
    engine: BatchEngine,
) -> float:
    if mapping.num_paths > max_paths:
        return float("inf")
    inst = Instance(app, plat, mapping)
    return engine.evaluate(inst, model).period


def _search_engine(engine: BatchEngine | None, max_paths: int) -> BatchEngine:
    """The caller's engine, or a fresh one budgeted like the scalar path."""
    return engine if engine is not None else BatchEngine(max_rows=max_paths + 1)


def random_mapping(
    app: Application,
    plat: Platform,
    rng: np.random.Generator,
    max_paths: int = 3000,
) -> Mapping:
    """Uniform random replicated mapping (at least one replica per stage)."""
    n, p = app.n_stages, plat.n_processors
    counts = random_replication(n, p, rng, max_paths=max_paths)
    perm = rng.permutation(p)
    bounds = np.cumsum((0,) + counts)
    return Mapping(
        [tuple(int(x) for x in perm[bounds[i]: bounds[i + 1]]) for i in range(n)],
        n_processors=p,
    )


def perturb_mapping(
    mapping: Mapping,
    rng: np.random.Generator,
    moves: int = 2,
    n_processors: int | None = None,
) -> Mapping:
    """Kick a mapping with ``moves`` random swap/move/rotate moves.

    The portfolio's *perturbed-elite* restarts climb from a randomized
    neighbor of the incumbent instead of a fresh random draw — close
    enough to inherit its structure, far enough to escape its basin.
    Every move preserves mapping validity (a processor still executes at
    most one stage), so the result always constructs.

    Examples
    --------
    >>> mp = Mapping([(0,), (1, 2), (3,)])
    >>> kicked = perturb_mapping(mp, np.random.default_rng(7), moves=3)
    >>> sorted(u for s in kicked.assignments for u in s)
    [0, 1, 2, 3]
    """
    assign = [list(s) for s in mapping.assignments]
    n = len(assign)
    for _ in range(max(0, moves)):
        kind = int(rng.integers(3))
        if kind == 0 and n >= 2:
            i, j = (int(x) for x in rng.choice(n, size=2, replace=False))
            a = int(rng.integers(len(assign[i])))
            b = int(rng.integers(len(assign[j])))
            assign[i][a], assign[j][b] = assign[j][b], assign[i][a]
        elif kind == 1 and n >= 2:
            donors = [i for i in range(n) if len(assign[i]) >= 2]
            if not donors:
                continue
            i = donors[int(rng.integers(len(donors)))]
            j = int(rng.integers(n - 1))
            j += j >= i
            proc = assign[i].pop(int(rng.integers(len(assign[i]))))
            assign[j].append(proc)
        else:
            stages = [i for i in range(n) if len(assign[i]) >= 2]
            if not stages:
                continue
            i = stages[int(rng.integers(len(stages)))]
            r = 1 + int(rng.integers(len(assign[i]) - 1))
            assign[i] = assign[i][r:] + assign[i][:r]
    return Mapping([tuple(s) for s in assign], n_processors=n_processors)


def greedy_mapping(
    app: Application,
    plat: Platform,
    model: CommModel | str = "overlap",
    max_paths: int = 3000,
    engine: BatchEngine | None = None,
    budget: _Budget | None = None,
) -> MappingSearchResult:
    """Greedy constructive heuristic.

    Starts from the period-minimizing one-to-one mapping of each stage to
    the fastest unused processor, then repeatedly grants one extra replica
    to the stage whose computation column currently dominates the period,
    choosing the fastest remaining processor — stopping when no grant
    improves the exact period (or processors run out).

    ``budget`` (an :class:`repro.search.EvaluationBudget`-style pool)
    bounds the oracle calls; when it runs dry the incumbent is returned
    (``period=inf`` and an empty trace if not even the seed mapping
    could be evaluated).
    """
    model = CommModel.parse(model)
    eng = _search_engine(engine, max_paths)
    n, p = app.n_stages, plat.n_processors
    if p < n:
        raise ValidationError("need at least one processor per stage")
    # Fastest processors first; seed assignment round-robins the best n.
    speed_order = list(np.argsort(-plat.speeds, kind="stable"))
    assign: list[list[int]] = [[int(speed_order[i])] for i in range(n)]
    free = [int(u) for u in speed_order[n:]]

    evaluations = 0

    def period_of(a: list[list[int]]) -> float:
        nonlocal evaluations
        _charge(budget)
        evaluations += 1
        return _evaluate(app, plat, Mapping([tuple(s) for s in a]), model, max_paths, eng)

    try:
        best = period_of(assign)
    except _BudgetExhausted:
        return MappingSearchResult(
            mapping=Mapping([tuple(s) for s in assign]),
            period=float("inf"), evaluations=evaluations, trace=(),
        )
    trace = [best]
    try:
        while free:
            candidate_best: tuple[float, int] | None = None
            u = free[0]
            for stage in range(n):
                trial = [list(s) for s in assign]
                trial[stage].append(u)
                val = period_of(trial)
                if candidate_best is None or val < candidate_best[0]:
                    candidate_best = (val, stage)
            if candidate_best is None or candidate_best[0] >= best:
                break
            best = candidate_best[0]
            assign[candidate_best[1]].append(u)
            free.pop(0)
            trace.append(best)
    except _BudgetExhausted:
        pass  # pool ran dry mid-scan: keep the incumbent
    return MappingSearchResult(
        mapping=Mapping([tuple(s) for s in assign]),
        period=best,
        evaluations=evaluations,
        trace=tuple(trace),
    )


def _neighborhood_moves(assign: list[list[int]]) -> list[list[list[int]]]:
    """All candidate moves of one hill-climbing iteration, in the fixed
    enumeration order the shuffled scan permutes.

    Moves: (a) swap two processors between stages, (b) move a spare or
    replicated processor to another stage, (c) rotate a stage's replica
    order (changes round-robin phase, which matters for comm pairing).
    """
    n = len(assign)
    moves: list[list[list[int]]] = []
    # (a) swaps
    for i in range(n):
        for j in range(i + 1, n):
            for a in range(len(assign[i])):
                for b in range(len(assign[j])):
                    trial = [list(s) for s in assign]
                    trial[i][a], trial[j][b] = trial[j][b], trial[i][a]
                    moves.append(trial)
    # (b) moves of a replica (only from stages with >= 2 replicas)
    for i in range(n):
        if len(assign[i]) < 2:
            continue
        for a in range(len(assign[i])):
            for j in range(n):
                if j == i:
                    continue
                trial = [list(s) for s in assign]
                proc = trial[i].pop(a)
                trial[j].append(proc)
                moves.append(trial)
    # (c) rotations
    for i in range(n):
        if len(assign[i]) >= 2:
            trial = [list(s) for s in assign]
            trial[i] = trial[i][1:] + trial[i][:1]
            moves.append(trial)
    return moves


def local_search_mapping(
    app: Application,
    plat: Platform,
    model: CommModel | str = "overlap",
    rng: np.random.Generator | None = None,
    start: Mapping | None = None,
    max_iters: int = 200,
    max_paths: int = 3000,
    engine: BatchEngine | None = None,
    n_jobs: int | None = None,
    budget: _Budget | None = None,
    checkpoint: SearchCheckpoint | None = None,
) -> MappingSearchResult:
    """First-improvement hill climbing over mapping neighborhoods.

    Moves: (a) swap two processors between stages, (b) move a spare or
    replicated processor to another stage, (c) rotate a stage's replica
    order (changes round-robin phase, which matters for comm pairing).

    With ``n_jobs`` set (0 = all cores, k > 1 = k workers) every
    iteration evaluates its whole candidate neighborhood through
    ``engine.evaluate(..., n_jobs=n_jobs)`` and *then* scans it in the
    same shuffled order for the first improving move — the
    accepted-solution trajectory is identical to the serial search, only
    ``evaluations`` grows (the serial path stops evaluating at the first
    improvement).  Worker processes are pooled per iteration, so the
    shared ``engine`` cache serves neighborhoods too small to shard;
    sharded chunks warm their own per-worker caches.

    ``budget`` bounds the oracle calls against a shared pool (see
    :class:`repro.search.EvaluationBudget`): the serial scan stops at
    the last granted evaluation; the batch scan takes a grant for its
    whole (truncated) neighborhood up front and refunds everything past
    the first improving move.  Budgeted searches therefore charge — and
    stop — exactly like the serial search at any ``n_jobs``, and the
    incumbent is returned when the pool dries either way.

    A search its budget paused mid-climb carries a
    :class:`SearchCheckpoint` on the result; pass it back as
    ``checkpoint=`` (with a fresh budget grant) to resume the climb
    exactly where it stopped — ``rng`` and ``start`` are then taken
    from the checkpoint and the arguments are ignored.  Pausing at any
    grant boundary and resuming is bit-identical to one uninterrupted
    climb given the same total grant, at any ``n_jobs``.
    """
    model = CommModel.parse(model)
    eng = _search_engine(engine, max_paths)
    if checkpoint is not None:
        rng = _restore_rng(checkpoint.rng_state)
        mapping = Mapping([tuple(s) for s in checkpoint.assignments],
                          n_processors=plat.n_processors)
        best = checkpoint.period
        prior_evals = checkpoint.evaluations
        prior_trace = checkpoint.trace
        iteration = checkpoint.iteration
        cursor = checkpoint.cursor
        order = None if checkpoint.order is None else \
            np.asarray(checkpoint.order, dtype=np.intp)
        started = checkpoint.started
    else:
        rng = rng if rng is not None else np.random.default_rng(0)
        mapping = start if start is not None \
            else random_mapping(app, plat, rng, max_paths)
        best = float("inf")
        prior_evals = 0
        prior_trace = ()
        iteration = 0
        cursor = 0
        order = None
        started = False

    evaluations = 0  # this grant only; the checkpoint carries the total
    trace: list[float] = []

    def paused() -> MappingSearchResult:
        """The incumbent plus a checkpoint to resume from (pool dried)."""
        cp = SearchCheckpoint(
            assignments=mapping.assignments,
            period=best,
            evaluations=prior_evals + evaluations,
            trace=prior_trace + tuple(trace),
            iteration=iteration,
            cursor=cursor,
            order=None if order is None else tuple(int(k) for k in order),
            rng_state=rng.bit_generator.state,
            started=started,
        )
        return MappingSearchResult(mapping=mapping, period=best,
                                   evaluations=evaluations,
                                   trace=tuple(trace), checkpoint=cp)

    if not started:
        if budget is not None and budget.take(1) == 0:
            return paused()
        evaluations += 1
        best = _evaluate(app, plat, mapping, model, max_paths, eng)
        started = True
        trace.append(best)

    while iteration < max_iters:
        assign = [list(s) for s in mapping.assignments]
        moves = _neighborhood_moves(assign)
        if order is None:
            order = rng.permutation(len(moves))
            cursor = 0
        candidates: list[tuple[int, Mapping]] = []
        for k in order:
            try:
                m2 = Mapping([tuple(s) for s in moves[int(k)]],
                             n_processors=plat.n_processors)
            except ValidationError:
                continue
            candidates.append((int(k), m2))
        improved = False
        pause = False
        if n_jobs is not None and n_jobs != 1:
            # Batch path: evaluate the whole remaining (valid)
            # neighborhood at once, then accept the first improving move
            # in shuffled order — the same move the serial scan accepts.
            # Budget truncation keeps the shuffled scan prefix, so the
            # trajectory matches the serial search up to the dry point.
            todo = candidates[cursor:]
            grant = len(todo) if budget is None else budget.take(len(todo))
            scan = todo[:grant]
            feasible = [(k, m2) for k, m2 in scan
                        if m2.num_paths <= max_paths]
            insts = [Instance(app, plat, m2) for _, m2 in feasible]
            results = eng.evaluate(insts, model, n_jobs=n_jobs)
            values = {k: float("inf") for k, _ in scan}
            values.update({k: r.period for (k, _), r in zip(feasible, results)})
            by_move = dict(scan)
            charged = grant
            for pos, (k, _) in enumerate(scan):
                if values[k] < best * (1 - 1e-12):
                    mapping, best = by_move[k], values[k]
                    trace.append(best)
                    improved = True
                    if budget is not None:
                        # Serial-equivalent cost: the sequential scan
                        # would have stopped at this move — refund the
                        # speculatively-granted remainder so budgeted
                        # searches charge identically at any n_jobs.
                        budget.refund(grant - (pos + 1))
                        charged = pos + 1
                    break
            evaluations += charged
            if not improved and grant < len(todo):
                cursor += grant
                pause = True
        else:
            pos = cursor
            while pos < len(candidates):
                k, m2 = candidates[pos]
                if budget is not None and budget.take(1) == 0:
                    cursor = pos
                    pause = True
                    break
                evaluations += 1
                val = _evaluate(app, plat, m2, model, max_paths, eng)
                if val < best * (1 - 1e-12):
                    mapping, best = m2, val
                    trace.append(best)
                    improved = True
                    break
                pos += 1
        if pause:
            return paused()
        if not improved:
            break
        iteration += 1
        order = None
        cursor = 0
    return MappingSearchResult(mapping=mapping, period=best,
                               evaluations=evaluations, trace=tuple(trace))
