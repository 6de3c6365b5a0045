"""Cached TPN skeletons: build once per topology, re-stamp weights per instance.

A :class:`TpnSkeleton` captures everything about a ``(model, replication
counts)`` group that does not depend on the instance's times or on
which processors fill its replica slots (see
:mod:`repro.engine.signature`: a processor executes at most one stage,
rule 1 of :mod:`repro.core.mapping`, so the net's structure is a function
of the counts alone):

* the net's transition layout, flattened into numpy arrays
  (``comp_mask``, ``stage_or_file``, ``slot_u``, ``slot_v``) that let
  :meth:`TpnSkeleton.stamp_durations` compute all firing durations with
  three vectorized expressions instead of ``m * (2n - 1)`` Python calls;
  ``slot_u``/``slot_v`` index the mapping's stage-then-replica order
  (:attr:`~repro.core.mapping.Mapping.used_processors`), and each
  instance's processor ids are gathered from it at stamp time;
* the place list as ``(edge_src, edge_dst, edge_tokens)`` arrays — the
  cycle-ratio graph's structure;
* the CSR-prepared Howard plan
  (:func:`repro.maxplus.howard.prepare_howard`), so repeated solves skip
  the liveness check, Tarjan's SCC pass, subgraph extraction and the
  per-SCC edge sort.

:meth:`TpnSkeleton.solve_many` is the group fast path: it stamps every
instance of a topology group into one ``(B, E)`` weight matrix and runs
:func:`repro.maxplus.howard.solve_prepared_many` — lockstep policy
iteration across the whole batch — instead of ``B`` scalar solves.

Bit-identical contract: the duration formulas mirror
:meth:`repro.core.platform.Platform.comp_time` / ``comm_time``
(elementwise IEEE-754 double divisions in the same order), the edge
weights reproduce :meth:`repro.petri.net.TimedEventGraph.to_ratio_graph`
(weight of a place = duration of its input transition), and the solve
delegates to the same :func:`~repro.maxplus.howard.solve_prepared` /
Lawler-fallback dispatch as :func:`repro.maxplus.cycle_ratio.max_cycle_ratio`
with ``method="auto"``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..core.instance import Instance
from ..core.models import CommModel
from ..errors import ReplicationExplosionError, SolverError
from ..maxplus.cycle_ratio import CycleRatioResult
from ..maxplus.graph import RatioGraph
from ..maxplus.howard import (
    HowardPlan,
    HowardState,
    prepare_howard,
    solve_prepared,
    solve_prepared_many,
)
from ..maxplus.lawler import max_cycle_ratio_lawler
from ..petri.builder import DEFAULT_MAX_ROWS, build_tpn
from ..telemetry import TELEMETRY
from .signature import slot_processors

__all__ = ["TpnSkeleton", "build_skeleton"]


@dataclass(frozen=True)
class TpnSkeleton:
    """Structural cache entry for one ``(model, replication counts)`` group.

    Attributes
    ----------
    model:
        Communication model the net was built for.
    m:
        Number of TPN rows ``lcm(m_i)`` (also the period divisor).
    n_transitions:
        ``m * (2n - 1)``.
    comp_mask:
        Boolean per transition: ``True`` for computations.
    stage_or_file:
        Stage index (computations) or file index (transmissions).
    slot_u, slot_v:
        Slot (index into ``mapping.used_processors``) of the executing
        processor, resp. of the (sender, receiver) pair; ``slot_v`` is
        ``-1`` on computation rows.
    edge_src, edge_dst, edge_tokens:
        Place arrays of the reduced cycle-ratio graph.
    plan:
        CSR-prepared Howard solver plan for the graph's structure.
    """

    model: CommModel
    m: int
    n_transitions: int
    comp_mask: npt.NDArray[np.bool_]
    stage_or_file: npt.NDArray[np.int64]
    slot_u: npt.NDArray[np.int64]
    slot_v: npt.NDArray[np.int64]
    edge_src: npt.NDArray[np.int64]
    edge_dst: npt.NDArray[np.int64]
    edge_tokens: npt.NDArray[np.int64]
    plan: HowardPlan

    def check_budget(self, max_rows: int | None) -> None:
        """Enforce the row budget exactly like :func:`build_tpn` would."""
        if max_rows is not None and self.m > max_rows:
            raise ReplicationExplosionError(self.m, max_rows)

    def stamp_durations(
        self, inst: Instance, procs: npt.NDArray[np.int64] | None = None
    ) -> npt.NDArray[np.float64]:
        """Per-transition firing durations of ``inst`` (vectorized).

        Equals ``[t.duration for t in build_tpn(inst, model).transitions]``
        bit-for-bit: ``w_i / Pi_u`` for computations, ``delta_i / b_{u,v}``
        for transmissions (0 on infinite-bandwidth links, exactly as
        :meth:`Platform.comm_time` returns).  ``procs`` is
        ``slot_processors(inst)``, gathered here when not passed.
        """
        if procs is None:
            procs = slot_processors(inst)
        dur = np.empty(self.n_transitions)
        cm = self.comp_mask
        works = np.asarray(inst.application.works, dtype=float)
        dur[cm] = works[self.stage_or_file[cm]] / inst.platform.speeds[
            procs[self.slot_u[cm]]
        ]
        comm = ~cm
        if comm.any():
            sizes = np.asarray(inst.application.file_sizes, dtype=float)
            # size / inf == 0.0, matching Platform.comm_time's fast-link case.
            dur[comm] = sizes[self.stage_or_file[comm]] / inst.platform.bandwidths[
                procs[self.slot_u[comm]], procs[self.slot_v[comm]]
            ]
        return dur

    def stamp_weights(
        self, inst: Instance, procs: npt.NDArray[np.int64] | None = None
    ) -> npt.NDArray[np.float64]:
        """Edge weights of the cycle-ratio graph for ``inst``.

        The weight of a place is the duration of its *input* transition
        (see :meth:`TimedEventGraph.to_ratio_graph`).
        """
        return self.stamp_durations(inst, procs)[self.edge_src]

    def solve(
        self,
        inst: Instance,
        solver: str = "auto",
        state: HowardState | None = None,
        procs: npt.NDArray[np.int64] | None = None,
    ) -> CycleRatioResult:
        """Maximum cycle ratio for ``inst`` on the cached structure.

        Mirrors :func:`repro.maxplus.cycle_ratio.max_cycle_ratio`'s
        ``"auto"``/``"howard"``/``"lawler"`` dispatch (Karp is pointless
        here: round-robin wrap places mean tokens are not all 1).

        ``state`` optionally warm-starts Howard's policy iteration from
        the previous solve on this skeleton (see
        :class:`~repro.maxplus.howard.HowardState`); the period *value*
        is unchanged, but the extracted critical cycle may differ on
        exact ties, which is why :class:`~repro.engine.batch.BatchEngine`
        keeps warm starting opt-in.  ``procs`` as in
        :meth:`stamp_durations`.
        """
        weights = self.stamp_weights(inst, procs)
        if solver == "lawler":
            return CycleRatioResult(
                max_cycle_ratio_lawler(self._graph(weights)), (), (), "lawler"
            )
        if solver not in ("auto", "howard"):
            raise ValueError(f"unknown method {solver!r}")
        try:
            res = solve_prepared(self.plan, weights, state=state)
            return CycleRatioResult(res.value, res.cycle_nodes, res.cycle_edges, "howard")
        except SolverError:
            if solver == "howard":
                raise
            return CycleRatioResult(
                max_cycle_ratio_lawler(self._graph(weights)), (), (), "lawler"
            )

    def stamp_durations_many(
        self,
        instances: list[Instance],
        procs: npt.NDArray[np.int64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """``(B, n_transitions)`` firing-duration matrix of a whole group.

        Row ``b`` equals ``stamp_durations(instances[b])`` bit for bit:
        the stacked formulation performs the same elementwise IEEE-754
        divisions, just over a batch axis, with row ``b``'s processor
        ids gathered as ``procs[b, slot]`` (``procs`` is the group's
        ``(B, S)`` :func:`~repro.engine.signature.slot_processors`).
        Falls back to per-row stamping when the group's platforms
        disagree in size (legal — the signature pins only the
        replication counts, so members may use different processors
        of different platforms).
        """
        if procs is None:
            procs = slot_processors(instances)
        dur = np.empty((len(instances), self.n_transitions))
        try:
            works = np.stack(
                [np.asarray(i.application.works, dtype=float) for i in instances]
            )
            speeds = np.stack([i.platform.speeds for i in instances])
        except ValueError:  # ragged platforms: stamp row by row
            for b, inst in enumerate(instances):
                dur[b] = self.stamp_durations(inst, procs[b])
            return dur
        rows = np.arange(len(instances))[:, None]
        cm = self.comp_mask
        dur[:, cm] = works[:, self.stage_or_file[cm]] / speeds[
            rows, procs[:, self.slot_u[cm]]
        ]
        comm = ~cm
        if comm.any():
            sizes = np.stack(
                [np.asarray(i.application.file_sizes, dtype=float) for i in instances]
            )
            bw = np.stack([i.platform.bandwidths for i in instances])
            dur[:, comm] = sizes[:, self.stage_or_file[comm]] / bw[
                rows, procs[:, self.slot_u[comm]], procs[:, self.slot_v[comm]]
            ]
        return dur

    def stamp_weights_many(
        self,
        instances: list[Instance],
        procs: npt.NDArray[np.int64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """``(B, n_edges)`` cycle-ratio weight matrix of a whole group."""
        return self.stamp_durations_many(instances, procs)[:, self.edge_src]

    def solve_many(
        self,
        instances: list[Instance],
        solver: str = "auto",
        state: HowardState | None = None,
        procs: npt.NDArray[np.int64] | None = None,
    ) -> list[CycleRatioResult]:
        """Maximum cycle ratios for a whole topology group, in lockstep.

        Stamps every instance's weights into one ``(B, E)`` matrix and
        runs :func:`~repro.maxplus.howard.solve_prepared_many` — policy
        iteration for all rows simultaneously.  Cold results are
        bit-identical to per-instance :meth:`solve` calls.

        ``state`` optionally carries one shared
        :class:`~repro.maxplus.howard.HowardState`: every row seeds from
        the state's current policy and the state leaves with the last
        row's converged policy, so consecutive group solves chain like
        consecutive scalar solves.  Values are unchanged (warm starts
        never change values), but round counts and exact-tie cycle
        extraction follow the group seeding rather than the scalar
        instance-to-instance chaining.

        Any :class:`~repro.errors.SolverError` from the lockstep path
        (non-convergence, acyclic graph) falls back to per-instance
        :meth:`solve` so errors and Lawler dispatch behave exactly like
        the scalar path, row by row.  ``procs`` as in
        :meth:`stamp_durations_many`.
        """
        if solver == "lawler":
            return [self.solve(inst, solver="lawler") for inst in instances]
        if solver not in ("auto", "howard"):
            raise ValueError(f"unknown method {solver!r}")
        try:
            weights = self.stamp_weights_many(instances, procs)
            many = solve_prepared_many(self.plan, weights, state=state)
            return [
                CycleRatioResult(r.value, r.cycle_nodes, r.cycle_edges, "howard")
                for r in many
            ]
        except SolverError:
            if TELEMETRY.enabled:
                TELEMETRY.count("engine.group_fallbacks")
                TELEMETRY.count("engine.group_fallback_rows", len(instances))
            return [
                self.solve(inst, solver=solver, state=state) for inst in instances
            ]

    def _graph(self, weights: npt.NDArray[np.float64]) -> RatioGraph:
        """Materialize the full ratio graph (Lawler fallback only)."""
        return RatioGraph(
            self.n_transitions,
            zip(self.edge_src, self.edge_dst, weights, self.edge_tokens),
        )


def build_skeleton(
    inst: Instance,
    model: CommModel | str,
    max_rows: int | None = DEFAULT_MAX_ROWS,
) -> TpnSkeleton:
    """Build the structural skeleton from one representative instance.

    Any instance of the topology group works as representative: the
    extracted arrays and the Howard plan depend only on the model and
    the mapping's replication counts — transitions record the *slot* of
    their processors, never the processor id.
    """
    model = CommModel.parse(model)
    net = build_tpn(inst, model, max_rows=max_rows)
    graph = net.to_ratio_graph()
    plan = prepare_howard(graph)

    n_t = net.n_transitions
    comp_mask = np.empty(n_t, dtype=bool)
    stage_or_file = np.empty(n_t, dtype=np.int64)
    slot_u = np.empty(n_t, dtype=np.int64)
    slot_v = np.full(n_t, -1, dtype=np.int64)
    slot_of = {u: s for s, u in enumerate(inst.mapping.used_processors)}
    for t in net.transitions:
        comp_mask[t.index] = t.kind == "comp"
        stage_or_file[t.index] = t.stage_or_file
        slot_u[t.index] = slot_of[t.procs[0]]
        if t.kind == "comm":
            slot_v[t.index] = slot_of[t.procs[1]]

    return TpnSkeleton(
        model=model,
        m=net.n_rows,
        n_transitions=n_t,
        comp_mask=comp_mask,
        stage_or_file=stage_or_file,
        slot_u=slot_u,
        slot_v=slot_v,
        edge_src=graph.src,
        edge_dst=graph.dst,
        edge_tokens=graph.tokens,
        plan=plan,
    )
