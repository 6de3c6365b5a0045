"""Cached cycle-time plans: vectorized ``M_ct`` with byte-stable sums.

``classify_critical_resource`` re-enumerates every processor's in/out
communication windows in Python on each call — once the structural TPN
work left the batched path, that classification became ~30% of batched
evaluation time.  Like the TPN skeleton, the *structure* of the
cycle-time computation (which slot sums which transfer terms, over which
round-robin window) depends only on ``(model, replication counts)``: a
processor executes at most one stage (rule 1 of
:mod:`repro.core.mapping`), so each report entry is one slot of the
mapping's stage-then-replica order
(:attr:`~repro.core.mapping.Mapping.used_processors`) and each transfer
term pairs two slots.  Only the time values — and which processor ids
fill the slots — change per instance.

:class:`CycleTimePlan` caches that structure as flat slot-index arrays
so one instance's ``M_ct`` is a gather of its processor ids plus a
handful of vectorized expressions.

Bit-identity contract
---------------------
Every float operation mirrors the scalar path
(:func:`repro.core.cycle_time.cycle_times`) in IEEE-754 order:

* ``C_comp = (w_i / Pi_u) / m_i`` — two elementwise double divisions,
  exactly like ``inst.comp_time(stage, u) / m_i``;
* in/out port totals accumulate with :func:`numpy.add.at`, whose
  unbuffered in-place semantics apply additions **in term order** —
  the same left-to-right ``0.0 + t_0 + t_1 + ...`` as the scalar
  ``sum(...)``, never pairwise/tree summation (the byte-stable
  summation order the batched path requires);
* transfer durations are ``delta_i / b_{u,v}`` with infinite-bandwidth
  links contributing exactly ``+0.0`` like ``Platform.comm_time``;
* STRICT aggregation is the left-associated ``(cin + ccomp) + cout``;
  OVERLAP is the elementwise maximum.

``tests/test_engine_classify.py`` pins equality (``==`` on floats, not
approx) against the scalar classifier across random instances.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..algorithms.bounds import DEFAULT_REL_TOL
from ..core.instance import Instance
from ..core.models import CommModel
from ..telemetry import TELEMETRY
from ..utils import lcm_all
from .signature import slot_processors

__all__ = ["CycleTimePlan", "build_cycle_time_plan"]


@dataclass(frozen=True)
class CycleTimePlan:
    """Index-array formulation of ``cycle_times`` for one topology group.

    One entry per *used* processor, in the scalar path's
    stage-then-replica order — entry ``e`` is slot ``e``, whose processor
    id is ``slot_processors(inst)[e]``.  Term arrays are laid out
    entry-major and, within an entry, in the scalar path's
    ``j``-increasing window order, so sequential accumulation reproduces
    the scalar sums byte for byte.

    Attributes
    ----------
    model:
        Communication model the aggregation uses.
    entry_stage:
        Stage of each entry.
    entry_m:
        Replication count ``m_i`` of the entry's stage (the ``C_comp``
        divisor), as float.
    in_entry, in_src, in_file, in_window / out_entry, out_dst,
    out_file, out_window:
        Flattened transfer terms of the input (resp. output) port sums:
        owning entry, peer slot, file index, and the per-entry
        round-robin window divisor (1.0 for entries with no terms, whose
        total stays ``+0.0``).
    """

    model: CommModel
    entry_stage: npt.NDArray[np.int64]
    entry_m: npt.NDArray[np.int64]
    in_entry: npt.NDArray[np.int64]
    in_src: npt.NDArray[np.int64]
    in_file: npt.NDArray[np.int64]
    in_window: npt.NDArray[np.float64]
    out_entry: npt.NDArray[np.int64]
    out_dst: npt.NDArray[np.int64]
    out_file: npt.NDArray[np.int64]
    out_window: npt.NDArray[np.float64]

    @property
    def n_entries(self) -> int:
        """Number of used processors (= scalar report entries)."""
        return int(self.entry_stage.size)

    def components(
        self, inst: Instance, procs: npt.NDArray[np.int64] | None = None
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Per-entry ``(cin, ccomp, cout)`` of ``inst`` (vectorized).

        Bit-identical to the scalar
        :class:`~repro.core.cycle_time.ProcessorCycleTime` fields.
        ``procs`` is ``slot_processors(inst)``, gathered here when not
        passed.
        """
        if procs is None:
            procs = slot_processors(inst)
        works = np.asarray(inst.application.works, dtype=float)
        speeds = inst.platform.speeds
        ccomp = works[self.entry_stage] / speeds[procs] / self.entry_m

        n = self.n_entries
        sizes = np.asarray(inst.application.file_sizes, dtype=float)
        bw = inst.platform.bandwidths

        cin = np.zeros(n)
        if self.in_entry.size:
            # size / inf == +0.0, matching Platform.comm_time's fast-link
            # branch; np.add.at accumulates in term order (left to right
            # per entry), matching the scalar sum() byte for byte.
            terms = sizes[self.in_file] / bw[procs[self.in_src], procs[self.in_entry]]
            np.add.at(cin, self.in_entry, terms)
        cin = cin / self.in_window

        cout = np.zeros(n)
        if self.out_entry.size:
            terms = sizes[self.out_file] / bw[procs[self.out_entry], procs[self.out_dst]]
            np.add.at(cout, self.out_entry, terms)
        cout = cout / self.out_window
        return cin, ccomp, cout

    def mct(
        self, inst: Instance, procs: npt.NDArray[np.int64] | None = None
    ) -> float:
        """``M_ct`` of ``inst`` — equals ``cycle_times(inst, model).mct``."""
        cin, ccomp, cout = self.components(inst, procs)
        if self.model.overlap:
            cexec = np.maximum(np.maximum(cin, ccomp), cout)
        else:
            cexec = (cin + ccomp) + cout
        return float(cexec.max())

    def verdict(self, inst: Instance, period: float,
                rel_tol: float = DEFAULT_REL_TOL,
                procs: npt.NDArray[np.int64] | None = None,
                ) -> tuple[float, bool, float]:
        """``(mct, has_critical_resource, relative_gap)`` for a period.

        Same formulas as
        :func:`repro.algorithms.bounds.classify_critical_resource`, minus
        the per-resource report object the batched path never reads.
        """
        mct = self.mct(inst, procs)
        gap = (period - mct) / mct if mct > 0 else 0.0
        return mct, gap <= rel_tol, gap

    def components_many(
        self,
        instances: list[Instance],
        procs: npt.NDArray[np.int64] | None = None,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.float64], npt.NDArray[np.float64]]:
        """Per-entry ``(cin, ccomp, cout)`` of a whole group — ``(B, n)``.

        Row ``b`` equals ``components(instances[b])`` bit for bit: the
        port totals accumulate through ``np.bincount`` keyed by
        ``(row, entry)``, which scans its input once in C order — row
        ``b``'s terms add left to right in term order, exactly like the
        scalar per-instance ``np.add.at`` call.  Row ``b``'s processor
        ids are ``procs[b]`` (the group's ``(B, S)``
        :func:`~repro.engine.signature.slot_processors`).  Falls back to
        per-row evaluation when the group's platforms disagree in size.
        """
        if procs is None:
            procs = slot_processors(instances)
        B = len(instances)
        n = self.n_entries
        try:
            works = np.stack(
                [np.asarray(i.application.works, dtype=float) for i in instances]
            )
            speeds = np.stack([i.platform.speeds for i in instances])
            sizes = np.stack(
                [np.asarray(i.application.file_sizes, dtype=float) for i in instances]
            )
            bw = np.stack([i.platform.bandwidths for i in instances])
        except ValueError:  # ragged platforms: evaluate row by row
            cins = np.empty((B, n))
            ccomps = np.empty((B, n))
            couts = np.empty((B, n))
            for b, inst in enumerate(instances):
                cins[b], ccomps[b], couts[b] = self.components(inst, procs[b])
            return cins, ccomps, couts

        rows = np.arange(B)[:, None]
        ccomp = works[:, self.entry_stage] / speeds[rows, procs] / self.entry_m

        # bincount scans its input in C order, so row b's terms
        # accumulate left to right exactly like the scalar sum() (and
        # like np.add.at, several times faster).
        row_off = (np.arange(B) * n)[:, None]
        cin = np.zeros((B, n))
        if self.in_entry.size:
            terms = sizes[:, self.in_file] / bw[
                rows, procs[:, self.in_src], procs[:, self.in_entry]
            ]
            cin = np.bincount(
                (row_off + self.in_entry).ravel(), weights=terms.ravel(),
                minlength=B * n,
            ).reshape(B, n)
        cin = cin / self.in_window

        cout = np.zeros((B, n))
        if self.out_entry.size:
            terms = sizes[:, self.out_file] / bw[
                rows, procs[:, self.out_entry], procs[:, self.out_dst]
            ]
            cout = np.bincount(
                (row_off + self.out_entry).ravel(), weights=terms.ravel(),
                minlength=B * n,
            ).reshape(B, n)
        cout = cout / self.out_window
        return cin, ccomp, cout

    def mct_many(
        self,
        instances: list[Instance],
        procs: npt.NDArray[np.int64] | None = None,
    ) -> npt.NDArray[np.float64]:
        """``M_ct`` of every instance of a group — shape ``(B,)``."""
        cin, ccomp, cout = self.components_many(instances, procs)
        if self.model.overlap:
            cexec = np.maximum(np.maximum(cin, ccomp), cout)
        else:
            cexec = (cin + ccomp) + cout
        return cexec.max(axis=1)

    def verdict_many(
        self,
        instances: list[Instance],
        periods: npt.NDArray[np.float64],
        rel_tol: float = DEFAULT_REL_TOL,
        procs: npt.NDArray[np.int64] | None = None,
    ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.bool_], npt.NDArray[np.float64]]:
        """Batched :meth:`verdict` — ``(mct, critical, gap)`` arrays.

        ``periods`` aligns with ``instances``; entry ``b`` of each
        returned array is bit-identical to
        ``verdict(instances[b], periods[b], rel_tol)``.
        """
        mct = self.mct_many(instances, procs)
        periods = np.asarray(periods, dtype=float)
        gap = np.zeros(len(instances))
        pos = mct > 0
        gap[pos] = (periods[pos] - mct[pos]) / mct[pos]
        return mct, gap <= rel_tol, gap


def build_cycle_time_plan(
    inst: Instance, model: CommModel | str
) -> CycleTimePlan:
    """Extract the cycle-time index arrays from one representative.

    Any instance of the topology group works: the entry list, term
    layout and window divisors depend only on the mapping's replication
    counts (and the model, which only affects aggregation) — terms
    record peer *slots*, never processor ids.
    """
    model = CommModel.parse(model)
    if TELEMETRY.enabled:
        TELEMETRY.count("engine.plan_builds")
    counts = inst.mapping.replication_counts
    n_stages = len(counts)
    # first slot of each stage in the stage-then-replica order
    first = [sum(counts[:i]) for i in range(n_stages)]

    entry_stage: list[int] = []
    entry_m: list[float] = []
    in_entry: list[int] = []
    in_src: list[int] = []
    in_file: list[int] = []
    in_window: list[float] = []
    out_entry: list[int] = []
    out_dst: list[int] = []
    out_file: list[int] = []
    out_window: list[float] = []

    for stage, m_i in enumerate(counts):
        for replica in range(m_i):
            entry = first[stage] + replica
            entry_stage.append(stage)
            entry_m.append(float(m_i))

            win_in = 1.0
            if stage > 0:
                m_prev = counts[stage - 1]
                window = lcm_all([m_prev, m_i])
                win_in = float(window)
                for j in range(replica, window, m_i):
                    in_entry.append(entry)
                    in_src.append(first[stage - 1] + j % m_prev)
                    in_file.append(stage - 1)
            in_window.append(win_in)

            win_out = 1.0
            if stage < n_stages - 1:
                m_next = counts[stage + 1]
                window = lcm_all([m_i, m_next])
                win_out = float(window)
                for j in range(replica, window, m_i):
                    out_entry.append(entry)
                    out_dst.append(first[stage + 1] + j % m_next)
                    out_file.append(stage)
            out_window.append(win_out)

    as_i = lambda xs: np.asarray(xs, dtype=np.int64)  # noqa: E731
    return CycleTimePlan(
        model=model,
        entry_stage=as_i(entry_stage),
        entry_m=np.asarray(entry_m),
        in_entry=as_i(in_entry),
        in_src=as_i(in_src),
        in_file=as_i(in_file),
        in_window=np.asarray(in_window),
        out_entry=as_i(out_entry),
        out_dst=as_i(out_dst),
        out_file=as_i(out_file),
        out_window=np.asarray(out_window),
    )
