"""Theorem-1 pattern plans: batched solves against the generic oracle.

:func:`~repro.algorithms.overlap_poly.overlap_period_many` solves every
communication component of a batch against one cached Howard plan per
``(u, v)`` torus, in lockstep for large buckets.  These tests hold it to
the generic path it replaced, field for field and bit for bit:

* the reference breakdown is rebuilt here from scalar primitives
  (``Instance.comp_time`` / ``Instance.comm_time`` per cell, a fresh
  ``RatioGraph`` per component, ``max_cycle_ratio``'s ``"auto"`` path);
* results do not depend on the batch around an instance (shuffled,
  split, or alone) nor on the lockstep threshold;
* a Howard failure falls back, per row, to the ``"auto"`` Lawler path.
"""

from __future__ import annotations

import math
from dataclasses import fields
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.algorithms import overlap_poly
from repro.algorithms.overlap_poly import (
    ColumnContribution,
    OverlapBreakdown,
    overlap_period,
    overlap_period_many,
)
from repro.engine import BatchEngine
from repro.errors import SolverError
from repro.experiments.examples_paper import example_a, example_b, example_c
from repro.faults import FAULTS, FaultPlan
from repro.maxplus import howard
from repro.maxplus.cycle_ratio import max_cycle_ratio
from repro.petri.reduction import CommPattern, CompColumn
from repro.telemetry import TELEMETRY

#: Lockstep thresholds every property runs under: all-lockstep, the
#: shipped crossover, and all-scalar.
THRESHOLDS = (1, overlap_poly.LOCKSTEP_MIN_ROWS, 10**9)


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def reference_breakdown(inst: Instance) -> OverlapBreakdown:
    """Theorem 1 through the generic path, one scalar primitive at a time."""
    mapping = inst.mapping
    n = inst.n_stages
    cols = []
    for i in range(n):
        procs = mapping.processors_of(i)
        per = tuple((u, inst.comp_time(i, u)) for u in procs)
        crit_u, crit_t = max(per, key=lambda x: x[1])
        comp = CompColumn(i, per, crit_t / len(procs), crit_u)
        cols.append(ColumnContribution(2 * i, "comp", i, comp.contribution,
                                       comp=comp))
        if i == n - 1:
            continue
        p, u, v, window = mapping.comm_structure(i)
        senders_all = mapping.processors_of(i)
        receivers_all = mapping.processors_of(i + 1)
        a, b = len(senders_all), len(receivers_all)
        pats = []
        for g in range(p):
            snd = tuple(senders_all[(g + al * b) % a] for al in range(u))
            rcv = tuple(receivers_all[(g + be * a) % b] for be in range(v))
            durations = np.array(
                [[inst.comm_time(i, s, r) for r in rcv] for s in snd])
            pats.append(CommPattern(i, g, p, u, v, window, snd, rcv, durations))
        value = max(max_cycle_ratio(pat.to_ratio_graph()).value / pat.window
                    for pat in pats)
        cols.append(ColumnContribution(2 * i + 1, "comm", i, value,
                                       patterns=tuple(pats)))
    return OverlapBreakdown(max(c.value for c in cols), tuple(cols))


def assert_same_breakdown(got: OverlapBreakdown, want: OverlapBreakdown) -> None:
    """Every field equal, floats and duration arrays bit for bit."""
    assert _bits(got.period) == _bits(want.period)
    assert len(got.columns) == len(want.columns)
    for x, y in zip(got.columns, want.columns):
        assert (x.column, x.kind, x.stage_or_file) == \
            (y.column, y.kind, y.stage_or_file)
        assert _bits(x.value) == _bits(y.value)
        assert x.comp == y.comp
        assert len(x.patterns) == len(y.patterns)
        for pat, ref in zip(x.patterns, y.patterns):
            for f in fields(CommPattern):
                if f.name == "durations":
                    assert pat.durations.shape == ref.durations.shape
                    assert pat.durations.tobytes() == ref.durations.tobytes()
                    assert not pat.durations.flags.writeable
                else:
                    assert getattr(pat, f.name) == getattr(ref, f.name)


count_vectors = st.lists(st.integers(1, 6), min_size=1, max_size=4)


@st.composite
def overlap_instances(draw, counts=None):
    """Random heterogeneous instance: spare processors, inf links, 0-size files."""
    if counts is None:
        counts = draw(count_vectors)
    n = len(counts)
    p = sum(counts) + draw(st.integers(0, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    speeds = rng.integers(1, 60, p) / 7.0
    bw = rng.integers(1, 60, (p, p)) / 7.0
    bw[rng.random((p, p)) < draw(st.sampled_from([0.0, 0.2, 1.0]))] = math.inf
    np.fill_diagonal(bw, 0.0)
    sizes = rng.integers(1, 60, n - 1) / 7.0
    sizes[rng.random(n - 1) < draw(st.sampled_from([0.0, 0.3]))] = 0.0
    used = rng.permutation(p)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(int(x) for x in used[bounds[i]:bounds[i + 1]]) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=(rng.integers(1, 60, n) / 7.0).tolist(),
                      file_sizes=sizes.tolist())
    return Instance(app, Platform(speeds, bw), mapping)


@st.composite
def batches(draw):
    """Several instances sharing one count vector (a full lockstep bucket
    for small thresholds) plus a few of other shapes, in random order."""
    counts = draw(count_vectors)
    batch = [draw(overlap_instances(counts)) for _ in range(draw(st.integers(1, 5)))]
    batch += [draw(overlap_instances()) for _ in range(draw(st.integers(0, 3)))]
    return draw(st.permutations(batch))


class TestOracle:
    @given(batches())
    @settings(max_examples=40, deadline=None)
    def test_batch_equals_generic_path(self, batch):
        want = [reference_breakdown(inst) for inst in batch]
        for threshold in THRESHOLDS:
            with mock.patch.object(overlap_poly, "LOCKSTEP_MIN_ROWS", threshold):
                got = overlap_period_many(batch)
            for g, w in zip(got, want):
                assert_same_breakdown(g, w)
                # Column values are the generic per-pattern ratios.
                for col in g.columns:
                    if col.kind == "comm":
                        assert _bits(col.value) == _bits(max(
                            max_cycle_ratio(p.to_ratio_graph()).value / p.window
                            for p in col.patterns))

    @given(batches(), st.data())
    @settings(max_examples=25, deadline=None)
    def test_independent_of_batch_composition(self, batch, data):
        with mock.patch.object(overlap_poly, "LOCKSTEP_MIN_ROWS", 2):
            whole = overlap_period_many(batch)
            order = data.draw(st.permutations(range(len(batch))))
            shuffled = overlap_period_many([batch[k] for k in order])
            cut = data.draw(st.integers(0, len(batch)))
            split = overlap_period_many(batch[:cut]) + overlap_period_many(batch[cut:])
            alone = [overlap_period(inst) for inst in batch]
        for k, bd in enumerate(whole):
            assert_same_breakdown(shuffled[order.index(k)], bd)
            assert_same_breakdown(split[k], bd)
            assert_same_breakdown(alone[k], bd)

    def test_paper_examples(self):
        batch = [example_a(), example_b(), example_c()] * 3
        for got, inst in zip(overlap_period_many(batch), batch):
            assert_same_breakdown(got, reference_breakdown(inst))

    def test_empty_and_single_stage(self):
        assert overlap_period_many([]) == []
        inst = Instance(Application(works=[3.0], file_sizes=[]),
                        Platform.homogeneous(3), Mapping([(0, 2)], n_processors=3))
        (bd,) = overlap_period_many([inst])
        assert_same_breakdown(bd, reference_breakdown(inst))


class TestFallback:
    @pytest.mark.parametrize("threshold", [1, 10**9])
    def test_howard_failure_falls_back_to_lawler(self, threshold):
        def fail(*args, **kwargs):
            raise SolverError("injected")

        batch = [example_a(), example_b(), example_c()]
        with mock.patch.object(howard, "solve_prepared", fail), \
                mock.patch.object(howard, "solve_prepared_many", fail), \
                mock.patch.object(overlap_poly, "LOCKSTEP_MIN_ROWS", threshold):
            got = overlap_period_many(batch)
            auto = [[max(max_cycle_ratio(p.to_ratio_graph()).value / p.window
                         for p in col.patterns)
                     for col in bd.columns if col.kind == "comm"]
                    for bd in got]
        for bd, auto_vals in zip(got, auto):
            comm = [col for col in bd.columns if col.kind == "comm"]
            assert [c.value for c in comm] == auto_vals
            lawler = [max(max_cycle_ratio(p.to_ratio_graph(), "lawler").value
                          / p.window for p in col.patterns) for col in comm]
            assert [c.value for c in comm] == lawler


class TestPlans:
    def test_plan_is_shared_and_read_only(self):
        plan = overlap_poly._torus_plan(3, 5)
        assert overlap_poly._torus_plan(3, 5) is plan
        with pytest.raises(ValueError):
            plan.tokens[0] = 2
        for comp in plan.components:
            for f in fields(comp):
                arr = getattr(comp, f.name)
                if isinstance(arr, np.ndarray):
                    assert not arr.flags.writeable

    def test_counters_do_not_touch_tpn_lockstep(self):
        # Example C, F_1: 3 components of one 7 x 9 torus per instance.
        batch = [example_c()] * 4
        TELEMETRY.enable("t")
        try:
            with mock.patch.object(overlap_poly, "LOCKSTEP_MIN_ROWS", 8):
                overlap_period_many(batch, plans={})
            counters = TELEMETRY.counter_snapshot()
        finally:
            TELEMETRY.disable()
        rows = sum(len(c.patterns) for c in overlap_period(example_c()).columns)
        assert counters["poly.pattern_rows"] == 4 * rows
        assert counters["poly.plan_builds"] == len(
            {(p.u, p.v) for c in overlap_period(example_c()).columns
             for p in c.patterns})
        # Buckets: 4 rows of 5 x 21, 12 of 7 x 9, 4 of 27 x 11.
        assert counters["poly.lockstep_rows"] == 12
        assert "howard.lockstep_rows" not in counters
        assert "howard.lockstep_solves" not in counters


class TestEngine:
    @given(batches())
    @settings(max_examples=15, deadline=None)
    def test_many_equals_compute_period(self, batch):
        pairs = [(inst, model) for inst in batch for model in ("overlap", "strict")]
        got = BatchEngine().evaluate([i for i, _ in pairs], [m for _, m in pairs])
        for (inst, model), res in zip(pairs, got):
            ref = compute_period(inst, model)
            assert _bits(res.period) == _bits(ref.period)
            assert res.mct == ref.mct
            assert res.has_critical_resource == ref.has_critical_resource
            if model == "overlap":
                assert_same_breakdown(res.breakdown, ref.breakdown)

    def test_per_point_faults_stats_and_contract_counters(self):
        batch = [example_a(), example_b(), example_c(), example_a()]
        FAULTS.arm(FaultPlan.single("engine.evaluate", "stall", at=10**6))
        TELEMETRY.enable("t")
        try:
            engine = BatchEngine()
            engine.evaluate(batch, "overlap")
            counters = TELEMETRY.counter_snapshot()
            hits = FAULTS.hits("engine.evaluate")
        finally:
            TELEMETRY.disable()
            FAULTS.disarm()
        assert hits == len(batch)
        assert engine.stats.evaluated == engine.stats.scalar_solves == len(batch)
        assert counters["engine.points"] == len(batch)
        assert counters["engine.points.polynomial"] == len(batch)
        assert counters["engine.paths"] == sum(i.num_paths for i in batch)
        # Each engine fetches each torus plan once.
        assert counters["poly.plan_builds"] == len(engine._torus_plans)
