"""Group (lockstep) evaluation path of the batch engine.

Pins the group contracts: sequence `evaluate` results are bit-identical to
per-pair evaluation and to `compute_period`, whether the batch is one topology
group or mixes topologies, and the batched `CycleTimePlan.verdict_many` equals
the scalar verdict.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform
from repro.core.throughput import compute_period
from repro.engine import (
    MIN_GROUP_ROWS,
    BatchEngine,
    build_cycle_time_plan,
    evaluate,
)


def group_sweep(counts, n_instances, seed=0, works=None):
    """Instances sharing one mapping topology, drawn times."""
    rng = np.random.default_rng(seed)
    counts = list(counts)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(
        works=works if works is not None else [1.0] * n,
        file_sizes=[1.0] * (n - 1),
    )
    out = []
    for _ in range(n_instances):
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def mixed_label_sweep(counts, n_instances, seed=0, big_extra=5):
    """Instances sharing replication counts on *different* processors.

    Each draw places the stages on a random subset of a platform with
    two unused processors; the last one lives on a platform with
    ``big_extra`` spares, so for ``big_extra != 2`` a group stacks
    ragged platforms.
    """
    rng = np.random.default_rng(seed)
    counts = list(counts)
    n = len(counts)
    bounds = np.cumsum([0] + counts)
    app = Application(works=list(rng.uniform(1.0, 4.0, n)),
                      file_sizes=list(rng.uniform(1.0, 4.0, n - 1)))
    out = []
    for b in range(n_instances):
        p = sum(counts) + (big_extra if b == n_instances - 1 else 2)
        used = rng.permutation(p)
        mapping = Mapping(
            [tuple(int(u) for u in used[bounds[i]:bounds[i + 1]]) for i in range(n)],
            n_processors=p,
        )
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def assert_same_result(a, b):
    assert a.period == b.period
    assert a.throughput == b.throughput
    assert a.mct == b.mct
    assert a.has_critical_resource == b.has_critical_resource
    assert a.method == b.method
    assert a.m == b.m
    if a.tpn_solution is not None:
        assert a.tpn_solution.ratio == b.tpn_solution.ratio


class TestGroupBitIdentity:
    def test_group_matches_compute_period(self):
        insts = group_sweep((2, 3, 1), 16, seed=1)
        grouped = evaluate(insts, "strict", method="tpn")
        for inst, res in zip(insts, grouped):
            assert_same_result(res, compute_period(inst, "strict", method="tpn"))

    def test_group_matches_per_pair_engine(self):
        insts = group_sweep((6, 10, 15), 12, seed=2)
        scalar_engine = BatchEngine()
        scalar = [scalar_engine.evaluate(i, "strict") for i in insts]
        group_engine = BatchEngine()
        grouped = group_engine.evaluate(insts, "strict")
        for s, g in zip(scalar, grouped):
            assert_same_result(s, g)
        # Cache-stat parity with the per-pair loop.
        assert group_engine.stats.evaluated == scalar_engine.stats.evaluated
        assert group_engine.stats.hits == scalar_engine.stats.hits
        assert group_engine.stats.misses == scalar_engine.stats.misses

    def test_mixed_topology_stream_preserves_order(self):
        a = group_sweep((2, 3, 1), 5, seed=3)
        b = group_sweep((3, 2, 1), 4, seed=4)
        interleaved = [a[0], a[1], b[0], b[1], b[2], a[2], a[3], a[4], b[3]]
        engine = BatchEngine()
        grouped = engine.evaluate(interleaved, "strict")
        for inst, res in zip(interleaved, grouped):
            assert_same_result(res, compute_period(inst, "strict", method="tpn"))

    def test_stream_and_batch_agree_with_group_path(self):
        insts = group_sweep((2, 3, 1), MIN_GROUP_ROWS * 4, seed=5)
        engine = BatchEngine()
        streamed = [engine.evaluate(i, "strict", method="tpn") for i in insts]
        batched = evaluate(insts, "strict", method="tpn")
        for s, b in zip(streamed, batched):
            assert_same_result(s, b)

    def test_sharded_matches_serial_group_path(self):
        insts = group_sweep((2, 3, 1), 24, seed=6)
        serial = evaluate(insts, "strict", method="tpn")
        sharded = evaluate(insts, "strict", method="tpn", n_jobs=2)
        for s, p in zip(serial, sharded):
            assert_same_result(s, p)

    def test_warm_group_values_match_cold(self):
        insts = group_sweep((6, 10, 15), 10, seed=7)
        cold = evaluate(insts, "strict", method="tpn")
        warm = BatchEngine(warm_start=True).evaluate(insts, "strict")
        for c, w in zip(cold, warm):
            assert c.period == w.period
            assert c.mct == w.mct
            assert c.has_critical_resource == w.has_critical_resource

    def test_overlap_auto_routes_polynomial_per_pair(self):
        insts = group_sweep((2, 2, 1), 6, seed=8)
        grouped = BatchEngine().evaluate(insts, "overlap")
        for inst, res in zip(insts, grouped):
            assert res.method == "polynomial"
            assert res.period == compute_period(inst, "overlap").period


class TestMixedLabelGroups:
    """One count signature, different processors: the lockstep hot path."""

    # "group": the batch is exactly one topology group; "many": the group
    # sits between instances of two other topologies.
    @pytest.mark.parametrize("batch", ["group", "many"])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_rows_match_compute_period(self, batch, ragged):
        insts = mixed_label_sweep((2, 3, 1), MIN_GROUP_ROWS + 3, seed=21,
                                  big_extra=5 if ragged else 2)
        assert len({i.mapping.assignments for i in insts}) == len(insts)
        others = group_sweep((1, 2), 1, seed=23) + group_sweep((2, 1), 1, seed=24)
        if batch == "many":
            insts = others[:1] + insts + others[1:]
        engine = BatchEngine()
        grouped = engine.evaluate(insts, "strict")
        for inst, res in zip(insts, grouped):
            assert_same_result(res, compute_period(inst, "strict", method="tpn"))
        assert engine.stats.group_solves == 1
        assert engine.stats.misses == (1 if batch == "group" else 3)

    def test_stamps_and_verdicts_match_per_row(self):
        insts = mixed_label_sweep((3, 2, 2), 6, seed=22, big_extra=2)
        engine = BatchEngine()
        sk = engine.skeleton(insts[0], "strict")
        plan = build_cycle_time_plan(insts[0], "strict")
        weights = sk.stamp_weights_many(insts)
        periods = np.arange(1.0, len(insts) + 1.0)
        mct, crit, gap = plan.verdict_many(insts, periods)
        for b, inst in enumerate(insts):
            assert np.array_equal(weights[b], sk.stamp_weights(inst))
            assert (float(mct[b]), bool(crit[b]), float(gap[b])) == \
                plan.verdict(inst, float(periods[b]))


class TestVerdictMany:
    @pytest.mark.parametrize("model", ["strict", "overlap"])
    def test_matches_scalar_verdict(self, model):
        insts = group_sweep((2, 3, 1), 9, seed=9, works=[2.0, 3.0, 5.0])
        plan = build_cycle_time_plan(insts[0], model)
        periods = np.asarray(
            [compute_period(i, model, method="tpn").period for i in insts]
        )
        mct, crit, gap = plan.verdict_many(insts, periods)
        for b, inst in enumerate(insts):
            s_mct, s_crit, s_gap = plan.verdict(inst, float(periods[b]))
            assert float(mct[b]) == s_mct
            assert bool(crit[b]) == s_crit
            assert float(gap[b]) == s_gap


class TestEvaluateGroupValidation:
    def test_single_topology_group_is_fine(self):
        insts = group_sweep((2, 1), 3, seed=14)
        res = BatchEngine().evaluate(insts, "strict")
        for inst, r in zip(insts, res):
            assert r.period == compute_period(inst, "strict", method="tpn").period


class TestEngineJobsValidation:
    def test_engine_with_serial_jobs_is_fine(self):
        insts = group_sweep((2, 1), 4, seed=11)
        engine = BatchEngine()
        res = engine.evaluate(insts, "strict", n_jobs=1)
        assert len(res) == 4 and engine.stats.evaluated == 4
