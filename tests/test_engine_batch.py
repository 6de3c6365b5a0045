"""Tests for the batched throughput engine (repro.engine).

The engine's contract is strict: for every supported (model, method)
combination it must return results *bit-identical* to the scalar
``compute_period`` path — same periods, same bounds, same critical
cycles — through the cache-hit, cache-miss and multi-worker paths alike.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.engine import (
    BatchEngine,
    build_skeleton,
    evaluate,
    topology_signature,
)
from repro.errors import ReplicationExplosionError, ValidationError
from repro.experiments.examples_paper import example_a, example_b, example_c
from repro.telemetry import TELEMETRY

from .conftest import small_instances


def assert_results_identical(scalar, batched, check_net=True):
    """Bitwise comparison of the scalar and batched PeriodResults."""
    assert scalar.period == batched.period
    assert scalar.throughput == batched.throughput
    assert scalar.model == batched.model
    assert scalar.method == batched.method
    assert scalar.m == batched.m
    assert scalar.mct == batched.mct
    assert scalar.has_critical_resource == batched.has_critical_resource
    assert scalar.relative_gap == batched.relative_gap
    if scalar.breakdown is not None:
        assert batched.breakdown is not None
        assert scalar.breakdown.period == batched.breakdown.period
        assert [c.value for c in scalar.breakdown.columns] == [
            c.value for c in batched.breakdown.columns
        ]
    if scalar.tpn_solution is not None:
        assert batched.tpn_solution is not None
        # Same critical cycle, same ratio, bit for bit.
        assert scalar.tpn_solution.ratio == batched.tpn_solution.ratio
        if check_net:
            assert batched.tpn_solution.net is None  # engine never builds it


def shared_topology_instances(count=6, counts=(2, 3, 1), seed=0):
    """Instances sharing one mapping topology with varying times."""
    rng = np.random.default_rng(seed)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + list(counts))
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    out = []
    for _ in range(count):
        comp = rng.uniform(1.0, 20.0, p)
        comm = rng.uniform(1.0, 20.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


PAPER_CASES = [
    (example_a, "overlap", "polynomial"),
    (example_a, "overlap", "tpn"),
    (example_a, "strict", "tpn"),
    (example_b, "overlap", "polynomial"),
    (example_b, "overlap", "tpn"),
    (example_b, "strict", "tpn"),
    # Example C has m = 10395: polynomial only (the TPN path is what the
    # row budget exists for; covered by test_budget_parity below).
    (example_c, "overlap", "polynomial"),
]


class TestBitIdentity:
    @pytest.mark.parametrize("mk,model,method", PAPER_CASES)
    def test_paper_examples(self, mk, model, method):
        inst = mk()
        scalar = compute_period(inst, model, method=method)
        batched = evaluate([inst], model, method=method)[0]
        assert_results_identical(scalar, batched)

    def test_auto_method_resolution_matches(self):
        inst = example_a()
        for model in ("overlap", "strict"):
            scalar = compute_period(inst, model)  # auto
            batched = evaluate([inst], model)[0]
            assert scalar.method == batched.method
            assert_results_identical(scalar, batched)

    @given(small_instances(max_stages=3, max_m=6))
    @settings(max_examples=25, deadline=None)
    def test_hypothesis_instances(self, inst):
        for model, method in (
            ("overlap", "polynomial"),
            ("overlap", "tpn"),
            ("strict", "tpn"),
        ):
            scalar = compute_period(inst, model, method=method)
            batched = evaluate([inst], model, method=method)[0]
            assert_results_identical(scalar, batched)

    def test_shared_topology_sweep(self):
        insts = shared_topology_instances(count=8)
        engine = BatchEngine()
        batched = engine.evaluate(insts, "strict", method="tpn")
        for inst, b in zip(insts, batched):
            assert_results_identical(
                compute_period(inst, "strict", method="tpn"), b
            )
        # One skeleton build served the whole sweep.
        assert engine.stats.misses == 1
        assert engine.stats.hits == len(insts) - 1


class TestCacheSemantics:
    def test_signature_groups_by_model_and_replication_counts(self):
        a, b = shared_topology_instances(count=2)
        assert topology_signature(a, "overlap") == topology_signature(b, "overlap")
        assert topology_signature(a, "overlap") != topology_signature(a, "strict")
        # Relabelled processors keep the key; different counts change it.
        swapped = Instance(a.application, a.platform,
                           Mapping([(5, 4), (3, 2, 1), (0,)]))
        assert topology_signature(swapped, "strict") == topology_signature(a, "strict")
        recounted = Instance(a.application, a.platform,
                             Mapping([(0,), (1, 2, 3), (4, 5)]))
        assert topology_signature(recounted, "strict") != topology_signature(a, "strict")

    def test_cache_hit_returns_identical_results(self):
        inst = shared_topology_instances(count=1)[0]
        engine = BatchEngine()
        first = engine.evaluate(inst, "strict", method="tpn")
        second = engine.evaluate(inst, "strict", method="tpn")
        assert engine.stats.misses == 1 and engine.stats.hits == 1
        assert first.period == second.period
        assert first.tpn_solution.ratio == second.tpn_solution.ratio

    def test_cache_eviction_bounds_memory(self):
        insts = shared_topology_instances(count=1, counts=(1, 1))
        other = shared_topology_instances(count=1, counts=(1, 2))
        engine = BatchEngine(cache_limit=1)
        engine.evaluate(insts[0], "strict", method="tpn")
        engine.evaluate(other[0], "strict", method="tpn")
        assert len(engine._skeletons) == 1
        # Evicted entry is rebuilt transparently with identical output.
        again = engine.evaluate(insts[0], "strict", method="tpn")
        assert again.period == compute_period(insts[0], "strict", method="tpn").period

    def test_skeleton_rebuild_is_deterministic(self):
        inst = shared_topology_instances(count=1)[0]
        sk1 = build_skeleton(inst, "strict")
        sk2 = build_skeleton(inst, "strict")
        assert np.array_equal(sk1.edge_src, sk2.edge_src)
        assert np.array_equal(sk1.edge_tokens, sk2.edge_tokens)
        assert np.array_equal(sk1.stamp_weights(inst), sk2.stamp_weights(inst))


class TestBatchApi:
    def test_order_preserved_and_streaming(self):
        # One instance at a time through a shared engine vs one batch.
        insts = shared_topology_instances(count=5)
        engine = BatchEngine()
        streamed = [engine.evaluate(i, "strict", method="tpn") for i in insts]
        batched = evaluate(insts, "strict", method="tpn")
        scalar = [compute_period(i, "strict", method="tpn") for i in insts]
        for s, st, b in zip(scalar, streamed, batched):
            assert s.period == st.period == b.period

    def test_per_pair_models(self):
        insts = shared_topology_instances(count=4)
        models = ["overlap", "strict", "overlap", "strict"]
        batched = evaluate(insts, models)
        for inst, model, b in zip(insts, models, batched):
            assert_results_identical(compute_period(inst, model), b)

    def test_model_count_mismatch_rejected(self):
        insts = shared_topology_instances(count=2)
        with pytest.raises(ValidationError):
            evaluate(insts, ["overlap"])

    def test_multiworker_identical(self):
        insts = shared_topology_instances(count=10)
        serial = evaluate(insts, "strict", method="tpn")
        sharded = evaluate(insts, "strict", method="tpn", n_jobs=2)
        # Three workers cut the batch at other chunk boundaries.
        chunked = evaluate(insts, "strict", method="tpn", n_jobs=3)
        for s, p, c in zip(serial, sharded, chunked):
            assert s.period == p.period == c.period
            assert s.mct == p.mct == c.mct
            assert s.tpn_solution.ratio == p.tpn_solution.ratio == c.tpn_solution.ratio

    def test_simulation_method_delegates(self):
        inst = shared_topology_instances(count=1, counts=(1, 1))[0]
        scalar = compute_period(inst, "overlap", method="simulation")
        batched = evaluate([inst], "overlap", method="simulation")[0]
        assert scalar.period == batched.period


class TestSharding:
    """``BatchEngine.evaluate(..., n_jobs=)``: worker shards equal serial."""

    def test_shared_engine_sharded_equals_serial(self):
        insts = (shared_topology_instances(count=6, seed=1)
                 + shared_topology_instances(count=5, counts=(1, 2), seed=2))
        models = ["strict"] * 6 + ["overlap"] * 5
        serial = BatchEngine().evaluate(insts, models)
        engine = BatchEngine()
        sharded = engine.evaluate(insts, models, n_jobs=2)
        assert len(sharded) == len(serial)
        for s, p in zip(serial, sharded):
            assert_results_identical(s, p)
        # Workers hold their own caches; the shared engine saw nothing.
        assert engine.stats.evaluated == 0

    def test_small_batch_stays_on_shared_cache(self):
        insts = shared_topology_instances(count=3)
        engine = BatchEngine()
        engine.evaluate(insts[0], "strict")
        res = engine.evaluate(insts, "strict", n_jobs=2)
        for inst, r in zip(insts, res):
            assert_results_identical(compute_period(inst, "strict"), r)
        assert engine.stats.evaluated == 4
        assert engine.stats.misses == 1 and engine.stats.hits == 3

    def test_simulation_firings_forwarded_to_workers(self):
        insts = shared_topology_instances(count=4, counts=(1, 1), seed=3)
        serial = BatchEngine().evaluate(insts, "overlap", "simulation", 8)
        sharded = BatchEngine().evaluate(
            insts, "overlap", "simulation", 8, n_jobs=2
        )
        for inst, s, p in zip(insts, serial, sharded):
            ref = compute_period(inst, "overlap", method="simulation",
                                 n_firings=8)
            assert ref.period == s.period == p.period
        # The firing count reaches the result: the default differs.
        default = evaluate(insts, "overlap", "simulation", n_jobs=2)
        assert [r.period for r in default] != [r.period for r in sharded]

    def test_contract_counters_merge_from_workers(self):
        insts = (shared_topology_instances(count=6, seed=4)
                 + shared_topology_instances(count=4, counts=(3, 1), seed=5))
        models = ["strict"] * 6 + ["overlap"] * 4

        def contract_counters(n_jobs):
            TELEMETRY.enable("t")
            try:
                BatchEngine().evaluate(insts, models, n_jobs=n_jobs)
                counters = TELEMETRY.counter_snapshot()
            finally:
                TELEMETRY.disable()
            return {k: v for k, v in counters.items()
                    if k.startswith("engine.points") or k == "engine.paths"}

        serial = contract_counters(None)
        assert serial["engine.points"] == len(insts)
        assert serial["engine.points.tpn"] == 6
        assert serial["engine.points.polynomial"] == 4
        assert contract_counters(2) == serial

    @pytest.mark.parametrize("n_jobs", [-1, -2])
    def test_negative_jobs_rejected_at_any_size(self, n_jobs):
        inst = example_a()
        for call in (
            lambda: evaluate([inst] * 5, "strict", n_jobs=n_jobs),
            lambda: BatchEngine().evaluate([inst], "strict", n_jobs=n_jobs),
            lambda: BatchEngine().evaluate(inst, "strict", n_jobs=n_jobs),
        ):
            with pytest.raises(ValidationError, match=f"got {n_jobs}"):
                call()


class TestErrorParity:
    def test_polynomial_rejects_strict(self):
        inst = example_a()
        with pytest.raises(ValidationError):
            evaluate([inst], "strict", method="polynomial")

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            evaluate([example_a()], "overlap", method="magic")

    def test_budget_parity(self):
        inst = example_c()  # m = 10395
        with pytest.raises(ReplicationExplosionError):
            compute_period(inst, "strict", method="tpn", max_rows=100)
        with pytest.raises(ReplicationExplosionError):
            evaluate([inst], "strict", method="tpn", max_rows=100)

    def test_budget_enforced_on_cache_hit(self):
        inst = shared_topology_instances(count=1, counts=(2, 3))[0]  # m = 6
        engine = BatchEngine(max_rows=10)
        engine.evaluate(inst, "strict", method="tpn")
        engine.max_rows = 5
        with pytest.raises(ReplicationExplosionError):
            engine.evaluate(inst, "strict", method="tpn")

    def test_batch_solution_has_no_net(self):
        inst = example_a()
        batched = evaluate([inst], "strict", method="tpn")[0]
        assert batched.tpn_solution.net is None
        with pytest.raises(ValidationError):
            batched.tpn_solution.critical_transitions
