"""Tests for the multi-criteria objective plane (repro.objectives)."""

import numpy as np
import pytest

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.errors import ValidationError
from repro.objectives import (
    OBJECTIVE_NAMES,
    EvalResult,
    ParetoArchive,
    attach_objectives,
    dominates,
    instance_reliability,
    mapping_reliability,
    parse_objectives,
    replication_policy_mapping,
    stage_reliability,
)
from repro.core.latency import measure_latency
from repro.engine import BatchEngine
from repro.objectives.evaluate import ObjectiveEvaluator, worst_path_latency
from repro.experiments import example_a


class TestParseObjectives:
    def test_none_is_period_only(self):
        assert parse_objectives(None) == ("period",)

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            parse_objectives([])

    def test_string_spelling(self):
        assert parse_objectives("latency,period") == ("period", "latency")
        assert parse_objectives("reliability") == ("reliability",)

    def test_canonical_order_and_dedupe(self):
        full = parse_objectives(
            ["reliability", "latency", "period", "latency"])
        assert full == OBJECTIVE_NAMES == ("period", "latency",
                                           "reliability")

    def test_order_independent(self):
        a = parse_objectives(["latency", "reliability"])
        b = parse_objectives(["reliability", "latency"])
        assert a == b == ("latency", "reliability")

    def test_unknown_name_rejected(self):
        with pytest.raises(ValidationError):
            parse_objectives(["period", "throughput"])

    def test_idempotent(self):
        once = parse_objectives("latency, reliability")
        assert parse_objectives(once) == once


class TestReliabilityModel:
    def test_no_failure_model_is_certain(self):
        """f_u = 0 everywhere => the pipeline never fails."""
        plat = Platform.homogeneous(5)
        mapping = Mapping([[0, 1], [2], [3, 4]])
        assert mapping_reliability(plat, mapping) == 1.0

    def test_zero_rate_stage_is_certain(self):
        plat = Platform.homogeneous(3).with_failure_rates([0.0, 0.5, 0.5])
        assert stage_reliability(plat, [0]) == 1.0

    def test_certain_failure_rejected(self):
        """Rates are probabilities in [0, 1): f_u = 1 is a dead
        processor, not a failure model."""
        with pytest.raises(ValidationError):
            Platform.homogeneous(2).with_failure_rates(1.0)

    def test_failure_rates_compose_multiplicatively(self):
        plat = Platform.homogeneous(2).with_failure_rates(0.9)
        assert stage_reliability(plat, [0, 1]) == pytest.approx(0.19)

    def test_empty_stage_rejected(self):
        plat = Platform.homogeneous(2).with_failure_rates(0.1)
        with pytest.raises(ValueError):
            stage_reliability(plat, [])

    def test_replication_monotone(self):
        """Adding a replica never hurts a stage's survival odds."""
        plat = Platform.homogeneous(6).with_failure_rates(
            [0.2, 0.3, 0.1, 0.4, 0.25, 0.05])
        replicas = [0]
        previous = stage_reliability(plat, replicas)
        for extra in [1, 2, 3, 4, 5]:
            replicas.append(extra)
            current = stage_reliability(plat, replicas)
            assert current >= previous
            previous = current

    def test_mapping_replication_monotone(self):
        plat = Platform.homogeneous(4).with_failure_rates(0.3)
        narrow = Mapping([[0], [1]])
        wide = Mapping([[0, 2], [1, 3]])
        assert (mapping_reliability(plat, wide)
                > mapping_reliability(plat, narrow))

    def test_instance_matches_mapping(self):
        app = Application(works=[2.0, 3.0], file_sizes=[1.0])
        plat = Platform.homogeneous(4).with_failure_rates(0.1)
        mapping = Mapping([[0, 1], [2, 3]])
        inst = Instance(app, plat, mapping)
        assert instance_reliability(inst) == mapping_reliability(
            plat, mapping)


class TestEvalResult:
    def _result(self, objectives=("period", "latency", "reliability")):
        inst = example_a()
        pr = compute_period(inst, "overlap")
        return attach_objectives(inst, pr, objectives)

    def test_period_passthrough(self):
        ev = self._result(("period",))
        assert ev.period == 189.0
        assert ev.latency is None and ev.reliability is None
        assert ev.vector() == (189.0,)

    def test_vector_negates_reliability(self):
        ev = self._result()
        assert ev.vector() == (ev.period, ev.latency, -ev.reliability)

    def test_value_requires_evaluation(self):
        ev = self._result(("period",))
        with pytest.raises(ValidationError):
            ev.value("latency")
        with pytest.raises(ValidationError):
            ev.value("unknown")

    def test_latency_bound_mode_matches_path_bound(self):
        ev = self._result(("period", "latency"))
        assert ev.latency_mode == "bound"
        assert ev.value("latency") == worst_path_latency(example_a())

    def test_bound_never_exceeds_measured(self):
        """The contention-free bound lower-bounds exact simulation."""
        inst = example_a()
        pr = compute_period(inst, "overlap")
        bound = attach_objectives(inst, pr, ("period", "latency"))
        measured = measure_latency(inst, "overlap", n_datasets=6)
        assert bound.latency <= measured.max + 1e-9

    def test_attach_is_pure(self):
        a = self._result().to_dict()
        b = self._result().to_dict()
        assert a == b


class TestObjectiveEvaluatorMany:
    OBJECTIVES = ("period", "latency", "reliability")

    @staticmethod
    def _batch():
        """Two same-topology runs (lockstep) and a singleton, mixed models."""
        rng = np.random.default_rng(7)
        app = Application(works=[2.0, 3.0, 1.5], file_sizes=[1.0, 2.0])
        insts = []
        for assignments in ([[0, 1], [2], [3]],) * 3 + ([[0], [1, 2], [3]],) * 2 \
                + ([[3], [0, 2], [1]],):
            plat = Platform.from_comm_times(
                rng.uniform(5.0, 15.0, 4),
                rng.uniform(5.0, 15.0, (4, 4)) * (1 - np.eye(4)),
            ).with_failure_rates(list(rng.uniform(0.05, 0.4, 4)))
            insts.append(Instance(app, plat, Mapping(assignments)))
        models = ["strict"] * 5 + ["overlap"]
        return insts, models

    def test_equals_per_instance_and_attached_engine_results(self):
        insts, models = self._batch()
        many = ObjectiveEvaluator(BatchEngine(), self.OBJECTIVES) \
            .evaluate_many(insts, models)
        single = ObjectiveEvaluator(BatchEngine(), self.OBJECTIVES)
        one_by_one = [single.evaluate(i, m) for i, m in zip(insts, models)]
        attached = [
            attach_objectives(i, r, self.OBJECTIVES)
            for i, r in zip(insts, BatchEngine().evaluate(insts, models))
        ]
        assert len(many) == len(one_by_one) == len(attached) == len(insts)
        for m, o, a in zip(many, one_by_one, attached):
            assert m.to_dict() == o.to_dict() == a.to_dict()
            assert m.reliability < 1.0
            for ref in (o, a):
                assert m.period_result.mct == ref.period_result.mct
                assert m.period_result.method == ref.period_result.method
                if m.period_result.tpn_solution is not None:
                    assert m.period_result.tpn_solution.ratio == \
                        ref.period_result.tpn_solution.ratio


class TestDominates:
    def test_strict_dominance(self):
        assert dominates((1.0, 2.0), (2.0, 3.0))
        assert dominates((1.0, 2.0), (1.0, 3.0))

    def test_ties_do_not_dominate(self):
        assert not dominates((1.0, 2.0), (1.0, 2.0))

    def test_incomparable(self):
        assert not dominates((1.0, 3.0), (2.0, 2.0))
        assert not dominates((2.0, 2.0), (1.0, 3.0))


class TestParetoArchive:
    # All entries share example A's period (189.0); reliability is the
    # discriminating coordinate.
    def _add(self, archive, period, reliability, assignments, source=""):
        pr = compute_period(example_a(), "overlap")
        ev = EvalResult(objectives=("period", "reliability"),
                        period_result=pr, reliability=reliability)
        return archive.add(ev, assignments, source=source)

    def test_dominated_candidate_rejected(self):
        archive = ParetoArchive(("period", "reliability"))
        assert self._add(archive, 189.0, 0.9, [[0]], "a")
        assert not self._add(archive, 189.0, 0.5, [[1]], "b")
        assert len(archive) == 1

    def test_equal_vector_first_wins(self):
        archive = ParetoArchive(("period", "reliability"))
        assert self._add(archive, 189.0, 0.9, [[0]], "first")
        assert not self._add(archive, 189.0, 0.9, [[1]], "second")
        assert archive.front()[0].source == "first"

    def test_insertion_evicts_dominated(self):
        archive = ParetoArchive(("period", "reliability"))
        assert self._add(archive, 189.0, 0.5, [[0]], "weak")
        assert self._add(archive, 189.0, 0.9, [[1]], "strong")
        front = archive.front()
        assert len(front) == 1 and front[0].source == "strong"

    def test_front_order_insertion_independent(self):
        ab = ParetoArchive(("period", "reliability"))
        self._add(ab, 189.0, 0.4, [[0]], "a")
        self._add(ab, 189.0, 0.4, [[1]], "b")
        ba = ParetoArchive(("period", "reliability"))
        self._add(ba, 189.0, 0.4, [[1]], "b")
        self._add(ba, 189.0, 0.4, [[0]], "a")
        # 0.4 ties: first wins in each, so fronts differ by source —
        # but with distinct vectors the export order is sorted:
        assert [e.source for e in ab.front()] == ["a"]
        assert [e.source for e in ba.front()] == ["b"]

    def test_to_dict_roundtrips_canonically(self):
        archive = ParetoArchive(("period", "reliability"))
        self._add(archive, 189.0, 0.9, [[0], [1, 2]], "probe")
        data = archive.to_dict()
        assert data["objectives"] == ["period", "reliability"]
        entry = data["front"][0]
        assert entry["assignments"] == [[0], [1, 2]]
        assert entry["source"] == "probe"


class TestReplicationPolicies:
    def _app_plat(self):
        app = Application(works=[8.0, 2.0, 2.0], file_sizes=[1.0, 1.0],
                          name="demo")
        plat = Platform.homogeneous(6, speed=1.0).with_failure_rates(
            [0.1, 0.1, 0.1, 0.1, 0.3, 0.3])
        return app, plat

    def test_endpoints_differ(self):
        app, plat = self._app_plat()
        fast = replication_policy_mapping(app, plat, "throughput")
        safe = replication_policy_mapping(app, plat, "reliability")
        assert fast.assignments != safe.assignments
        # throughput piles replicas on the heavy stage...
        assert len(fast.assignments[0]) == 4
        # ...reliability spreads them evenly
        assert [len(s) for s in safe.assignments] == [2, 2, 2]

    def test_reliability_policy_maximizes_reliability(self):
        app, plat = self._app_plat()
        fast = replication_policy_mapping(app, plat, "throughput")
        safe = replication_policy_mapping(app, plat, "reliability")
        assert (mapping_reliability(plat, safe)
                >= mapping_reliability(plat, fast))

    def test_deterministic(self):
        app, plat = self._app_plat()
        a = replication_policy_mapping(app, plat, "reliability")
        b = replication_policy_mapping(app, plat, "reliability")
        assert a.assignments == b.assignments

    def test_replica_cap(self):
        app, plat = self._app_plat()
        capped = replication_policy_mapping(app, plat, "throughput",
                                            replicas=1)
        assert sum(len(s) for s in capped.assignments) == app.n_stages + 1

    def test_unknown_policy_rejected(self):
        app, plat = self._app_plat()
        with pytest.raises(ValidationError):
            replication_policy_mapping(app, plat, "fastest")
