"""Tests for the campaign executor: resume, ordering, exports, CLI.

The acceptance contract of the campaign subsystem: a run killed
mid-stream and re-launched completes without recomputing finished
points (store hit count asserted) and produces byte-identical exports
to an uninterrupted run.
"""

from __future__ import annotations

import json

import pytest

from repro.campaign import (
    CampaignSpec,
    ResultStore,
    campaign_status,
    export_campaign_csv,
    export_campaign_json,
    order_for_engine,
    run_campaign,
    run_campaign_worker,
)
from repro.cli import main
from repro.engine import BatchEngine, topology_signature
from repro.errors import ValidationError

SPEC_DICT = {
    "name": "executor-test",
    "draws": 2,
    "models": ["overlap", "strict"],
    "applications": [
        {"synthetic": {"n_stages": 3, "shape": "balanced", "scale": 8.0}},
        {"workload": "audio-pipeline"},
    ],
    "platforms": [{"n_procs": 8}],
    "replications": [
        {"policy": "balls"},
        {"fixed": [1, 2, 3], "assignment": "blocks"},
    ],
    "max_paths": 200,
}


@pytest.fixture()
def spec():
    return CampaignSpec.from_dict(SPEC_DICT)


class TestResume:
    def test_interrupted_run_resumes_without_recompute(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            first = run_campaign(spec, store, max_points=5)
            assert (first.evaluated, first.remaining) == (5, spec.n_points - 5)
            assert not first.complete
            second = run_campaign(spec, store)
            # the 5 finished points are store hits, never recomputed
            assert second.hits == 5
            assert second.evaluated == spec.n_points - 5
            assert second.complete
            third = run_campaign(spec, store)
            assert (third.hits, third.evaluated) == (spec.n_points, 0)

    def test_exports_byte_identical_to_uninterrupted(self, spec, tmp_path):
        with ResultStore(tmp_path / "a.sqlite") as interrupted:
            run_campaign(spec, interrupted, max_points=5)
            run_campaign(spec, interrupted)
            json_a = export_campaign_json(spec, interrupted)
            csv_a = export_campaign_csv(spec, interrupted)
        with ResultStore(tmp_path / "b.sqlite") as fresh:
            run_campaign(spec, fresh)
            json_b = export_campaign_json(spec, fresh)
            csv_b = export_campaign_csv(spec, fresh)
        assert json_a == json_b
        assert csv_a == csv_b

    def test_parallel_run_exports_identical(self, spec, tmp_path):
        with ResultStore(tmp_path / "a.sqlite") as serial:
            run_campaign(spec, serial)
            csv_a = export_campaign_csv(spec, serial)
        with ResultStore(tmp_path / "b.sqlite") as parallel:
            report = run_campaign(spec, parallel, n_jobs=2)
            assert report.complete
            csv_b = export_campaign_csv(spec, parallel)
        assert csv_a == csv_b

    def test_status_counts(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=3)
            status = campaign_status(spec, store)
            assert status["total"] == spec.n_points
            assert status["done"] == 3
            assert sum(c["done"] for c in status["cells"]) == 3
            assert sum(c["total"] for c in status["cells"]) == spec.n_points


def _lease_rows(store):
    return store.connection.execute("SELECT COUNT(*) FROM leases").fetchone()[0]


class TestDrain:
    """run_campaign drains through the fabric's claim loop."""

    def test_parallel_needs_file_store_and_full_drain(self, spec, tmp_path):
        with pytest.raises(ValidationError):
            run_campaign(spec, ResultStore(":memory:"), n_jobs=2)
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(ValidationError):
                run_campaign(spec, store, n_jobs=2, max_points=3)
            assert len(store) == 0

    def test_serial_run_leaves_no_leases(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            assert run_campaign(spec, store).complete
            assert _lease_rows(store) == 0

    def test_interrupted_run_hands_back_its_claims(
        self, spec, tmp_path, monkeypatch
    ):
        real = BatchEngine.evaluate
        calls = []

        def interrupted(self, *args, **kwargs):
            calls.append(1)
            if len(calls) == 2:
                raise KeyboardInterrupt
            return real(self, *args, **kwargs)

        monkeypatch.setattr(BatchEngine, "evaluate", interrupted)
        with ResultStore(tmp_path / "s.sqlite") as store:
            with pytest.raises(KeyboardInterrupt):
                run_campaign(spec, store, commit_every=4)
            # the second chunk's claims are released, not left to expire
            assert (len(store), _lease_rows(store)) == (4, 0)
            monkeypatch.setattr(BatchEngine, "evaluate", real)
            report = run_campaign(spec, store)
            assert report.hits == 4 and report.complete

    def test_claim_loop_does_not_rescan_per_claim(self, spec, monkeypatch):
        scans = []
        real = ResultStore.digests

        def counted(self):
            scans.append(1)
            return real(self)

        monkeypatch.setattr(ResultStore, "digests", counted)
        store = ResultStore(":memory:")
        done = run_campaign_worker(spec, store, "solo", claim_batch=2)
        assert done == len(store) > 4
        # one scan to start, one when the cursor runs dry — not one per
        # claim of two digests
        assert len(scans) == 2


class TestOrdering:
    def test_groups_by_signature_preserving_sweep_order(self, spec):
        points = spec.expand()
        pairs = [(p.instance(), p.model) for p in points]
        order = order_for_engine(pairs)
        assert sorted(order) == list(range(len(pairs)))
        # group ids in visit order: each signature appears in one run
        sigs = [topology_signature(*pairs[i]) for i in order]
        seen: list = []
        for sig in sigs:
            if not seen or seen[-1] != sig:
                assert sig not in seen, "signature split across chunks"
                seen.append(sig)
        # inside a group, the original sweep order is preserved
        by_sig: dict = {}
        for i in order:
            by_sig.setdefault(topology_signature(*pairs[i]), []).append(i)
        for members in by_sig.values():
            assert members == sorted(members)

    def test_report_counts_topology_groups(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            report = run_campaign(spec, store)
        points = spec.expand()
        n_groups = len({
            topology_signature(p.instance(), p.model) for p in points
        })
        assert report.groups == n_groups


class TestExports:
    def test_partial_export_requires_flag(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store, max_points=2)
            with pytest.raises(ValidationError):
                export_campaign_json(spec, store)
            text = export_campaign_json(spec, store, allow_partial=True)
            assert len(json.loads(text)["rows"]) == 2

    def test_json_embeds_spec_and_roundtrips(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            payload = json.loads(export_campaign_json(spec, store))
        assert CampaignSpec.from_dict(payload["spec"]) == spec
        assert len(payload["rows"]) == spec.n_points
        row = payload["rows"][0]
        assert {"point", "digest", "period", "mct", "critical"} <= row.keys()

    def test_csv_deterministic_columns(self, spec, tmp_path):
        with ResultStore(tmp_path / "s.sqlite") as store:
            run_campaign(spec, store)
            header = export_campaign_csv(spec, store).splitlines()[0]
        assert header.startswith("point,application,platform,replication")


class TestCli:
    def test_run_status_export(self, spec, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        store_path = tmp_path / "s.sqlite"
        out_json = tmp_path / "out.json"
        out_csv = tmp_path / "out.csv"

        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store_path), "--max-points", "4"]) == 0
        assert "store hits     : 0" in capsys.readouterr().out

        assert main(["campaign", "run", str(spec_path),
                     "--store", str(store_path)]) == 0
        assert "store hits     : 4" in capsys.readouterr().out

        assert main(["campaign", "status", str(spec_path),
                     "--store", str(store_path)]) == 0
        assert f"done           : {spec.n_points} / {spec.n_points}" \
            in capsys.readouterr().out

        assert main(["campaign", "export", str(spec_path),
                     "--store", str(store_path),
                     "--json", str(out_json), "--csv", str(out_csv)]) == 0
        capsys.readouterr()
        rows = json.loads(out_json.read_text())["rows"]
        assert len(rows) == spec.n_points
        assert len(out_csv.read_text().splitlines()) == spec.n_points + 1

    def test_export_without_artifacts_errors(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        spec_path.write_text(json.dumps(SPEC_DICT))
        assert main(["campaign", "export", str(spec_path),
                     "--store", str(tmp_path / "s.sqlite")]) == 1
        capsys.readouterr()
