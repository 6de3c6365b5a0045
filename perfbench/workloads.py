"""The benchmark's workloads: inputs made from a seed, timed units, checks.

Every workload turns ``--seed`` into program inputs (campaign specs, or
platforms) and nothing else; the program never sees the seed itself.
A workload is a list of independent *units*, each one thing a user waits
for: drain a small campaign into a fresh store and export it as JSON and
CSV, or spend a fixed ``optimize`` budget on one platform.  A *pass* runs
every unit once.  Units are short (a fraction of a second to about two
seconds), because each run's time is scaled by the host speed measured
just before and after it (see ``run.py``), and many, so that the cost of
a pass does not hang on one seed's draws.

The program is always called through module attributes
(``executor.run_campaign``, ``portfolio.portfolio_search``) so that the
tracer's wrappers see the top-level calls too.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.campaign import executor
from repro.campaign.spec import CampaignSpec, PlatformAxis
from repro.campaign.store import ResultStore
from repro.core.instance import Instance
from repro.core.throughput import compute_period
from repro.errors import ReproError
from repro.search import portfolio
from repro.workloads import get_workload

#: Workload sizes.  ``full`` is what the benchmark measures; ``tiny``
#: only exists so the self-test can run every code path in seconds.
#: ``units`` campaigns (or searches) per pass; ``draws`` per campaign.
SIZES: dict[str, dict[str, dict[str, int]]] = {
    "full": {"campaign-mixed": {"units": 16, "draws": 10},
             "campaign-pinned": {"units": 16, "draws": 22},
             "optimize-strict": {"units": 16, "budget": 250}},
    "tiny": {"campaign-mixed": {"units": 2, "draws": 2},
             "campaign-pinned": {"units": 2, "draws": 2},
             "optimize-strict": {"units": 2, "budget": 40}},
}

#: Shared path budget of every workload (``lcm(m_i) <= MAX_PATHS``).
MAX_PATHS = 300

#: Campaign points re-evaluated cold with ``compute_period`` per unit.
COLD_SAMPLE = 3

#: Table 2 regime of the paper: computation and communication times
#: drawn uniformly in [5, 15].
TABLE2 = {"kind": "times", "comp_time_range": [5, 15],
          "comm_time_range": [5, 15]}


def mixed_spec(name: str, seed: int, draws: int) -> CampaignSpec:
    """Random ``balls`` mappings of two applications on two regimes."""
    return CampaignSpec.from_dict({
        "name": name,
        "root_seed": seed,
        "draws": draws,
        "models": ["overlap", "strict"],
        "applications": [
            {"workload": "video-transcode"},
            {"synthetic": {"n_stages": 4, "shape": "comm-heavy",
                           "scale": 5.0}},
        ],
        "platforms": [
            {"label": "clustered", "n_procs": 10, "clusters": 2,
             "cluster_factor_range": [0.5, 2.0],
             "intra_bandwidth_factor": 4.0},
            {"label": "table2-p12", "n_procs": 12, **TABLE2},
        ],
        "replications": [{"policy": "balls"}],
        "max_paths": MAX_PATHS,
    })


def pinned_spec(name: str, seed: int, draws: int) -> CampaignSpec:
    """One pinned ``[6, 10, 15]`` block mapping (m = 30) on p = 31."""
    return CampaignSpec.from_dict({
        "name": name,
        "root_seed": seed,
        "draws": draws,
        "models": ["overlap", "strict"],
        "applications": [
            {"synthetic": {"n_stages": 3, "shape": "balanced",
                           "scale": 10.0}},
        ],
        "platforms": [{"label": "table2-p31", "n_procs": 31, **TABLE2}],
        "replications": [{"fixed": [6, 10, 15], "assignment": "blocks"}],
        "max_paths": MAX_PATHS,
    })


@dataclass
class Outcome:
    """What one run of a unit produced and how long its parts took."""

    wall_s: float
    ops: int
    fingerprint: str
    drain_s: float = 0.0
    export_s: float = 0.0
    checkpoint_ms: list[float] = field(default_factory=list)
    best_period: float = 0.0
    failed: int = 0
    detail: Any = None
    #: Factor from this run's seconds to reference-core seconds.
    scale: float = 1.0


class CampaignUnit:
    """Drain a spec into a fresh store, then export it as JSON and CSV."""

    def __init__(self, spec: CampaignSpec, workdir: Path) -> None:
        self.spec = spec
        self.workdir = workdir
        self._runs = 0
        # The empty store of the first run is part of set-up.
        self._store = self._fresh_store()

    def _fresh_store(self) -> ResultStore:
        self._runs += 1
        path = self.workdir / f"{self.spec.name}-{self._runs}.sqlite"
        return ResultStore(path)

    def reset(self) -> None:
        """Drop the last run's store and open an empty one (untimed)."""
        self._store.close()
        for suffix in ("", "-wal", "-shm"):
            Path(self._store.path + suffix).unlink(missing_ok=True)
        self._store = self._fresh_store()

    def run(self) -> Outcome:
        store = self._store
        ticks: list[float] = []
        t0 = time.perf_counter()
        report = executor.run_campaign(
            self.spec, store, n_jobs=1,
            progress=lambda done, total: ticks.append(time.perf_counter()),
        )
        t1 = time.perf_counter()
        json_text = executor.export_campaign_json(self.spec, store)
        csv_text = executor.export_campaign_csv(self.spec, store)
        t2 = time.perf_counter()
        digest = hashlib.sha256(json_text.encode())
        digest.update(csv_text.encode())
        return Outcome(
            wall_s=t2 - t0,
            ops=report.total,
            fingerprint=digest.hexdigest(),
            drain_s=t1 - t0,
            export_s=t2 - t1,
            # A kill loses the work since the last commit (or the start).
            checkpoint_ms=[(b - a) * 1e3 for a, b in zip([t0] + ticks, ticks)],
            failed=report.remaining,
            detail=(json_text, csv_text),
        )

    def verify(self, outcome: Outcome) -> int:
        """Cold-check a fixed sample of points against the JSON export.

        Period, mct and the critical flag must equal a fresh
        ``compute_period`` bit for bit.  Returns the number of mismatches.
        """
        points = self.spec.expand()
        rows = json.loads(outcome.detail[0])["rows"]
        by_point = {row["point"]: row for row in rows}
        step = max(1, len(points) // COLD_SAMPLE)
        failed = len(points) - len(rows)
        for pt in points[::step]:
            row = by_point.get(pt.index)
            try:
                cold = compute_period(pt.instance(), pt.model,
                                      max_rows=self.spec.max_paths + 1)
            except ReproError:
                failed += 1
                continue
            if row is None or (row["period"], row["mct"], row["critical"]) != (
                    cold.period, cold.mct, cold.has_critical_resource):
                failed += 1
        return failed

    def mismatches(self, outcome: Outcome, reference: Outcome) -> int:
        """Export rows that differ from the reference run's export."""
        if outcome.fingerprint == reference.fingerprint:
            return 0
        ours = outcome.detail[1].splitlines()
        ref = reference.detail[1].splitlines()
        differing = sum(a != b for a, b in zip(ours, ref))
        return max(1, differing + abs(len(ours) - len(ref)))

    def close(self) -> None:
        self._store.close()


class SearchUnit:
    """``portfolio_search`` at a fixed budget on one seeded p = 14 platform."""

    def __init__(self, app: Any, platform: Any, root_seed: int,
                 budget: int) -> None:
        self.app = app
        self.platform = platform
        self.root_seed = root_seed
        self.budget = budget

    def run(self) -> Outcome:
        t0 = time.perf_counter()
        result = portfolio.portfolio_search(
            self.app, self.platform, "strict", n_restarts=6,
            budget=self.budget, root_seed=self.root_seed,
            max_paths=MAX_PATHS,
        )
        wall = time.perf_counter() - t0
        return Outcome(
            wall_s=wall,
            ops=result.evaluations,
            fingerprint=f"{result.period!r}/{result.evaluations}",
            best_period=result.period,
            detail=result,
        )

    def verify(self, outcome: Outcome) -> int:
        """The best period must equal a cold ``compute_period``."""
        result = outcome.detail
        try:
            inst = Instance(self.app, self.platform, result.mapping)
            cold = compute_period(inst, "strict", max_rows=MAX_PATHS + 1)
        except ReproError:
            return result.evaluations
        if cold.period != result.period or result.evaluations > self.budget:
            return result.evaluations
        return 0

    def mismatches(self, outcome: Outcome, reference: Outcome) -> int:
        """Best period and evaluation count must repeat exactly."""
        return 0 if outcome.fingerprint == reference.fingerprint else outcome.ops

    def reset(self) -> None:
        pass

    def close(self) -> None:
        pass


def optimize_units(seed: int, units: int, budget: int) -> list[SearchUnit]:
    """One search per seeded platform, each with its own restart seed.

    A single search's cost varies by about 13% from platform to platform,
    a seed-to-seed spread that would hide real changes, so a pass runs
    several independent searches and their costs average.
    """
    app = get_workload("genomics-pipeline")
    regime = PlatformAxis.from_dict(
        {"label": "table2-p14", "n_procs": 14, **TABLE2})
    children = np.random.SeedSequence(seed).spawn(units)
    return [SearchUnit(app, regime.draw(np.random.default_rng(child)),
                       int(child.generate_state(1)[0]), budget)
            for child in children]


def build(name: str, seed: int, size: str, workdir: Path) -> list[Any]:
    """Make the named workload's units (the benchmark's set-up)."""
    if name not in SIZES[size]:
        raise ValueError(f"unknown workload {name!r}")
    sizes = SIZES[size][name]
    if name == "optimize-strict":
        return optimize_units(seed, sizes["units"], sizes["budget"])
    spec_of = mixed_spec if name == "campaign-mixed" else pinned_spec
    return [CampaignUnit(spec_of(f"{name}-{k:02d}", seed, sizes["draws"]),
                         workdir)
            for k in range(sizes["units"])]
