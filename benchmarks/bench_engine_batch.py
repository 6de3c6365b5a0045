"""Batched vs per-call throughput evaluation on a shared-topology sweep.

The experiment behind :mod:`repro.engine`: 500 instances share one
mapping topology (``m_i = (2, 3, 5, 1)``, ``m = lcm = 30``) and differ
only in their drawn computation/communication times — exactly the shape
of a Table 2 family sweep or one mapping-search neighborhood.  The
per-call loop rebuilds the TPN, re-reduces it to a ratio graph and
re-runs the solver's structural phases 500 times; the engine builds one
skeleton and re-stamps edge weights per instance.  The asserted
contract is deterministic: results are bit-identical and the engine
performs exactly **one** skeleton build for the whole sweep (the
per-call path performs ``n``).  Wall-clock speedup is reported, never
gated — BENCH_4/5.json record the old wall-clock floors failing on CI
hardware with no code defect.

A second, OVERLAP contract covers the Theorem-1 path: a seeded sweep
(a pinned ``[6, 10, 15]`` block mapping plus random ``balls`` mappings)
evaluated in one sequence ``evaluate`` call must equal the generic oracle
(one ``RatioGraph`` and ``max_cycle_ratio`` per pattern), build one
torus plan per distinct ``(u, v)``, and lockstep-solve exactly
:data:`OVERLAP_LOCKSTEP_ROWS` pattern rows.  Counts only, no clock.

Run standalone (asserts identity and the single-build contract)::

    PYTHONPATH=src python benchmarks/bench_engine_batch.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_engine_batch.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import time

import numpy as np

from repro import Application, Instance, Mapping, Platform
from repro.campaign.spec import CampaignSpec
from repro.core.throughput import compute_period
from repro.engine import BatchEngine, evaluate
from repro.petri.reduction import comm_patterns, computation_column
from repro.telemetry import TELEMETRY

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Per-stage replication of the shared topology; lcm = 30 rows.
REPLICATION = (2, 3, 5, 1)
N_INSTANCES = 500


#: Seeded OVERLAP sweep of the Theorem-1 contract: 12 draws of a pinned
#: [6, 10, 15] block mapping and 12 random "balls" mappings on p = 31.
OVERLAP_SPEC = {
    "name": "bench-overlap-sweep",
    "root_seed": 7,
    "draws": 12,
    "models": ["overlap"],
    "applications": [{"synthetic": {"n_stages": 3, "shape": "balanced",
                                    "scale": 10.0}}],
    "platforms": [{"label": "table2-p31", "n_procs": 31, "kind": "times",
                   "comp_time_range": [5, 15], "comm_time_range": [5, 15]}],
    "replications": [{"fixed": [6, 10, 15], "assignment": "blocks"},
                     {"policy": "balls"}],
    "max_paths": 300,
}
#: Pattern rows the sweep solves in lockstep: 134 of its 157 components,
#: those in ``(u, v)`` buckets of at least ``LOCKSTEP_MIN_ROWS`` (8).
OVERLAP_LOCKSTEP_ROWS = 134


def make_sweep(n_instances: int = N_INSTANCES, seed: int = 0) -> list[Instance]:
    """Instances sharing one mapping topology, times drawn U(5, 15)."""
    rng = np.random.default_rng(seed)
    counts = list(REPLICATION)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    instances = []
    for _ in range(n_instances):
        comp = rng.uniform(5.0, 15.0, p)
        comm = rng.uniform(5.0, 15.0, (p, p))
        np.fill_diagonal(comm, 0.0)
        instances.append(
            Instance(app, Platform.from_comm_times(comp, comm), mapping)
        )
    return instances


def run_comparison(n_instances: int = N_INSTANCES) -> dict:
    """Time per-call vs batched evaluation; verify identity; return stats."""
    instances = make_sweep(n_instances)
    # Warm both paths so one-time import/alloc costs don't skew the race.
    compute_period(instances[0], "strict", method="tpn")
    engine = BatchEngine()
    engine.evaluate(instances[0], "strict", method="tpn")
    engine = BatchEngine()  # fresh cache: the timed run pays the one build

    t0 = time.perf_counter()
    scalar = [compute_period(i, "strict", method="tpn") for i in instances]
    t1 = time.perf_counter()
    batched = engine.evaluate(instances, "strict", method="tpn")
    t2 = time.perf_counter()

    identical = all(
        s.period == b.period
        and s.mct == b.mct
        and s.has_critical_resource == b.has_critical_resource
        and s.tpn_solution.ratio == b.tpn_solution.ratio
        for s, b in zip(scalar, batched)
    )
    per_call_s, batch_s = t1 - t0, t2 - t1
    return {
        "n": len(instances),
        "per_call_s": per_call_s,
        "batch_s": batch_s,
        "speedup": per_call_s / batch_s,
        "identical": identical,
        "cache": engine.stats,
        # Deterministic structural-work contract: the whole sweep costs
        # one skeleton build; the per-call path pays n of them.
        "skeleton_builds": engine.stats.misses,
        "cache_hits": engine.stats.hits,
    }


def generic_period(inst: Instance) -> float:
    """Theorem 1 through the generic path: a fresh ratio graph per pattern."""
    cols = [computation_column(inst, i).contribution
            for i in range(inst.n_stages)]
    for i in range(inst.n_stages - 1):
        cols.append(max(pat.critical_ratio() / pat.window
                        for pat in comm_patterns(inst, i)))
    return max(cols)


def run_overlap_contract() -> dict:
    """Evaluate the seeded OVERLAP sweep once; return identity and counts."""
    instances = [pt.instance() for pt in CampaignSpec.from_dict(OVERLAP_SPEC).expand()]
    tori = {(pat.u, pat.v) for inst in instances
            for i in range(inst.n_stages - 1) for pat in comm_patterns(inst, i)}
    TELEMETRY.enable("bench")
    try:
        results = BatchEngine().evaluate(instances, "overlap")
        counters = TELEMETRY.counter_snapshot()
    finally:
        TELEMETRY.disable()
    return {
        "n": len(instances),
        "identical": all(r.period == generic_period(inst)
                         for inst, r in zip(instances, results)),
        "tori": len(tori),
        "plan_builds": counters.get("poly.plan_builds", 0),
        "pattern_rows": counters.get("poly.pattern_rows", 0),
        "lockstep_rows": counters.get("poly.lockstep_rows", 0),
        "tpn_lockstep_rows": counters.get("howard.lockstep_rows", 0),
    }


def check_overlap_contract(stats: dict) -> None:
    """The Theorem-1 contract's deterministic gates."""
    assert stats["identical"], "batched OVERLAP periods diverged from the oracle"
    assert stats["plan_builds"] == stats["tori"], (
        f"{stats['plan_builds']} torus plan builds for {stats['tori']} "
        f"distinct (u, v)")
    assert stats["lockstep_rows"] == OVERLAP_LOCKSTEP_ROWS, (
        f"{stats['lockstep_rows']} pattern rows solved in lockstep "
        f"(expected {OVERLAP_LOCKSTEP_ROWS})")
    assert stats["tpn_lockstep_rows"] == 0, "pattern rows leaked into TPN rows"


def bench_overlap_pattern_contract(benchmark):
    stats = benchmark.pedantic(run_overlap_contract, rounds=1, iterations=1)
    check_overlap_contract(stats)
    report(benchmark, "Engine: Theorem-1 pattern plans (OVERLAP sweep)",
           [("periods equal the generic oracle", "yes", stats["identical"]),
            ("torus plan builds = distinct (u, v)", stats["tori"],
             stats["plan_builds"]),
            ("pattern rows in lockstep", OVERLAP_LOCKSTEP_ROWS,
             stats["lockstep_rows"])])


def bench_engine_batch_speedup(benchmark):
    instances = make_sweep(100)
    scalar = [compute_period(i, "strict", method="tpn") for i in instances]

    def batched():
        return evaluate(instances, "strict", method="tpn")

    results = benchmark(batched)
    assert all(s.period == b.period for s, b in zip(scalar, results))
    stats = run_comparison(200)
    assert stats["identical"]
    assert stats["skeleton_builds"] == 1
    report(benchmark, "Engine: batched vs per-call (shared topology, m=30)",
           [("results identical", "yes", stats["identical"]),
            ("skeleton builds (deterministic)", 1, stats["skeleton_builds"]),
            ("speedup (reported, not gated)", "-",
             f"{stats['speedup']:.2f}x")])


def bench_engine_multiworker_determinism(benchmark):
    instances = make_sweep(60)
    serial = evaluate(instances, "strict", method="tpn")

    def sharded():
        return evaluate(instances, "strict", method="tpn", n_jobs=2)

    results = benchmark.pedantic(sharded, rounds=1, iterations=1)
    assert all(s.period == r.period for s, r in zip(serial, results))
    report(benchmark, "Engine: 2-worker shard returns identical results",
           [("order preserved", "yes", True),
            ("bit-identical", "yes", True)])


def main() -> int:
    stats = run_comparison()
    print(f"shared-topology sweep: {stats['n']} instances, strict model, "
          f"replication {REPLICATION} (m = 30)")
    print(f"per-call loop : {stats['per_call_s']:.3f} s "
          f"({1000 * stats['per_call_s'] / stats['n']:.2f} ms/instance)")
    print(f"evaluate(): {stats['batch_s']:.3f} s "
          f"({1000 * stats['batch_s'] / stats['n']:.2f} ms/instance)")
    print(f"speedup       : {stats['speedup']:.2f}x "
          f"(wall-clock: reported, never gated; cache: "
          f"{stats['cache'].misses} build, {stats['cache'].hits} hits)")
    print(f"bit-identical : {stats['identical']}")
    assert stats["identical"], "batched results diverged from per-call"
    assert stats["skeleton_builds"] == 1, (
        f"{stats['skeleton_builds']} skeleton builds for one shared "
        f"topology (expected exactly 1)"
    )
    overlap = run_overlap_contract()
    print(f"overlap sweep : {overlap['n']} instances, "
          f"{overlap['pattern_rows']} pattern rows, "
          f"{overlap['lockstep_rows']} in lockstep, "
          f"{overlap['plan_builds']} plan builds for {overlap['tori']} tori, "
          f"oracle-identical: {overlap['identical']}")
    check_overlap_contract(overlap)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
