"""Lockstep Howard (`solve_prepared_many`) vs the PR-3 scalar-solve engine.

The PR-4 experiment: a single-topology batch — the shape every sweep,
campaign cell and neighborhood scan reduces to — evaluated two ways:

* **PR-3 path**: one ``BatchEngine.evaluate`` call per instance.  The
  skeleton and Howard plan are cached, but every stamping runs its own
  policy iteration with the per-node Python chain walk;
* **PR-4 group path**: one sequence ``BatchEngine.evaluate`` call.  The
  whole batch stamps into a single ``(B, E)`` weight matrix and
  :func:`repro.maxplus.howard.solve_prepared_many` runs policy
  iteration for all rows in lockstep.

The sweep drifts smoothly (per-resource sinusoids, like a campaign's
platform axis), so the batch is the canonical warm-cache workload.
Asserted facts (all deterministic — wall-clock is reported, never
gated; BENCH_4/5.json record the old >= 4x wall-clock contract failing
on CI hardware with no code defect, which is why PR 6 retired it):

* the lockstep path does the batch in ``max_b rounds(b)`` outer
  vectorized sweeps where the scalar path spends ``sum_b rounds(b)``
  sequential policy rounds; on this seeded drift sweep the ratio is a
  pure function of the inputs and must stay >= ``MIN_ROUND_RATIO``;
* both formulations follow **identical policy trajectories** (equal
  per-row round counts);
* group results are **bit-identical** to ``compute_period`` — period,
  ``mct``, ``has_critical_resource`` and the extracted critical cycle —
  on the existing regression topologies (the (2, 3, 5, 1) shared-sweep
  topology of ``bench_engine_batch`` and the choice-rich (6, 10, 15) of
  ``bench_campaign``); this part is deterministic and also pinned by
  ``tests/test_engine_group.py``.

Run standalone (asserts round ratio and identity)::

    PYTHONPATH=src python benchmarks/bench_howard_many.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_howard_many.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import time

import numpy as np

from repro import Application, Instance, Mapping, Platform
from repro.core.throughput import compute_period
from repro.engine import BatchEngine
from repro.maxplus.howard import solve_prepared, solve_prepared_many

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report

#: Replication of the benchmark topology: m = lcm = 60, 420 transitions.
REPLICATION = (4, 6, 10, 1)
#: Single-topology batch size (the acceptance floor is B >= 64).
N_INSTANCES = 192
#: Deterministic work contract: total scalar policy rounds over the
#: batch divided by the lockstep outer-sweep count (= the max per-row
#: rounds, since rows march together until the last one converges).
#: On the seeded drift sweep every row converges in one round, so the
#: ratio equals B = 192; the floor leaves 4x headroom for future
#: topology/tolerance changes before the contract trips.
MIN_ROUND_RATIO = N_INSTANCES / 4
#: Regression topologies for the bit-identity sweep.
IDENTITY_TOPOLOGIES = ((2, 3, 5, 1), (6, 10, 15))
N_IDENTITY = 24
#: Timing repetitions (best-of, both paths measured identically).
REPEATS = 5


def drift_sweep(counts=REPLICATION, n_instances=N_INSTANCES, seed=0,
                amp=0.35) -> list[Instance]:
    """A single-topology sweep over smoothly drifting platforms."""
    rng = np.random.default_rng(seed)
    counts = list(counts)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    base_c = rng.uniform(5.0, 15.0, p)
    ph_c = rng.uniform(0.0, 2 * np.pi, p)
    base_m = rng.uniform(5.0, 15.0, (p, p))
    ph_m = rng.uniform(0.0, 2 * np.pi, (p, p))
    out = []
    for r in range(n_instances):
        t = 2 * np.pi * 3 * r / n_instances
        comp = base_c * (1 + amp * np.sin(t + ph_c))
        comm = base_m * (1 + amp * np.sin(t + ph_m))
        np.fill_diagonal(comm, 0.0)
        out.append(Instance(app, Platform.from_comm_times(comp, comm), mapping))
    return out


def _race(fn_a, fn_b, repeats: int = REPEATS) -> tuple[float, float]:
    """Best-of timings with interleaved, order-alternating repetitions.

    Interleaving the two contenders — and swapping which one goes first
    on every repetition — keeps CPU frequency scaling and cache
    temperature from systematically favoring either side.
    """
    best_a = best_b = float("inf")
    for rep in range(repeats):
        pair = (fn_a, fn_b) if rep % 2 == 0 else (fn_b, fn_a)
        times = []
        for fn in pair:
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        t_a, t_b = (times if rep % 2 == 0 else times[::-1])
        best_a = min(best_a, t_a)
        best_b = min(best_b, t_b)
    return best_a, best_b


def check_identity() -> dict:
    """Group results vs ``compute_period`` on the regression topologies."""
    checked = 0
    for counts in IDENTITY_TOPOLOGIES:
        insts = drift_sweep(counts, N_IDENTITY, seed=7)
        grouped = BatchEngine().evaluate(insts, "strict", method="tpn")
        for inst, res in zip(insts, grouped):
            ref = compute_period(inst, "strict", method="tpn")
            assert res.period == ref.period
            assert res.mct == ref.mct
            assert res.has_critical_resource == ref.has_critical_resource
            assert res.tpn_solution.ratio == ref.tpn_solution.ratio
            checked += 1
    return {"topologies": len(IDENTITY_TOPOLOGIES), "checked": checked,
            "identical": True}


def run_comparison(n_instances: int = N_INSTANCES) -> dict:
    """Time the PR-3 per-instance path vs the lockstep group path."""
    instances = drift_sweep(n_instances=n_instances)
    # Warm both engines on one instance so the timed runs compare the
    # solve paths, not the one-time skeleton build.
    scalar_engine = BatchEngine()
    scalar_engine.evaluate(instances[0], "strict")
    group_engine = BatchEngine()
    group_engine.evaluate(instances[0], "strict")

    scalar_s, group_s = _race(
        lambda: [scalar_engine.evaluate(i, "strict") for i in instances],
        lambda: group_engine.evaluate(instances, "strict"),
    )

    scalar = [scalar_engine.evaluate(i, "strict") for i in instances]
    grouped = group_engine.evaluate(instances, "strict")
    identical = all(
        s.period == g.period
        and s.mct == g.mct
        and s.has_critical_resource == g.has_critical_resource
        and s.tpn_solution.ratio == g.tpn_solution.ratio
        for s, g in zip(scalar, grouped)
    )

    # Policy-round totals of both formulations (identical trajectories).
    sk = group_engine.skeleton(instances[0], "strict")
    weights = sk.stamp_weights_many(instances)
    rounds_scalar = sum(
        solve_prepared(sk.plan, weights[b]).n_rounds
        for b in range(len(instances))
    )
    per_row = [r.n_rounds for r in solve_prepared_many(sk.plan, weights)]
    rounds_many = sum(per_row)
    rounds_outer = max(per_row)

    return {
        "n": len(instances),
        "replication": list(REPLICATION),
        "scalar_s": scalar_s,
        "group_s": group_s,
        "speedup": scalar_s / group_s,
        "identical": identical,
        "rounds_scalar": rounds_scalar,
        "rounds_lockstep": rounds_many,
        "rounds_lockstep_outer": rounds_outer,
        "round_ratio": rounds_scalar / rounds_outer,
        "cache": {
            "hits": group_engine.stats.hits,
            "misses": group_engine.stats.misses,
            "evaluated": group_engine.stats.evaluated,
        },
    }


def bench_howard_many_speedup(benchmark):
    instances = drift_sweep()
    engine = BatchEngine()
    engine.evaluate(instances[0], "strict")

    def grouped():
        return engine.evaluate(instances, "strict")

    results = benchmark(grouped)
    scalar_engine = BatchEngine()
    scalar = [scalar_engine.evaluate(i, "strict") for i in instances]
    assert all(s.period == g.period for s, g in zip(scalar, results))
    stats = run_comparison()
    assert stats["identical"]
    assert stats["round_ratio"] >= MIN_ROUND_RATIO
    report(benchmark, "Lockstep Howard: group batch vs PR-3 per-instance",
           [("results identical", "yes", stats["identical"]),
            ("round ratio (deterministic)", f">= {MIN_ROUND_RATIO:g}",
             f"{stats['round_ratio']:.1f}"),
            ("speedup (reported, not gated)", "-",
             f"{stats['speedup']:.2f}x"),
            ("rounds (scalar == lockstep)",
             stats["rounds_scalar"], stats["rounds_lockstep"])])


def bench_howard_many_bit_identity(benchmark):
    stats = benchmark.pedantic(check_identity, rounds=1, iterations=1)
    report(benchmark, "Lockstep Howard: bit-identity vs compute_period",
           [("topologies", len(IDENTITY_TOPOLOGIES), stats["topologies"]),
            ("pairs checked", "all equal", stats["checked"])])


def main() -> int:
    stats = run_comparison()
    ident = check_identity()
    print(f"bit-identity vs compute_period: {ident['checked']} pairs over "
          f"{ident['topologies']} regression topologies: OK")
    print(f"single-topology drift sweep: B = {stats['n']}, replication "
          f"{REPLICATION} (m = 60, 420 transitions), strict model")
    print(f"PR-3 per-instance path : {stats['scalar_s']:.3f} s "
          f"({1000 * stats['scalar_s'] / stats['n']:.2f} ms/instance)")
    print(f"lockstep group path    : {stats['group_s']:.3f} s "
          f"({1000 * stats['group_s'] / stats['n']:.2f} ms/instance)")
    print(f"speedup                : {stats['speedup']:.2f}x "
          f"(wall-clock: reported, never gated)")
    print(f"policy rounds          : {stats['rounds_scalar']} scalar == "
          f"{stats['rounds_lockstep']} lockstep "
          f"({stats['rounds_lockstep_outer']} outer sweeps)")
    print(f"round ratio            : {stats['round_ratio']:.1f} "
          f"(deterministic floor {MIN_ROUND_RATIO:g})")
    print(f"bit-identical          : {stats['identical']}")
    assert stats["identical"], "group results diverged from the scalar path"
    assert stats["rounds_scalar"] == stats["rounds_lockstep"], \
        "lockstep trajectory diverged from the scalar trajectory"
    assert stats["round_ratio"] >= MIN_ROUND_RATIO, (
        f"round ratio {stats['round_ratio']:.1f} below the deterministic "
        f"{MIN_ROUND_RATIO:g} floor"
    )
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
