"""Portfolio allocators vs single-start local search at equal budget.

The experiments behind :mod:`repro.search`: every optimizer gets the
same allowance of exact-period evaluations (metered by
:class:`~repro.search.budget.EvaluationBudget`) on heterogeneous
mapping problems, so the only difference is how the budget is spent —
one long hill climb from one random seed, diversified restarts under
the fair-share allocator, or racing successive halving over
checkpoint-resumable climbs.  Two deterministic contracts are pinned:

* the fair-share portfolio beats single-start on the PR-2 reference
  platform (``run_comparison``);
* across the :data:`BENCH_SEEDS` platforms, racing is never worse than
  fair-share and strictly better on the two :data:`RUGGED_SEEDS` —
  exactly the platforms where fair-share loses to a single lucky deep
  climb (``run_three_way``, the ROADMAP "smarter portfolios" claim).

The second experiment pins the warm-start contract on two sweeps:
``BatchEngine(warm_start=True)`` — Howard's policy iteration seeded from
the previous instance of each topology group — must return exactly the
same period values as a cold engine on the iid regression sweep (the
extracted critical cycle is allowed to differ, the value is not), and on
a slowly-varying sweep (1% jitter around one base instance, the shape of
a mapping-search neighborhood) the carried policy must cut total
policy-iteration rounds by at least 2x.

The third pins the count-keyed skeleton cache: one seeded strict
``portfolio_search`` builds exactly one TPN skeleton per distinct
``(model, replication counts)`` among the mappings it evaluates, and
that number is strictly below the number of distinct processor
assignments (swaps and rotations reuse their topology's skeleton).

Run standalone (asserts both facts)::

    PYTHONPATH=src python benchmarks/bench_portfolio.py

or under pytest-benchmark::

    PYTHONPATH=src python -m pytest benchmarks/bench_portfolio.py \
        -o python_files='bench_*.py' -o python_functions='bench_*'
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro import Application, Instance, Platform
from repro.engine import BatchEngine
from repro.extensions import local_search_mapping
from repro.search import EvaluationBudget, portfolio_search

try:  # pytest package context vs standalone `python benchmarks/...`
    from .conftest import report
    from .bench_engine_batch import make_sweep
except ImportError:  # pragma: no cover - standalone fallback
    from conftest import report
    from bench_engine_batch import make_sweep

#: Equal oracle allowance for both optimizers.
BUDGET = 1200
N_RESTARTS = 5
MODEL = "overlap"

APP = Application(
    works=[2.0, 11.0, 5.0, 14.0, 3.0],
    file_sizes=[3.0, 2.0, 2.0, 1.0],
    name="bench-portfolio",
)


def make_platform(seed: int = 13, n: int = 14) -> Platform:
    """A strongly heterogeneous cluster: speeds 0.5-8, bandwidths 1-10.

    The wide spread makes the mapping landscape rugged — exactly the
    regime where one hill climb gets stuck and a diversified portfolio
    pays off.
    """
    rng = np.random.default_rng(seed)
    speeds = rng.uniform(0.5, 8.0, n)
    bw = rng.uniform(1.0, 10.0, (n, n))
    np.fill_diagonal(bw, 0.0)
    return Platform(speeds, bw, name="bench-cluster")


#: Platform seeds of the three-way allocator race.  Chosen so the set
#: spans both regimes: on most platforms the fair-share portfolio beats
#: one deep climb, on the two :data:`RUGGED_SEEDS` it loses to it.
BENCH_SEEDS = (13, 17, 23, 29, 43, 67)

#: The rugged platforms of the ROADMAP "smarter portfolios" item: the
#: landscape rewards one lucky deep climb over even slicing (fair-share
#: loses to single-start here), and racing must strictly beat
#: fair-share on them.
RUGGED_SEEDS = (17, 67)


def run_comparison() -> dict:
    """Portfolio vs single-start at equal budget; return both outcomes."""
    plat = make_platform()

    single_budget = EvaluationBudget(BUDGET)
    single = local_search_mapping(
        APP, plat, MODEL, rng=np.random.default_rng(0),
        max_iters=10_000, budget=single_budget,
    )

    portfolio = portfolio_search(
        APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
        max_iters=10_000,
    )
    return {
        "single_period": single.period,
        "single_evals": single.evaluations,
        "portfolio_period": portfolio.period,
        "portfolio_evals": portfolio.evaluations,
        "restarts": [(r.kind, r.period) for r in portfolio.restarts],
        "wins": portfolio.period < single.period or (
            portfolio.period == single.period
            and portfolio.evaluations <= single.evaluations
        ),
    }


def run_three_way() -> dict:
    """Single-start vs fair-share vs racing at equal budget, per seed.

    Every number here is a seeded search trajectory — no wall-clock —
    so the returned flags are deterministic contracts, not advisory
    ratios.
    """
    per_seed = []
    for seed in BENCH_SEEDS:
        plat = make_platform(seed)
        single = local_search_mapping(
            APP, plat, MODEL, rng=np.random.default_rng(0),
            max_iters=10_000, budget=EvaluationBudget(BUDGET),
        )
        fair = portfolio_search(
            APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
            max_iters=10_000, allocator="fair-share",
        )
        racing = portfolio_search(
            APP, plat, MODEL, n_restarts=N_RESTARTS, budget=BUDGET,
            max_iters=10_000, allocator="racing",
        )
        per_seed.append({
            "seed": seed,
            "rugged": seed in RUGGED_SEEDS,
            "single_period": single.period,
            "fair_period": fair.period,
            "racing_period": racing.period,
            "fair_evals": fair.evaluations,
            "racing_evals": racing.evaluations,
            "racing_restarts": len(racing.restarts),
            "racing_margin": (fair.period - racing.period) / fair.period,
        })
    return {
        "budget": BUDGET,
        "n_restarts": N_RESTARTS,
        "seeds": per_seed,
        # Racing dominates fair-share: never worse at equal budget...
        "racing_never_worse": all(
            s["racing_period"] <= s["fair_period"] for s in per_seed
        ),
        # ...and strictly better exactly where fair-share was weak.
        "racing_beats_fair_on_rugged": all(
            s["racing_period"] < s["fair_period"]
            for s in per_seed if s["rugged"]
        ),
        # The rugged set is *defined* by fair-share losing to one lucky
        # deep climb — pin that the chosen seeds still exhibit it.
        "rugged_seeds_are_rugged": all(
            (s["single_period"] < s["fair_period"]) == s["rugged"]
            for s in per_seed
        ),
    }


def run_warm_start_sweep(n_instances: int = 300) -> dict:
    """Warm vs cold periods on the shared-topology regression sweep."""
    instances = make_sweep(n_instances)
    cold_engine = BatchEngine()
    warm_engine = BatchEngine(warm_start=True)
    # Warm both skeleton caches so the race times solving, not building.
    cold_engine.evaluate(instances[0], "strict", method="tpn")
    warm_engine.evaluate(instances[0], "strict", method="tpn")

    t0 = time.perf_counter()
    cold = [cold_engine.evaluate(i, "strict", method="tpn").period
            for i in instances]
    t1 = time.perf_counter()
    warm = [warm_engine.evaluate(i, "strict", method="tpn").period
            for i in instances]
    t2 = time.perf_counter()
    return {
        "n": n_instances,
        "identical": cold == warm,
        "cold_s": t1 - t0,
        "warm_s": t2 - t1,
        "speedup": (t1 - t0) / (t2 - t1),
    }


#: Replication of the slowly-varying sweep: lcm = 30, out-degree > 1
#: everywhere (the (2,3,5,1) regression topology converges in one round
#: from cold, leaving nothing for a warm start to save).
SLOW_REPLICATION = (6, 10, 15)
MIN_ROUND_REDUCTION = 2.0


def run_warm_start_rounds(n_instances: int = 200) -> dict:
    """Total policy-iteration rounds, cold vs carried-policy warm.

    The sweep jitters one base instance by 1% — the shape of a
    mapping-search neighborhood or a slowly-drifting platform — so the
    previous fixed point is almost always one improvement round from
    the next.  Round counts are deterministic, so the reduction is
    asserted, not advisory.
    """
    from repro import Instance, Mapping
    from repro.maxplus.howard import HowardState, solve_prepared

    rng = np.random.default_rng(42)
    counts = list(SLOW_REPLICATION)
    n, p = len(counts), sum(counts)
    bounds = np.cumsum([0] + counts)
    mapping = Mapping(
        [tuple(range(bounds[i], bounds[i + 1])) for i in range(n)],
        n_processors=p,
    )
    app = Application(works=[1.0] * n, file_sizes=[1.0] * (n - 1))
    base_comp = rng.uniform(5.0, 15.0, p)
    base_comm = rng.uniform(5.0, 15.0, (p, p))
    instances = []
    for _ in range(n_instances):
        comp = base_comp * rng.uniform(0.99, 1.01, p)
        comm = base_comm * rng.uniform(0.99, 1.01, (p, p))
        np.fill_diagonal(comm, 0.0)
        instances.append(
            Instance(app, Platform.from_comm_times(comp, comm), mapping)
        )

    engine = BatchEngine()
    sk = engine.skeleton(instances[0], "strict")
    state = HowardState()
    cold_rounds = warm_rounds = 0
    identical = True
    for inst in instances:
        weights = sk.stamp_weights(inst)
        cold = solve_prepared(sk.plan, weights)
        warm = solve_prepared(sk.plan, weights, state=state)
        cold_rounds += cold.n_rounds
        warm_rounds += warm.n_rounds
        identical &= cold.value == warm.value
    return {
        "n": n_instances,
        "identical": identical,
        "cold_rounds": cold_rounds,
        "warm_rounds": warm_rounds,
        "reduction": cold_rounds / warm_rounds,
    }


@dataclass
class _RecordingEngine(BatchEngine):
    """A :class:`BatchEngine` that remembers every mapping it evaluates."""

    mappings: list = field(default_factory=list)

    def evaluate(self, instances: Any, models: Any, *args: Any, **kwargs: Any) -> Any:
        if isinstance(instances, Instance):
            self.mappings.append(instances.mapping)
        else:
            instances = list(instances)
            self.mappings.extend(inst.mapping for inst in instances)
        return super().evaluate(instances, models, *args, **kwargs)


#: Oracle allowance of the seeded strict search behind the build contract.
BUILD_BUDGET = 300


def run_build_contract() -> dict:
    """Skeleton builds of one seeded strict search vs its count keys.

    Strict periods come from TPN + Howard, so every evaluation goes
    through the skeleton cache; ``engine.stats.misses`` counts builds.
    The cache holds far more entries than the search has count keys,
    so nothing is evicted and the count is a deterministic contract.
    """
    engine = _RecordingEngine()
    res = portfolio_search(
        APP, make_platform(), "strict", n_restarts=N_RESTARTS,
        budget=BUILD_BUDGET, max_iters=10_000, engine=engine,
    )
    count_keys = {("strict", m.replication_counts) for m in engine.mappings}
    assignments = {m.assignments for m in engine.mappings}
    return {
        "period": res.period,
        "evaluated": len(engine.mappings),
        "builds": engine.stats.misses,
        "count_keys": len(count_keys),
        "assignments": len(assignments),
        "one_build_per_count_key": engine.stats.misses == len(count_keys),
        "count_keys_merge_assignments": len(count_keys) < len(assignments),
    }


def _check_build_contract(stats: dict) -> None:
    assert stats["one_build_per_count_key"], (
        f"{stats['builds']} skeleton builds for {stats['count_keys']} "
        f"distinct (model, replication counts) keys"
    )
    assert stats["count_keys_merge_assignments"], (
        f"{stats['count_keys']} count keys for {stats['assignments']} "
        f"distinct assignments: the search never reused a topology"
    )


def bench_count_keyed_builds(benchmark):
    stats = benchmark.pedantic(run_build_contract, rounds=1, iterations=1)
    _check_build_contract(stats)
    report(benchmark, f"Count-keyed skeleton cache (strict search, "
                      f"budget {BUILD_BUDGET})",
           [("skeleton builds", "= count keys",
             f"{stats['builds']} / {stats['count_keys']}"),
            ("count keys", "< assignments",
             f"{stats['count_keys']} / {stats['assignments']}")])


def bench_racing_dominates_fair_share(benchmark):
    stats = benchmark.pedantic(run_three_way, rounds=1, iterations=1)
    assert stats["rugged_seeds_are_rugged"], (
        "the RUGGED_SEEDS set drifted: fair-share vs single-start flipped "
        f"on some seed: {stats['seeds']}"
    )
    assert stats["racing_never_worse"], (
        f"racing lost to fair-share at equal budget: {stats['seeds']}"
    )
    assert stats["racing_beats_fair_on_rugged"], (
        f"racing failed to strictly beat fair-share on a rugged seed: "
        f"{stats['seeds']}"
    )
    report(benchmark, f"Racing vs fair-share vs single-start "
                      f"(equal budget {BUDGET}, {len(BENCH_SEEDS)} seeds)",
           [("racing <= fair-share (all seeds)", "yes",
             stats["racing_never_worse"]),
            ("racing < fair-share (rugged seeds)", "yes",
             stats["racing_beats_fair_on_rugged"]),
            ("rugged = fair loses to single", "yes",
             stats["rugged_seeds_are_rugged"])])


def bench_portfolio_beats_single_start(benchmark):
    stats = benchmark.pedantic(run_comparison, rounds=1, iterations=1)
    assert stats["wins"], (
        f"portfolio {stats['portfolio_period']:.4f} "
        f"({stats['portfolio_evals']} evals) did not beat single-start "
        f"{stats['single_period']:.4f} ({stats['single_evals']} evals)"
    )
    report(benchmark, f"Portfolio vs single-start (budget {BUDGET})",
           [("single-start period", "baseline",
             f"{stats['single_period']:.4f} ({stats['single_evals']} evals)"),
            ("portfolio period", "<= baseline",
             f"{stats['portfolio_period']:.4f} "
             f"({stats['portfolio_evals']} evals)"),
            ("portfolio wins", "yes", stats["wins"])])


def bench_warm_start_identity(benchmark):
    stats = benchmark.pedantic(run_warm_start_sweep, rounds=1, iterations=1)
    assert stats["identical"], "warm-started periods diverged from cold start"
    rounds = run_warm_start_rounds()
    assert rounds["identical"], "warm-started values diverged from cold start"
    assert rounds["reduction"] >= MIN_ROUND_REDUCTION, (
        f"warm start only cut policy-iteration rounds by "
        f"{rounds['reduction']:.2f}x on the slowly-varying sweep"
    )
    report(benchmark, "Warm-started Howard: identity + round reduction",
           [("periods identical (iid sweep)", "yes", stats["identical"]),
            ("values identical (slow sweep)", "yes", rounds["identical"]),
            ("round reduction (slow sweep)", f">= {MIN_ROUND_REDUCTION}x",
             f"{rounds['reduction']:.2f}x"),
            ("warm vs cold time (iid)", "(advisory)",
             f"{stats['speedup']:.2f}x")])


def main() -> int:
    stats = run_comparison()
    print(f"equal-budget comparison ({BUDGET} evaluations, {MODEL} model, "
          f"{APP.n_stages} stages on {make_platform().n_processors} procs)")
    print(f"single-start : P = {stats['single_period']:.4f} "
          f"({stats['single_evals']} evaluations)")
    print(f"portfolio    : P = {stats['portfolio_period']:.4f} "
          f"({stats['portfolio_evals']} evaluations)")
    for kind, period in stats["restarts"]:
        print(f"  restart {kind:<16}: {period:.4f}")
    assert stats["wins"], "portfolio failed to beat single-start local search"

    three = run_three_way()
    print(f"\nallocator race ({len(BENCH_SEEDS)} platform seeds, "
          f"budget {three['budget']}, {three['n_restarts']} restarts)")
    print(f"{'seed':>6} {'single':>9} {'fair':>9} {'racing':>9} "
          f"{'margin':>8}  notes")
    for s in three["seeds"]:
        notes = []
        if s["rugged"]:
            notes.append("rugged")
        if s["racing_period"] < s["fair_period"]:
            notes.append("racing wins")
        print(f"{s['seed']:>6} {s['single_period']:>9.4f} "
              f"{s['fair_period']:>9.4f} {s['racing_period']:>9.4f} "
              f"{100 * s['racing_margin']:>7.1f}%  {', '.join(notes)}")
    assert three["rugged_seeds_are_rugged"], "RUGGED_SEEDS drifted"
    assert three["racing_never_worse"], "racing lost to fair-share"
    assert three["racing_beats_fair_on_rugged"], \
        "racing did not strictly beat fair-share on a rugged seed"

    warm = run_warm_start_sweep()
    print(f"\nwarm-start regression sweep (iid): {warm['n']} instances, "
          f"strict model")
    print(f"cold engine : {warm['cold_s']:.3f} s")
    print(f"warm engine : {warm['warm_s']:.3f} s "
          f"({warm['speedup']:.2f}x, advisory)")
    print(f"identical   : {warm['identical']}")
    assert warm["identical"], "warm-started periods diverged from cold start"

    rounds = run_warm_start_rounds()
    print(f"\nslowly-varying sweep: {rounds['n']} instances, "
          f"replication {SLOW_REPLICATION} (m = 30)")
    print(f"policy rounds: {rounds['cold_rounds']} cold -> "
          f"{rounds['warm_rounds']} warm "
          f"({rounds['reduction']:.2f}x reduction)")
    print(f"identical    : {rounds['identical']}")
    assert rounds["identical"], "warm-started values diverged from cold start"
    assert rounds["reduction"] >= MIN_ROUND_REDUCTION, (
        f"round reduction {rounds['reduction']:.2f}x below "
        f"{MIN_ROUND_REDUCTION}x"
    )
    builds = run_build_contract()
    print(f"\ncount-keyed skeleton cache: strict search, budget "
          f"{BUILD_BUDGET}, {builds['evaluated']} evaluations")
    print(f"skeleton builds : {builds['builds']} "
          f"(distinct count keys: {builds['count_keys']})")
    print(f"assignments     : {builds['assignments']} distinct")
    _check_build_contract(builds)
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
