"""End-to-end benchmark of the throughput evaluator, with a traced breakdown.

Run from the root of a checkout::

    python3 perfbench/run.py --workload campaign-mixed --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py                  # every workload, one process

Each invocation builds one workload's units from ``--seed`` (see
``workloads.py``) and runs passes over them, one unit at a time, for
``--seconds``.  ``wall_s``, ``drain_s`` and ``export_s`` sum each unit's
median run over the units, in reference-core seconds: every timed run
(and every ``setup_s`` probe) sits between two runs of a fixed
calibration loop that uses none of the program, and its time is scaled
by the loop's reference time over the loop's mean measured time.  On a
shared host the other tenants' load slows every process by up to about
2x, in spells of seconds to minutes; the scaling takes out one half to
two thirds of that swing (the program slows somewhat more than the
loop).  The unscaled median whole pass is printed beside it.  Each unit's first run is cold-checked against
``compute_period`` (outside the timed region); every later run must
reproduce its outputs bit for bit.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
plain and traced whole passes and reports the per-layer metrics: the
traced passes time calls into the program's layers (see ``tracer.py``),
the plain ones give ``trace.overhead_s`` and the campaign/search metrics
that only some workloads have.  The spans of the last traced pass are
written to ``.perfbench/traces/``.

A human-readable table goes to standard output; the last line is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PLAN = json.loads((HERE / "plan.json").read_text())
WORKLOADS = ("campaign-mixed", "campaign-pinned", "optimize-strict")

#: Fresh interpreters timed per run for ``setup_s`` (median reported).
SETUP_PROBES = 7
#: Steps of the calibration loop timed between timed runs, and the loop's
#: time on an uncontended core of the machine the benchmark was written
#: on (x86_64, 2 vCPU, Python 3.11.7).  setup_s, wall_s, drain_s,
#: export_s and the checkpoint intervals are scaled by reference time /
#: measured time, i.e. given in seconds on that core; the traced layer
#: times are not.  Loops that also touch a 10 MB dict, numpy, json or
#: sqlite tracked the host's load no better.
CALIBRATION_STEPS = 200_000
CALIBRATION_REF_S = 0.015
#: Plain mode runs every unit at least once; trace mode runs at least
#: this many whole plain and traced passes (the exact counts of two
#: traced passes must agree), even when ``--seconds`` is short...
MIN_PASSES = 2
#: ...unless this much time has passed, so that a slow host still ends
#: an invocation well within three minutes.
MAX_SECONDS = 100

#: Metrics of the JSON result line, by ``--trace`` mode: name -> unit.
END_TO_END = {"setup_s": "s", "wall_s": "s", "points_per_s": "1/s",
              "peak_rss_mb": "MB"}
PER_LAYER = {
    "drain_s": "s", "export_s": "s", "checkpoint_p50_ms": "ms",
    "checkpoint_p75_ms": "ms", "best_period": "time",
    "spec.expand_s": "s", "spec.instance_s": "s", "spec.instance_calls": "count",
    "store.digest_s": "s", "store.digest_calls": "count", "store.encode_s": "s",
    "store.put_s": "s", "store.commit_s": "s", "store.commits": "count",
    "store.get_s": "s", "store.get_calls": "count",
    "executor.order_s": "s", "executor.export_rows_s": "s",
    "executor.serialize_s": "s",
    "engine.evaluate_s": "s", "engine.evaluate_self_s": "s",
    "engine.signature_s": "s", "engine.points": "count",
    "engine.distinct_signatures": "count", "engine.cache_hit_ratio": "ratio",
    "skeleton.build_s": "s", "skeleton.builds": "count", "skeleton.stamp_s": "s",
    "classify.plan_build_s": "s", "classify.plan_builds": "count",
    "classify.verdict_s": "s",
    "poly.period_s": "s", "poly.calls": "count",
    "howard.scalar_s": "s", "howard.scalar_calls": "count",
    "howard.lockstep_s": "s", "howard.lockstep_calls": "count",
    "howard.lockstep_rows": "count", "howard.rounds": "count",
    "howard.lockstep_share": "ratio",
    "search.evaluations": "count", "search.self_s": "s",
    "trace.coverage": "ratio", "trace.overhead_s": "s",
}
#: Counts that must repeat exactly from run to run.
EXACT = [name for name, unit in PER_LAYER.items() if unit == "count"]
#: The ten user-facing metrics the table prints; the ones a workload
#: lacks show as n/a.
TABLE = ["setup_s", "wall_s", "points_per_s", "drain_s", "export_s",
         "checkpoint_p50_ms", "checkpoint_p75_ms", "peak_rss_mb",
         "error_rate", "best_period"]
CAMPAIGN_ONLY = {"drain_s", "export_s", "checkpoint_p50_ms",
                 "checkpoint_p75_ms"}


def use_checkout_source() -> None:
    """Import the program from this checkout's ``src``, or stop."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program source at {SRC / 'repro'}")
    sys.path.insert(0, str(SRC))


class Calibration:
    """A fixed arithmetic loop that uses none of the program, timed
    between runs."""

    def __init__(self) -> None:
        self.last = self.seconds()

    @staticmethod
    def seconds() -> float:
        """Time one run of the loop."""
        t0 = time.perf_counter()
        x = 0
        for k in range(CALIBRATION_STEPS):
            x += k * k % 7
        return time.perf_counter() - t0

    def rescale(self) -> float:
        """Time the loop again; return the factor from seconds since the
        last reading to reference-core seconds."""
        before, self.last = self.last, self.seconds()
        return CALIBRATION_REF_S / ((before + self.last) / 2)


def setup_probe(args: argparse.Namespace) -> None:
    """Child process: time ``import repro`` plus building the inputs."""
    calibration = Calibration()
    t0 = time.perf_counter()
    use_checkout_source()
    import workloads

    units = workloads.build(args.workload, args.seed, args.size,
                            Path(args.workdir))
    elapsed = time.perf_counter() - t0
    scale = calibration.rescale()
    for unit in units:
        unit.close()
    print(json.dumps({"setup_s": elapsed * scale}))


def measure_setup(args: argparse.Namespace, name: str,
                  workdir: Path) -> float:
    samples = []
    for i in range(SETUP_PROBES):
        probe_dir = workdir / f"setup-{i}"
        probe_dir.mkdir()
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", name, "--seed", str(args.seed),
             "--size", args.size, "--workdir", str(probe_dir)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        samples.append(json.loads(out.stdout.splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir)
    return statistics.median(samples)


def quartile3(values: list[float]) -> float:
    return statistics.quantiles(values, n=4)[2] if len(values) > 1 else values[0]


def run_unit(unit: Any, ref: Any,
             calibration: Calibration) -> tuple[Any, int, int]:
    """One timed run of a unit, checked: ``(outcome, attempted, failed)``.

    The calibration readings before and after the run give the outcome's
    ``scale``.  A unit's first run is its reference: its
    outputs are cold-checked; every later run must reproduce them.  A
    ``ReproError`` fails the run and gives no outcome.
    """
    from repro.errors import ReproError

    try:
        out = unit.run()
        out.scale = calibration.rescale()
    except ReproError:
        n = ref.ops if ref else 1
        return None, n, n
    finally:
        unit.reset()
    check = unit.verify(out) if ref is None else unit.mismatches(out, ref)
    return out, out.ops, out.failed + check


def measure(args: argparse.Namespace, name: str,
            workdir: Path) -> tuple[dict[str, float], int, int, dict[str, Any]]:
    """One workload: passes over its units until time is up, metrics."""
    import tracer as tracing
    import workloads

    setup_s = 0.0 if args.trace else measure_setup(args, name, workdir)
    units = workloads.build(name, args.seed, args.size, workdir)
    tracer = tracing.Tracer() if args.trace else None
    calibration = Calibration()
    refs: list[Any] = [None] * len(units)
    samples: list[list[Any]] = [[] for _ in units]  # plain runs, per unit
    plain_walls: list[float] = []  # complete plain passes
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    attempted = failed = 0
    peak_rss_mb = 0.0
    start = time.perf_counter()

    def time_is_up() -> bool:
        # Plain runs stop between units, traced runs between passes.
        if tracer is None:
            enough = all(samples)
        else:
            enough = min(len(plain_walls), len(layers)) >= MIN_PASSES
        elapsed = time.perf_counter() - start
        return elapsed >= MAX_SECONDS or (enough and elapsed >= args.seconds)

    try:
        while not time_is_up():
            with_trace = tracer is not None and len(layers) < len(plain_walls)
            if with_trace:
                tracer.reset()
                tracer.install()
            outs = []
            try:
                for k, unit in enumerate(units):
                    if tracer is None and time_is_up():
                        break
                    out, n_att, n_fail = run_unit(unit, refs[k], calibration)
                    attempted += n_att
                    failed += n_fail
                    if out is None:
                        continue
                    if refs[k] is None:
                        refs[k] = out
                    outs.append(out)
                    if not with_trace:
                        samples[k].append(out)
            finally:
                if with_trace:
                    tracer.uninstall()
            if not peak_rss_mb and all(refs):
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if len(outs) < len(units):
                continue
            pass_wall = sum(o.wall_s for o in outs)
            if with_trace:
                traced_walls.append(pass_wall)
                layers.append(tracing.layer_metrics(tracer, pass_wall))
            else:
                plain_walls.append(pass_wall)
    finally:
        for unit in units:
            unit.close()

    def pass_s(field: str) -> float:
        # Each unit's median plain run in reference-core seconds, summed
        # over the units.
        return sum(statistics.median(getattr(o, field) * o.scale for o in s)
                   for s in samples)

    campaign = name.startswith("campaign")
    ticks = [t * o.scale for s in samples for o in s for t in o.checkpoint_ms]
    wall_s = pass_s("wall_s")
    metrics: dict[str, float] = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "points_per_s": sum(r.ops for r in refs) / wall_s,
        "peak_rss_mb": peak_rss_mb,
        "drain_s": pass_s("drain_s"),
        "export_s": pass_s("export_s"),
        "checkpoint_p50_ms": statistics.median(ticks) if campaign else 0.0,
        "checkpoint_p75_ms": quartile3(ticks) if campaign else 0.0,
        "best_period": statistics.mean(r.best_period for r in refs),
    }
    info = {"checkpoints": len(ticks),
            "runs": sum(len(s) for s in samples),
            "passes": len(plain_walls), "traced_passes": len(layers),
            "pass_median_s": (statistics.median(plain_walls)
                              if plain_walls else float("nan"))}
    if tracer is not None:
        for key in PER_LAYER:
            if key in EXACT:
                metrics[key] = layers[0][key]
            elif key not in metrics and key != "trace.overhead_s":
                metrics[key] = statistics.median(run[key] for run in layers)
        metrics["trace.overhead_s"] = (statistics.median(traced_walls)
                                       - info["pass_median_s"])
        for key in EXACT:
            if len({run[key] for run in layers}) > 1:
                failed += 1
                info.setdefault("unsteady_counts", []).append(key)
        path = ROOT / ".perfbench" / "traces" / f"{name}-seed{args.seed}.jsonl"
        tracer.write(path)
        info["spans"] = str(path.relative_to(ROOT))
    metrics["error_rate"] = failed / attempted
    return metrics, attempted, failed, info


def print_table(name: str, metrics: dict[str, float], info: dict[str, Any],
                trace_on: bool) -> None:
    print(f"== {name}: {info['runs']} plain unit runs, {info['passes']} "
          f"plain and {info['traced_passes']} traced whole passes, "
          f"{info['checkpoints']} checkpoint intervals")
    print(f"  {'median plain pass':28s} {info['pass_median_s']:>14.6g} s")
    units = {**END_TO_END, **PER_LAYER, "error_rate": "ratio"}
    for key in PER_LAYER if trace_on else TABLE:
        applies = (key not in CAMPAIGN_ONLY or name.startswith("campaign")) \
            and (key != "best_period" or name == "optimize-strict")
        value = f"{metrics[key]:.6g}" if applies else "n/a"
        print(f"  {key:28s} {value:>14s} {units[key]}")
    for key in ("unsteady_counts", "spans"):
        if key in info:
            print(f"  {key}: {info[key]}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=PLAN["seeds"]["default"])
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a few points, for the self-test only")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.setup_probe:
        setup_probe(args)
        return 0
    use_checkout_source()
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    wanted = PER_LAYER if args.trace else END_TO_END
    workdir = ROOT / ".perfbench" / f"work-{os.getpid()}"
    result: dict[str, Any] = {}
    attempted = failed = 0
    try:
        for name in names:
            workdir.mkdir(parents=True)
            metrics, n_att, n_fail, info = measure(args, name, workdir)
            shutil.rmtree(workdir)
            attempted += n_att
            failed += n_fail
            print_table(name, metrics, info, bool(args.trace))
            prefix = "" if len(names) == 1 else name + "."
            for key, unit in wanted.items():
                result[prefix + key] = {"value": metrics[key], "unit": unit}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
