"""Streaming campaign executor: resume, warm-start-friendly ordering, export.

:func:`run_campaign` drains a :class:`~repro.campaign.spec.CampaignSpec`
through one shared :class:`~repro.engine.BatchEngine`:

1. **Expand + dedupe** — the spec expands (and every point is digested)
   once; every distinct digest is looked up in the store and
   already-computed points are skipped (this is both the resume path
   and the duplicate guard).
2. **Order** — pending points are regrouped by
   :func:`~repro.engine.signature.topology_signature` (groups in
   first-seen order) while *preserving sweep order inside each group*.
   Grouping maximizes skeleton-cache and Howard warm-start hits; the
   preserved sweep adjacency keeps consecutive same-topology instances
   similar, so the carried policy is typically one improvement round
   from each new fixed point (see ``benchmarks/bench_campaign.py``,
   which asserts this ordering beats PR-1's plain contiguous chunking).
3. **Claim + evaluate + checkpoint** — a campaign drains one way: the
   fabric's claim loop.  ``run_campaign`` runs it in-process as a
   single worker that claims ``commit_every`` digests at a time from
   the ordered stream, evaluates them through
   one ``BatchEngine.evaluate`` call (each same-topology run is
   stamped into one ``(B, E)`` weight matrix and solved in lockstep by
   :func:`repro.maxplus.howard.solve_prepared_many`), commits them and
   releases their leases, so a kill loses at most ``commit_every``
   points, never committed work.  ``n_jobs > 1`` hands the same loop to
   :func:`run_campaign_workers`, whose worker processes coordinate
   only through the store's lease table.

Evaluation runs ``warm_start=True``: period values are identical to
cold start (pinned by ``tests/test_warm_start.py``), and stored
payloads carry only values — so interrupted, resumed, serial and
parallel runs all export byte-identical artifacts.

:func:`export_campaign_json` / :func:`export_campaign_csv` join the
(re-expanded) spec with the store and emit byte-deterministic files via
:func:`repro.experiments.io.canonical_json` conventions.
"""

from __future__ import annotations

import csv
import io
import os as _os
import sqlite3
import zlib
from contextlib import nullcontext, suppress
from dataclasses import dataclass
from itertools import islice
from pathlib import Path
from typing import Any, Callable, Mapping, Sequence

from ..core.instance import Instance
from ..engine import BatchEngine, topology_signature
from ..errors import ValidationError
from ..experiments.io import canonical_json
from ..faults import FAULTS, FaultPlan, SpillJournal, pause
from ..telemetry import TELEMETRY, write_trace
from .lease import DEFAULT_LEASE_TTL, LeaseManager
from .spec import CampaignPoint, CampaignSpec
from .store import ResultStore, instance_digest, payload_from_result

__all__ = [
    "CampaignReport",
    "FabricReport",
    "run_campaign",
    "run_campaign_worker",
    "run_campaign_workers",
    "order_for_engine",
    "campaign_status",
    "campaign_rows",
    "export_campaign_json",
    "export_campaign_csv",
]

#: Checkpoint cadence (points per store commit).
DEFAULT_COMMIT_EVERY = 32

#: Lease-table identity of :func:`run_campaign`'s in-process worker.
#: Fixed, never pid-based: its claims (and so its telemetry counters)
#: repeat exactly from run to run.
_SERIAL_WORKER = "run-campaign"

#: Fabric claim-batch size: how many digests one worker leases per
#: claim transaction.  Small enough that a crashed worker strands
#: little work behind its TTL; large enough that claim overhead stays
#: negligible next to evaluation.
DEFAULT_CLAIM_BATCH = 16

#: Sleep while every pending digest is leased by some other worker
#: (seconds); bounded by the lease TTL, after which stale leases
#: become claimable.
_FABRIC_POLL_SLEEP = 0.05


@dataclass(frozen=True)
class CampaignReport:
    """Outcome of one :func:`run_campaign` invocation.

    Attributes
    ----------
    spec_name:
        The campaign.
    total:
        Points the spec expands to.
    hits:
        Points already in the store when the run started (resume skips).
    evaluated:
        Points computed (and stored) by this run.
    remaining:
        Points still missing afterwards (non-zero only when the run was
        truncated by ``max_points``).
    groups:
        Distinct TPN topology groups — ``(model, replication counts)``
        signatures — among the evaluated points.  Mappings that differ
        only in which processors fill the replica slots share a group.
    """

    spec_name: str
    total: int
    hits: int
    evaluated: int
    remaining: int
    groups: int

    @property
    def complete(self) -> bool:
        """Whether every point of the spec is now stored."""
        return self.remaining == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (the CLI's ``run --summary-json`` payload).

        Plain scalars only, so CI scripts can assert on parsed fields
        instead of grepping the human-formatted run summary.
        """
        return {
            "campaign": self.spec_name,
            "total": self.total,
            "hits": self.hits,
            "evaluated": self.evaluated,
            "remaining": self.remaining,
            "groups": self.groups,
            "complete": self.complete,
        }


def order_for_engine(
    pairs: Sequence[tuple[Instance, str]]
) -> list[int]:
    """Engine-friendly evaluation order of ``(instance, model)`` pairs.

    Returns indices grouped by topology signature — groups in order of
    first appearance, original (sweep) order preserved *within* each
    group.  Stable and deterministic: a pure function of the input
    sequence.

    Examples
    --------
    >>> from repro import Application, Platform, Mapping, Instance
    >>> app = Application(works=[1, 1], file_sizes=[1])
    >>> plat = Platform.homogeneous(4)
    >>> a = Instance(app, plat, Mapping([(0,), (1,)]))
    >>> b = Instance(app, plat, Mapping([(0,), (1, 2)]))
    >>> order_for_engine([(a, "strict"), (b, "strict"), (a, "strict")])
    [0, 2, 1]
    """
    groups: dict[tuple[str, tuple[int, ...]], list[int]] = {}
    for i, (inst, model) in enumerate(pairs):
        groups.setdefault(topology_signature(inst, model), []).append(i)
    return [i for members in groups.values() for i in members]


def _expand_digests(
    spec: CampaignSpec,
) -> tuple[int, dict[str, tuple[Instance, str]]]:
    """Expand and digest a spec once.

    Returns the number of points and each distinct digest's
    ``(instance, model)``, digests in first-seen (sweep) order.
    """
    points = spec.expand()
    by_digest: dict[str, tuple[Instance, str]] = {}
    for pt in points:
        inst = pt.instance()
        digest = instance_digest(inst, pt.model, objectives=spec.objectives)
        by_digest.setdefault(digest, (inst, pt.model))
    return len(points), by_digest


def run_campaign(
    spec: CampaignSpec,
    store: ResultStore,
    n_jobs: int | None = None,
    max_points: int | None = None,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    progress: Callable[[int, int], None] | None = None,
    trace_dir: str | Path | None = None,
) -> CampaignReport:
    """Run (or resume) a campaign against a content-addressed store.

    Parameters
    ----------
    spec:
        The campaign to drain.
    store:
        Result store; points whose digest is already present are never
        re-evaluated, which is both the resume path and the cross-run
        dedupe.
    n_jobs:
        ``None``/``1`` — drain in this process through the fabric's
        claim loop (one worker, one warm-started engine, streaming
        commits); ``k > 1`` — :func:`run_campaign_workers` with ``k``
        fabric worker processes (``0`` = all cores), which needs a file
        store.  Stored values are identical either way.
    max_points:
        Evaluate at most this many *new* points, then stop with
        ``remaining > 0`` — a deterministic stand-in for an interrupted
        run (used by tests and the CI resume smoke).  In-process drains
        only.
    commit_every:
        Checkpoint cadence: points per claim and per store commit.
    progress:
        Optional ``callback(done_new_points, pending_total)`` after each
        commit of an in-process drain.
    trace_dir:
        Enable :mod:`repro.telemetry` on a fresh collector and write a
        ``trace-main.jsonl`` canonical trace (counters + spans) into
        this directory when done (plus one ``trace-worker-<i>.jsonl``
        per fabric worker when ``n_jobs > 1``).  ``None`` leaves the
        collector's enabled state alone, so callers may also
        enable/inspect telemetry themselves.
    """
    parallel = n_jobs is not None and n_jobs != 1
    if parallel:
        if store.path == ":memory:":
            raise ValidationError(
                f"n_jobs={n_jobs} drains through worker processes, which "
                f"cannot share a ':memory:' store; use a file store or "
                f"n_jobs=1"
            )
        if max_points is not None:
            raise ValidationError(
                "max_points needs an in-process drain (n_jobs=1)"
            )
    elif trace_dir is not None:
        TELEMETRY.enable("main")

    # A parallel drain's root span is run_campaign_workers' own.
    with nullcontext() if parallel else TELEMETRY.span(
            "campaign", campaign=spec.name):
        with TELEMETRY.span("expand"):
            n_points, by_digest = _expand_digests(spec)
            # existence probe only — never fetch/parse payloads on resume
            pending = [d for d in by_digest if d not in store]
        if parallel:
            run_campaign_workers(
                spec, store.path,
                workers=n_jobs or _os.cpu_count() or 1,
                commit_every=commit_every, trace_dir=trace_dir,
            )
            evaluated = [d for d in pending if d in store]
        else:
            order = order_for_engine([by_digest[d] for d in pending])
            lease = LeaseManager(store, _SERIAL_WORKER)
            try:
                evaluated = _drain(
                    spec, store, lease, [pending[j] for j in order], by_digest,
                    claim_batch=commit_every, commit_every=commit_every,
                    progress=progress, max_points=max_points,
                )
            except BaseException:
                # Hand unfinished claims back at once, so a resume right
                # after an interrupt does not wait out their TTL (if the
                # store itself is failing, they simply expire instead).
                with suppress(sqlite3.OperationalError):
                    store.rollback()
                    lease.release(lease.held())
                raise
        n_groups = len({topology_signature(*by_digest[d]) for d in evaluated})

    report = CampaignReport(
        spec_name=spec.name,
        total=n_points,
        hits=n_points - len(pending),
        evaluated=len(evaluated),
        remaining=len(pending) - len(evaluated),
        groups=n_groups,
    )
    if trace_dir is not None and not parallel:
        trace_path = Path(trace_dir)
        trace_path.mkdir(parents=True, exist_ok=True)
        write_trace(trace_path / "trace-main.jsonl", TELEMETRY)
        TELEMETRY.disable()
    return report


# ----------------------------------------------------------------------
# the distributed fabric: lease-coordinated multi-process drain
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class FabricReport:
    """Outcome of one :func:`run_campaign_workers` invocation.

    Attributes
    ----------
    spec_name:
        The campaign.
    total:
        Distinct digests the spec expands to.
    hits:
        Digests already stored when the fabric launched.
    evaluated:
        New digests stored by this fabric run (all workers combined).
    remaining:
        Digests still missing afterwards — non-zero only when workers
        crashed (or were crash-injected); rerun to resume.
    workers:
        Worker processes launched.
    crashed:
        Indices of workers that did not exit cleanly (SIGKILL shows up
        here); their claimed-but-uncommitted points simply wait out the
        lease TTL and are reclaimed on the next run.
    """

    spec_name: str
    total: int
    hits: int
    evaluated: int
    remaining: int
    workers: int
    crashed: tuple[int, ...] = ()

    @property
    def complete(self) -> bool:
        """Whether every point of the spec is now stored."""
        return self.remaining == 0

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready summary (mirrors :meth:`CampaignReport.to_dict`)."""
        return {
            "campaign": self.spec_name,
            "total": self.total,
            "hits": self.hits,
            "evaluated": self.evaluated,
            "remaining": self.remaining,
            "workers": self.workers,
            "crashed": list(self.crashed),
            "complete": self.complete,
        }


def _unique_spec_digests(
    spec: CampaignSpec,
) -> tuple[list[str], dict[str, tuple[Instance, str]]]:
    """Signature-ordered distinct digests of a spec + their instances.

    Every worker derives the *same* list (expansion and ordering are
    deterministic), so the fabric needs no coordinator process: the
    shared store plus the lease table are the only channel.
    """
    _, by_digest = _expand_digests(spec)
    firsts = list(by_digest)
    order = order_for_engine([by_digest[d] for d in firsts])
    return [firsts[j] for j in order], by_digest


def _spill_chunk(
    store: ResultStore,
    spill_dir: str | Path,
    payloads: Sequence[tuple[str, dict[str, Any]]],
    spilled: set[str],
) -> None:
    """Degrade gracefully: journal a chunk the store would not take.

    The open transaction is rolled back (COMMIT already exhausted its
    retry budget) and every payload goes to the write-ahead journal;
    ``repro-workflow store heal`` replays it later.  Digests that made
    it into the journal are added to ``spilled`` so the worker treats
    them as done and keeps draining — per-worker progress instead of a
    dead campaign.
    """
    store.rollback()
    journal = SpillJournal(spill_dir)
    for digest, payload in payloads:
        try:
            journal.spill(digest, canonical_json(payload))
        except OSError:
            # The journal write itself failed (e.g. injected ENOSPC):
            # the digest simply stays pending for a later worker/run.
            continue
        spilled.add(digest)
    if TELEMETRY.enabled:
        TELEMETRY.count("fabric.spilled_chunks")


def _drain(
    spec: CampaignSpec,
    store: ResultStore,
    lease: LeaseManager,
    ordered: Sequence[str],
    by_digest: Mapping[str, tuple[Instance, str]],
    *,
    claim_batch: int,
    commit_every: int,
    progress: Callable[[int, int], None] | None,
    spill_dir: str | Path | None = None,
    max_points: int | None = None,
) -> list[str]:
    """The claim loop: drain ``ordered`` into ``store`` under ``lease``.

    The single drain of both :func:`run_campaign` (one in-process
    worker) and :func:`run_campaign_worker` (one fabric process).
    Claims walk ``ordered`` with a cursor; the store is rescanned only
    when a claim comes back empty, so a drain costs one pass over the
    digests, not one per claim.  Digests other workers store meanwhile
    are skipped by :meth:`~repro.campaign.lease.LeaseManager.claim`
    itself.  Stops after ``max_points`` new points when given.

    Returns the digests this call committed, in commit order.
    """
    engine = BatchEngine(max_rows=spec.max_paths + 1, warm_start=True)
    total = len(ordered) if max_points is None \
        else min(len(ordered), max_points)
    committed: list[str] = []
    spilled: set[str] = set()
    queue: list[str] = []
    pos = 0
    while max_points is None or len(committed) < max_points:
        limit = claim_batch if max_points is None \
            else min(claim_batch, max_points - len(committed))
        with TELEMETRY.span("claim"):
            claimed = lease.claim(islice(queue, pos, None), limit=limit) \
                if pos < len(queue) else []
            if not claimed:
                stored = set(store.digests())
                queue = [d for d in ordered
                         if d not in stored and d not in spilled]
                pos = 0
                if queue:
                    claimed = lease.claim(queue, limit=limit)
        if not queue:
            break
        if FAULTS.enabled:
            FAULTS.hit("worker.after-claim")
        if not claimed:
            # Everything left is leased by some other live worker (or
            # just landed in the store); wait for completion or expiry.
            # The watchdog half: sweep leases whose renewal deadline
            # has passed, so a hung worker's digests go back on the
            # market after one TTL instead of lingering.
            with TELEMETRY.span("wait"):
                swept = lease.reclaim_stale()
                if swept and TELEMETRY.enabled:
                    TELEMETRY.count("fabric.stale_reclaimed", swept)
                pause(_FABRIC_POLL_SLEEP)
            pos = len(queue)  # rescan on the next pass
            continue
        pos = queue.index(claimed[-1], pos) + 1
        for start in range(0, len(claimed), commit_every):
            chunk = claimed[start: start + commit_every]
            tail = claimed[start:]
            renewed = lease.renew(tail)  # heartbeat for the unevaluated tail
            if renewed < len(tail):
                # This worker stalled past its renewal deadline and the
                # watchdog handed (some of) its leases to someone else.
                # Evaluating them anyway would be harmless (content
                # addressing absorbs duplicates) but wasteful — keep
                # only what is still ours.
                held = set(lease.held())
                lost = [d for d in chunk if d not in held]
                if lost:
                    chunk = [d for d in chunk if d in held]
                    if TELEMETRY.enabled:
                        TELEMETRY.count("fabric.lost_leases", len(lost))
                if not chunk:
                    continue
            with TELEMETRY.span("evaluate", points=len(chunk)):
                results = engine.evaluate(
                    [by_digest[d][0] for d in chunk],
                    [by_digest[d][1] for d in chunk],
                )
            payloads = [
                (digest, payload_from_result(by_digest[digest][0], result,
                                             objectives=spec.objectives))
                for digest, result in zip(chunk, results)
            ]
            with TELEMETRY.span("commit", points=len(chunk)):
                try:
                    for digest, payload in payloads:
                        store.put(digest, payload, commit=False)
                    store.commit()
                except (sqlite3.OperationalError, OSError):
                    if spill_dir is None:
                        raise
                    _spill_chunk(store, spill_dir, payloads, spilled)
                    continue
                if FAULTS.enabled:
                    FAULTS.hit("worker.pre-release")
                lease.release(chunk)
            if FAULTS.enabled:
                FAULTS.hit("worker.after-release")
            committed.extend(chunk)
            if progress is not None:
                progress(len(committed), total)
    return committed


def run_campaign_worker(
    spec: CampaignSpec,
    store: ResultStore,
    worker_id: str,
    lease_ttl: float | None = None,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    progress: Callable[[int, int], None] | None = None,
    spill_dir: str | Path | None = None,
) -> int:
    """Drain one campaign as a lease-coordinated fabric worker.

    The claim loop of the distributed fabric: any number of processes —
    on one host or many, sharing the store file or a synced copy — can
    run this concurrently against one ``CampaignSpec`` and partition
    the work without duplicates:

    1. derive the signature-ordered digest list (deterministic, no
       coordinator), rotated by a stable per-worker offset so workers
       start claiming in different regions;
    2. **claim** a batch of unstored, unleased digests
       (:class:`~repro.campaign.lease.LeaseManager` — stale leases of
       crashed workers are reclaimed by the same transaction);
    3. evaluate the batch in commit-sized chunks through a warm-started
       :class:`~repro.engine.BatchEngine`, renewing held leases between
       chunks (the heartbeat), committing results and releasing their
       leases chunk by chunk;
    4. when nothing is claimable but points remain, sweep leases whose
       renewal deadline has passed (the hung-worker watchdog) and sleep
       briefly — either another live worker finishes them or the next
       claim takes the stale ones over.

    Returns the number of new points this worker stored.  Crash-safe at
    every boundary: a SIGKILL loses only the current uncommitted chunk,
    whose leases expire and free the points for everyone else.

    The loop carries the fabric's resilience ladder.  A heartbeat that
    comes back short (this worker stalled past its renewal deadline and
    lost leases to a takeover) drops the lost digests instead of
    double-committing blindly.  A commit that fails past the store's
    retry budget spills the chunk's payloads to the ``spill_dir``
    write-ahead journal (when given) and keeps draining; ``store heal``
    replays the journal idempotently.  Chaos tests drive all of this
    through the :mod:`repro.faults` plane — the ``worker.after-claim``,
    ``worker.pre-release`` and ``worker.after-release`` sites mark the
    protocol barriers where a plan may SIGKILL this process for real.
    """
    ordered, by_digest = _unique_spec_digests(spec)
    lease = LeaseManager(
        store, worker_id,
        ttl=DEFAULT_LEASE_TTL if lease_ttl is None else lease_ttl,
    )
    # Stable stagger: worker k starts claiming at offset k/N-ish of the
    # ordered list (keyed by the worker id's crc so independent hosts
    # need no index assignment), keeping claim contention rare while
    # preserving signature-contiguous runs inside each claim batch.
    offset = zlib.crc32(worker_id.encode()) % max(1, len(ordered))
    return len(_drain(
        spec, store, lease, ordered[offset:] + ordered[:offset], by_digest,
        claim_batch=claim_batch, commit_every=commit_every,
        progress=progress, spill_dir=spill_dir,
    ))

def _fabric_worker_main(
    spec_data: dict[str, Any],
    store_path: str,
    worker_index: int,
    lease_ttl: float | None,
    claim_batch: int,
    commit_every: int,
    fault_plan: FaultPlan | None,
    spill_dir: str | None,
    trace_dir: str | None,
) -> None:
    """Subprocess entry point of :func:`run_campaign_workers`.

    Telemetry and fault-plane state are set unconditionally: forked
    workers inherit the parent's collector and plane (spans, counters,
    hit counts, enabled flags) and must start from a clean slate —
    telemetry enabled on a fresh per-worker collector when tracing, the
    plane armed with this worker's own :class:`~repro.faults.FaultPlan`
    when one is scheduled, both disabled otherwise.  Each tracing
    worker writes its own ``trace-worker-<i>.jsonl``;
    :func:`repro.telemetry.merge_traces` recombines them with the
    parent's ``trace-main.jsonl``.
    """
    spec = CampaignSpec.from_dict(spec_data)
    if trace_dir is not None:
        TELEMETRY.enable(f"worker-{worker_index}")
    else:
        TELEMETRY.disable()
    if fault_plan is not None:
        FAULTS.arm(fault_plan)
    else:
        FAULTS.disarm()
    with ResultStore(store_path) as store:
        with TELEMETRY.span("worker-run", worker=worker_index):
            run_campaign_worker(
                spec, store,
                worker_id=f"fabric-{worker_index}-{_os.getpid()}",
                lease_ttl=lease_ttl,
                claim_batch=claim_batch,
                commit_every=commit_every,
                spill_dir=spill_dir,
            )
    if trace_dir is not None:
        write_trace(
            Path(trace_dir) / f"trace-worker-{worker_index}.jsonl", TELEMETRY
        )


def run_campaign_workers(
    spec: CampaignSpec,
    store_path: str | Path,
    workers: int,
    lease_ttl: float | None = None,
    claim_batch: int = DEFAULT_CLAIM_BATCH,
    commit_every: int = DEFAULT_COMMIT_EVERY,
    fault_plans: Mapping[int, FaultPlan] | None = None,
    spill_dir: str | Path | None = None,
    trace_dir: str | Path | None = None,
) -> FabricReport:
    """Drain one campaign with ``workers`` independent processes.

    Every fabric worker is a full, independent campaign runner against
    the shared WAL store (``run_campaign(n_jobs=k)`` delegates here):
    the processes coordinate **only** through the store's lease table,
    so this is exactly the multi-host execution model run on one
    machine.  Workers that crash strand nothing: their leases expire
    and the survivors (or the next invocation) absorb the work.

    Stored values, and therefore every export and report, are
    byte-identical to a ``workers=1`` (or plain :func:`run_campaign`)
    drain of the same spec — asserted by
    ``tests/test_store_concurrency.py`` and the ``campaign-fabric`` CI
    job.

    ``fault_plans`` maps worker index to a :class:`~repro.faults.FaultPlan`
    armed inside that worker's process — the chaos-soak entry point:
    per-worker seeded schedules of SIGKILLs, store errors, stalls and
    clock jumps, replayable byte-for-byte.  ``spill_dir`` names the
    write-ahead journal workers spill to when the store stays
    unreachable past its retry budget (see :func:`run_campaign_worker`).

    ``trace_dir`` enables telemetry fabric-wide: the parent records the
    root ``campaign`` span (with ``prepare`` and per-worker ``worker``
    wait spans) into ``trace-main.jsonl`` and each worker process
    records its own counters and spans into ``trace-worker-<i>.jsonl``
    — recombine with :func:`repro.telemetry.merge_traces`.
    """
    import multiprocessing as mp

    if workers < 1:
        raise ValidationError(f"workers must be >= 1, got {workers}")
    store_path = str(store_path)
    trace_arg = None if trace_dir is None else str(trace_dir)
    if trace_arg is not None:
        Path(trace_arg).mkdir(parents=True, exist_ok=True)
        TELEMETRY.enable("main")

    with TELEMETRY.span("campaign", campaign=spec.name, workers=workers):
        with TELEMETRY.span("prepare"):
            ordered, _ = _unique_spec_digests(spec)
            with ResultStore(store_path) as parent_store:
                hits = sum(1 for d in ordered if d in parent_store)

            ctx = mp.get_context()
            spill_arg = None if spill_dir is None else str(spill_dir)
            procs = [
                ctx.Process(
                    target=_fabric_worker_main,
                    args=(spec.to_dict(), store_path, i, lease_ttl,
                          claim_batch, commit_every,
                          None if fault_plans is None else fault_plans.get(i),
                          spill_arg, trace_arg),
                )
                for i in range(workers)
            ]
            for proc in procs:
                proc.start()
        crashed: list[int] = []
        # One parent-side span per worker join: together the join spans
        # tile the fabric's whole drain phase (span i ends when worker i
        # exits, span i+1 starts immediately), so the root campaign
        # span's time is attributed to named children even though the
        # parent itself only waits here.
        for i, proc in enumerate(procs):
            with TELEMETRY.span("worker", worker=i):
                proc.join()
            if proc.exitcode != 0:
                crashed.append(i)

        with ResultStore(store_path) as parent_store:
            done = sum(1 for d in ordered if d in parent_store)

    report = FabricReport(
        spec_name=spec.name,
        total=len(ordered),
        hits=hits,
        evaluated=done - hits,
        remaining=len(ordered) - done,
        workers=workers,
        crashed=tuple(crashed),
    )
    if trace_arg is not None:
        write_trace(Path(trace_arg) / "trace-main.jsonl", TELEMETRY)
        TELEMETRY.disable()
    return report


# ----------------------------------------------------------------------
# status and exports
# ----------------------------------------------------------------------
def campaign_rows(
    spec: CampaignSpec, store: ResultStore
) -> tuple[list[dict[str, Any]], list[CampaignPoint]]:
    """Join the expanded spec with the store.

    Returns ``(rows, missing)``: one plain-data row per stored point in
    spec order (point identity + payload values), plus the points whose
    results are not stored yet.
    """
    rows: list[dict[str, Any]] = []
    missing: list[CampaignPoint] = []
    for pt in spec.expand():
        inst = pt.instance()
        digest = instance_digest(inst, pt.model, objectives=spec.objectives)
        payload = store.get(digest)
        if payload is None:
            missing.append(pt)
            continue
        row = {
            "point": pt.index,
            "application": pt.application.label,
            "platform": pt.platform.label,
            "replication": pt.replication.label,
            "model": pt.model,
            "draw": pt.draw,
            "seed": pt.seed,
            "digest": digest,
        }
        # "replication" in a payload means the counts vector; the row's
        # "replication" is the axis label, so the counts get their own key.
        row.update(
            ("replication_counts" if k == "replication" else k, v)
            for k, v in payload.items() if k not in ("schema", "model")
        )
        rows.append(row)
    return rows, missing


def campaign_status(spec: CampaignSpec, store: ResultStore) -> dict[str, Any]:
    """Progress summary: total/done/pending plus per-cell done counts."""
    done_by_cell: dict[tuple[str, str, str, str], int] = {}
    total_by_cell: dict[tuple[str, str, str, str], int] = {}
    done = 0
    points = spec.expand()
    for pt in points:
        total_by_cell[pt.cell] = total_by_cell.get(pt.cell, 0) + 1
        if instance_digest(pt.instance(), pt.model,
                           objectives=spec.objectives) in store:
            done += 1
            done_by_cell[pt.cell] = done_by_cell.get(pt.cell, 0) + 1
    return {
        "campaign": spec.name,
        "total": len(points),
        "done": done,
        "pending": len(points) - done,
        "cells": [
            {
                "application": cell[0], "platform": cell[1],
                "replication": cell[2], "model": cell[3],
                "done": done_by_cell.get(cell, 0), "total": total,
            }
            for cell, total in total_by_cell.items()
        ],
    }


def _require_complete(
    missing: list[CampaignPoint], allow_partial: bool
) -> None:
    if missing and not allow_partial:
        raise ValidationError(
            f"campaign export is missing {len(missing)} of its points "
            f"(first missing point index {missing[0].index}); run the "
            f"campaign to completion or pass allow_partial=True"
        )


def export_campaign_json(
    spec: CampaignSpec,
    store: ResultStore,
    path: str | Path | None = None,
    allow_partial: bool = False,
) -> str:
    """Byte-deterministic JSON artifact of a campaign; writes ``path``.

    The payload embeds the spec itself (sorted keys), so an artifact is
    self-describing and reproducible from its own bytes.
    """
    rows, missing = campaign_rows(spec, store)
    _require_complete(missing, allow_partial)
    text = canonical_json(
        {"campaign": spec.name, "spec": spec.to_dict(), "rows": rows},
        indent=2,
    ) + "\n"
    if path is not None:
        Path(path).write_text(text, newline="")
    return text


#: Fixed CSV column order (point identity, then payload values).
_CSV_COLUMNS = [
    "point", "application", "platform", "replication", "model", "draw",
    "seed", "digest", "method", "n_stages", "n_procs", "replication_counts",
    "m", "period", "mct", "critical", "gap",
]


def export_campaign_csv(
    spec: CampaignSpec,
    store: ResultStore,
    path: str | Path | None = None,
    allow_partial: bool = False,
) -> str:
    """Byte-deterministic CSV artifact (``repr`` floats, ``\\n`` rows).

    Multi-objective specs append one column per extra objective
    (``latency`` / ``reliability``) after the period columns; the
    period-only header and bytes are unchanged.
    """
    rows, missing = campaign_rows(spec, store)
    _require_complete(missing, allow_partial)
    extra = [name for name in spec.objectives if name != "period"]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_CSV_COLUMNS + extra)
    for row in rows:
        writer.writerow([
            row["point"], row["application"], row["platform"],
            row["replication"], row["model"], row["draw"], row["seed"],
            row["digest"], row["method"], row["n_stages"], row["n_procs"],
            " ".join(str(c) for c in row["replication_counts"]),
            row["m"], repr(row["period"]), repr(row["mct"]),
            int(row["critical"]), repr(row["gap"]),
        ] + [repr(float(row[name])) for name in extra])
    text = buf.getvalue()
    if path is not None:
        Path(path).write_text(text, newline="")
    return text
