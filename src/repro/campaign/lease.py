"""Claim/lease protocol: N workers drain one campaign without duplicates.

Content addressing (:mod:`repro.campaign.store`) already makes
concurrent duplicate evaluations *harmless* — two workers computing the
same digest store identical bytes and ``INSERT OR IGNORE`` picks either.
This module makes duplicates *rare by design*: before evaluating, a
worker **claims** the digests it is about to compute by writing rows
into the store's ``leases`` table inside one ``BEGIN IMMEDIATE``
transaction.  Other workers see the claim and move on to unclaimed
work, so at any moment each pending digest is being evaluated by at
most one live worker.

Leases expire.  A claim carries ``expires = now + ttl``; a healthy
worker renews (heartbeats) its leases long before that, while a worker
that was SIGKILLed mid-claim simply stops renewing and its leases go
**stale**.  Stale leases are reclaimed by the next claim that wants
them — the claim transaction takes over any lease whose expiry has
passed — so a crashed worker delays its claimed points by at most one
TTL, never loses them.

Lease state machine (per digest)::

                   claim()                    put(result) + release()
    UNCLAIMED ──────────────▶ CLAIMED(w, t) ────────────────────────▶ DONE
        ▲                        │    ▲
        │       ttl elapses      │    │ renew() before expiry
        │   (worker crashed or   │    │ (heartbeat: t ← now + ttl)
        │        stalled)        ▼    │
        └─────────────────── STALE ───┘
             reclaimed by any worker's next claim()

``DONE`` is absorbing: claims always skip digests already present in
``results``, and a completed digest's lease row is deleted.  The
protocol never *blocks* correctness: every transition is crash-safe
(single SQLite transactions), and even a protocol violation would only
produce a duplicate evaluation that content addressing absorbs.

All timestamps come from an injectable ``clock`` so tests can freeze
or fast-forward time; production uses wall-clock seconds because lease
expiry must be comparable **across processes and hosts** sharing one
store file.  Lease state never influences stored values or exports —
it is pure coordination — so wall-clock here cannot leak into any
byte-determinism contract.
"""

from __future__ import annotations

import sqlite3
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

from ..faults import FAULTS, RetryPolicy
from ..telemetry import TELEMETRY
from .store import ResultStore

__all__ = ["Lease", "LeaseManager", "DEFAULT_LEASE_TTL", "DEFAULT_TXN_RETRY"]

#: Default lease lifetime (seconds).  Generous relative to one claim
#: batch's evaluation time; small enough that a crashed worker's points
#: are reclaimed promptly.
DEFAULT_LEASE_TTL = 30.0

#: Backoff for a lease transaction that keeps hitting a locked database
#: even after sqlite's own busy timeout: five tries over ~0.5 s of
#: deterministic jittered backoff (the successor of the old fixed
#: 0.05 s * attempt ladder).
DEFAULT_TXN_RETRY = RetryPolicy(
    attempts=5, base_delay=0.05, max_delay=0.3, budget=1.0
)


@dataclass(frozen=True)
class Lease:
    """One row of the ``leases`` table (diagnostics and tests)."""

    digest: str
    worker: str
    expires: float
    acquired: float


class LeaseManager:
    """Claim, renew and release leases on one store's ``leases`` table.

    Parameters
    ----------
    store:
        The (shared, WAL-mode) result store the leases coordinate.
    worker:
        This worker's identity — any string unique among concurrent
        workers (the executor uses ``fabric-<host>-<pid>``).  Identity
        never reaches stored payloads or exports.
    ttl:
        Lease lifetime in seconds; claims and renewals set
        ``expires = now + ttl``.
    clock:
        Time source returning seconds (tests inject fakes; defaults to
        wall clock, which cross-process expiry comparison requires).
        The fault plane's ``lease.clock`` site adds its injected skew on
        top of whatever source is used, so chaos schedules can step the
        clock without touching the source.
    retry:
        :class:`~repro.faults.RetryPolicy` for the ``BEGIN IMMEDIATE``
        transactions (claim/renew/release); defaults to
        :data:`DEFAULT_TXN_RETRY`.

    Examples
    --------
    >>> store = ResultStore(":memory:")
    >>> a = LeaseManager(store, "a", ttl=60.0, clock=lambda: 0.0)
    >>> b = LeaseManager(store, "b", ttl=60.0, clock=lambda: 0.0)
    >>> a.claim(["d1", "d2"])
    ['d1', 'd2']
    >>> b.claim(["d2", "d3"])         # d2 is taken
    ['d3']
    >>> late = LeaseManager(store, "c", ttl=60.0, clock=lambda: 120.0)
    >>> late.claim(["d2"])            # a's lease expired at t=60: stale
    ['d2']
    """

    def __init__(
        self,
        store: ResultStore,
        worker: str,
        ttl: float = DEFAULT_LEASE_TTL,
        clock: Callable[[], float] | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        if ttl <= 0:
            raise ValueError(f"lease ttl must be positive, got {ttl}")
        self._store = store
        self._conn = store.connection
        self.worker = worker
        self.ttl = float(ttl)
        self._retry = DEFAULT_TXN_RETRY if retry is None else retry
        self._clock: Callable[[], float] = clock if clock is not None \
            else time.time  # detlint: disable=DET105 - lease expiry is cross-process wall-clock by design; tests inject `clock`

    def _now(self) -> float:
        """The protocol's notion of now: the clock source plus any
        injected skew (the ``lease.clock`` fault site — chaos schedules
        step this worker's view of time to force premature expiry or
        stale-takeover races without touching the source)."""
        now = self._clock()
        if FAULTS.enabled:
            now += FAULTS.skew("lease.clock")
        return now

    # ------------------------------------------------------------------
    # transactions
    # ------------------------------------------------------------------
    def _immediate(self) -> None:
        """``BEGIN IMMEDIATE`` with bounded retry on a locked database."""

        def begin() -> None:
            if FAULTS.enabled:
                FAULTS.hit("lease.begin")
            self._conn.execute("BEGIN IMMEDIATE")

        self._retry.run(
            f"lease.begin:{self.worker}",
            begin,
            retryable=(sqlite3.OperationalError,),
        )

    # ------------------------------------------------------------------
    # protocol
    # ------------------------------------------------------------------
    def claim(
        self, digests: Iterable[str], limit: int | None = None
    ) -> list[str]:
        """Claim up to ``limit`` of ``digests`` for this worker.

        One atomic transaction; for each candidate in order:

        * already in ``results`` — skip (DONE is absorbing);
        * unleased — claim it;
        * leased but expired — **reclaim** it (stale-lease takeover);
        * leased and live (any worker, including this one) — skip.

        Returns the claimed digests in candidate order (deterministic
        for a fixed store state).
        """
        now = self._now()
        expires = now + self.ttl
        claimed: list[str] = []
        self._immediate()
        try:
            for digest in digests:
                if limit is not None and len(claimed) >= limit:
                    break
                done = self._conn.execute(
                    "SELECT 1 FROM results WHERE digest = ?", (digest,)
                ).fetchone()
                if done is not None:
                    continue
                prior_expired = False
                if TELEMETRY.enabled:
                    # Probe whether an upsert here would be a stale-lease
                    # takeover rather than a fresh claim (the upsert's
                    # rowcount cannot distinguish the two).
                    row = self._conn.execute(
                        "SELECT expires FROM leases WHERE digest = ?",
                        (digest,),
                    ).fetchone()
                    prior_expired = row is not None and float(row[0]) <= now
                cur = self._conn.execute(
                    "INSERT INTO leases (digest, worker, expires, acquired)"
                    " VALUES (?, ?, ?, ?)"
                    " ON CONFLICT(digest) DO UPDATE SET"
                    "  worker = excluded.worker,"
                    "  expires = excluded.expires,"
                    "  acquired = excluded.acquired"
                    " WHERE leases.expires <= ?",
                    (digest, self.worker, expires, now, now),
                )
                if cur.rowcount == 1:
                    claimed.append(digest)
                    if prior_expired:
                        TELEMETRY.count("lease.stale_takeovers")
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        if TELEMETRY.enabled:
            TELEMETRY.count("lease.claim_batches")
            TELEMETRY.count("lease.claims", len(claimed))
        return claimed

    def renew(self, digests: Sequence[str] | None = None) -> int:
        """Heartbeat: push the expiry of held leases to ``now + ttl``.

        Renews ``digests`` (or every lease this worker holds) and
        returns how many rows were actually renewed — fewer than asked
        means some leases were lost to expiry + reclamation, and the
        caller should treat those digests as no longer its own.
        """
        if FAULTS.enabled:
            # A stall here models a hung worker: its heartbeat arrives
            # late (or never), the leases expire, and the watchdog path
            # in the executor hands the digests to a live worker.
            FAULTS.hit("lease.renew")
        now = self._now()
        if digests is None:
            cur = self._conn.execute(
                "UPDATE leases SET expires = ? WHERE worker = ?"
                " AND expires > ?",
                (now + self.ttl, self.worker, now),
            )
            TELEMETRY.count("lease.renews", int(cur.rowcount))
            return int(cur.rowcount)
        renewed = 0
        self._immediate()
        try:
            for digest in digests:
                cur = self._conn.execute(
                    "UPDATE leases SET expires = ? WHERE digest = ?"
                    " AND worker = ? AND expires > ?",
                    (now + self.ttl, digest, self.worker, now),
                )
                renewed += int(cur.rowcount)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        TELEMETRY.count("lease.renews", renewed)
        return renewed

    def release(self, digests: Sequence[str]) -> int:
        """Drop this worker's leases on ``digests`` (after storing results).

        Releasing a lease another worker has meanwhile reclaimed is a
        no-op: the ``worker = ?`` guard means a worker can only ever
        delete its own claims.
        """
        released = 0
        self._immediate()
        try:
            for digest in digests:
                cur = self._conn.execute(
                    "DELETE FROM leases WHERE digest = ? AND worker = ?",
                    (digest, self.worker),
                )
                released += int(cur.rowcount)
            self._conn.execute("COMMIT")
        except BaseException:
            if self._conn.in_transaction:
                self._conn.execute("ROLLBACK")
            raise
        TELEMETRY.count("lease.releases", released)
        return released

    # ------------------------------------------------------------------
    # inspection and maintenance
    # ------------------------------------------------------------------
    def held(self) -> list[str]:
        """Digests this worker currently holds live leases on (sorted)."""
        now = self._now()
        return [
            str(row[0]) for row in self._conn.execute(
                "SELECT digest FROM leases WHERE worker = ? AND expires > ?"
                " ORDER BY digest",
                (self.worker, now),
            )
        ]

    def active(self) -> list[Lease]:
        """Every live lease in the store, digest-sorted (all workers)."""
        now = self._now()
        return [
            Lease(str(d), str(w), float(e), float(a))
            for d, w, e, a in self._conn.execute(
                "SELECT digest, worker, expires, acquired FROM leases"
                " WHERE expires > ? ORDER BY digest",
                (now,),
            )
        ]

    def reclaim_stale(self) -> int:
        """Delete expired lease rows outright; returns how many.

        Purely hygienic — claims already treat expired rows as free —
        but dropping them keeps the table small and makes `active()`
        reflect reality after a crashy campaign.
        """
        now = self._now()
        cur = self._conn.execute(
            "DELETE FROM leases WHERE expires <= ?", (now,)
        )
        return int(cur.rowcount)
