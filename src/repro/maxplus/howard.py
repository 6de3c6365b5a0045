"""Howard's policy iteration for the maximum cycle ratio.

Policy iteration on the "one chosen out-edge per node" relaxation
(Cochet-Terrasson, Cohen, Gaubert, Mc Gettrick, Quadrat 1998; Dasdan 2004):

1. every node picks one outgoing edge — the *policy* — giving a functional
   graph whose every component contains exactly one cycle;
2. each policy cycle is evaluated exactly (``sum w / sum t``) and node
   potentials ``h`` are propagated backwards along the policy;
3. edges that would improve ``(lambda, h)`` lexicographically replace the
   current policy choices; repeat until a fixed point.

At the fixed point the best policy cycle is a true critical cycle, which
is how the library *extracts* critical cycles (Figure 8 of the paper) and
why Howard is the default solver: it returns the exact cycle, not just a
bracketed value.  Graphs are processed per strongly connected component.

Prepare/solve split
-------------------
The solver is factored into a structural *preparation* phase and a
weight-dependent *solve* phase:

* :func:`prepare_howard` runs the liveness check, Tarjan's SCC
  decomposition and the per-component CSR edge sort — everything that
  depends only on the graph's **structure** (sources, destinations,
  tokens) — and returns a reusable :class:`HowardPlan`;
* :func:`solve_prepared` takes a plan plus an edge-weight vector and runs
  policy iteration only.

:func:`max_cycle_ratio_howard` simply composes the two.  The split is
what makes batched evaluation cheap: thousands of instances sharing one
TPN topology share a single plan and only re-stamp edge weights (see
:mod:`repro.engine`).  ``solve_prepared(prepare_howard(g), g.weight)``
is bit-identical to the one-shot call by construction.

Warm starts
-----------
Policy iteration converges from *any* initial policy, and on
slowly-varying weight sequences (a mapping-search neighborhood, a sweep
of nearby instances) the previous converged policy is usually one or two
improvement rounds away from the new fixed point.  Pass a mutable
:class:`HowardState` to :func:`solve_prepared` to carry the converged
policy from solve to solve:

>>> g = RatioGraph(2, [(0, 1, 3.0, 1), (1, 0, 5.0, 1), (0, 0, 7.0, 1)])
>>> plan = prepare_howard(g)
>>> state = HowardState()
>>> solve_prepared(plan, g.weight, state=state).value
7.0
>>> solve_prepared(plan, g.weight, state=state).n_rounds  # policy reused
1

The returned *value* is the exact maximum cycle ratio either way — only
the number of rounds and, on ties between equally-critical cycles, the
*extracted* cycle may differ from a cold start.  That is why the batch
engine exposes warm starting as an opt-in flag rather than the default
(see :class:`repro.engine.BatchEngine`).

A state is bound to the plan of its first solve: policies index that
plan's CSR layouts, so reusing the state with a *different* plan would
silently read the wrong edges.  Both solve entry points raise
:class:`~repro.errors.SolverError` on such a mismatch.

Lockstep batches
----------------
:func:`solve_prepared_many` runs policy iteration for ``B`` weight
stampings of **one** plan simultaneously: the policy matrix is
``(B, n)``, policy evaluation is a vectorized functional-graph traversal
(pointer-doubling successor hops instead of the scalar Python chain
walk), policy improvement broadcasts the CSR ``reduceat`` segments over
a ``(B, e)`` weight matrix, and a convergence mask retires finished rows
so they stop paying per-round cost.  Row ``b`` of the result is
bit-identical to ``solve_prepared(plan, weights[b])`` — same policy
trajectory, same tie-breaking, same extracted cycle, same round count —
because every float operation mirrors the scalar path element for
element (see :func:`_scc_howard_csr_many`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from ..errors import DeadlockError, SolverError
from ..telemetry import TELEMETRY
from .graph import RatioGraph

__all__ = [
    "HowardResult",
    "HowardPlan",
    "HowardState",
    "prepare_howard",
    "solve_prepared",
    "solve_prepared_many",
    "max_cycle_ratio_howard",
]

#: Safety cap multiplier on policy-iteration rounds.
_MAX_ROUNDS_FACTOR = 64


@dataclass(frozen=True)
class HowardResult:
    """Outcome of Howard's algorithm.

    Attributes
    ----------
    value:
        The maximum cycle ratio ``lambda*``.
    cycle_nodes:
        Nodes of one critical cycle, in traversal order.
    cycle_edges:
        Edge indices (into the input graph) of that cycle, aligned with
        ``cycle_nodes`` (edge ``i`` leaves ``cycle_nodes[i]``).
    n_rounds:
        Number of policy-iteration rounds until the fixed point.
    """

    value: float
    cycle_nodes: tuple[int, ...]
    cycle_edges: tuple[int, ...]
    n_rounds: int


@dataclass
class HowardState:
    """Mutable warm-start carrier for repeated solves on one plan.

    Holds the last converged policy of each multi-node SCC (CSR edge
    positions, aligned with :attr:`HowardPlan.components`).  A state is
    bound to the plan of its first solve (``bound_plan``): policies
    index that plan's CSR layouts, so a state reused with a *different*
    plan would silently gather the wrong edges — the solvers raise
    :class:`~repro.errors.SolverError` on such a mismatch instead.

    ``policies`` starts as ``None`` and is allocated on the first solve;
    singleton components (whose "policy" is trivial) store ``None``.
    """

    policies: list[npt.NDArray[np.int64] | None] | None = None
    bound_plan: "HowardPlan | None" = None


@dataclass(frozen=True)
class _PreparedScc:
    """One multi-node SCC with its CSR edge layout precomputed.

    ``order`` sorts the component's local edges by source node;
    ``edge_map`` maps local (pre-sort) edge indices back to the global
    graph, so fresh global weights are stamped into CSR order with
    ``weights[edge_map][order]``.
    """

    n: int
    node_map: tuple[int, ...]
    edge_map: npt.NDArray[np.int64]
    order: npt.NDArray[np.int64]
    src: npt.NDArray[np.int64]
    dst: npt.NDArray[np.int64]
    tokens: npt.NDArray[np.int64]
    start: npt.NDArray[np.int64]


@dataclass(frozen=True)
class _PreparedSingleton:
    """A singleton SCC whose cycles are its self-loops."""

    node: int
    self_loops: tuple[int, ...]


@dataclass(frozen=True)
class HowardPlan:
    """Structural preparation of a :class:`RatioGraph` for repeated solves.

    Holds the SCC decomposition (in Tarjan order, so candidate comparison
    is reproducible), the per-SCC CSR layouts, and the global token
    vector used for the exact critical-cycle ratio.  A plan depends only
    on ``(src, dst, tokens)`` — never on edge weights — so one plan
    serves every weight stamping of the same topology.
    """

    n_nodes: int
    n_edges: int
    tokens: npt.NDArray[np.int64]
    components: tuple[_PreparedScc | _PreparedSingleton, ...]


def prepare_howard(graph: RatioGraph) -> HowardPlan:
    """Structure-only preparation: liveness, SCCs, CSR sorts.

    Raises
    ------
    DeadlockError
        If some cycle carries no token (the liveness check fails).
    """
    graph.token_free_topological_order()  # liveness (raises DeadlockError)

    components: list[_PreparedScc | _PreparedSingleton] = []
    for comp in graph.strongly_connected_components():
        if len(comp) == 1:
            v = comp[0]
            self_loops = tuple(
                i for i in graph.out_edges(v) if int(graph.dst[i]) == v
            )
            if self_loops:
                components.append(_PreparedSingleton(v, self_loops))
            continue
        sub, node_map, edge_map = graph.subgraph(comp)
        n, e = sub.n_nodes, sub.n_edges
        if n == 0 or e == 0:
            continue
        order = np.argsort(sub.src, kind="stable")
        src = sub.src[order]
        start = np.searchsorted(src, np.arange(n + 1))
        if np.any(start[1:] == start[:-1]):
            # Some node has no outgoing edge: inside an SCC that means the
            # "SCC" is a singleton without self-loop -> no cycle.
            continue
        components.append(
            _PreparedScc(
                n=n,
                node_map=tuple(int(v) for v in node_map),
                edge_map=np.asarray(edge_map, dtype=np.int64),
                order=order,
                src=src,
                dst=sub.dst[order],
                tokens=sub.tokens[order].astype(float),
                start=start,
            )
        )
    return HowardPlan(
        n_nodes=graph.n_nodes,
        n_edges=graph.n_edges,
        tokens=graph.tokens,
        components=tuple(components),
    )


def _scc_howard_csr(
    scc: _PreparedScc,
    weight: npt.NDArray[np.float64],
    tol: float,
    policy0: npt.NDArray[np.int64] | None = None,
) -> tuple[HowardResult, npt.NDArray[np.int64]]:
    """Policy iteration inside one prepared SCC (CSR edge order).

    ``policy0`` warm-starts the iteration from a previously converged
    policy of the *same* prepared SCC; any valid policy converges to the
    same ``lambda*``.  Returns the result and the converged policy.
    """
    n = scc.n
    e = int(weight.size)
    src, dst, tokens, start, order = scc.src, scc.dst, scc.tokens, scc.start, scc.order

    if policy0 is not None and policy0.shape == (n,):
        # Warm start from the carried policy (copied: the caller's state
        # must stay intact if this solve fails to converge).
        policy = policy0.copy()
    else:
        # Cold start: first out-edge of each node (CSR positions).
        policy = start[:n].copy()
    edge_pos = np.arange(e, dtype=np.int64)
    seg_starts = start[:n]
    # Plain-Python mirrors for the sequential evaluation walk below —
    # list indexing is several times cheaper than numpy scalar indexing
    # and float arithmetic on the extracted values is bit-identical.
    weight_l = weight.tolist()
    tokens_l = tokens.tolist()

    lam = np.zeros(n)
    pot = np.zeros(n)
    best_cycle: tuple[list[int], list[int]] = ([], [])
    max_rounds = _MAX_ROUNDS_FACTOR * max(n, 8)

    for round_no in range(1, max_rounds + 1):
        # ---- policy evaluation ------------------------------------------
        nxt = dst[policy]
        nxt_l = nxt.tolist()
        policy_l = policy.tolist()
        color = [0] * n  # 0 new, 1 in progress, 2 done
        lam_new: list[float] = [0.0] * n
        pot_new: list[float] = [0.0] * n
        best_val = -np.inf
        best_cycle = ([], [])

        for v0 in range(n):
            if color[v0] != 0:
                continue
            # Walk the policy chain until a previously seen node.
            chain: list[int] = []
            v = v0
            while color[v] == 0:
                color[v] = 1
                chain.append(v)
                v = nxt_l[v]
            if color[v] == 1:
                # Found a fresh cycle; v is its entry point within `chain`.
                cstart = chain.index(v)
                cycle = chain[cstart:]
                # Sequential accumulation in cycle order — the association
                # the lockstep solver reproduces with one vectorized add
                # per hop (numpy's pairwise .sum() would not be).
                cw = 0.0
                ct = 0.0
                for u in cycle:
                    eidx = policy_l[u]
                    cw += weight_l[eidx]
                    ct += tokens_l[eidx]
                if ct <= 0:
                    raise SolverError(
                        "policy cycle carries no token; run the liveness "
                        "check before Howard's algorithm"
                    )
                lam_c = cw / ct
                # Root potential 0, propagate backwards around the cycle.
                lam_new[v] = lam_c
                pot_new[v] = 0.0
                for u in reversed(cycle[1:]):
                    eidx = policy_l[u]
                    lam_new[u] = lam_c
                    pot_new[u] = weight_l[eidx] - lam_c * tokens_l[eidx] + pot_new[nxt_l[u]]
                for u in cycle:
                    color[u] = 2
                if lam_c > best_val:
                    best_val = lam_c
                    best_cycle = (cycle, [int(order[policy[u]]) for u in cycle])
                tree = chain[:cstart]
            else:
                tree = chain
            # Unwind tree nodes (their successor already has lam/pot).
            for u in reversed(tree):
                eidx = policy_l[u]
                w_next = nxt_l[u]
                lam_new[u] = lam_new[w_next]
                pot_new[u] = weight_l[eidx] - lam_new[u] * tokens_l[eidx] + pot_new[w_next]
                color[u] = 2

        lam, pot = np.asarray(lam_new), np.asarray(pot_new)

        # ---- policy improvement (vectorized over CSR segments) ----------
        # Phase 1: move towards successors with strictly larger lambda.
        gain_lam = lam[dst] - lam[src]
        # Phase 2 (only among lambda-ties): improve potentials.
        reduced = weight - lam[src] * tokens + pot[dst] - pot[src]

        # Per-node segment maxima; "first index attaining the max" matches
        # np.argmax's tie-breaking in the per-node formulation.
        seg_max_g = np.maximum.reduceat(gain_lam, seg_starts)
        first_g = np.minimum.reduceat(
            np.where(gain_lam == seg_max_g[src], edge_pos, e), seg_starts
        )
        phase1 = seg_max_g > tol

        tie = gain_lam > -tol
        r_masked = np.where(tie, reduced, -np.inf)
        seg_max_r = np.maximum.reduceat(r_masked, seg_starts)
        first_r = np.minimum.reduceat(
            np.where(tie & (r_masked == seg_max_r[src]), edge_pos, e), seg_starts
        )
        phase2 = ~phase1 & (seg_max_r > tol) & (first_r != policy)

        if not (np.any(phase1) or np.any(phase2)):
            cycle_nodes, cycle_edges = best_cycle
            return HowardResult(
                value=float(best_val),
                cycle_nodes=tuple(int(v) for v in cycle_nodes),
                cycle_edges=tuple(cycle_edges),
                n_rounds=round_no,
            ), policy
        policy = np.where(phase1, first_g, np.where(phase2, first_r, policy))

    raise SolverError(
        f"Howard's algorithm did not converge within {max_rounds} rounds; "
        f"the tolerance {tol} may be too small for this weight scale"
    )


def _bind_state(state: HowardState, plan: HowardPlan) -> None:
    """Bind ``state`` to ``plan`` on first use; reject cross-plan reuse."""
    if state.bound_plan is None:
        state.bound_plan = plan
    elif state.bound_plan is not plan:
        raise SolverError(
            "HowardState is bound to a different HowardPlan: warm-start "
            "policies index the CSR layout of the plan they converged on, "
            "so a shared state cannot be reused across topologies — use "
            "one state per plan"
        )
    if state.policies is None:
        state.policies = [None] * len(plan.components)


def _scc_howard_csr_many(
    scc: _PreparedScc,
    W: npt.NDArray[np.float64],
    tol_rows: npt.NDArray[np.float64],
    policy0_rows: list[npt.NDArray[np.int64] | None] | None,
    node_map_arr: npt.NDArray[np.int64],
    edge_gmap: npt.NDArray[np.int64],
) -> tuple[list[tuple[float, list[int], list[int], int]], npt.NDArray[np.int64]]:
    """Lockstep policy iteration inside one prepared SCC for ``B`` rows.

    ``W`` is the ``(B, e)`` CSR-ordered weight matrix (one stamping per
    row), ``tol_rows`` the per-row improvement tolerance,
    ``policy0_rows`` optional per-row warm-start policies, and
    ``node_map_arr`` / ``edge_gmap`` the local-node -> caller-node and
    CSR-position -> caller-edge index maps (applied in bulk during
    extraction).  Returns one ``(value, cycle_nodes, cycle_edges,
    n_rounds)`` tuple per row — ids already in caller space — plus the
    ``(B, n)`` matrix of converged policies.

    Bit-identity with :func:`_scc_howard_csr`, row by row:

    * policy **evaluation** walks the functional graph with
      pointer-doubling hops — ``nxt^(2^k)`` successor tables — to find
      each row's cycles, the per-cycle entry node (the first cycle node
      on the path from the smallest node of the cycle's basin, which is
      exactly where the scalar chain walk first re-enters), and each
      node's distance to its entry.  Cycle weight/token sums accumulate
      sequentially in cycle order (one vectorized add per hop) and
      potentials peel outward from the entries one distance level at a
      time, so every float sees the same operands in the same
      association as the scalar recurrence.
    * policy **improvement** broadcasts the scalar path's ``reduceat``
      segments over the batch axis — identical expressions, identical
      CSR-position tie-breaking.
    * a **convergence mask** retires rows the round they stop improving
      (recording that round's evaluation, like the scalar early return)
      and compresses them out of the active arrays.
    """
    B, e = W.shape
    n = scc.n
    src, dst, tokens, start = scc.src, scc.dst, scc.tokens, scc.start
    seg_starts = start[:n]
    # Padded-dense layout of the CSR segments: slot (v, j) holds the
    # CSR position of node v's j-th out-edge, or the sentinel column e.
    # Per-node maxima become dense reductions over the slot axis instead
    # of reduceat's per-segment inner loops; np.argmax's first-tie rule
    # over CSR-ordered slots is exactly the scalar tie-breaking.
    deg = np.diff(start)
    dmax = int(deg.max())
    if n * dmax <= 4 * e:
        pad_idx = seg_starts[:, None] + np.arange(dmax)
        pad_idx = np.where(np.arange(dmax) < deg[:, None], pad_idx, e).ravel()
    else:  # a high-degree hub would blow the dense layout up: reduceat
        pad_idx = None
    # The traversal state is pure indices; int32 halves the memory
    # traffic of the doubling chains (the dominant per-round cost).
    idx_dt = np.int32 if (B * n < 2 ** 31 and B * e < 2 ** 31) else np.int64
    dst_i = dst.astype(idx_dt)
    edge_pos = np.arange(e, dtype=idx_dt)
    node_ids = np.arange(n, dtype=idx_dt)
    cold = start[:n].astype(idx_dt)

    policy = np.empty((B, n), dtype=idx_dt)
    for b in range(B):
        p0 = policy0_rows[b] if policy0_rows is not None else None
        policy[b] = p0 if (p0 is not None and p0.shape == (n,)) else cold

    rows = np.arange(B, dtype=np.int64)  # active-row -> original-row map
    W_act = W
    tol_act = np.asarray(tol_rows, dtype=float)
    results: list[tuple[float, list[int], list[int], int] | None] = [None] * B
    out_policy = np.empty((B, n), dtype=np.int64)
    max_rounds = _MAX_ROUNDS_FACTOR * max(n, 8)

    for round_no in range(1, max_rounds + 1):
        A = rows.size

        # Straggler hand-off: when only a small fraction of rows is
        # still iterating, the per-round lockstep setup outweighs the
        # scalar chain walk — finish each remaining row with the scalar
        # kernel, seeded from its current mid-iteration policy.  The
        # trajectory (and hence every result bit) is identical: both
        # kernels perform the same per-round arithmetic, so "rounds
        # 1..k in lockstep, k+1.. in the scalar kernel" is the same
        # computation as either kernel alone.
        if A <= (B >> 3):
            if TELEMETRY.enabled:
                TELEMETRY.count("howard.straggler_handoffs", A)
            for a in range(A):
                b = int(rows[a])
                res, polc = _scc_howard_csr(
                    scc, W_act[a], float(tol_act[a]), policy0=policy[a]
                )
                results[b] = (
                    res.value,
                    node_map_arr.take(np.asarray(res.cycle_nodes,
                                                 dtype=np.int64)).tolist(),
                    scc.edge_map.take(np.asarray(res.cycle_edges,
                                                 dtype=np.int64)).tolist(),
                    res.n_rounds + round_no - 1,
                )
                out_policy[b] = polc
            return results, out_policy  # type: ignore[return-value]

        # ---- policy evaluation (vectorized functional-graph traversal) --
        # The traversal structure depends on the policy alone, never the
        # weights — and whole batches often share one policy: every row
        # starts round 1 from the same cold (or carried warm) policy, and
        # sweep neighbors follow near-identical improvement trajectories.
        # When all rows agree, the doubling chains run once and broadcast.
        shared = A > 1 and bool((policy == policy[0]).all())
        uniq = policy[:1] if shared else policy
        U = uniq.shape[0]
        nxt_u = dst_i[uniq]
        base_u = (np.arange(U, dtype=idx_dt) * n)[:, None]
        nxt_fu = nxt_u + base_u

        # One doubling chain computes the nxt^(2^k) hop ladder (shared by
        # every traversal below) and running path minima.  After 2^k >= n
        # hops every node lands on its cycle (the hop image = cycle
        # nodes) and, for any cycle node, the >= n-step path minimum is
        # exactly the minimum node id on its cycle — the canonical id.
        ladder = []
        hop = nxt_fu
        pm = np.empty((U, n), dtype=idx_dt)
        pm[:] = node_ids
        step = 1
        while step < n:
            ladder.append(hop)
            pm = np.minimum(pm, pm.take(hop))
            hop = hop.take(hop)
            step *= 2
        ladder.append(hop)  # nxt^(2^K), 2^K >= n: coverage for any path
        onc_u = np.zeros(U * n, dtype=bool)
        onc_u[hop.ravel()] = True
        onc_u = onc_u.reshape(U, n)

        # First cycle node on each node's policy path (doubling with
        # "first found" semantics).  Most nodes resolve within a hop or
        # two, so later rungs update only the still-missing positions.
        T_flat = np.where(onc_u, node_ids, -1).ravel()
        for hop_k in ladder:
            missing = np.flatnonzero(T_flat < 0)
            if not missing.size:
                break
            T_flat[missing] = T_flat.take(hop_k.ravel().take(missing))
        T = T_flat.reshape(U, n)

        # Entry node of each cycle: the first cycle node reached from the
        # smallest node of the cycle's basin — where the scalar walk
        # (ascending v0) first re-enters, i.e. the cycle's root.
        cid_u = pm.take(T + base_u)  # per node: its cycle's canonical id
        vmin_u = np.full((U, n), n, dtype=idx_dt)
        np.minimum.at(vmin_u, (np.arange(U)[:, None], cid_u), node_ids)
        ent_u = T.take(np.minimum(vmin_u, n - 1) + base_u)
        is_entry_u = ent_u.take(cid_u + base_u) == node_ids

        # Distance of every node to its entry (entry = 0): same ladder,
        # same sparse-update pattern.  A node at distance d in
        # [2^k, 2^{k+1}) resolves at rung k once its 2^k-hop target is
        # resolved below 2^k.
        dist_uf = np.where(
            is_entry_u, np.array(0, idx_dt), np.array(-1, idx_dt)
        ).ravel()
        step = 1
        for hop_k in ladder:
            missing = np.flatnonzero(dist_uf < 0)
            if not missing.size:
                break
            cand = dist_uf.take(hop_k.ravel().take(missing))
            found = cand >= 0
            dist_uf[missing[found]] = cand[found] + step
            step *= 2
        dist_u = dist_uf.reshape(U, n)

        # Structural per-cycle tables, still in unique-policy space:
        # token sums are integer-valued, hence exact under any summation
        # order — one bincount each for token totals and cycle lengths.
        tvn_u = tokens.take(uniq)
        cidf_u = (cid_u + base_u).ravel()
        ct_u = np.bincount(
            cidf_u, weights=np.where(onc_u.ravel(), tvn_u.ravel(), 0.0),
            minlength=U * n,
        )
        len_u = np.bincount(cidf_u, weights=onc_u.ravel(), minlength=U * n)

        # ---- expand the structure back to row space ---------------------
        # Shared case: broadcast the single-policy structure over rows
        # (materialized only where an op needs it).  Unshared case: the
        # per-row structure *is* the row-space structure, zero copies.
        arow = np.arange(A)
        base = (np.arange(A, dtype=idx_dt) * n)[:, None]
        if shared:
            nxt_f = nxt_u + base
            oncycle = np.broadcast_to(onc_u, (A, n))
            cid = np.broadcast_to(cid_u, (A, n))
            is_entry = np.broadcast_to(is_entry_u, (A, n))
            dist = np.broadcast_to(dist_u, (A, n))
        else:
            nxt_f = nxt_fu  # base_u == base when U == A
            oncycle, cid, is_entry, dist = onc_u, cid_u, is_entry_u, dist_u
        nxt_flat = nxt_f.ravel()
        cid_f = cid + base
        cid_flat = cid_f.ravel()
        onc_flat = oncycle.ravel()
        dist_flat = dist.ravel()

        # Per-node policy-edge weight/token tables (numeric, per row).
        wvn = W_act.ravel().take(policy + (np.arange(A, dtype=idx_dt) * e)[:, None])
        tvn = tokens.take(policy)
        wvn_flat = wvn.ravel()

        lane_rows, lane_entry = np.nonzero(is_entry)
        C = lane_rows.size
        entry_f = lane_rows * n + lane_entry
        cid_entry_f = cid_flat.take(entry_f)
        # (unique-policy, cycle-id) key of each row lane, addressing the
        # structural tables computed above.
        lane_u_key = cid_u.ravel().take(lane_entry) if shared else cid_entry_f

        ct = ct_u.take(lane_u_key)
        if (ct <= 0).any():
            raise SolverError(
                "policy cycle carries no token; run the liveness "
                "check before Howard's algorithm"
            )
        len_lane = len_u.take(lane_u_key).astype(np.int64)
        l_max = int(len_lane.max())

        # Lay every cycle out in walk order: node at walk position k of
        # its cycle (entry = 0, then successor order) sits at
        # ``pos = length - dist`` — no sequential walk needed.
        lane_tab = np.empty(A * n, dtype=idx_dt)
        lane_tab[cid_entry_f] = np.arange(C, dtype=idx_dt)
        cyc_sel = np.flatnonzero(onc_flat)
        cyc_lane = lane_tab.take(cid_flat.take(cyc_sel))
        cyc_dist = dist_flat.take(cyc_sel)
        cyc_pos = np.where(cyc_dist == 0, 0,
                           len_lane.take(cyc_lane) - cyc_dist)

        # Cycle *weight* sums: left-to-right accumulation in walk order
        # (the scalar association), one vectorized add per position.
        # Lanes sort by length (desc), so the lanes alive at position k
        # are a prefix and padding never touches the accumulator.
        lane_order = np.argsort(-len_lane, kind="stable")
        lane_rank = np.empty(C, dtype=np.int64)
        lane_rank[lane_order] = np.arange(C)
        walk_w = np.zeros((l_max, C))
        walk_w[cyc_pos, lane_rank.take(cyc_lane)] = wvn_flat.take(cyc_sel)
        hist = np.bincount(len_lane, minlength=l_max + 1)
        alive = C - np.cumsum(hist, dtype=np.int64)  # lanes with length > k
        acc = np.zeros(C)
        for k in range(l_max):
            a_k = int(alive[k])
            acc[:a_k] += walk_w[k, :a_k]
        cw = acc.take(lane_rank)
        lam_c = cw / ct

        # lambda of every node = its cycle's ratio: pure float copies
        # through a (row, cycle id) table, like the scalar propagation.
        lam_tab = np.zeros(A * n)
        lam_tab[cid_entry_f] = lam_c
        lam = lam_tab.take(cid_f)

        # Potentials: entry roots at 0, then peel outward one distance
        # level at a time — every node computes the scalar recurrence
        # ``(w - lam * t) + pot[next]`` with already-final operands.
        cvn = wvn - lam * tvn
        cvn_flat = cvn.ravel()
        pot = np.zeros((A, n))
        pot_flat = pot.ravel()
        if shared:
            # One policy: sort the n node distances once and peel whole
            # column blocks (every row shares the level structure).
            dist0 = dist_u.ravel()
            order0 = np.argsort(dist0, kind="stable")
            bounds0 = np.cumsum(np.bincount(dist0), dtype=np.int64)
            nxt0 = nxt_u.ravel()
            for d in range(1, len(bounds0)):
                sel0 = order0[bounds0[d - 1]: bounds0[d]]
                pot[:, sel0] = cvn[:, sel0] + pot[:, nxt0.take(sel0)]
        else:
            level_order = np.argsort(dist_flat, kind="stable")
            bounds = np.cumsum(np.bincount(dist_flat), dtype=np.int64)
            nxt_sorted = nxt_flat.take(level_order)
            cvn_sorted = cvn_flat.take(level_order)
            for d in range(1, len(bounds)):
                b0, b1 = bounds[d - 1], bounds[d]
                pot_flat[level_order[b0:b1]] = cvn_sorted[b0:b1] \
                    + pot_flat.take(nxt_sorted[b0:b1])

        # Best cycle per row: maximum lam, ties to the first *discovered*
        # cycle — the one with the smallest basin minimum, matching the
        # scalar walk's ascending-v0 discovery order and strict ``>``.
        # Lanes are row-major (np.nonzero), so per-row segment reductions
        # pick each row's winner without a sort; vmin is unique per cycle,
        # so the (lam, vmin) winner is unique.
        row_starts = np.searchsorted(lane_rows, arow)
        # vmin is keyed by (unique policy, cycle id), like the other
        # structural tables.
        vmin_lane = vmin_u.ravel().take(lane_u_key)
        seg_best = np.maximum.reduceat(lam_c, row_starts)
        is_max = lam_c == seg_best.take(lane_rows)
        seg_vmin = np.minimum.reduceat(np.where(is_max, vmin_lane, n), row_starts)
        win = is_max & (vmin_lane == seg_vmin.take(lane_rows))
        best_lane = np.minimum.reduceat(
            np.where(win, np.arange(C), C), row_starts
        )
        best_val = lam_c.take(best_lane)

        # ---- policy improvement (scalar expressions, broadcast) ---------
        tolA = tol_act[:, None]
        lam_src = lam[:, src]
        gain_lam = lam[:, dst] - lam_src
        reduced = W_act - lam_src * tokens + pot[:, dst] - pot[:, src]
        tie = gain_lam > -tolA
        r_masked = np.where(tie, reduced, -np.inf)

        if pad_idx is not None:
            # Dense per-node maxima over the padded slot axis, one slot
            # column at a time with a running (max, first-slot) pair —
            # a slot only wins on a strictly larger value, which is the
            # scalar "first CSR position attaining the segment max"
            # tie-breaking (and what np.argmax would pick).
            def _seg_first_max(
                vals_ext: npt.NDArray[np.float64],
            ) -> tuple[npt.NDArray[np.float64], npt.NDArray[np.int64]]:
                cols = vals_ext[:, pad_idx].reshape(A, n, dmax)
                best = cols[:, :, 0]
                slot = np.zeros((A, n), dtype=np.int64)
                for j in range(1, dmax):
                    col = cols[:, :, j]
                    better = col > best
                    best = np.where(better, col, best)
                    slot = np.where(better, j, slot)
                return best, seg_starts + slot

            ext = np.empty((A, e + 1))
            ext[:, e] = -np.inf
            ext[:, :e] = gain_lam
            seg_max_g, first_g = _seg_first_max(ext)
            ext2 = np.empty((A, e + 1))
            ext2[:, e] = -np.inf
            ext2[:, :e] = r_masked
            seg_max_r, first_r = _seg_first_max(ext2)
        else:
            seg_max_g = np.maximum.reduceat(gain_lam, seg_starts, axis=1)
            first_g = np.minimum.reduceat(
                np.where(gain_lam == seg_max_g[:, src], edge_pos, e),
                seg_starts, axis=1)
            seg_max_r = np.maximum.reduceat(r_masked, seg_starts, axis=1)
            first_r = np.minimum.reduceat(
                np.where(tie & (r_masked == seg_max_r[:, src]), edge_pos, e),
                seg_starts, axis=1)
        phase1 = seg_max_g > tolA
        phase2 = ~phase1 & (seg_max_r > tolA) & (first_r != policy)

        done = ~(phase1 | phase2).any(axis=1)
        if done.any():
            # Converged rows: record this round's evaluation (the scalar
            # early return) and retire them from the lockstep.
            d_idx = np.flatnonzero(done)
            D = d_idx.size
            best_lane_d = best_lane.take(d_idx)
            vals_d = best_val.take(d_idx)
            out_policy[rows.take(d_idx)] = policy[d_idx]
            if shared:
                # One shared policy: rows extracting the same entry share
                # the same cycle — walk each unique cycle once and hand
                # every row the same (immutable) node/edge tuples.
                ents = lane_entry.take(best_lane_d)
                uents, uinv = np.unique(ents, return_inverse=True)
                nxt0 = nxt_u.ravel()
                pol0 = uniq[0]
                shared_cycles = []
                for entv in uents.tolist():
                    cyc = [entv]
                    v = int(nxt0[entv])
                    while v != entv:
                        cyc.append(v)
                        v = int(nxt0[v])
                    arr = np.asarray(cyc, dtype=np.int64)
                    shared_cycles.append((
                        tuple(node_map_arr.take(arr).tolist()),
                        tuple(edge_gmap.take(pol0.take(arr)).tolist()),
                    ))
                for t in range(D):
                    nodes_t, edges_t = shared_cycles[uinv[t]]
                    results[int(rows[d_idx[t]])] = (
                        float(vals_d[t]), nodes_t, edges_t, round_no
                    )
            else:
                # Best cycles are already laid out in walk order
                # (cyc_pos), so extraction is two scatters plus bulk id
                # mapping — the per-row cost is a list slice.
                lengths = len_lane.take(best_lane_d)
                l_ext = int(lengths.max())
                # Offset table keyed by lane: only the winning lanes of
                # the done rows get a slot in the (D, l_ext) matrices.
                off_tab = np.full(C, -1, dtype=np.int64)
                off_tab[best_lane_d] = np.arange(D) * l_ext
                slot = off_tab.take(cyc_lane)
                picked = slot >= 0
                slots = slot[picked] + cyc_pos[picked]
                sel = cyc_sel[picked]
                nodes_mat = np.zeros(D * l_ext, dtype=np.int64)
                edges_mat = np.zeros(D * l_ext, dtype=np.int64)
                nodes_mat[slots] = sel % n
                edges_mat[slots] = policy.ravel().take(sel)
                nodes_l = node_map_arr.take(nodes_mat).reshape(D, l_ext).tolist()
                edges_l = edge_gmap.take(edges_mat).reshape(D, l_ext).tolist()
                for t in range(D):
                    length = int(lengths[t])
                    results[int(rows[d_idx[t]])] = (
                        float(vals_d[t]), nodes_l[t][:length],
                        edges_l[t][:length], round_no,
                    )
            if done.all():
                return results, out_policy  # type: ignore[return-value]

        policy = np.where(phase1, first_g, np.where(phase2, first_r, policy))
        if done.any():
            keep = ~done
            policy, rows = policy[keep], rows[keep]
            W_act, tol_act = W_act[keep], tol_act[keep]

    raise SolverError(
        f"Howard's algorithm did not converge within {max_rounds} rounds "
        f"for {rows.size} of {B} batch rows; the tolerance may be too "
        f"small for this weight scale"
    )


def solve_prepared(
    plan: HowardPlan,
    weight: npt.NDArray[np.float64],
    tol: float | None = None,
    state: HowardState | None = None,
) -> HowardResult:
    """Run policy iteration on a prepared plan with fresh edge weights.

    Parameters
    ----------
    plan:
        Structural preparation from :func:`prepare_howard`.
    weight:
        Edge weights aligned with the original graph's edge indices.
    tol:
        Improvement tolerance; defaults to ``1e-9`` times the weight scale.
    state:
        Optional warm-start carrier.  When given, each SCC's policy
        iteration starts from the policy the *previous* solve with this
        state converged to, and the converged policies are written back.
        A state binds to the plan of its first solve and raises
        :class:`SolverError` if reused with a different plan (the
        carried policies index that plan's CSR layout).  The returned
        ``value`` is the exact maximum cycle ratio regardless; on exact
        ties between distinct critical cycles the extracted cycle may
        differ from a cold start's.

    Raises
    ------
    SolverError
        If the graph is acyclic, policy iteration fails to converge, or
        ``state`` is bound to a different plan.
    """
    weight = np.asarray(weight, dtype=float)
    if tol is None:
        scale = float(np.abs(weight).max()) if plan.n_edges else 1.0
        tol = 1e-9 * max(scale, 1.0)

    if state is not None:
        _bind_state(state, plan)

    best: HowardResult | None = None
    rounds = 0
    for ci, comp in enumerate(plan.components):
        if isinstance(comp, _PreparedSingleton):
            ratios = [
                (float(weight[i]) / int(plan.tokens[i]), i)
                for i in comp.self_loops
                # 0-token self-loops were excluded by the liveness check
            ]
            val, eidx = max(ratios)
            cand = HowardResult(val, (comp.node,), (eidx,), 0)
        else:
            policy0 = state.policies[ci] if state is not None else None
            res, policy = _scc_howard_csr(
                comp, weight[comp.edge_map][comp.order], tol, policy0=policy0
            )
            if state is not None:
                state.policies[ci] = policy
            cand = HowardResult(
                value=res.value,
                cycle_nodes=tuple(comp.node_map[v] for v in res.cycle_nodes),
                cycle_edges=tuple(int(comp.edge_map[i]) for i in res.cycle_edges),
                n_rounds=res.n_rounds,
            )
        rounds += cand.n_rounds
        if best is None or cand.value > best.value:
            best = cand

    if best is None:
        raise SolverError("graph is acyclic: no cycle ratio exists")
    if TELEMETRY.enabled:
        TELEMETRY.count("howard.solves")
        TELEMETRY.count("howard.rounds", rounds)

    # Report the *exact* arithmetic ratio of the extracted cycle, which is
    # cleaner than the float accumulated during policy evaluation.
    idx = np.asarray(list(best.cycle_edges), dtype=np.int64)
    total_w = float(weight[idx].sum(dtype=np.float64))
    total_t = int(plan.tokens[idx].sum(dtype=np.int64))
    if total_t == 0:
        raise DeadlockError("cycle carries no token; its ratio is infinite")
    return HowardResult(total_w / total_t, best.cycle_nodes, best.cycle_edges, best.n_rounds)


def solve_prepared_many(
    plan: HowardPlan,
    weights: npt.NDArray[np.float64],
    tol: float | None = None,
    states: list[HowardState] | None = None,
    state: HowardState | None = None,
    *,
    counters: str = "howard.lockstep",
) -> list[HowardResult]:
    """Lockstep policy iteration for ``B`` weight stampings of one plan.

    Parameters
    ----------
    plan:
        Structural preparation from :func:`prepare_howard`.
    weights:
        ``(B, n_edges)`` matrix — one edge-weight stamping per row,
        aligned with the original graph's edge indices.
    tol:
        Improvement tolerance applied to every row; defaults to
        ``1e-9`` times each row's own weight scale (exactly the scalar
        per-solve default).
    states:
        Optional per-row warm-start carriers, one
        :class:`HowardState` per row: row ``b`` seeds from and writes
        back to ``states[b]`` exactly like ``solve_prepared(plan,
        weights[b], state=states[b])`` would.  Mutually exclusive with
        ``state``.  States are written only when the whole solve
        succeeds.
    state:
        Optional *shared* warm-start carrier: every row seeds from the
        state's current policies and the state afterwards carries the
        **last** row's converged policies (so a subsequent batch
        continues where this one left off).  Period values are
        identical to cold start either way; only round counts and
        exact-tie cycle extraction depend on the seeding.
    counters:
        Keyword-only telemetry prefix: a successful solve adds one to
        ``<counters>_solves`` and ``B`` to ``<counters>_rows`` (plus
        its rounds to ``howard.rounds``).  The default names TPN group
        rows, which ``campaign report`` reads; the Theorem-1 pattern
        path passes ``"poly.lockstep"`` so the two never mix.

    Returns
    -------
    list[HowardResult]
        One result per row.  Without warm starts (or with per-row
        ``states``), entry ``b`` is bit-identical to
        ``solve_prepared(plan, weights[b])`` — value bits, extracted
        cycle, and round count.

    Raises
    ------
    SolverError
        If the graph is acyclic, any row fails to converge, or a state
        is bound to a different plan.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.shape[1] != plan.n_edges:
        raise ValueError(
            f"weights must have shape (B, {plan.n_edges}); "
            f"got {weights.shape}"
        )
    if states is not None and state is not None:
        raise ValueError("pass per-row states= or a shared state=, not both")
    B = weights.shape[0]
    if states is not None and len(states) != B:
        raise ValueError(
            f"got {B} weight rows but {len(states)} states; pass one "
            f"HowardState per row"
        )
    if B == 0:
        return []

    if tol is None:
        if plan.n_edges:
            scale = np.abs(weights).max(axis=1)
        else:
            scale = np.ones(B)
        tol_rows = 1e-9 * np.maximum(scale, 1.0)
    else:
        tol_rows = np.full(B, float(tol))

    if states is not None:
        for st in states:
            _bind_state(st, plan)
    if state is not None:
        _bind_state(state, plan)

    # Fast path for the common TPN shape — one multi-node SCC, nothing
    # else: no cross-component candidate merge to run, so per-row results
    # go straight to the exact-ratio recompute.
    if len(plan.components) == 1 and isinstance(plan.components[0], _PreparedScc):
        comp = plan.components[0]
        if states is not None:
            policy0 = [st.policies[0] for st in states]  # type: ignore[index]
        elif state is not None:
            policy0 = [state.policies[0]] * B  # type: ignore[index]
        else:
            policy0 = None
        gmap = comp.edge_map[comp.order]
        res_rows, out_pol = _scc_howard_csr_many(
            comp, weights[:, gmap], tol_rows, policy0,
            np.asarray(comp.node_map, dtype=np.int64), gmap,
        )
        out = _exact_ratio_results(plan, weights, [
            (val, tuple(nodes), tuple(edges), n_rounds)
            for val, nodes, edges, n_rounds in res_rows
        ])
        if states is not None:
            for b, st in enumerate(states):
                st.policies[0] = out_pol[b]  # type: ignore[index]
        elif state is not None:
            state.policies[0] = out_pol[B - 1]  # type: ignore[index]
        return _count_lockstep(out, counters)

    best: list[HowardResult | None] = [None] * B
    pending_policies: list[tuple[int, npt.NDArray[np.int64]]] = []
    for ci, comp in enumerate(plan.components):
        if isinstance(comp, _PreparedSingleton):
            loops = np.asarray(comp.self_loops, dtype=np.int64)
            vals = weights[:, loops] / plan.tokens[loops]
            # Scalar uses max() over (ratio, edge) tuples: ties go to the
            # *largest* edge index -> last argmax occurrence.
            k = loops.size
            j = (k - 1) - np.argmax(vals[:, ::-1], axis=1)
            for b in range(B):
                val = float(vals[b, j[b]])
                cur = best[b]
                if cur is None or val > cur.value:
                    best[b] = HowardResult(
                        val, (comp.node,), (int(loops[j[b]]),), 0
                    )
            continue

        if states is not None:
            policy0 = [st.policies[ci] for st in states]  # type: ignore[index]
        elif state is not None:
            policy0 = [state.policies[ci]] * B  # type: ignore[index]
        else:
            policy0 = None
        gmap = comp.edge_map[comp.order]
        res_rows, out_pol = _scc_howard_csr_many(
            comp, weights[:, gmap], tol_rows, policy0,
            np.asarray(comp.node_map, dtype=np.int64), gmap,
        )
        pending_policies.append((ci, out_pol))
        for b in range(B):
            val, cyc_nodes, cyc_edges, n_rounds = res_rows[b]
            cur = best[b]
            if cur is None or val > cur.value:
                best[b] = HowardResult(
                    val, tuple(cyc_nodes), tuple(cyc_edges), n_rounds
                )

    if not plan.components:
        raise SolverError("graph is acyclic: no cycle ratio exists")

    rows = []
    for b in range(B):
        res = best[b]
        assert res is not None  # every component yields a candidate
        rows.append((res.value, res.cycle_nodes, res.cycle_edges, res.n_rounds))
    out = _exact_ratio_results(plan, weights, rows)

    # Write converged policies back only on full success, so a failed
    # batch leaves every carried state untouched.
    for ci, pol in pending_policies:
        if states is not None:
            for b, st in enumerate(states):
                st.policies[ci] = pol[b]  # type: ignore[index]
        elif state is not None:
            state.policies[ci] = pol[B - 1]  # type: ignore[index]
    return _count_lockstep(out, counters)


def _count_lockstep(out: list[HowardResult], counters: str) -> list[HowardResult]:
    """Tally one successful lockstep solve on the telemetry counters."""
    if TELEMETRY.enabled:
        rounds = 0
        for res in out:
            rounds += res.n_rounds
        TELEMETRY.count(counters + "_solves")
        TELEMETRY.count(counters + "_rows", len(out))
        TELEMETRY.count("howard.rounds", rounds)
    return out


def _exact_ratio_results(
    plan: HowardPlan,
    weights: npt.NDArray[np.float64],
    rows: list[tuple[float, tuple[int, ...], tuple[int, ...], int]],
) -> list[HowardResult]:
    """Per-row exact extracted-cycle ratios, batched per unique cycle.

    Rows of one batch usually extract a handful of distinct cycles, so
    the gather+sum runs once per unique cycle; summing the ``(rows, L)``
    gather along its last axis applies numpy's pairwise reduction to
    each contiguous row — the same bits as the scalar
    ``weight[idx].sum()``.
    """
    groups: dict[tuple[int, ...], list[int]] = {}
    for b, (_, _, cyc_edges, _) in enumerate(rows):
        groups.setdefault(cyc_edges, []).append(b)
    values = np.empty(len(rows))
    for cyc, members in groups.items():
        idx = np.asarray(cyc, dtype=np.int64)
        total_t = int(plan.tokens[idx].sum(dtype=np.int64))
        if total_t == 0:
            raise DeadlockError("cycle carries no token; its ratio is infinite")
        values[members] = weights[np.ix_(np.asarray(members), idx)].sum(
            axis=1, dtype=np.float64) / total_t
    return [
        HowardResult(float(values[b]), nodes, edges, n_rounds)
        for b, (_, nodes, edges, n_rounds) in enumerate(rows)
    ]


def max_cycle_ratio_howard(graph: RatioGraph, tol: float | None = None) -> HowardResult:
    """Maximum cycle ratio and one critical cycle, over all SCCs.

    Parameters
    ----------
    graph:
        Token graph; must be live (every cycle carries a token) and contain
        at least one cycle.
    tol:
        Improvement tolerance; defaults to ``1e-9`` times the weight scale.

    Raises
    ------
    SolverError
        If the graph is acyclic or policy iteration fails to converge.
    DeadlockError
        If some cycle carries no token.
    """
    return solve_prepared(prepare_howard(graph), graph.weight, tol)
