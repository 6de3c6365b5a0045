"""Relabelling invariance: the invariant behind count-keyed signatures.

A processor executes at most one stage (``core/mapping.py``), so the
TPN's structure depends only on ``(model, replication counts)`` and
processor identity enters only through durations.  Renaming processors
consistently — speeds, bandwidth rows and columns, failure rates and
the mapping, all through one permutation ``pi`` — must therefore leave
every period bit-identical and every cached structure of the engine
(skeleton, cycle-time plan) identical array for array.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Application, Instance, Mapping, Platform, compute_period
from repro.engine import build_cycle_time_plan, build_skeleton, topology_signature

from .conftest import replication_vectors

MODELS = ("overlap", "strict")

SKELETON_ARRAYS = (
    "edge_src", "edge_dst", "edge_tokens", "stage_or_file", "slot_u", "slot_v",
)


@st.composite
def relabelled_pairs(draw):
    """A random instance and its image under a random permutation ``pi``.

    The platform may carry unused processors and failure rates, so the
    permutation also moves processors the mapping never touches.
    """
    counts = draw(replication_vectors(max_stages=4, max_m=12))
    n = len(counts)
    p = sum(counts) + draw(st.integers(0, 3))
    times = st.integers(1, 60).map(lambda k: k / 7.0)
    speeds = np.array([draw(times) for _ in range(p)])
    bw = np.array([[draw(times) for _ in range(p)] for _ in range(p)])
    np.fill_diagonal(bw, 0.0)
    rates = None
    if draw(st.booleans()):
        rates = np.array([draw(st.integers(0, 9)) / 10.0 for _ in range(p)])
    used = draw(st.permutations(range(p)))
    bounds = np.cumsum([0] + counts)
    assignments = [tuple(used[bounds[i]:bounds[i + 1]]) for i in range(n)]
    app = Application(
        works=[draw(times) for _ in range(n)],
        file_sizes=[draw(times) for _ in range(n - 1)],
    )
    inst = Instance(app, Platform(speeds, bw, failure_rates=rates),
                    Mapping(assignments, n_processors=p))

    pi = np.asarray(draw(st.permutations(range(p))))
    speeds2 = np.empty(p)
    speeds2[pi] = speeds
    bw2 = np.empty((p, p))
    bw2[np.ix_(pi, pi)] = bw  # B'[pi u, pi v] = B[u, v]
    rates2 = None
    if rates is not None:
        rates2 = np.empty(p)
        rates2[pi] = rates
    image = Instance(
        app,
        Platform(speeds2, bw2, failure_rates=rates2),
        Mapping([tuple(int(pi[u]) for u in s) for s in assignments],
                n_processors=p),
    )
    return inst, image


class TestRelabellingInvariance:
    @given(relabelled_pairs())
    @settings(max_examples=60, deadline=None)
    def test_periods_and_structures_are_label_free(self, pair):
        inst, image = pair
        for model in MODELS:
            a = compute_period(inst, model)
            b = compute_period(image, model)
            assert a.period == b.period
            assert a.mct == b.mct
            assert a.has_critical_resource == b.has_critical_resource

            assert topology_signature(inst, model) == topology_signature(image, model)

            sk_a = build_skeleton(inst, model)
            sk_b = build_skeleton(image, model)
            for name in SKELETON_ARRAYS:
                assert np.array_equal(getattr(sk_a, name), getattr(sk_b, name)), name

            plan_a = build_cycle_time_plan(inst, model)
            plan_b = build_cycle_time_plan(image, model)
            for f in dataclasses.fields(plan_a):
                va, vb = getattr(plan_a, f.name), getattr(plan_b, f.name)
                if isinstance(va, np.ndarray):
                    assert va.dtype == vb.dtype, f.name
                    assert np.array_equal(va, vb), f.name
                else:
                    assert va == vb, f.name
