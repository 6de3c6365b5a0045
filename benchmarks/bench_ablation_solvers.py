"""Ablation: the three cycle-ratio solvers on the same nets.

DESIGN.md replaces the paper's external tools (ERS / GreatSPN) with three
in-house solvers.  This ablation times them head-to-head on the paper's
nets and asserts agreement — the evidence that the substitution is safe:

* Howard policy iteration (default; exact value + explicit cycle);
* Lawler binary search (value only, tolerance-bounded);
* Karp cycle mean on the max-plus matrix ``A0* ⊗ A1`` (spectral route,
  requires the matrix form and cubic memory, only viable on small nets).
"""

import pytest

from repro.experiments import example_a, example_b
from repro.maxplus import max_cycle_ratio_howard, max_cycle_ratio_lawler
from repro.maxplus.recurrence import period_by_matrix
from repro.petri import build_tpn

from .conftest import report


def _net():
    return build_tpn(example_a(), "strict")


def bench_solver_howard(benchmark):
    net = _net()
    graph = net.to_ratio_graph()
    res = benchmark(max_cycle_ratio_howard, graph)
    assert res.value / net.n_rows == pytest.approx(692.0 / 3.0)
    report(benchmark, "Ablation: Howard on Example A strict (42 transitions)",
           [("period", 230.67, round(res.value / net.n_rows, 2)),
            ("policy rounds", "-", res.n_rounds),
            ("provides critical cycle", "yes", len(res.cycle_edges) > 0)])


def bench_solver_lawler(benchmark):
    net = _net()
    graph = net.to_ratio_graph()
    value = benchmark(max_cycle_ratio_lawler, graph)
    assert value / net.n_rows == pytest.approx(692.0 / 3.0, rel=1e-7)
    report(benchmark, "Ablation: Lawler on Example A strict",
           [("period", 230.67, round(value / net.n_rows, 4)),
            ("provides critical cycle", "no", "value only")])


def bench_solver_matrix_karp(benchmark):
    net = _net()
    value = benchmark(period_by_matrix, net)
    assert value == pytest.approx(692.0 / 3.0)
    report(benchmark, "Ablation: max-plus matrix + Karp on Example A strict",
           [("period", 230.67, round(value, 2)),
            ("cost", "O(T^3) memory/time", f"T = {net.n_transitions}")])


def bench_solvers_agree_on_example_b(benchmark):
    net = build_tpn(example_b(), "overlap")
    graph = net.to_ratio_graph()

    def all_three():
        h = max_cycle_ratio_howard(graph).value
        law = max_cycle_ratio_lawler(graph)
        m = period_by_matrix(net) * net.n_rows
        return h, law, m

    h, law, m = benchmark(all_three)
    assert h == pytest.approx(3500.0)
    assert law == pytest.approx(3500.0, rel=1e-7)
    assert m == pytest.approx(3500.0)
    report(benchmark, "Ablation: three solvers on Example B overlap",
           [("Howard", 3500, round(h, 4)),
            ("Lawler", 3500, round(law, 4)),
            ("matrix+Karp", 3500, round(m, 4))])
