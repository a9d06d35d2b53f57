"""E17 (extension) -- edges the forced-YES degree test settles.

An engineering extension beyond the paper: the greedy keeps an edge
without running LBC when an endpoint has at most f H-neighbours, since
that neighbourhood is a cut of size <= f and Theorem 4 forces the YES
answer.  The output is provably the spanner of the paper's loop, which
runs LBC on every edge; this bench counts how much of the work the
degree test takes across densities and asserts that exactness.
"""

from __future__ import annotations

from benchmarks.helpers import emit
from repro.analysis.tables import Table
from repro.core.greedy_modified import modified_greedy_unweighted
from repro.graph import generators
from tests import reference as ref

K, F = 2, 3


def test_bench_shortcut_counts(benchmark):
    def run():
        rows = []
        for name, g in [
            ("sparse G(150, 4/n)", generators.gnp_random_graph(
                150, 4.0 / 150, seed=1700)),
            ("medium G(120, 12/n)", generators.gnp_random_graph(
                120, 12.0 / 120, seed=1701)),
            ("dense K_60", generators.complete_graph(60)),
        ]:
            result = modified_greedy_unweighted(g, K, F)
            oracle = ref.lbc_only_greedy(g, K, F)
            assert result.spanner == oracle.spanner  # exactness
            settled = int(result.extra["degree_shortcuts"])
            rows.append((name, g.num_edges, settled, g.num_edges - settled,
                         result.bfs_calls))
        return rows

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    table = Table(
        f"E17: forced-YES degree test (k={K}, f={F}); spanner identical "
        "to LBC on every edge in every row",
        ["workload", "m", "settled by degree", "LBC calls", "BFS calls"],
    )
    for row in rows:
        table.add_row(list(row))
    emit(table, "E17_shortcut")
    # On the sparse workload most edges are forced.
    _, m, settled, _, _ = rows[0]
    assert settled > m / 2


def test_bench_shortcut_build(benchmark):
    g = generators.gnp_random_graph(150, 4.0 / 150, seed=1702)
    benchmark(lambda: modified_greedy_unweighted(g, K, F))
