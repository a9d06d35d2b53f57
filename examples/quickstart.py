#!/usr/bin/env python3
"""Quickstart: build and verify a fault-tolerant spanner in ~20 lines.

One `SpannerSession` carries the whole workflow: the session holds the
graph, the parameters (k, f, fault model, search engine, seed), and one
frozen CSR snapshot per graph that the build check, verification sweep,
and any later oracle/router all share.

Run:  python examples/quickstart.py
"""

from repro import SpannerSession, generators, max_stretch


def main() -> None:
    # A random 100-node network.
    g = generators.gnp_random_graph(100, 0.15, seed=7)
    print(f"input: {g.num_nodes} nodes, {g.num_edges} edges")

    # A session for a 2-fault-tolerant 3-spanner (k=2 => stretch 2k-1=3):
    # even if any 2 nodes fail, surviving distances stretch by at most 3x.
    session = SpannerSession(g, k=2, f=2, seed=0)
    result = session.build("greedy")
    print(f"spanner: {result.num_edges} edges "
          f"({100 * result.compression_ratio(g):.0f}% of input)")
    print(f"guarantee: stretch <= {result.stretch} under any "
          f"{result.f} vertex faults")

    # Measure the fault-free stretch actually achieved.
    print(f"measured fault-free stretch: {max_stretch(g, result.spanner):.2f}")

    # Verify the fault-tolerance guarantee, reusing the session's frozen
    # snapshot.  At n=100, f=2 there are ~5000 fault sets; cap the
    # exhaustive budget so this demo samples adversarially instead (full
    # enumeration is available, just slower).
    report = session.verify(exhaustive_budget=1_000, samples=200)
    kind = "exhaustive" if report.exhaustive else "sampled"
    print(f"verification ({kind}, {report.fault_sets_checked} fault sets): "
          f"{'OK' if report.ok else 'FAILED'}")


if __name__ == "__main__":
    main()
