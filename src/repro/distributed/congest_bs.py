"""Theorem 14: Baswana-Sen in the CONGEST model.

A faithful node-local implementation of [BS07] under the CONGEST message
budget (every message here is a constant number of words; the simulator
*enforces* this).  The structure follows the sequential form in
:mod:`repro.baselines.baswana_sen`, phased onto a global round schedule
every node can compute from ``k`` alone:

Phase i (i = 1 .. k-1), occupying ``i + 3`` rounds:

1. **Announce** (1 round): every node tells its neighbors its current
   cluster token (or that it is unclustered).
2. **Survival flood** (i rounds): each cluster's coin is flipped by its
   center (probability ``n^(-1/k)``); the bit floods through the
   cluster, whose hop radius is < i at phase i, reaching every member
   within the i flood rounds.
3. **Status** (1 round): every clustered node announces
   ``(token, survived, depth)`` to its neighbors.
4. **Join** (1 round): every node in a non-surviving cluster picks the
   lightest incident edge into a surviving cluster and joins through it
   (adding the edge), also adding its lightest edge into every adjacent
   cluster offering a strictly lighter edge [BS07 join rule]; a node with
   no adjacent surviving cluster adds its lightest edge into every
   adjacent cluster and leaves the clustering.

Final phase (2 rounds): announce final tokens; every clustered node adds
its lightest edge into each adjacent foreign cluster.

Total rounds: ``sum_{i=1}^{k-1} (i + 3) + 2 = O(k^2)``; every message is
O(1) words -- matching Theorem 14.

Cluster identity travels as the center's ``repr`` string (one ID word for
the integer node labels used in experiments); nodes compare tokens only
for equality, never dereference them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from repro.core.spanner import FaultModel, SpannerResult
from repro.distributed.runtime import (
    Message,
    NodeContext,
    NodeProtocol,
    SyncNetwork,
)
from repro.graph.graph import Graph, Node, edge_key
from repro.registry import register_algorithm

_UNCLUSTERED = "<none>"


def _phase_schedule(k: int) -> List[Tuple[int, int, str]]:
    """The global round schedule: (round, phase_index, step).

    Steps: 'announce', 'flood:<j>' x i, 'status', 'join' per phase
    i = 1..k-1, then 'final-announce' and 'final-join'.  Every node
    derives the identical schedule from k, so coordination is free.
    """
    schedule: List[Tuple[int, int, str]] = []
    r = 1
    for i in range(1, k):
        schedule.append((r, i, "announce"))
        r += 1
        for j in range(i):
            schedule.append((r, i, f"flood:{j}"))
            r += 1
        schedule.append((r, i, "status"))
        r += 1
        schedule.append((r, i, "join"))
        r += 1
    schedule.append((r, k, "final-announce"))
    r += 1
    schedule.append((r, k, "final-join"))
    return schedule


class _BaswanaSenProtocol(NodeProtocol):
    """Node-local Baswana-Sen logic driven by the global schedule.

    ``steps`` maps each scheduled round to its step (the schedule of
    :func:`_phase_schedule`, built once per run and shared read-only by
    every node); ``last_round`` is its final round.
    """

    def __init__(self, k: int, steps: Dict[int, str], last_round: int) -> None:
        self.k = k
        self.steps = steps
        self.last_round = last_round
        self.token: Optional[str] = None  # own cluster token, None = left
        self.depth = 0
        self.survived = False
        self.flood_seen = False
        self.pending_bit: Optional[Tuple[str, bool]] = None
        self.neighbor_token: Dict[Node, str] = {}
        self.neighbor_status: Dict[Node, Tuple[str, bool, int]] = {}
        # An insertion-ordered set: the output lists the edges in the
        # order this node added them, never in hash order.
        self.spanner_edges: Dict[Tuple[Node, Node], None] = {}
        self.p = 1.0
        self.own_token = ""

    # ------------------------------------------------------------- #

    def init(self, ctx: NodeContext) -> None:
        self.own_token = repr(ctx.node)
        self.token = self.own_token
        self.p = ctx.n ** (-1.0 / self.k) if ctx.n > 1 else 1.0

    def receive(self, ctx: NodeContext, messages: List[Message]) -> None:
        for sender, _, payload in messages:
            tag = payload[0]
            if tag == "center":
                self.neighbor_token[sender] = payload[1]
            elif tag == "bit":
                _, token, bit = payload
                if self.token == token and not self.flood_seen:
                    self.survived = bool(bit)
                    self.flood_seen = True
                    self.pending_bit = (token, bool(bit))
            elif tag == "status":
                _, token, bit, depth = payload
                self.neighbor_status[sender] = (
                    token,
                    bool(bit),
                    int(depth),
                )

        step = self.steps.get(ctx.round)
        if step is None:
            if ctx.round > self.last_round:
                ctx.halt()
            return
        if step in ("announce", "final-announce"):
            ctx.broadcast(
                ("center", self.token if self.token is not None else _UNCLUSTERED)
            )
            self.neighbor_status = {}
        elif step.startswith("flood:"):
            if step == "flood:0" and self.token == self.own_token:
                # This node centers a live cluster: flip the coin.
                self.survived = ctx.rng.random() < self.p
                self.flood_seen = True
                self.pending_bit = (self.token, self.survived)
            if self.pending_bit is not None:
                token, bit = self.pending_bit
                for v in ctx.neighbors:
                    if self.neighbor_token.get(v) == token:
                        ctx.send(v, ("bit", token, bit))
                self.pending_bit = None
        elif step == "status":
            if self.token is not None:
                ctx.broadcast(
                    ("status", self.token, self.survived, self.depth)
                )
        elif step == "join":
            self._join_step(ctx)
            self.flood_seen = False
            self.pending_bit = None
        elif step == "final-join":
            self._final_join(ctx)
            ctx.halt()

    # ------------------------------------------------------------- #

    def _join_step(self, ctx: NodeContext) -> None:
        """Step 4 of a phase: the [BS07] join rule, locally decided."""
        if self.token is None or self.survived:
            return
        best = self._lightest_per_cluster(ctx)
        surviving = {
            token: (w, u, depth)
            for token, (w, u, depth, alive) in best.items()
            if alive
        }
        if surviving:
            join_token, (join_w, join_u, join_depth) = min(
                surviving.items(), key=lambda kv: (kv[1][0], kv[0])
            )
            self._add_edge(ctx.node, join_u)
            for token, (w, u, _depth, _alive) in best.items():
                if token != join_token and w < join_w:
                    self._add_edge(ctx.node, u)
            self.token = join_token
            self.depth = join_depth + 1
            self.survived = True  # now a member of a surviving cluster
        else:
            for token, (w, u, _depth, _alive) in best.items():
                self._add_edge(ctx.node, u)
            self.token = None
            self.depth = 0

    def _final_join(self, ctx: NodeContext) -> None:
        """Final phase: lightest edge into each adjacent foreign cluster."""
        if self.token is None:
            return
        best: Dict[str, Tuple[float, str, Node]] = {}
        for v in ctx.neighbors:
            token = self.neighbor_token.get(v)
            if token is None or token == _UNCLUSTERED or token == self.token:
                continue
            w = ctx.edge_weights[v]
            cand = (w, repr(v), v)
            if token not in best or cand[:2] < best[token][:2]:
                best[token] = cand
        for token, (_w, _r, u) in best.items():
            self._add_edge(ctx.node, u)

    def _lightest_per_cluster(
        self, ctx: NodeContext
    ) -> Dict[str, Tuple[float, Node, int, bool]]:
        """Per adjacent foreign cluster: (weight, endpoint, depth, alive)."""
        best: Dict[str, Tuple[float, Node, int, bool]] = {}
        for v, (token, alive, depth) in self.neighbor_status.items():
            if token == self.token:
                continue
            w = ctx.edge_weights[v]
            cur = best.get(token)
            if cur is None or (w, repr(v)) < (cur[0], repr(cur[1])):
                best[token] = (w, v, depth, alive)
        return best

    def _add_edge(self, u: Node, v: Node) -> None:
        self.spanner_edges[edge_key(u, v)] = None

    def output(self) -> Tuple[Tuple[Node, Node], ...]:
        return tuple(self.spanner_edges)


@register_algorithm(
    "congest-bs",
    summary="Theorem 14: Baswana-Sen as a CONGEST protocol",
    guarantee="stretch 2k-1, O(k^2) CONGEST rounds, O(1)-word messages; "
              "no fault tolerance",
    seedable=True,
    distributed=True,
)
def congest_baswana_sen(
    g: Graph,
    k: int,
    seed: Optional[int] = None,
    congest_word_limit: int = 8,
) -> SpannerResult:
    """Run the Theorem 14 CONGEST Baswana-Sen protocol end to end.

    The returned ``rounds`` is the simulator's actual round count and
    ``extra['max_message_words']`` certifies the CONGEST budget was
    respected (the engine raises on violation; the stat shows headroom).
    """
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    network = SyncNetwork(
        g, model="CONGEST", congest_word_limit=congest_word_limit, seed=seed
    )
    steps = {r: step for r, _, step in _phase_schedule(k)}
    schedule_len = max(steps)

    def protocol() -> _BaswanaSenProtocol:
        return _BaswanaSenProtocol(k, steps, schedule_len)

    outputs = network.run(protocol, max_rounds=schedule_len + 4)
    spanner = network.collect_spanner(outputs)
    return SpannerResult(
        spanner=spanner,
        k=k,
        f=0,
        fault_model=FaultModel.VERTEX,
        algorithm="congest-baswana-sen",
        rounds=network.stats.rounds,
        extra={
            "messages": float(network.stats.messages),
            "max_message_words": float(network.stats.max_message_words),
            "schedule_rounds": float(schedule_len),
        },
    )
