"""The synchronous message-passing engine."""

from __future__ import annotations

import pytest

from repro.distributed.runtime import (
    CongestViolation,
    Message,
    NodeContext,
    NodeProtocol,
    RunStats,
    SyncNetwork,
    message_words,
)
from repro.graph import generators
from repro.graph.graph import Graph


class _Flood(NodeProtocol):
    """Flood a token from node 0; output the round it arrived."""

    def __init__(self):
        self.arrival = None

    def init(self, ctx):
        if ctx.node == 0:
            self.arrival = 0
            ctx.broadcast(("token",))

    def receive(self, ctx, messages):
        if self.arrival is None and any(
            m.payload[0] == "token" for m in messages
        ):
            self.arrival = ctx.round
            ctx.broadcast(("token",))
        if self.arrival is not None:
            ctx.halt()


class _Silent(NodeProtocol):
    def init(self, ctx):
        ctx.halt()

    def receive(self, ctx, messages):  # pragma: no cover
        raise AssertionError("should never be called")


class _Chatter(NodeProtocol):
    """Sends a too-big message in CONGEST."""

    def init(self, ctx):
        ctx.broadcast(tuple(range(100)))

    def receive(self, ctx, messages):
        ctx.halt()


class _HubSends(NodeProtocol):
    """Node 0 sends one 100-word payload, to every neighbor through
    ``broadcast`` or to its first neighbor through ``send``."""

    def __init__(self, how):
        self.how = how

    def init(self, ctx):
        if ctx.node == 0:
            if self.how == "broadcast":
                ctx.broadcast(tuple(range(100)))
            else:
                ctx.send(ctx.neighbors[0], tuple(range(100)))

    def receive(self, ctx, messages):
        ctx.halt()


class _NeverHalts(NodeProtocol):
    def receive(self, ctx, messages):
        ctx.broadcast(("ping",))


class _Transcript(NodeProtocol):
    """Gossip for three rounds; output the neighbor tuple and, per
    round, the senders of the inbox in delivery order and the rng draw."""

    def __init__(self):
        self.log = []

    def init(self, ctx):
        self.log.append(ctx.neighbors)
        ctx.broadcast((ctx.node,))

    def receive(self, ctx, messages):
        self.log.append(
            (ctx.round, [m.sender for m in messages], ctx.rng.random())
        )
        if ctx.round == 3:
            ctx.halt()
        else:
            ctx.broadcast((ctx.node, ctx.round))

    def output(self):
        return self.log


def _rebuilt(g):
    """The same graph built in another order: nodes inserted in
    reverse, edges shuffled, every other edge's endpoints swapped."""
    import random

    edges = list(g.weighted_edges())
    random.Random(0).shuffle(edges)
    h = Graph()
    h.add_nodes(sorted(g.nodes(), key=repr, reverse=True))
    for i, (u, v, w) in enumerate(edges):
        h.add_edge(*((v, u) if i % 2 else (u, v)), w)
    return h


class TestMessageWords:
    def test_atoms(self):
        assert message_words(5) == 1
        assert message_words(3.14) == 1
        assert message_words(None) == 1
        assert message_words(True) == 1

    def test_strings(self):
        assert message_words("tag") == 1
        assert message_words("x" * 17) == 3

    def test_containers(self):
        assert message_words((1, 2, 3)) == 3
        assert message_words(frozenset({1, 2})) == 2
        assert message_words({1: 2}) == 2
        assert message_words(((1, 2), 3)) == 3

    def test_opaque_is_huge(self):
        assert message_words(object()) >= 1 << 20


class TestEngine:
    def test_flood_arrival_equals_bfs_depth(self):
        g = generators.path_graph(5)
        net = SyncNetwork(g, model="LOCAL")
        outputs = net.run(_Flood)
        # Output captured via protocol instances: re-check through stats.
        assert net.stats.rounds >= 4

    def test_silent_protocol_finishes_round_zero(self):
        g = generators.path_graph(3)
        net = SyncNetwork(g, model="LOCAL")
        net.run(_Silent)
        assert net.stats.rounds == 0
        assert net.stats.messages == 0

    def test_congest_rejects_big_messages(self):
        g = generators.path_graph(3)
        net = SyncNetwork(g, model="CONGEST", congest_word_limit=8)
        with pytest.raises(CongestViolation):
            net.run(_Chatter)

    def test_local_allows_big_messages(self):
        g = generators.path_graph(3)
        net = SyncNetwork(g, model="LOCAL")
        net.run(_Chatter)  # no exception
        # Every node broadcasts 100 words: one message per edge end.
        assert net.stats.messages == 4
        assert net.stats.total_words == 400
        assert net.stats.max_message_words == 100

    def test_max_rounds_guard(self):
        g = generators.path_graph(3)
        net = SyncNetwork(g, model="LOCAL")
        with pytest.raises(RuntimeError, match="did not terminate"):
            net.run(_NeverHalts, max_rounds=5)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            SyncNetwork(Graph(), model="ASYNC")

    def test_send_to_non_neighbor_rejected(self):
        g = generators.path_graph(3)

        class Bad(NodeProtocol):
            def init(self, ctx):
                if ctx.node == 0:
                    ctx.send(2, ("x",))  # 0 and 2 are not adjacent

            def receive(self, ctx, messages):
                ctx.halt()

        net = SyncNetwork(g, model="LOCAL")
        with pytest.raises(ValueError, match="no edge"):
            net.run(Bad)

    def test_determinism_across_runs(self):
        g = generators.gnp_random_graph(20, 0.2, seed=3)

        class Rand(NodeProtocol):
            def __init__(self):
                self.value = None

            def init(self, ctx):
                self.value = ctx.rng.random()
                ctx.halt()

            def receive(self, ctx, messages):
                ctx.halt()

            def output(self):
                return self.value

        a = SyncNetwork(g, seed=7).run(Rand)
        b = SyncNetwork(g, seed=7).run(Rand)
        c = SyncNetwork(g, seed=8).run(Rand)
        assert a == b
        assert a != c

    def test_context_exposes_local_view(self):
        g = Graph([(1, 2, 5.0), (2, 3, 7.0)])
        seen = {}

        class Inspect(NodeProtocol):
            def init(self, ctx):
                seen[ctx.node] = (ctx.n, set(ctx.neighbors), dict(ctx.edge_weights))
                ctx.halt()

            def receive(self, ctx, messages):
                ctx.halt()

        SyncNetwork(g).run(Inspect)
        assert seen[2] == (3, {1, 3}, {1: 5.0, 3: 7.0})
        assert seen[1] == (3, {2}, {2: 5.0})

    def test_stats_accumulate(self):
        g = generators.complete_graph(4)
        net = SyncNetwork(g, model="LOCAL")
        net.run(_Flood)
        assert net.stats.messages > 0
        assert net.stats.total_words >= net.stats.messages

    def test_single_edge_runs(self):
        g = Graph([(0, 1, 1.0)])
        net = SyncNetwork(g, model="LOCAL", seed=1)
        out = net.run(_Transcript)
        assert out[0][0] == (1,) and out[1][0] == (0,)
        assert [r[:2] for r in out[0][1:]] == [(1, [1]), (2, [1]), (3, [1])]
        assert (net.stats.rounds, net.stats.messages) == (3, 6)

    def test_construction_order_is_not_observable(self):
        # The engine walks nodes and neighbors in repr order, so the
        # inbox order, the per-node streams and the stats are the
        # same however the graph was built.
        g = generators.gnp_random_graph(25, 0.2, seed=5)
        h = _rebuilt(g)
        assert list(h.nodes()) != list(g.nodes())
        base_net = SyncNetwork(g, model="LOCAL", seed=3)
        base = base_net.run(_Transcript)
        net = SyncNetwork(h, model="LOCAL", seed=3)
        assert net.run(_Transcript) == base
        assert net.stats.__dict__ == base_net.stats.__dict__

    def test_collect_spanner(self):
        g = Graph([(1, 2, 2.0), (2, 3, 3.0)])
        net = SyncNetwork(g)
        h = net.collect_spanner({1: [(1, 2)], 2: [(2, 1)], 3: None})
        assert h.num_edges == 1
        assert h.weight(1, 2) == 2.0
        assert h.num_nodes == 3


class TestRunStats:
    def test_record_round_folds_counts(self):
        st = RunStats()
        st.record_round(3, 11, 7)
        st.record_round(1, message_words(("a", "b")), 2)
        assert (st.messages, st.total_words, st.max_message_words) == (
            4, 11 + message_words(("a", "b")), 7
        )

    def test_merge_is_order_independent(self):
        parts = [RunStats(), RunStats(), RunStats()]
        parts[0].record_round(2, 7, 5)
        parts[1].record_round(1, 9, 9)
        # parts[2] stays empty: merging it changes nothing.
        folds = []
        for order in ([0, 1, 2], [2, 1, 0], [1, 2, 0]):
            total = RunStats(rounds=4)
            for i in order:
                total.merge(parts[i])
            folds.append(total)
        assert folds[0] == folds[1] == folds[2]
        assert folds[0] == RunStats(rounds=4, messages=3, total_words=16,
                                    max_message_words=9)


class TestBudgetEnforcement:
    """The CONGEST budget holds on every send path."""

    STAR = [(0, leaf, 1.0) for leaf in range(1, 6)]

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_oversize_payload_raises(self, how):
        net = SyncNetwork(Graph(self.STAR), model="CONGEST")
        with pytest.raises(CongestViolation, match="100 words"):
            net.run(lambda: _HubSends(how))

    def test_isolated_broadcast_sends_nothing(self):
        g = Graph([(1, 2, 1.0)])
        g.add_node(0)
        net = SyncNetwork(g, model="CONGEST")
        net.run(lambda: _HubSends("broadcast"))
        assert (net.stats.messages, net.stats.total_words) == (0, 0)
        assert net.stats.max_message_words == 0

    def test_local_broadcast_counts_every_copy(self):
        net = SyncNetwork(Graph(self.STAR), model="LOCAL")
        net.run(lambda: _HubSends("broadcast"))
        degree = len(self.STAR)
        assert net.stats.messages == degree
        assert net.stats.total_words == 100 * degree
        assert net.stats.max_message_words == 100


class _Mixed(NodeProtocol):
    """Every node mixes ``send`` and ``broadcast`` in one round,
    sending twice in a row to its last neighbor; each node outputs its
    round-1 inbox as ``(sender, receiver, payload)`` triples."""

    def __init__(self):
        self.inbox = None

    def init(self, ctx):
        last = ctx.neighbors[-1]
        ctx.send(last, (ctx.node, 0))
        ctx.broadcast((ctx.node, 1))
        ctx.send(last, (ctx.node, 2))
        ctx.send(last, (ctx.node, 3))

    def receive(self, ctx, messages):
        assert all(type(m) is Message for m in messages)
        self.inbox = [tuple(m) for m in messages]
        ctx.halt()

    def output(self):
        return self.inbox


class TestDelivery:
    """Each send/broadcast call queues one entry; the engine builds
    the messages at the round boundary."""

    # Insertion, numeric and repr order all differ: repr order is
    # "10" < "100" < "2" < "9".
    EDGES = [(9, 10, 1.0), (10, 100, 1.0), (100, 9, 1.0), (2, 10, 1.0)]

    def test_inbox_order_is_sender_repr_then_call_order(self):
        g = Graph(self.EDGES)
        net = SyncNetwork(g, model="CONGEST", seed=1)
        out = net.run(_Mixed)

        def calls(s):
            """Sender ``s``'s sends, in call order: (receiver, payload)."""
            nbrs = sorted(g.neighbors(s), key=repr)
            last = nbrs[-1]
            return (
                [(last, (s, 0))]
                + [(v, (s, 1)) for v in nbrs]
                + [(last, (s, 2)), (last, (s, 3))]
            )

        for v in g.nodes():
            expected = [
                (s, v, payload)
                for s in sorted(g.neighbors(v), key=repr)
                for r, payload in calls(s)
                if r == v
            ]
            assert out[v] == expected
        # Spelled out: node 9 is the last neighbor of both 10 and 100,
        # so it gets all four messages of each, 10's first; node 10 is
        # only node 2's last neighbor.
        assert [p for _, _, p in out[9]] == [
            (10, 0), (10, 1), (10, 2), (10, 3),
            (100, 0), (100, 1), (100, 2), (100, 3),
        ]
        assert [p for _, _, p in out[10]] == [
            (100, 1), (2, 0), (2, 1), (2, 2), (2, 3), (9, 1),
        ]
        sent = sum(len(calls(s)) for s in g.nodes())
        assert (net.stats.messages, net.stats.total_words) == (
            sent, 2 * sent
        )
        assert (net.stats.rounds, net.stats.max_message_words) == (1, 2)

    def test_message_fields_are_named_and_frozen(self):
        msg = Message("a", "b", ("x", 1))
        assert Message._fields == ("sender", "receiver", "payload")
        assert (msg.sender, msg.receiver, msg.payload) == ("a", "b", ("x", 1))
        sender, _, payload = msg
        assert (sender, payload) == ("a", ("x", 1))
        for field in Message._fields:
            with pytest.raises(AttributeError):
                setattr(msg, field, "z")
        assert msg == Message("a", "b", ("x", 1))

    @pytest.mark.parametrize("how", ["send", "broadcast"])
    def test_violation_raises_at_the_call(self, how):
        # The protocol catches the violation inside init: it can only
        # do so if the call itself raised.  The oversize payload queues
        # nothing; the legal one sent next is delivered and counted.
        caught = []

        class Catch(NodeProtocol):
            def init(self, ctx):
                if ctx.node != 0:
                    return
                try:
                    if how == "send":
                        ctx.send(ctx.neighbors[0], tuple(range(100)))
                    else:
                        ctx.broadcast(tuple(range(100)))
                except CongestViolation:
                    caught.append(ctx.round)
                ctx.send(ctx.neighbors[0], ("ok",))

            def receive(self, ctx, messages):
                ctx.halt()

        net = SyncNetwork(Graph(TestBudgetEnforcement.STAR), model="CONGEST")
        net.run(Catch)
        assert caught == [0]
        assert (net.stats.messages, net.stats.max_message_words) == (1, 1)


class TestStableSeeding:
    """Per-node RNG seeds derive from (engine seed, node ID), not from
    the engine's iteration order (PR 10 regression tests)."""

    class _Probe(NodeProtocol):
        def __init__(self):
            self.value = None

        def init(self, ctx):
            self.value = ctx.rng.random()
            ctx.halt()

        def receive(self, ctx, messages):
            ctx.halt()

        def output(self):
            return self.value

    def test_node_seed_is_a_stable_hash(self):
        from repro.distributed.runtime import node_seed

        assert node_seed(7, 0) == node_seed(7, 0)
        assert node_seed(7, 0) != node_seed(7, 1)
        assert node_seed(7, 0) != node_seed(8, 0)
        # Not Python's salted hash(): the derivation goes through
        # repr(), so equal-repr nodes get equal seeds by construction.
        assert node_seed(7, 0) == node_seed(7, -0)

    def test_node_stream_survives_unrelated_nodes(self):
        # The historical bug: seeds were drawn from one shared RNG in
        # iteration order, so adding node 99 shifted every later
        # node's stream.  Now each node's draw depends only on the
        # (engine seed, node ID) pair.
        small = Graph([(0, 1, 1.0), (1, 2, 1.0)])
        big = Graph([(0, 1, 1.0), (1, 2, 1.0), (2, 99, 1.0), (99, 7, 1.0)])
        a = SyncNetwork(small, seed=13).run(self._Probe)
        b = SyncNetwork(big, seed=13).run(self._Probe)
        for v in (0, 1, 2):
            assert a[v] == b[v]

    def test_seed_none_still_nondeterministic(self):
        g = generators.gnp_random_graph(10, 0.3, seed=1)
        a = SyncNetwork(g, seed=None).run(self._Probe)
        b = SyncNetwork(g, seed=None).run(self._Probe)
        assert a != b
