"""Synchronous message-passing simulator for LOCAL and CONGEST.

The paper's distributed results are statements about *rounds* and
*message sizes* in the standard synchronous models [Pel00]:

* LOCAL: per round, each node may send one arbitrarily large message on
  each incident edge; unlimited local computation.
* CONGEST: identical, but each message is at most O(log n) bits -- i.e.
  O(1) "words", where a word holds a node ID or an edge weight.

This engine runs protocols honestly under either model:

* A protocol is a :class:`NodeProtocol` subclass.  Each node instance
  sees only its node ID, its local neighborhood (incident edges +
  weights), the global parameters the model grants (n, and the protocol's
  public parameters), and the messages it receives.
* Rounds are fully synchronous: messages sent in round r arrive at the
  start of round r + 1.
* Message sizes are measured in words via :func:`message_words`; in
  CONGEST mode a message exceeding ``congest_word_limit`` raises
  :class:`CongestViolation` -- the simulator *enforces* the model rather
  than trusting the implementation.
* Each message is measured exactly once, when it is sent: ``send``
  measures its payload, and ``broadcast`` measures its one payload
  once for all neighbors (every copy is the same object, so every copy
  has the same size).  Either call queues one outbox entry,
  ``(receivers, payload, words)``.
* At the round boundary the engine walks the senders in ``repr`` order
  and builds one :class:`Message` per receiver of each entry, so an
  inbox holds its senders in ``repr`` order and each sender's messages
  in call order.
* The engine reports :class:`RunStats`: rounds used, message count,
  total words, and the maximum single-message size.  The stats read
  the counts stored at send time, folded in once per round; nothing
  is measured again at delivery.

Determinism: each node's ``random.Random`` is seeded from a **stable
hash of (engine seed, node ID)** (:func:`node_seed`), not from the
engine's iteration order.  Two consequences: a node's random stream is
unaffected by unrelated nodes joining the graph, and it is the same in
every process -- so a run repeated in a worker process (as
``congest_ft_spanner``'s instance sharding does) is bit-identical to
the in-process one.
"""

from __future__ import annotations

import hashlib
import inspect
import random
from dataclasses import dataclass
from typing import Any, Dict, List, NamedTuple, Optional, Tuple

from repro.graph.graph import Graph, Node


class CongestViolation(RuntimeError):
    """A protocol sent a message larger than the CONGEST budget."""


class Message(NamedTuple):
    """A delivered message: ``sender -> receiver`` with a payload.

    Payloads must be built from ints, floats, strings, booleans, None,
    tuples and frozensets thereof -- things whose "word count" is
    well-defined by :func:`message_words`.  A message is an immutable
    tuple, so protocols may unpack it: ``sender, _, payload = msg``.
    """

    sender: Node
    receiver: Node
    payload: Any


#: Exact types that always cost one word (the container fast path of
#: :func:`message_words`; subclasses still take the general branch).
_ONE_WORD = frozenset({int, float, bool, type(None)})


def message_words(payload: Any) -> int:
    """Size of a payload in words (1 word = 1 ID / weight / small int).

    The accounting convention: atoms cost one word each; containers cost
    the sum of their elements.  A CONGEST message must fit in O(1) words;
    the engine's default limit is 8 (enough for a tag, an iteration
    number, a couple of IDs and a weight -- what Theorem 15's messages
    need).
    """
    if payload is None or isinstance(payload, (int, float, bool)):
        return 1
    if isinstance(payload, str):
        # A short tag is one word; long strings are charged per 8 chars.
        return max(1, (len(payload) + 7) // 8)
    if isinstance(payload, (tuple, list, frozenset, set)):
        # Flat containers are the common case: their atoms and strings
        # are priced inline (same rules as above), only nested values
        # recurse.
        words = 0
        for item in payload:
            cls = item.__class__
            if cls in _ONE_WORD:
                words += 1
            elif cls is str:
                words += max(1, (len(item) + 7) // 8)
            else:
                words += message_words(item)
        return words
    if isinstance(payload, dict):
        return sum(
            message_words(k) + message_words(v) for k, v in payload.items()
        )
    # Opaque objects (used by LOCAL protocols, where size is unlimited):
    # charged generously so CONGEST mode rejects them.
    return 1 << 20


def node_seed(engine_seed: int, node: Node) -> int:
    """Stable 64-bit RNG seed for one node under one engine seed.

    Derived by hashing ``(engine_seed, repr(node))`` with blake2b --
    *not* Python's salted ``hash()`` -- so the value is identical
    across processes, interpreter runs, and ``PYTHONHASHSEED`` values.
    Because the seed depends only on the pair, a node's random stream
    is independent of iteration order and of which other nodes exist.
    """
    digest = hashlib.blake2b(
        f"{engine_seed}:{node!r}".encode("utf-8"), digest_size=8
    ).digest()
    return int.from_bytes(digest, "big")


class NodeProtocol:
    """Base class for node-local protocol logic.

    Lifecycle per node::

        init(ctx)                 # round 0, before any communication
        receive(ctx, messages)    # once per round, with that round's inbox

    Both hooks communicate by calling ``ctx.send(neighbor, payload)`` and
    finish by ``ctx.halt()`` when the node is done.  The run ends when
    every node has halted or ``max_rounds`` is hit.

    Implementations must only use ``ctx`` and their own attributes --
    the engine gives them no access to other nodes or the global graph.
    """

    def init(self, ctx: "NodeContext") -> None:
        """Called once before round 1.  Override to send initial messages."""

    def receive(self, ctx: "NodeContext", messages: List[Message]) -> None:
        """Called every round with the messages delivered this round."""
        raise NotImplementedError

    def output(self) -> Any:
        """The node's local output after the run (protocol-specific)."""
        return None


class NodeContext:
    """What a node is allowed to see and do.

    Attributes
    ----------
    node:
        This node's ID.
    n:
        Number of nodes in the network (standard assumption: n, or a
        polynomial upper bound on it, is global knowledge).
    neighbors:
        Tuple of neighbor IDs.
    edge_weights:
        Mapping neighbor -> weight of the connecting edge.
    rng:
        Private randomness (seeded deterministically per node from
        :func:`node_seed`).
    round:
        Current round number (0 during init).
    """

    __slots__ = (
        "node",
        "n",
        "neighbors",
        "edge_weights",
        "rng",
        "round",
        "_outbox",
        "_halted",
        "_checker",
    )

    def __init__(
        self,
        node: Node,
        n: int,
        neighbors: Tuple[Node, ...],
        edge_weights: Dict[Node, float],
        rng: random.Random,
        checker: _SizeChecker,
    ) -> None:
        self.node = node
        self.n = n
        self.neighbors = neighbors
        self.edge_weights = edge_weights
        self.rng = rng
        self.round = 0
        # One (receivers, payload, words) entry per send/broadcast call;
        # words is the payload's size, measured at the call.
        self._outbox: List[Tuple[Tuple[Node, ...], Any, int]] = []
        self._halted = False
        self._checker = checker

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue a message to ``neighbor`` for delivery next round."""
        if neighbor not in self.edge_weights:
            raise ValueError(
                f"node {self.node!r} has no edge to {neighbor!r}"
            )
        words = self._checker.measure(payload)
        self._outbox.append(((neighbor,), payload, words))

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor (measured once for all)."""
        if not self.neighbors:
            return
        words = self._checker.measure(payload)
        self._outbox.append((self.neighbors, payload, words))

    def halt(self) -> None:
        """Declare this node finished (it still receives messages)."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted


@dataclass
class RunStats:
    """Cost metrics of a protocol run."""

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_message_words: int = 0

    def record_round(self, messages: int, words: int, largest: int) -> None:
        """Fold one round's deliveries in: ``messages`` messages of
        ``words`` words in total, the largest ``largest`` words."""
        self.messages += messages
        self.total_words += words
        if largest > self.max_message_words:
            self.max_message_words = largest

    def merge(self, other: "RunStats") -> None:
        """Fold another run's message counts into this one (sums and
        maxes, so the result is independent of merge order)."""
        self.messages += other.messages
        self.total_words += other.total_words
        self.max_message_words = max(
            self.max_message_words, other.max_message_words
        )


class _SizeChecker:
    """The message-size rule: measure a payload, enforce the budget.

    The engine builds one per run and every context holds it, so
    ``send`` and ``broadcast`` apply the same rule and raise at the
    offending call.
    """

    __slots__ = ("model", "congest_word_limit")

    def __init__(self, model: str, congest_word_limit: int) -> None:
        self.model = model
        self.congest_word_limit = congest_word_limit

    def measure(self, payload: Any) -> int:
        """The payload's word count; raises :class:`CongestViolation`
        in CONGEST mode when it exceeds the budget."""
        words = message_words(payload)
        if words > self.congest_word_limit and self.model == "CONGEST":
            raise CongestViolation(
                f"message of {words} words exceeds the CONGEST budget "
                f"of {self.congest_word_limit}"
            )
        return words


def _accepts_node(protocol_factory) -> bool:
    """Whether the factory takes the node ID as a positional argument.

    Zero-argument factories (``lambda: Proto(k)``) are called bare;
    factories with a positional parameter receive the node -- how
    per-node protocols (e.g. the LOCAL gather/compute phase) learn
    their identity without relying on engine call order.
    """
    try:
        sig = inspect.signature(protocol_factory)
    except (TypeError, ValueError):  # builtins / odd callables
        return False
    for p in sig.parameters.values():
        if p.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
            inspect.Parameter.VAR_POSITIONAL,
        ):
            return True
    return False


class SyncNetwork:
    """The synchronous engine.

    Parameters
    ----------
    graph:
        The communication topology (also the algorithms' input graph).
    model:
        ``'LOCAL'`` (unbounded messages) or ``'CONGEST'`` (enforced word
        budget per message).
    congest_word_limit:
        Per-message budget in words for CONGEST mode.
    seed:
        Engine seed; node RNGs derive from it via :func:`node_seed`.
        ``None`` draws a fresh engine seed per run (nondeterministic),
        but the per-node derivation below it is always the stable hash.
    """

    def __init__(
        self,
        graph: Graph,
        model: str = "LOCAL",
        congest_word_limit: int = 8,
        seed: Optional[int] = None,
    ) -> None:
        if model not in ("LOCAL", "CONGEST"):
            raise ValueError(f"unknown model {model!r}")
        self.graph = graph
        self.model = model
        self.congest_word_limit = congest_word_limit
        self.seed = seed
        self.stats = RunStats()

    def run(
        self,
        protocol_factory,
        max_rounds: int = 10_000,
    ) -> Dict[Node, Any]:
        """Execute the protocol until all nodes halt (or ``max_rounds``).

        ``protocol_factory`` is called once per node to create that
        node's :class:`NodeProtocol` instance -- with the node ID as
        its argument when the factory takes one positional parameter,
        bare otherwise.  Returns each node's ``output()``; cost metrics
        land in ``self.stats``.
        """
        engine_seed = (
            self.seed if self.seed is not None else random.getrandbits(64)
        )
        g = self.graph
        n = g.num_nodes
        nodes = sorted(g.nodes(), key=repr)
        with_node = _accepts_node(protocol_factory)
        checker = _SizeChecker(self.model, self.congest_word_limit)
        pairs: List[Tuple[NodeContext, NodeProtocol]] = []
        for v in nodes:
            ctx = NodeContext(
                node=v,
                n=n,
                neighbors=tuple(sorted(g.neighbors(v), key=repr)),
                edge_weights=dict(g.neighbor_items(v)),
                rng=random.Random(node_seed(engine_seed, v)),
                checker=checker,
            )
            pairs.append(
                (ctx, protocol_factory(v) if with_node else protocol_factory())
            )
        contexts = [ctx for ctx, _ in pairs]

        for ctx, protocol in pairs:
            protocol.init(ctx)

        stats = self.stats = RunStats()
        new_message = tuple.__new__
        for round_no in range(1, max_rounds + 1):
            # Deliver: senders in repr order, each sender's entries in
            # call order, one Message per receiver of an entry.
            inboxes: Dict[Node, List[Message]] = {v: [] for v in nodes}
            count = total = largest = 0
            for ctx in contexts:
                outbox = ctx._outbox
                if not outbox:
                    continue
                ctx._outbox = []
                sender = ctx.node
                for receivers, payload, words in outbox:
                    fanout = len(receivers)
                    count += fanout
                    total += words * fanout
                    if words > largest:
                        largest = words
                    for receiver in receivers:
                        inboxes[receiver].append(
                            new_message(Message, (sender, receiver, payload))
                        )
            if count:
                stats.record_round(count, total, largest)
            elif all(ctx._halted for ctx in contexts):
                break
            stats.rounds = round_no
            for ctx, protocol in pairs:
                ctx.round = round_no
                # Halted nodes still receive (a neighbor may not know they
                # halted), but their receive hook is not invoked.
                if not ctx._halted:
                    protocol.receive(ctx, inboxes[ctx.node])
            if all(ctx._halted for ctx in contexts) and not any(
                ctx._outbox for ctx in contexts
            ):
                break
        else:
            raise RuntimeError(
                f"protocol did not terminate within {max_rounds} rounds"
            )
        return {ctx.node: protocol.output() for ctx, protocol in pairs}

    def collect_spanner(self, outputs: Dict[Node, Any]) -> Graph:
        """Union per-node edge outputs into a spanning subgraph.

        Convention: each node outputs an iterable of (u, v) edges it knows
        belong to the spanner (both endpoints may report the same edge).
        Edges are inserted node by node in ``outputs`` order (``run``
        returns it in ``repr`` order) and in each output's own order, so
        an ordered output, not a ``set``, makes H's edge order
        independent of ``PYTHONHASHSEED``.
        """
        h = self.graph.spanning_skeleton()
        for edges in outputs.values():
            if not edges:
                continue
            for u, v in edges:
                if not h.has_edge(u, v):
                    h.add_edge(u, v, weight=self.graph.weight(u, v))
        return h
