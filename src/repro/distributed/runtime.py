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
  has the same size).  The context keeps that word count next to the
  queued message.
* The engine reports :class:`RunStats`: rounds used, message count,
  total words, and the maximum single-message size.  The stats read
  the counts stored at send time; nothing is measured again at
  delivery.

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
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.graph.graph import Graph, Node


class CongestViolation(RuntimeError):
    """A protocol sent a message larger than the CONGEST budget."""


@dataclass(frozen=True, slots=True)
class Message:
    """A message in flight: ``sender -> receiver`` with a payload.

    Payloads must be built from ints, floats, strings, booleans, None,
    tuples and frozensets thereof -- things whose "word count" is
    well-defined by :func:`message_words`.
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
        "_words",
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
        self._outbox: List[Message] = []
        # _words[i] is the word count of _outbox[i], measured at send.
        self._words: List[int] = []
        self._halted = False
        self._checker = checker

    def send(self, neighbor: Node, payload: Any) -> None:
        """Queue a message to ``neighbor`` for delivery next round."""
        if neighbor not in self.edge_weights:
            raise ValueError(
                f"node {self.node!r} has no edge to {neighbor!r}"
            )
        words = self._checker.measure(payload)
        self._outbox.append(Message(self.node, neighbor, payload))
        self._words.append(words)

    def broadcast(self, payload: Any) -> None:
        """Send ``payload`` to every neighbor (measured once for all)."""
        if not self.neighbors:
            return
        words = self._checker.measure(payload)
        node = self.node
        self._outbox.extend(
            [Message(node, v, payload) for v in self.neighbors]
        )
        self._words.extend([words] * len(self.neighbors))

    def halt(self) -> None:
        """Declare this node finished (it still receives messages)."""
        self._halted = True

    @property
    def halted(self) -> bool:
        return self._halted

    def _take_outbox(self) -> Tuple[List[Message], List[int]]:
        """Hand the queued messages and their word counts to the engine."""
        sent = (self._outbox, self._words)
        if self._outbox:
            self._outbox = []
            self._words = []
        return sent


@dataclass
class RunStats:
    """Cost metrics of a protocol run."""

    rounds: int = 0
    messages: int = 0
    total_words: int = 0
    max_message_words: int = 0

    def record_many(self, words: Sequence[int]) -> None:
        """Count messages whose word counts are already known."""
        if not words:
            return
        self.messages += len(words)
        self.total_words += sum(words)
        self.max_message_words = max(self.max_message_words, max(words))

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
        self._contexts: Dict[Node, NodeContext] = {}
        self._protocols: Dict[Node, NodeProtocol] = {}

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
        self._contexts = {}
        self._protocols = {}
        for v in nodes:
            ctx = NodeContext(
                node=v,
                n=n,
                neighbors=tuple(sorted(g.neighbors(v), key=repr)),
                edge_weights=dict(g.neighbor_items(v)),
                rng=random.Random(node_seed(engine_seed, v)),
                checker=checker,
            )
            self._contexts[v] = ctx
            self._protocols[v] = (
                protocol_factory(v) if with_node else protocol_factory()
            )

        for v in nodes:
            self._protocols[v].init(self._contexts[v])

        self.stats = RunStats()
        for round_no in range(1, max_rounds + 1):
            inboxes: Dict[Node, List[Message]] = {v: [] for v in nodes}
            any_message = False
            for v in nodes:
                outbox, words = self._contexts[v]._take_outbox()
                if not outbox:
                    continue
                self.stats.record_many(words)
                any_message = True
                for msg in outbox:
                    inboxes[msg.receiver].append(msg)
            if not any_message and all(
                self._contexts[v]._halted for v in nodes
            ):
                break
            self.stats.rounds = round_no
            for v in nodes:
                ctx = self._contexts[v]
                ctx.round = round_no
                # Halted nodes still receive (a neighbor may not know they
                # halted), but their receive hook is not invoked.
                if not ctx._halted:
                    self._protocols[v].receive(ctx, inboxes[v])
            if all(self._contexts[v]._halted for v in nodes) and not any(
                self._contexts[v]._outbox for v in nodes
            ):
                break
        else:
            raise RuntimeError(
                f"protocol did not terminate within {max_rounds} rounds"
            )
        return {v: self._protocols[v].output() for v in nodes}

    def collect_spanner(self, outputs: Dict[Node, Any]) -> Graph:
        """Union per-node edge outputs into a spanning subgraph.

        Convention: each node outputs an iterable of (u, v) edges it knows
        belong to the spanner (both endpoints may report the same edge).
        """
        h = self.graph.spanning_skeleton()
        for edges in outputs.values():
            if not edges:
                continue
            for u, v in edges:
                if not h.has_edge(u, v):
                    h.add_edge(u, v, weight=self.graph.weight(u, v))
        return h
