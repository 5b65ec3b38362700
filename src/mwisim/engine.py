"""Synchronous round engine for node programs under CONGEST or LOCAL rules.

Execution model: ``init`` runs on every node and may already emit a
message (sent in round 1) or halt. Every message is a broadcast: it goes to
all of the sender's neighbors in the executed graph. Each round delivers all
messages computed from the previous round's states before any node takes a
step, so results cannot depend on the order in which nodes are processed. A
node that halts stops sending; a message it emitted into its final round is
still read by its neighbors in that round.

Nodes see only their own id, their weight, the ids of their neighbors in the
executed graph, and an upper bound ``n_upper`` on the network size. They
never see n, the maximum degree, or any global structure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Mapping, Protocol

from .graphs import WeightedGraph
from .rng import node_rng
from .wire import Message

DEFAULT_C_MSG = 32
DEFAULT_MAX_ROUNDS = 10_000


class EngineError(Exception):
    pass


class CongestViolation(EngineError):
    """A message exceeded the CONGEST budget."""

    def __init__(self, sender: int, receiver: int, round_no: int,
                 size_bits: int, budget_bits: int):
        super().__init__(
            f"round {round_no}: message {sender} -> {receiver} has {size_bits} bits, "
            f"budget is {budget_bits}")
        self.sender = sender
        self.receiver = receiver
        self.round_no = round_no
        self.size_bits = size_bits
        self.budget_bits = budget_bits


class RoundLimitExceeded(EngineError):
    """Some nodes had not halted when max_rounds was reached."""

    def __init__(self, unfinished: list[int], stats: "RoundStats"):
        super().__init__(
            f"{len(unfinished)} node(s) still running after {stats.rounds} rounds")
        self.unfinished = unfinished
        self.stats = stats


@dataclass(frozen=True)
class NodeContext:
    """Everything a node is allowed to know before communicating."""

    node_id: int
    weight: int
    neighbors: tuple[int, ...]
    n_upper: int


@dataclass(frozen=True)
class StepResult:
    """``outbox``, if given, is broadcast to every neighbor next round."""

    state: Any = None
    outbox: Message | None = None
    halt: bool = False
    output: Any = None


class NodeProgram(Protocol):
    """Behavioral contract executed by the engine.

    ``init`` and ``step`` must be pure functions of their arguments (plus the
    node's private rng stream); the engine supplies a fresh rng per node
    derived from (seed, node id).
    """

    def init(self, ctx: NodeContext, rng) -> StepResult: ...

    def step(self, state: Any, ctx: NodeContext, inbox: Mapping[int, Message],
             rng) -> StepResult: ...


@dataclass
class RoundStats:
    """Complexity ledger of one run (or a merged pipeline of runs)."""

    rounds: int = 0
    messages_sent: int = 0
    max_message_bits: int = 0
    per_round_messages: list[int] = field(default_factory=list)
    budget_bits: int | None = None

    def merge(self, other: "RoundStats") -> "RoundStats":
        return RoundStats(
            rounds=self.rounds + other.rounds,
            messages_sent=self.messages_sent + other.messages_sent,
            max_message_bits=max(self.max_message_bits, other.max_message_bits),
            per_round_messages=self.per_round_messages + other.per_round_messages,
            budget_bits=self.budget_bits if other.budget_bits is None else other.budget_bits,
        )


def message_budget_bits(n_upper: int) -> int:
    """CONGEST budget B = DEFAULT_C_MSG * ceil(log2 n_upper) bits."""
    return DEFAULT_C_MSG * max(1, math.ceil(math.log2(max(n_upper, 2))))


def run(g: WeightedGraph, program: NodeProgram, mode: str = "congest",
        seed: int = 0, max_rounds: int = DEFAULT_MAX_ROUNDS,
        n_upper: int | None = None,
        node_order: Callable[[list[int]], list[int]] | None = None,
        ) -> tuple[dict[int, Any], RoundStats]:
    """Execute ``program`` on all nodes of ``g``; see ``run_on_subgraph``."""
    return run_on_subgraph(g, g.nodes, program, mode=mode, seed=seed,
                           max_rounds=max_rounds, n_upper=n_upper,
                           node_order=node_order)


def run_on_subgraph(g: WeightedGraph, subset: Iterable[int], program: NodeProgram,
                    mode: str = "congest", seed: int = 0,
                    max_rounds: int = DEFAULT_MAX_ROUNDS,
                    n_upper: int | None = None,
                    node_order: Callable[[list[int]], list[int]] | None = None,
                    ) -> tuple[dict[int, Any], RoundStats]:
    """Execute ``program`` on ``g.induced(subset)``, or on ``g`` itself when
    the subset is all of it.

    Identifiers and ``n_upper`` are inherited from ``g`` (``n_upper``
    defaults to g.n, not to the subset size). ``node_order`` reorders
    per-round processing and exists to test schedule independence; results
    must not depend on it.
    """
    if mode not in ("congest", "local"):
        raise EngineError(f"unknown mode {mode!r}")
    if max_rounds < 1:
        raise EngineError(f"max_rounds must be >= 1, got {max_rounds}")
    if n_upper is None:
        n_upper = g.n
    sub = set(subset)
    h = g if sub == g.adj.keys() else g.induced(sub)
    nodes = list(h.nodes)
    if node_order is not None:
        nodes = list(node_order(nodes))
        if sorted(nodes) != list(h.nodes):
            raise EngineError("node_order must permute the subset")
    budget = message_budget_bits(n_upper) if mode == "congest" else None

    adj = h.adj
    ctxs = {v: NodeContext(v, h.weights[v], adj[v], n_upper) for v in nodes}
    rngs = {v: node_rng(seed, v) for v in nodes}

    stats = RoundStats(budget_bits=budget)
    outputs: dict[int, Any] = {}
    states: dict[int, Any] = {}
    pending: dict[int, Message] = {}
    active: list[int] = []

    for v in nodes:
        res = program.init(ctxs[v], rngs[v])
        if res.halt:
            outputs[v] = res.output
        else:
            states[v] = res.state
            if res.outbox is not None:
                pending[v] = res.outbox
            active.append(v)

    while active:
        if stats.rounds >= max_rounds:
            raise RoundLimitExceeded(active, stats)
        round_no = stats.rounds + 1
        round_msgs = 0
        round_max = 0
        # budget checks and message counts happen sender-side; inboxes are
        # assembled receiver-side below, which keeps that loop in C
        for u, msg in pending.items():
            if not isinstance(msg, Message):
                raise EngineError(f"round {round_no}: node {u} sent a "
                                  f"{type(msg).__name__}, not a Message")
            targets = adj[u]
            if not targets:
                continue
            bits = msg.size_bits
            if budget is not None and bits > budget:
                raise CongestViolation(u, targets[0], round_no, bits, budget)
            if bits > round_max:
                round_max = bits
            round_msgs += len(targets)
        sent, pending = pending, {}
        stats.rounds = round_no
        stats.messages_sent += round_msgs
        stats.per_round_messages.append(round_msgs)
        if round_max > stats.max_message_bits:
            stats.max_message_bits = round_max

        still_active = []
        step = program.step
        for v in active:
            inbox = {u: sent[u] for u in adj[v] if u in sent} if sent else {}
            res = step(states[v], ctxs[v], inbox, rngs[v])
            if res.halt:
                outputs[v] = res.output
                del states[v]
            else:
                states[v] = res.state
                if res.outbox is not None:
                    pending[v] = res.outbox
                still_active.append(v)
        active = still_active

    return outputs, stats
