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

Each node has a private counter-based random stream (``rng``): word k of
node v is the k-th SplitMix64 output seeded by ``derive_seed(seed, v)``.

A program runs in one of two forms with identical outputs, ``RoundStats``
and errors. Its ``kernel``, if it has one, computes each whole round with
numpy arrays over ``g.csr()``, drawing the same stream words in bulk, and
sends through a ``Net``, which checks and charges every round exactly as
the interpreter does. The per-node interpreter (``init``/``step`` on each
node in turn) is the reference: it runs when the program has no kernel,
and whenever ``node_order`` is given, since a kernel has no processing
order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import (TYPE_CHECKING, Any, Callable, Iterable, Mapping, Protocol,
                    Sequence)

import numpy as np

from .graphs import INT64_MAX, IndependentSet, WeightedGraph, neighbor_reduce
from .rng import derive_seeds, node_rng, stream_randints, stream_words
from .wire import LEN_BITS, TAG_BITS, Message

if TYPE_CHECKING:
    from .boost import PhaseFrame

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
    node's private rng stream); the engine supplies each node a
    ``rng.NodeStream`` whose word k is the k-th SplitMix64 output seeded by
    ``derive_seed(seed, node id)``, with ``getrandbits`` and ``randint``.

    A program may also define ``kernel(net: Net) -> outputs``: the same
    program as whole-round array steps, which the engine runs in place of
    the per-node interpreter (see the module docstring).
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


@dataclass(frozen=True)
class RunOutcome:
    """What every algorithm returns: its set, its cost, what a record keeps
    as ``diagnostics``, and the local-ratio stack if it has one."""

    iset: IndependentSet
    stats: RoundStats
    diagnostics: dict[str, Any] = field(default_factory=dict)
    stack: tuple[PhaseFrame, ...] | None = None


def message_budget_bits(n_upper: int) -> int:
    """CONGEST budget B = DEFAULT_C_MSG * ceil(log2 n_upper) bits."""
    return DEFAULT_C_MSG * max(1, math.ceil(math.log2(max(n_upper, 2))))


def _bit_lengths(a: np.ndarray) -> np.ndarray:
    """``max(1, v.bit_length())`` for each non-negative int64 ``v`` in ``a``."""
    a = np.maximum(a, 1)
    e = np.frexp(a)[1]
    # past 2^53 the float can round up to the next power of two: one too many
    e -= (a >> (e - 1)) == 0
    return e


def _message_sizes(tag: int, fields: Sequence[np.ndarray], count: int) -> np.ndarray:
    """``Message(tag, (f[i] for f in fields)).size_bits`` for i < ``count``.

    A field outside [0, 2^63) raises the ``WireError`` that building the
    first such message raises, as the interpreter would when that sender
    built it.
    """
    if any(f.dtype == object or (count and f.min() < 0) for f in fields):
        bad = np.zeros(count, dtype=bool)
        for f in fields:
            if f.dtype == object:
                bad |= np.fromiter((not 0 <= v <= INT64_MAX for v in f), bool, count)
            else:
                bad |= f < 0
        if bad.any():
            i = int(np.flatnonzero(bad)[0])
            Message(tag, tuple(int(f[i]) for f in fields))
    if not fields:
        return np.full(count, TAG_BITS, dtype=np.int64)
    # one (fields x senders) array, so the per-call numpy cost is paid once
    bits = _bit_lengths(np.array(fields, dtype=np.int64))
    sizes = bits.sum(axis=0, dtype=np.int64)
    sizes += TAG_BITS + LEN_BITS * len(fields)
    return sizes


class Net:
    """A kernel's view of one run: the executed graph and its rounds.

    Arrays are indexed by node position in ``graph.nodes`` (ascending ids,
    the interpreter's processing order). A kernel ends each step with one
    ``send``, which opens the next round with the interpreter's checks and
    charges; ``fold`` and ``senders_among`` read only what the last round's
    senders broadcast.
    """

    def __init__(self, graph: WeightedGraph, n_upper: int, seed: int,
                 budget: int | None, max_rounds: int):
        self.graph = graph
        self.ids = graph.nodes
        self.n_upper = n_upper
        self.indptr, self.nbr = graph.csr()
        self.deg = graph.degrees
        self.weights = np.fromiter(map(graph.weights.__getitem__, graph.nodes),
                                   dtype=np.int64, count=graph.n)
        self.stats = RoundStats(budget_bits=budget)
        self._seed = seed
        self._seeds: np.ndarray | None = None
        self._max_rounds = max_rounds
        self._sent = np.zeros(graph.n, dtype=bool)

    def words(self, pos: np.ndarray, k) -> np.ndarray:
        """Word ``k`` of the stream of each node in ``pos`` (uint64)."""
        return stream_words(self._stream_seeds()[pos], k)

    def randints(self, a: int, b: int) -> np.ndarray:
        """Every node's first ``rng.randint(a, b)``."""
        return stream_randints(self._stream_seeds(), a, b)

    def _stream_seeds(self) -> np.ndarray:
        if self._seeds is None:
            self._seeds = derive_seeds(self._seed, self.graph._ids)
        return self._seeds

    def send(self, active: np.ndarray, senders: np.ndarray, tag: int,
             *fields: np.ndarray, sizes: np.ndarray | None = None) -> None:
        """End a step: nodes in ``active`` keep running, and each node in
        ``senders`` (a subset) broadcasts ``Message(tag, its field values)``.

        Then, if any node is active, the next round opens as in the
        interpreter's loop: the round limit, the CONGEST check (the first
        sender over budget, named with its first neighbor), and a charge of
        deg(sender) messages per sender. ``sizes`` (bits per sender, in
        position order) stands in for ``fields`` when senders' messages have
        different field counts.
        """
        idx = senders.nonzero()[0]
        if sizes is None:
            sizes = _message_sizes(tag, [np.asarray(f)[idx] for f in fields], idx.size)
        if not active.any():
            return
        stats = self.stats
        if stats.rounds >= self._max_rounds:
            raise RoundLimitExceeded([self.ids[i] for i in np.flatnonzero(active)],
                                     stats)
        round_no = stats.rounds + 1
        deg = self.deg[idx]
        sizes = sizes[deg > 0]
        budget = stats.budget_bits
        if budget is not None:
            over = (sizes > budget).nonzero()[0]
            if over.size:
                u = int(idx[deg > 0][over[0]])
                raise CongestViolation(self.ids[u], self.ids[self.nbr[self.indptr[u]]],
                                       round_no, int(sizes[over[0]]), budget)
        msgs = int(deg.sum())
        stats.rounds = round_no
        stats.messages_sent += msgs
        stats.per_round_messages.append(msgs)
        stats.max_message_bits = max(stats.max_message_bits, int(sizes.max(initial=0)))
        self._sent = senders

    def fold(self, ufunc: np.ufunc, values, initial=None) -> np.ndarray:
        """``ufunc`` (``np.add`` or ``np.maximum``) over ``values`` of each
        node's neighbors that sent in the last round, on top of ``initial``
        (default 0): ``graphs.neighbor_reduce`` with every other neighbor
        counted as 0, which neither ufunc notices on non-negative values."""
        return neighbor_reduce(self.graph, ufunc, np.where(self._sent, values, 0),
                               initial)

    def senders_among(self, flags: np.ndarray) -> list[tuple[int, ...]]:
        """Per node, the ids (ascending) of its neighbors that sent in the
        last round and have ``flags`` set."""
        keep = (self._sent & flags)[self.nbr]
        bounds = np.concatenate(([0], np.cumsum(keep)))[self.indptr].tolist()
        ids = self.ids
        flat = [ids[j] for j in self.nbr[keep].tolist()]
        return [tuple(flat[a:b]) for a, b in zip(bounds, bounds[1:])]


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
    defaults to g.n, not to the subset size). The program's kernel runs
    when it has one; ``node_order`` runs the per-node interpreter instead,
    with per-round processing in that order. It exists to test schedule
    independence and the kernels; results must not depend on it.
    """
    if mode not in ("congest", "local"):
        raise EngineError(f"unknown mode {mode!r}")
    if max_rounds < 1:
        raise EngineError(f"max_rounds must be >= 1, got {max_rounds}")
    if n_upper is None:
        n_upper = g.n
    sub = set(subset)
    h = g if len(sub) == g.n and sub.issuperset(g.nodes) else g.induced(sub)
    budget = message_budget_bits(n_upper) if mode == "congest" else None
    kernel = getattr(program, "kernel", None)
    if node_order is None and kernel is not None and h.n:
        net = Net(h, n_upper, seed, budget, max_rounds)
        return kernel(net), net.stats

    # the reference interpreter
    nodes = list(h.nodes)
    if node_order is not None:
        nodes = list(node_order(nodes))
        if sorted(nodes) != list(h.nodes):
            raise EngineError("node_order must permute the subset")

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
