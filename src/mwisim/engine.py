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
never see n, the maximum degree, or any global structure. A step's inbox is
an ``Inbox``: a read-only mapping from the ids of the neighbors that sent
last round, in ascending order, to their messages.

Each node has a private counter-based random stream (``rng``): word k of
node v is the k-th SplitMix64 output seeded by ``derive_seed(seed, v)``.

A run executes on the whole graph (``run``, or ``keep=None``) or on the
nodes a boolean mask by position selects (``g.mask(ids)`` converts ids;
answers built from its outputs stay in ids).
Its outputs are one 1-D array by position in the executed graph (``g.nodes``,
or ``g.induced(keep).nodes``) of the nodes' halting ``StepResult.output``: in
the kernel's dtype, or objects from the interpreter, so that any value fits.

A program runs in one of two forms with identical outputs, ``RoundStats``
and errors, under any ``node_order``. Both open their rounds through one
``Net``, the run's round ledger: ``Net.send`` applies the round limit and
the CONGEST check and charges every round, for both forms alike. It
sizes a round by its largest message, by ``wire``'s rules: with at most one
field that is the field's largest value among senders with a neighbor,
since a message never shrinks when a field grows, and per-sender sizes are
built only for two or more fields, or for a round over budget. A program's
``kernel``, if it has one, computes each whole round with numpy arrays over
``g.csr()``, drawing the same stream words in bulk, and builds no
``Message``. The per-node interpreter (``init``/``step`` on each node in
turn) is the reference for program semantics: it runs when the program has
no kernel, and whenever ``node_order`` is given, since a kernel has no
processing order. After a round in which every node sent, it hands each
node its CSR row of that round's messages, held by position in one object
array; after any other round, it filters each node's neighbors by who sent.

A program whose runs never read their seed declares ``seedless = True``.
Its kernel outcome depends on the executed graph, ``n_upper`` and the
budget alone, so ``run_on_subgraph`` keeps it on that graph (a cached fact
of ``WeightedGraph``, like its degeneracy) and returns it on every later
kernel run with the same key: the same read-only outputs and a new copy of
the ``RoundStats``, so every run is charged its rounds, messages and bits
in full. The interpreter always runs, a run that raises keeps nothing, a
kept run yields to the round limit in force, and a ``seedless`` kernel that
derives its nodes' stream seeds is refused with ``EngineError``.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Protocol

import numpy as np

from .graphs import IndependentSet, WeightedGraph, neighbor_reduce
from .rng import derive_seeds, node_rng, stream_randints, stream_words
from .wire import Message, check_fields, check_tag, limb_sizes, message_sizes, size_bits

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
    """Some nodes had not halted after ``DEFAULT_MAX_ROUNDS`` rounds."""

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


class Inbox(Mapping):
    """A read-only mapping from the ids of the neighbors that sent last
    round, in ascending order, to their messages; equal to the dict of the
    same pairs. ``values()`` and ``items()`` are tuples in that order."""

    __slots__ = ("_senders", "_msgs")

    def __init__(self, senders: tuple[int, ...], msgs: tuple[Message, ...]):
        self._senders = senders
        self._msgs = msgs

    def __getitem__(self, u: int) -> Message:
        try:
            i = bisect_left(self._senders, u)
        except TypeError:  # not comparable with the ids, so not a sender
            raise KeyError(u) from None
        if i < len(self._senders) and self._senders[i] == u:
            return self._msgs[i]
        raise KeyError(u)

    def __len__(self) -> int:
        return len(self._senders)

    def __iter__(self):
        return iter(self._senders)

    def values(self) -> tuple[Message, ...]:
        return self._msgs

    def items(self) -> tuple[tuple[int, Message], ...]:
        return tuple(zip(self._senders, self._msgs))

    def __repr__(self) -> str:
        return f"Inbox({dict(self)!r})"


@dataclass(frozen=True, slots=True)
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

    A program may also define ``kernel(net: Net) -> np.ndarray``: the same
    program as whole-round array steps, which the engine runs in place of
    the per-node interpreter (see the module docstring). Its array holds
    each node's output by position in ``net.ids``. A program with a kernel
    that never reads its seed may set ``seedless = True``, so that its
    kernel outcome is kept per graph (see the module docstring).
    """

    def init(self, ctx: NodeContext, rng) -> StepResult: ...

    def step(self, state: Any, ctx: NodeContext, inbox: Inbox, rng) -> StepResult:
        """One round: ``inbox`` maps each neighbor that sent last round, in
        ascending id order, to its message (an ``Inbox``, read-only)."""


@dataclass
class RoundStats:
    """Complexity ledger of one run (or a merged pipeline of runs); ``rounds``
    and ``messages_sent`` are the length and sum of ``per_round_messages``."""

    per_round_messages: list[int] = field(default_factory=list)
    max_message_bits: int = 0
    budget_bits: int | None = None

    @property
    def rounds(self) -> int:
        return len(self.per_round_messages)

    @property
    def messages_sent(self) -> int:
        return sum(self.per_round_messages)

    def copy(self) -> "RoundStats":
        return RoundStats(list(self.per_round_messages), self.max_message_bits,
                          self.budget_bits)

    def merge(self, other: "RoundStats") -> "RoundStats":
        return RoundStats(
            self.per_round_messages + other.per_round_messages,
            max(self.max_message_bits, other.max_message_bits),
            self.budget_bits if other.budget_bits is None else other.budget_bits,
        )


@dataclass(frozen=True)
class RunOutcome:
    """What every algorithm, ``boost.local_ratio`` and ``cliquecycle.rand_mis``
    return: the set, its cost, what a record keeps as ``diagnostics``, and
    any local-ratio stack."""

    iset: IndependentSet
    stats: RoundStats
    diagnostics: dict[str, Any] = field(default_factory=dict)
    stack: tuple[PhaseFrame, ...] | None = None

    @property
    def phases(self) -> int | None:
        """``diagnostics.get("phases")``: a local-ratio run's phase budget."""
        return self.diagnostics.get("phases")


def message_budget_bits(n_upper: int) -> int:
    """CONGEST budget B = DEFAULT_C_MSG * ceil(log2 n_upper) bits."""
    return DEFAULT_C_MSG * max(1, math.ceil(math.log2(max(n_upper, 2))))


class Net:
    """The round ledger of one run: the executed graph and its rounds.

    Both forms of a program send through it (module docstring). Arrays are
    indexed by node position in ``graph.nodes`` (ascending ids), and so is
    the array of outputs a run returns. Each step ends with one ``send``,
    which opens the next round with its checks and charges; ``fold`` and
    ``heard`` read only what the last round's senders broadcast.
    """

    def __init__(self, graph: WeightedGraph, n_upper: int, seed: int,
                 budget: int | None):
        self.graph = graph
        self.ids = graph.nodes
        self.n_upper = n_upper
        self.indptr, self.nbr = graph.csr()
        self.deg = graph.degrees
        self._talks = self.deg > 0
        self.stats = RoundStats(budget_bits=budget)
        self._seed = seed
        self._seeds: np.ndarray | None = None
        self._sent = np.zeros(graph.n, dtype=bool)
        self._sent_all = False

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
        ``senders`` (a subset) broadcasts ``Message(tag, its field values)``,
        which ``wire`` sizes without building it (every tag is
        ``wire.TAG_BITS`` wide).

        The tag (``wire.check_tag``) and then every sender's fields
        (``wire.check_fields``) are checked first, even if no node is active:
        each raises the ``WireError`` that the (first bad) ``Message`` would. Then,
        if any node is active, the next round opens: the round limit
        ``DEFAULT_MAX_ROUNDS``, read at each call (naming the active nodes in
        position order), the CONGEST check (the first sender over budget by
        position, named with its first neighbor), and a charge of
        deg(sender) messages per sender. When every node sends, the fields
        are read as they are, and the charge is the CSR's entry count.
        ``sizes`` (bits per sender, in position order) stands in for
        ``fields`` when senders' messages have different field counts.

        A message's size never falls when a field grows, so the round's
        largest message among senders with a neighbor is sized from each
        field's maximum when there is at most one field: ``wire.size_bits``
        of those maxima, the rule every ``Message`` is sized by. Per-sender
        sizes (``wire.message_sizes``) are built only for two or more
        fields, or for a round over budget, where they name the offender.
        """
        check_tag(tag)
        idx = senders.nonzero()[0]
        every = idx.size == len(self.ids)
        # when every node sends, the fields and the talkers are by position already
        fields = [np.asarray(f) if every else np.asarray(f)[idx] for f in fields]
        check_fields(fields, idx.size)
        if sizes is None and len(fields) > 1:
            sizes = message_sizes(fields, idx.size)
        if not np.count_nonzero(active):
            return
        stats = self.stats
        if stats.rounds >= DEFAULT_MAX_ROUNDS:
            raise RoundLimitExceeded([self.ids[i] for i in np.flatnonzero(active)],
                                     stats)
        round_no = stats.rounds + 1
        # senders with a neighbor: their messages go out
        talk = self._talks if every else self._talks[idx]
        msgs = self.nbr.size if every else int(self.deg[idx].sum())
        if sizes is not None:
            sizes = sizes[talk]
            top = int(sizes.max(initial=0))
        elif not msgs:
            top = 0
        else:
            top = size_bits(int(f[talk].max()) for f in fields)
        budget = stats.budget_bits
        if budget is not None and top > budget:
            if sizes is None:
                sizes = message_sizes(fields, idx.size)[talk]
            first = int((sizes > budget).argmax())
            u = int(idx[talk][first])
            raise CongestViolation(self.ids[u], self.ids[self.nbr[self.indptr[u]]],
                                   round_no, int(sizes[first]), budget)
        stats.per_round_messages.append(msgs)
        stats.max_message_bits = max(stats.max_message_bits, top)
        self._sent = senders
        self._sent_all = every

    def send_limbs(self, active: np.ndarray, senders: np.ndarray, tag: int,
                   values: np.ndarray) -> None:
        """``send`` of one value per node that may pass 63 bits: each sender's
        message is ``Message(tag, wire.to_limbs(value))``, which is the one
        field ``value`` while ``values`` is an int64 array, and is sized by
        ``wire.limb_sizes`` otherwise."""
        if values.dtype != object:
            return self.send(active, senders, tag, values)
        self.send(active, senders, tag, sizes=limb_sizes(values[senders]))

    def fold(self, ufunc: np.ufunc, values, initial=None) -> np.ndarray:
        """``ufunc`` (``np.add`` or ``np.maximum``) over ``values`` of each
        node's neighbors that sent in the last round, on top of ``initial``
        (default 0): ``graphs.neighbor_reduce`` with every other neighbor
        counted as 0, which neither ufunc notices on non-negative values
        (``values`` as given when every node sent)."""
        if not self._sent_all:
            values = np.where(self._sent, values, 0)
        return neighbor_reduce(self.graph, ufunc, values, initial)

    def heard(self) -> np.ndarray:
        """Whether each node has a neighbor that sent in the last round: the
        nodes in the senders' rows of the CSR, which is symmetric."""
        out = np.zeros(len(self.ids), dtype=bool)
        out[self.nbr[self._sent.repeat(self.deg)]] = True
        return out


def run(g: WeightedGraph, program: NodeProgram, mode: str = "congest",
        seed: int = 0, n_upper: int | None = None,
        node_order: Callable[[list[int]], list[int]] | None = None,
        ) -> tuple[np.ndarray, RoundStats]:
    """Execute ``program`` on all nodes of ``g``: ``run_on_subgraph`` with
    ``keep=None``, so no mask is built or checked."""
    return run_on_subgraph(g, None, program, mode=mode, seed=seed,
                           n_upper=n_upper, node_order=node_order)


def run_on_subgraph(g: WeightedGraph, keep: np.ndarray | None, program: NodeProgram,
                    mode: str = "congest", seed: int = 0,
                    n_upper: int | None = None,
                    node_order: Callable[[list[int]], list[int]] | None = None,
                    ) -> tuple[np.ndarray, RoundStats]:
    """Execute ``program`` on ``g.induced(keep)`` (``g`` itself when
    ``keep`` is None, or a boolean mask by position in ``g.nodes`` that is
    all true) and return ``(outputs, stats)``: ``outputs`` is a 1-D array of
    one value per node of the executed graph, by position (the kept nodes,
    ascending).

    Identifiers and ``n_upper`` are inherited from ``g`` (``n_upper``
    defaults to g.n, not to the kept count). The program's kernel runs
    when it has one; ``node_order`` runs the per-node interpreter instead,
    with per-round processing in that order. It exists to test schedule
    independence and the kernels: outputs, stats and errors do not depend on
    it, since both forms are checked and charged by the same ``Net``.
    After a round in which every node sent, a node's inbox is its neighbors
    (``adj[v]``, ascending ids) with ``msgs[nbr[a:b]]``, its CSR row of the
    messages by position, which lists the same neighbors in the same order:
    positions ascend with ids. No array of all the round's deliveries is
    built. A non-``Message`` outbox is refused when its step returns, before
    ``Net.send`` opens the round it would go out in, so that refusal wins
    over the round limit and the CONGEST check of that round.
    """
    if mode not in ("congest", "local"):
        raise EngineError(f"unknown mode {mode!r}")
    if n_upper is None:
        n_upper = g.n
    h = g if keep is None else g.induced(keep)
    budget = message_budget_bits(n_upper) if mode == "congest" else None
    kernel = getattr(program, "kernel", None)
    if node_order is None and kernel is not None and getattr(program, "seedless", False):
        return _seedless_run(h, program, n_upper, seed, budget)
    net = Net(h, n_upper, seed, budget)
    if node_order is None and kernel is not None:
        return kernel(net), net.stats

    # the reference interpreter
    nodes = list(h.nodes)
    if node_order is not None:
        nodes = list(node_order(nodes))
        if sorted(nodes) != list(h.nodes):
            raise EngineError("node_order must permute the subset")

    adj = h.adj
    indptr, nbr = h.csr()
    ctxs = {v: NodeContext(v, wv, adj[v], n_upper) for v, wv in zip(h.nodes, h.w.tolist())}
    rows = dict(zip(h.nodes, zip(indptr[:-1].tolist(), indptr[1:].tolist())))
    rngs = {v: node_rng(seed, v) for v in nodes}

    def init(state, ctx, inbox, rng):
        return program.init(ctx, rng)

    act = init
    outputs: dict[int, Any] = {}
    states: dict[int, Any] = dict.fromkeys(nodes)
    sent: dict[int, Message] = {}
    empty = Inbox((), ())
    while states:
        pending = {}
        # when every node sent, each node's senders are all its neighbors, and
        # its messages are its CSR row of the senders' messages by position
        everyone = len(sent) == len(nodes)
        if everyone:
            msgs = np.fromiter(sent.values(), object, len(sent))
        for v in list(states):
            inbox = empty
            if everyone:
                a, b = rows[v]
                inbox = Inbox(adj[v], tuple(msgs[nbr[a:b]].tolist()))
            elif sent:
                senders = tuple(filter(sent.__contains__, adj[v]))
                inbox = Inbox(senders, tuple(map(sent.__getitem__, senders)))
            res = act(states.pop(v), ctxs[v], inbox, rngs[v])
            if res.halt:
                outputs[v] = res.output
            else:
                states[v] = res.state
                if res.outbox is not None:
                    pending[v] = res.outbox
        # senders in position order (ascending ids), as ``Net.send`` reads sizes
        sent = dict(sorted(pending.items()))
        for u, msg in sent.items():
            if not isinstance(msg, Message):
                raise EngineError(f"round {net.stats.rounds + 1}: node {u} sent a "
                                  f"{type(msg).__name__}, not a Message")
        net.send(h.mask(states.keys()), h.mask(sent.keys()), 0,
                 sizes=np.fromiter((m.size_bits for m in sent.values()), np.int64,
                                   len(sent)))
        act = program.step

    return np.fromiter(map(outputs.__getitem__, h.nodes), object, h.n), net.stats


def _seedless_run(h: WeightedGraph, program: NodeProgram, n_upper: int, seed: int,
                  budget: int | None) -> tuple[np.ndarray, RoundStats]:
    """The kernel run of a ``seedless`` program on ``h`` (module
    docstring), kept in ``h._runs``. Programs are told apart by equality,
    so a frozen dataclass's fields are part of the key. A kept run of more
    rounds than ``DEFAULT_MAX_ROUNDS`` now allows is made again, to raise
    what a fresh run would."""
    key = (program, n_upper, budget)
    runs = h._runs if h._runs is not None else {}
    kept = runs.get(key)
    if kept is None or kept[1].rounds > DEFAULT_MAX_ROUNDS:
        net = Net(h, n_upper, seed, budget)
        out = program.kernel(net)
        if net._seeds is not None:
            raise EngineError(f"{type(program).__name__} is declared seedless, but "
                              "its kernel drew from the nodes' random streams")
        out.flags.writeable = False
        kept = runs[key] = out, net.stats
        h._runs = runs
    return kept[0], kept[1].copy()
