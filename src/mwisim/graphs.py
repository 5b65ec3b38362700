"""Weighted graphs: representation, generators, degeneracy, exact solver, I/O.

Node weights are non-negative 64-bit integers throughout, so every
approximation guarantee in this package is checkable as an exact integer
inequality with zero tolerance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Mapping

import numpy as np

from .rng import derive_seed

INT64_MAX = (1 << 63) - 1

WEIGHT_MODELS = ("unit", "uniform_range", "heavy_tail")
FAMILIES = ("cycle", "path", "clique", "star", "gnp", "cycle_of_cliques")

UNIFORM_RANGE_MAX = 10**6
HEAVY_TAIL_CAP = 10**9


class GraphError(ValueError):
    pass


class GraphParseError(GraphError):
    def __init__(self, line_no: int, reason: str):
        super().__init__(f"line {line_no}: {reason}")
        self.line_no = line_no


class WeightedGraph:
    """Immutable undirected graph with integer node weights.

    ``adj`` maps each node id to a sorted tuple of neighbor ids; adjacency is
    symmetric with no self-loops and no duplicate edges.
    """

    __slots__ = ("nodes", "adj", "weights", "_max_degree")

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]],
                 weights: Mapping[int, int]):
        node_list = sorted(nodes)
        node_set = set(node_list)
        if len(node_list) != len(node_set):
            raise GraphError("duplicate node identifiers")
        if node_list and node_list[0] < 0:
            raise GraphError("node identifiers must be non-negative")
        adj: dict[int, set[int]] = {v: set() for v in node_list}
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u not in node_set or v not in node_set:
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            adj[u].add(v)
            adj[v].add(u)
        w: dict[int, int] = {}
        for v in node_list:
            if v not in weights:
                raise GraphError(f"missing weight for node {v}")
            wv = weights[v]
            if not isinstance(wv, int) or isinstance(wv, bool):
                raise GraphError(f"weight of node {v} is not an integer")
            if wv < 0:
                raise GraphError(f"negative weight {wv} at node {v}")
            if wv > INT64_MAX:
                raise GraphError(f"weight of node {v} exceeds 64-bit range")
            w[v] = wv
        self.nodes: tuple[int, ...] = tuple(node_list)
        self.adj: dict[int, tuple[int, ...]] = {v: tuple(sorted(adj[v])) for v in node_list}
        self.weights: dict[int, int] = w
        self._max_degree: int | None = None

    @classmethod
    def _trusted(cls, nodes: tuple[int, ...], edges: Iterable[tuple[int, int]],
                 weights: dict[int, int]) -> "WeightedGraph":
        """Skip-validation path for generators whose output is clean by
        construction (sorted distinct ids, no self-loops, no duplicates,
        weights already checked)."""
        g = object.__new__(cls)
        lists: dict[int, list[int]] = {v: [] for v in nodes}
        for u, v in edges:
            lists[u].append(v)
            lists[v].append(u)
        g.nodes = nodes
        g.adj = {v: tuple(sorted(lists[v])) for v in nodes}
        g.weights = weights
        g._max_degree = None
        return g

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return sum(len(nbrs) for nbrs in self.adj.values()) // 2

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    @property
    def max_degree(self) -> int:
        if self._max_degree is None:
            self._max_degree = max((len(a) for a in self.adj.values()), default=0)
        return self._max_degree

    def total_weight(self, subset: Iterable[int] | None = None) -> int:
        if subset is None:
            return sum(self.weights.values())
        return sum(self.weights[v] for v in subset)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.nodes for v in self.adj[u] if u < v]

    def is_independent(self, members: Iterable[int]) -> bool:
        mem = set(members)
        for v in mem:
            if v not in self.adj:
                raise GraphError(f"node {v} is not in the graph")
        return all(not (mem & set(self.adj[v])) for v in mem)

    def induced(self, subset: Iterable[int],
                weights: Mapping[int, int] | None = None) -> "WeightedGraph":
        """Induced subgraph keeping original identifiers; optional new weights."""
        sub = set(subset)
        unknown = sub - set(self.nodes)
        if unknown:
            raise GraphError(f"subset contains unknown nodes {sorted(unknown)}")
        src = weights if weights is not None else self.weights
        return WeightedGraph(
            sub,
            ((u, v) for u in sub for v in self.adj[u] if v in sub and u < v),
            {v: src[v] for v in sub},
        )

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightedGraph) and self.nodes == other.nodes
                and self.adj == other.adj and self.weights == other.weights)

    def __hash__(self):
        raise TypeError("WeightedGraph is not hashable")

    def __repr__(self):
        return f"WeightedGraph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class IndependentSet:
    """An independent set together with its total input weight."""

    members: frozenset[int]
    weight: int

    @classmethod
    def of(cls, g: WeightedGraph, members: Iterable[int]) -> "IndependentSet":
        mem = frozenset(members)
        if not g.is_independent(mem):
            raise GraphError("set is not independent")
        return cls(mem, g.total_weight(mem))

    def __len__(self):
        return len(self.members)


def check_int64(x: int, what: str = "value") -> int:
    if not -INT64_MAX - 1 <= x <= INT64_MAX:
        raise OverflowError(f"{what} = {x} overflows signed 64-bit range")
    return x


# ---------------------------------------------------------------------------
# generators


def _draw_weights(nodes: Iterable[int], model: str, seed: int) -> dict[int, int]:
    if model not in WEIGHT_MODELS:
        raise GraphError(f"unknown weight model {model!r}; choose from {WEIGHT_MODELS}")
    if model == "unit":
        return {v: 1 for v in nodes}
    rng = random.Random(derive_seed(seed, 0x57E16875))
    if model == "uniform_range":
        return {v: rng.randint(1, UNIFORM_RANGE_MAX) for v in nodes}
    # heavy_tail: Pareto-like integer weights, capped; a few giant nodes
    # dominate the total weight, which is the regime the weighted sampler
    # targets.
    out = {}
    for v in nodes:
        u = rng.random()
        while u == 0.0:
            u = rng.random()
        out[v] = min(int(1.0 / (u * u)), HEAVY_TAIL_CAP)
    return out


def _gnp_edges(n: int, p: float, seed: int) -> list[tuple[int, int]]:
    """G(n, p) edge list via geometric skipping over the n(n-1)/2 slots."""
    if p <= 0.0 or n < 2:
        return []
    total = n * (n - 1) // 2
    if p >= 1.0:
        return [(u, v) for u in range(n) for v in range(u + 1, n)]
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x6E90)))
    chunks = []
    pos = -1
    while pos < total:
        block = gen.geometric(p, size=max(64, int((total - pos) * p * 1.1) + 64))
        block = np.cumsum(block.astype(np.int64)) + pos
        pos = int(block[-1])
        chunks.append(block[block < total])
    k = np.concatenate(chunks)
    # invert slot index k -> pair (u, v) in lexicographic order
    u = ((2 * n - 1) - np.sqrt(float((2 * n - 1) ** 2) - 8.0 * k)) // 2
    u = u.astype(np.int64)
    row_start = u * (2 * n - u - 1) // 2
    over = row_start > k
    u[over] -= 1
    row_start = u * (2 * n - u - 1) // 2
    under = k >= row_start + (n - 1 - u)
    u[under] += 1
    row_start = u * (2 * n - u - 1) // 2
    v = u + 1 + (k - row_start)
    return list(zip(u.tolist(), v.tolist()))


def generate(family: str, params: Mapping[str, object], weight_model: str = "unit",
             seed: int = 0) -> WeightedGraph:
    """Deterministic graph generator for the families used in the experiments.

    ``params`` is family-specific: ``n`` for cycle/path/clique/star, ``n``
    and ``p`` for gnp, ``n0`` and ``n1`` for cycle_of_cliques. Node ids are
    0..n-1 except for cycle_of_cliques, which uses composite identifiers.
    """
    if family not in FAMILIES:
        raise GraphError(f"unknown family {family!r}; choose from {FAMILIES}")

    if family == "cycle_of_cliques":
        from .cliquecycle import build_clique_cycle

        n0, n1 = int(params["n0"]), int(params["n1"])
        g = build_clique_cycle(n0, n1).graph
        if weight_model == "unit":
            return g
        return g.induced(g.nodes, _draw_weights(g.nodes, weight_model, seed))

    n = int(params["n"])
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if family == "cycle":
        if n < 3:
            raise GraphError(f"cycle needs n >= 3, got {n}")
        edges = [(i, (i + 1) % n) for i in range(n)]
    elif family == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif family == "clique":
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
    elif family == "star":
        edges = [(0, i) for i in range(1, n)]
    else:  # gnp
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"gnp needs 0 <= p <= 1, got {p}")
        edges = _gnp_edges(n, p, seed)
    nodes = tuple(range(n))
    return WeightedGraph._trusted(nodes, edges,
                                  _draw_weights(nodes, weight_model, seed))


def random_tree(n: int, seed: int, weight_model: str = "unit") -> WeightedGraph:
    """Uniform-attachment random tree on ids 0..n-1 (degeneracy 1 for n >= 2)."""
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    rng = random.Random(derive_seed(seed, 0x7EEE))
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    return WeightedGraph(range(n), edges, _draw_weights(range(n), weight_model, seed))


# ---------------------------------------------------------------------------
# degeneracy


def degeneracy(g: WeightedGraph) -> int:
    """Graph degeneracy via minimum-degree peeling (bucket queue, O(n + m)).

    Serves as the implementable surrogate for arboricity: alpha <= d <= 2*alpha - 1.
    """
    if g.n == 0:
        return 0
    deg = {v: len(g.adj[v]) for v in g.nodes}
    max_deg = max(deg.values())
    buckets: list[list[int]] = [[] for _ in range(max_deg + 1)]
    for v in g.nodes:
        buckets[deg[v]].append(v)
    removed: set[int] = set()
    d = 0
    cursor = 0
    remaining = g.n
    while remaining:
        while not buckets[cursor]:
            cursor += 1
        v = buckets[cursor].pop()
        if v in removed or deg[v] != cursor:
            continue  # stale bucket entry
        d = max(d, cursor)
        removed.add(v)
        remaining -= 1
        for u in g.adj[v]:
            if u not in removed:
                deg[u] -= 1
                buckets[deg[u]].append(u)
                if deg[u] < cursor:
                    cursor = deg[u]
    return d


# ---------------------------------------------------------------------------
# exact oracle

BRUTE_FORCE_CAP = 26


class BruteForceCapError(GraphError):
    def __init__(self, n: int, cap: int):
        super().__init__(
            f"graph has {n} nodes, above the exact-solver cap of {cap}; "
            f"raise the cap explicitly if you really want this")
        self.cap = cap


def brute_force_max_is(g: WeightedGraph, cap: int = BRUTE_FORCE_CAP) -> IndependentSet:
    """Exact maximum-weight independent set by branch and bound over bitsets.

    Branches on a maximum-degree vertex of the remaining candidate set:
    either exclude it, or include it and delete its closed neighborhood.
    """
    if g.n > cap:
        raise BruteForceCapError(g.n, cap)
    if g.n == 0:
        return IndependentSet(frozenset(), 0)
    idx = {v: i for i, v in enumerate(g.nodes)}
    nbr_mask = [0] * g.n
    for v in g.nodes:
        for u in g.adj[v]:
            nbr_mask[idx[v]] |= 1 << idx[u]
    w = [g.weights[v] for v in g.nodes]
    bit_w = {1 << i: w[i] for i in range(g.n)}
    bit_nbr = {1 << i: nbr_mask[i] for i in range(g.n)}

    def mask_weight(mask: int) -> int:
        total = 0
        while mask:
            low = mask & -mask
            total += bit_w[low]
            mask ^= low
        return total

    best_weight = -1
    best_mask = 0

    def bb(avail: int, cur_weight: int, cur_mask: int, avail_weight: int):
        nonlocal best_weight, best_mask
        if cur_weight + avail_weight <= best_weight:
            return
        if avail == 0:
            if cur_weight > best_weight:
                best_weight, best_mask = cur_weight, cur_mask
            return
        # pick the max-degree vertex within avail
        pick = 0
        pick_deg = -1
        scan = avail
        while scan:
            low = scan & -scan
            d = (bit_nbr[low] & avail).bit_count()
            if d > pick_deg:
                pick, pick_deg = low, d
            scan ^= low
        if pick_deg == 0:
            # remaining candidates are pairwise non-adjacent: take them all
            total = cur_weight + avail_weight
            if total > best_weight:
                best_weight, best_mask = total, cur_mask | avail
            return
        closed = pick | (bit_nbr[pick] & avail)
        bb(avail & ~closed, cur_weight + bit_w[pick], cur_mask | pick,
           avail_weight - mask_weight(closed))
        bb(avail ^ pick, cur_weight, cur_mask, avail_weight - bit_w[pick])

    bb((1 << g.n) - 1, 0, 0, sum(w))
    members = frozenset(g.nodes[i] for i in range(g.n) if best_mask >> i & 1)
    return IndependentSet(members, best_weight)


# ---------------------------------------------------------------------------
# text format: "n m" header, n x "id weight", m x "u v"


def save(g: WeightedGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{v} {g.weights[v]}" for v in g.nodes)
    lines.extend(f"{u} {v}" for u, v in g.edges())
    return "\n".join(lines) + "\n"


def load(text: str) -> WeightedGraph:
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise GraphParseError(1, "missing 'n m' header")
    try:
        n, m = map(int, lines[0].split())
    except ValueError:
        raise GraphParseError(1, f"bad header {lines[0]!r}, expected 'n m'") from None
    if n < 0 or m < 0:
        raise GraphParseError(1, "negative counts in header")
    if len(lines) < 1 + n + m:
        raise GraphParseError(len(lines) + 1,
                              f"expected {1 + n + m} lines, found {len(lines)}")
    weights: dict[int, int] = {}
    for i in range(n):
        line_no = 2 + i
        try:
            v, wv = map(int, lines[1 + i].split())
        except ValueError:
            raise GraphParseError(line_no, f"bad node line {lines[1 + i]!r}") from None
        if v in weights:
            raise GraphParseError(line_no, f"duplicate node {v}")
        weights[v] = wv
    edges = []
    seen = set()
    for j in range(m):
        line_no = 2 + n + j
        try:
            u, v = map(int, lines[1 + n + j].split())
        except ValueError:
            raise GraphParseError(line_no, f"bad edge line {lines[1 + n + j]!r}") from None
        if u not in weights or v not in weights:
            raise GraphParseError(line_no, f"edge ({u}, {v}) references unknown id")
        if u == v:
            raise GraphParseError(line_no, f"self-loop at node {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            raise GraphParseError(line_no, f"duplicate edge ({u}, {v})")
        seen.add(key)
        edges.append((u, v))
    try:
        return WeightedGraph(weights.keys(), edges, weights)
    except GraphError as e:
        raise GraphParseError(1, str(e)) from None
