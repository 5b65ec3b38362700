"""Weighted graphs: representation, generators, degeneracy, exact solver, I/O.

Node weights are non-negative 64-bit integers throughout, so every
approximation guarantee in this package is checkable as an exact integer
inequality with zero tolerance.
"""

from __future__ import annotations

import math
import random
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

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

    Node ids are distinct integers in [0, INT64_MAX]; ``nodes`` lists them
    ascending, and a node's position in ``nodes`` is its number in every
    array below. The adjacency is stored once, in compressed-sparse-row
    form: ``csr()`` returns two read-only int64 arrays ``(indptr, nbr)``,
    and the neighbors of ``nodes[i]`` are ``nodes[j]`` for ``j`` in
    ``nbr[indptr[i]:indptr[i + 1]]``, ascending. It is symmetric, with no
    self-loops and no duplicate edges. ``degrees`` (read-only int64, by
    position) and ``max_degree`` are computed with it.

    Three facts are computed on first use and then cached on the graph,
    which is safe only because nothing changes a graph after it is built
    (``induced`` and the generators return new graphs, with empty caches):

    * ``adj``, which maps each node id to the sorted tuple of its neighbor
      ids, for the sequential reference code that walks one neighborhood
      at a time; it is derived from the CSR on first read;
    * the degeneracy (``degeneracy(g)``);
    * the exact optimum (``brute_force_max_is(g)``), so a seed sweep over
      one graph solves it once.
    """

    __slots__ = ("nodes", "weights", "degrees", "max_degree", "_ids", "_csr", "_adj",
                 "_degeneracy", "_opt")

    def __init__(self, nodes: Iterable[int], edges: Iterable[tuple[int, int]],
                 weights: Mapping[int, int]):
        node_list = sorted(nodes)
        pos = {v: i for i, v in enumerate(node_list)}
        if len(pos) != len(node_list):
            raise GraphError("duplicate node identifiers")
        if node_list and node_list[0] < 0:
            raise GraphError("node identifiers must be non-negative")
        for v in node_list:
            if not isinstance(v, int) or isinstance(v, bool):
                raise GraphError(f"node identifier {v!r} is not an integer")
        if node_list and node_list[-1] > INT64_MAX:
            raise GraphError(f"node identifier {node_list[-1]} exceeds 64-bit range")
        ends: list[tuple[int, int]] = []
        for u, v in edges:
            if u == v:
                raise GraphError(f"self-loop at node {u}")
            if u not in pos or v not in pos:
                raise GraphError(f"edge ({u}, {v}) references unknown node")
            ends.append((pos[u], pos[v]))
        w = _checked_weights(node_list, weights)
        uv = np.array(ends, dtype=np.int64).reshape(-1, 2)
        self._build(tuple(node_list), np.array(node_list, dtype=np.int64), w,
                    *_csr_of_edges(len(node_list), uv[:, 0], uv[:, 1]))

    def _build(self, nodes: tuple[int, ...], ids: np.ndarray, weights: dict[int, int],
               indptr: np.ndarray, nbr: np.ndarray) -> "WeightedGraph":
        """Fill in every field from ``nodes`` (ascending; ``ids`` holds the
        same as int64), their weights and the CSR. Checks nothing: each
        caller has validated its parts or taken them from a valid graph."""
        deg = indptr[1:] - indptr[:-1]
        self.nodes: tuple[int, ...] = nodes
        self.weights: dict[int, int] = weights
        self.degrees, self._ids = _read_only(deg, ids)
        self.max_degree: int = int(np.maximum.reduce(deg, initial=0))
        self._csr: tuple[np.ndarray, np.ndarray] = _read_only(indptr, nbr)
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._degeneracy: int | None = None
        self._opt: IndependentSet | None = None
        return self

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, nbr)``: the adjacency by node position (class docstring)."""
        return self._csr

    @property
    def adj(self) -> dict[int, tuple[int, ...]]:
        if self._adj is None:
            ptr = self._csr[0].tolist()
            # every tuple refers to the one int object per node in ``nodes``
            flat = list(map(self.nodes.__getitem__, self._csr[1].tolist()))
            self._adj = {v: tuple(flat[a:b]) for v, a, b in zip(self.nodes, ptr, ptr[1:])}
        return self._adj

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return self._csr[1].size // 2

    def degree(self, v: int) -> int:
        i = bisect_left(self.nodes, v)
        if i == self.n or self.nodes[i] != v:
            raise GraphError(f"node {v} is not in the graph")
        return int(self.degrees[i])

    def total_weight(self, subset: Iterable[int] | None = None) -> int:
        if subset is None:
            return sum(self.weights.values())
        return sum(self.weights[v] for v in subset)

    def edges(self) -> list[tuple[int, int]]:
        src, nbr = np.arange(self.n).repeat(self.degrees), self._csr[1]
        once = src < nbr
        return list(zip(map(self.nodes.__getitem__, src[once].tolist()),
                        map(self.nodes.__getitem__, nbr[once].tolist())))

    def is_independent(self, members: Iterable[int]) -> bool:
        mem = set(members)
        unknown = mem.difference(self.nodes)
        if unknown:
            raise GraphError(f"node {min(unknown)} is not in the graph")
        inside = self._mask(mem)
        return not np.count_nonzero(inside[self._csr[1]] & inside.repeat(self.degrees))

    def induced(self, subset: Iterable[int],
                weights: Mapping[int, int] | None = None) -> "WeightedGraph":
        """Induced subgraph keeping original identifiers; optional new weights.

        A subgraph of a valid graph is valid, so only the subset and the
        replacement weights are checked. The CSR is the parent's, filtered
        to the entries between kept positions and renumbered; both steps
        keep each row ascending.
        """
        sub = set(subset)
        unknown = sub.difference(self.nodes)
        if unknown:
            raise GraphError(f"subset contains unknown nodes {sorted(unknown)}")
        keep = self._mask(sub)
        kept = keep.nonzero()[0]
        nodes = tuple(map(self.nodes.__getitem__, kept.tolist()))
        w = (_checked_weights(nodes, weights) if weights is not None
             else {v: self.weights[v] for v in nodes})
        indptr, nbr = self._csr
        entry = keep[nbr] & keep.repeat(self.degrees)
        # kept entries before each row of the parent: the new row bounds
        before = np.zeros(nbr.size + 1, dtype=np.int64)
        np.add.accumulate(entry, dtype=np.int64, out=before[1:])
        bounds = before[indptr]
        return object.__new__(WeightedGraph)._build(
            nodes, self._ids[kept], w, np.concatenate((bounds[kept], bounds[-1:])),
            kept.searchsorted(nbr[entry]))

    def _mask(self, ids: set[int]) -> np.ndarray:
        """Boolean array by position, set at the nodes ``ids`` (all in the graph)."""
        mask = np.zeros(self.n, dtype=bool)
        mask[self._ids.searchsorted(np.fromiter(ids, np.int64, len(ids)))] = True
        return mask

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightedGraph) and self.nodes == other.nodes
                and self.weights == other.weights
                and all(map(np.array_equal, self._csr, other._csr)))

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


def check_real(value, key: str, alg: str, above: float | None = None,
               at_least: float | None = None) -> float:
    """``float(value)`` if it is finite and in range; else ``GraphError``
    naming the algorithm ``alg`` and the parameter ``key``."""
    x = float(value)
    if not math.isfinite(x):
        raise GraphError(f"algorithm {alg!r}: {key} must be finite, got {x}")
    if above is not None and not x > above:
        raise GraphError(f"algorithm {alg!r}: {key} must be > {above:g}, got {x}")
    if at_least is not None and not x >= at_least:
        raise GraphError(f"algorithm {alg!r}: {key} must be >= {at_least:g}, got {x}")
    return x


def _checked_weights(nodes: Iterable[int],
                     weights: Mapping[int, int]) -> dict[int, int]:
    """``{v: weights[v]}`` over ``nodes``, each an int (not a bool) in
    [0, INT64_MAX]."""
    w: dict[int, int] = {}
    for v in nodes:
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
    return w


def _csr_of_edges(n: int, u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, nbr)`` of the graph on positions 0..n-1 with an edge
    between ``u[k]`` and ``v[k]`` for each k, in either order, repeats
    merged."""
    # sort, then drop each key equal to its predecessor: np.unique gives the
    # same keys but takes a hash path here that is about 10x slower
    keys = np.sort(np.concatenate([u * n + v, v * n + u]))
    src, nbr = np.divmod(keys[np.diff(keys, prepend=-1) != 0], n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(src, minlength=n), out=indptr[1:])
    return indptr, nbr


def _read_only(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    for a in arrays:
        a.setflags(write=False)
    return arrays


def neighbor_reduce(g: WeightedGraph, ufunc: np.ufunc, values: Sequence[int],
                    initial: Sequence[int] | None = None) -> np.ndarray:
    """Fold ``ufunc`` (``np.add``, ``np.maximum``, ...) over each node's
    neighbors, exactly.

    ``values``, ``initial`` and the result are in ``g.nodes`` order (lists or
    arrays): node i gets ``initial[i]`` (0 when not given) combined with the
    values of all its neighbors. The result is an int64 array when no sum
    over a closed neighborhood can leave its range, and an array of Python
    integers (``dtype=object``) otherwise.
    """
    top = _max_abs(values)
    if initial is not None:
        top = max(top, _max_abs(initial))
    dtype = np.int64 if top * (g.max_degree + 1) <= INT64_MAX else object
    vals = np.asarray(values, dtype=dtype)
    out = (np.zeros(g.n, dtype=dtype) if initial is None
           else np.array(initial, dtype=dtype))
    indptr, nbr = g.csr()
    # reduceat gives a row with no entries its next row's first value
    rows = (indptr[1:] > indptr[:-1]).nonzero()[0]
    if rows.size:
        out[rows] = ufunc(out[rows], ufunc.reduceat(vals[nbr], indptr[rows]))
    return out


def _max_abs(values) -> int:
    if isinstance(values, np.ndarray) and values.dtype != object:
        return max(int(values.max()), -int(values.min())) if values.size else 0
    return max(map(abs, values), default=0)


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


def _clique_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    u, v = np.triu_indices(n, 1)
    return u.astype(np.int64), v.astype(np.int64)


def _gnp_edges(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """G(n, p) endpoint arrays via geometric skipping over the n(n-1)/2 slots."""
    if p <= 0.0 or n < 2:
        none = np.zeros(0, dtype=np.int64)
        return none, none
    total = n * (n - 1) // 2
    if p >= 1.0:
        return _clique_edges(n)
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x6E90)))
    chunks = []
    pos = -1
    while pos < total:
        block = gen.geometric(p, size=max(64, int((total - pos) * p * 1.1) + 64))
        # a gap past the last slot ends the scan either way; clipping it keeps
        # the running sum inside int64 when p is tiny
        block = np.cumsum(np.minimum(block, total + 1)) + pos
        pos = int(block[-1])
        chunks.append(block[block < total])
    return _slot_pairs(n, np.concatenate(chunks))


def _slot_pairs(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, at slots ``k`` of the n(n-1)/2 pairs of
    0..n-1 in lexicographic order; exact while n(n-1)/2 fits in int64."""
    row_start = np.zeros(n - 1, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 1, -1, dtype=np.int64), out=row_start[1:])
    u = row_start.searchsorted(k, side="right") - 1
    return u, u + 1 + (k - row_start[u])


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
    ids = np.arange(n, dtype=np.int64)
    if family == "cycle":
        if n < 3:
            raise GraphError(f"cycle needs n >= 3, got {n}")
        u, v = ids, (ids + 1) % n
    elif family == "path":
        u, v = ids[:-1], ids[1:]
    elif family == "clique":
        u, v = _clique_edges(n)
    elif family == "star":
        u, v = np.zeros(n - 1, dtype=np.int64), ids[1:]
    else:  # gnp
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"gnp needs 0 <= p <= 1, got {p}")
        u, v = _gnp_edges(n, p, seed)
    return object.__new__(WeightedGraph)._build(
        tuple(range(n)), ids, _draw_weights(range(n), weight_model, seed),
        *_csr_of_edges(n, u, v))


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
    Computed once per graph and cached on it.
    """
    if g._degeneracy is None:
        g._degeneracy = _peel(g)
    return g._degeneracy


def _peel(g: WeightedGraph) -> int:
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
    Solved once per graph and cached on it; the cap is checked on every
    call, so a result cached under a raised cap never bypasses a refusal.
    """
    if g.n > cap:
        raise BruteForceCapError(g.n, cap)
    if g._opt is None:
        g._opt = _branch_and_bound(g)
    return g._opt


def _branch_and_bound(g: WeightedGraph) -> IndependentSet:
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
        if v < 0:
            raise GraphParseError(line_no, f"negative node identifier {v}")
        if v > INT64_MAX:
            raise GraphParseError(line_no, f"node identifier {v} exceeds 64-bit range")
        if wv < 0:
            raise GraphParseError(line_no, f"negative weight {wv} at node {v}")
        if wv > INT64_MAX:
            raise GraphParseError(line_no, f"weight of node {v} exceeds 64-bit range")
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
    return WeightedGraph(weights.keys(), edges, weights)
