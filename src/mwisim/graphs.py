"""Weighted graphs: representation, generators, degeneracy, exact solver, I/O.

Node weights are non-negative 64-bit integers throughout, so every
approximation guarantee in this package is checkable as an exact integer
inequality with zero tolerance.
"""

from __future__ import annotations

import gc
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

import numpy as np

from .rng import derive_seed

INT64_MAX = (1 << 63) - 1
INT32_MAX = (1 << 31) - 1

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
    position) and ``max_degree`` are computed with it. The weights ``w``
    are stored by position too (read-only int64, each in [0, INT64_MAX]),
    as are new weights for ``induced``; totals are exact Python ints.

    The constructor and the generators build the CSR from endpoint arrays
    of positions, int32 whenever n <= INT32_MAX, turned into one array of
    directed keys that is sorted in place (``_edge_keys``, then
    ``_csr_of_keys``); the endpoints are dropped before the CSR's own
    arrays exist. ``generate`` and ``build_clique_cycle`` refuse with
    ``GraphError``, before they allocate, a graph whose build would peak
    past ``BUILD_CEILING_BYTES`` (``build_bytes``).

    Five facts are computed on first use and then cached on the graph,
    which is safe only because nothing changes a graph after it is built
    (the generators return new graphs with empty caches, and so does
    ``induced``, except that an all-true mask with no new weights is the
    graph itself):

    * ``adj``, which maps each node id to the sorted tuple of its neighbor
      ids; it is derived from the CSR on first read, and only the reference
      interpreter in ``engine.run_on_subgraph`` and the mirror
      ``arb.arb_reduce`` read it (every run path and check reads the CSR);
    * the rows with entries and their starts in ``nbr`` (``neighbor_reduce``);
    * the degeneracy (``degeneracy(g)``);
    * the exact optimum (``brute_force_max_is(g)``), so a seed sweep over
      one graph solves it once;
    * the kernel runs of ``seedless`` engine programs (``_runs``, kept by
      ``engine.run_on_subgraph``), so a seed sweep computes the good-node
      round and the sampling profile once and charges them on every run.
    """

    __slots__ = ("nodes", "w", "degrees", "max_degree", "_ids", "_csr", "_rows",
                 "_adj", "_degeneracy", "_opt", "_runs")

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
        keys = _edge_keys(len(pos), *_edge_positions(edges, pos))
        if pos.keys() - weights.keys():
            raise GraphError(f"missing weight for node {min(pos.keys() - weights.keys())}")
        w = _checked_weights(node_list, [weights[v] for v in node_list])
        self._build(tuple(node_list), np.array(node_list, dtype=np.int64), w,
                    *_csr_of_keys(len(pos), keys))

    def _build(self, nodes: tuple[int, ...], ids: np.ndarray, w: np.ndarray,
               indptr: np.ndarray, nbr: np.ndarray) -> "WeightedGraph":
        """Fill in every field from ``nodes`` (ascending; ``ids`` holds the
        same as int64), their weights and the CSR. Checks nothing: each
        caller has validated its parts or taken them from a valid graph."""
        deg = indptr[1:] - indptr[:-1]
        self.nodes: tuple[int, ...] = nodes
        self.degrees, self._ids, self.w = _read_only(deg, ids, w)
        self.max_degree: int = int(np.maximum.reduce(deg, initial=0))
        self._csr: tuple[np.ndarray, np.ndarray] = _read_only(indptr, nbr)
        self._rows: tuple[np.ndarray, np.ndarray] | None = None
        self._adj: dict[int, tuple[int, ...]] | None = None
        self._degeneracy: int | None = None
        self._opt: IndependentSet | None = None
        self._runs: dict | None = None
        return self

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """``(indptr, nbr)``: the adjacency by node position (class docstring)."""
        return self._csr

    def _row_starts(self) -> tuple[np.ndarray, np.ndarray]:
        """The rows with entries and their starts in ``nbr``, for
        ``neighbor_reduce``: ``reduceat`` gives a row with no entries its
        next row's first value, so such rows are left out. Derived on first
        use."""
        if self._rows is None:
            rows = self.degrees.nonzero()[0]
            self._rows = (rows, self._csr[0][rows])
        return self._rows

    @property
    def adj(self) -> dict[int, tuple[int, ...]]:
        if self._adj is None:
            ptr = self._csr[0].tolist()
            # an object array holds ``nodes``' own ints, so every tuple refers
            # to the one int object per node
            flat = np.array(self.nodes, dtype=object)[self._csr[1]].tolist()
            # the collector that n new tuples set off finds no cycle among ints
            was_enabled = gc.isenabled()
            gc.disable()
            try:
                self._adj = {v: tuple(flat[a:b]) for v, a, b in zip(self.nodes, ptr, ptr[1:])}
            finally:
                if was_enabled:
                    gc.enable()
        return self._adj

    @property
    def n(self) -> int:
        return len(self.nodes)

    @property
    def m(self) -> int:
        return self._csr[1].size // 2

    def total_weight(self, subset: Iterable[int] | None = None) -> int:
        w = self.w if subset is None else self.w[self.mask(subset)]
        return sum(w.tolist())

    def edges(self) -> list[tuple[int, int]]:
        src, nbr = np.arange(self.n).repeat(self.degrees), self._csr[1]
        once = src < nbr
        return list(zip(map(self.nodes.__getitem__, src[once].tolist()),
                        map(self.nodes.__getitem__, nbr[once].tolist())))

    def is_independent(self, members: Iterable[int]) -> bool:
        return self._independent(self.mask(members))

    def _independent(self, inside: np.ndarray) -> bool:  # inside: a mask by position
        return not np.count_nonzero(inside[self._csr[1]] & inside.repeat(self.degrees))

    def induced(self, keep: np.ndarray,
                weights: Sequence[int] | None = None) -> "WeightedGraph":
        """Subgraph induced by the boolean mask ``keep`` (by position), keeping
        ids; optional new ``weights``, one per node of ``self`` by position.

        A subgraph of a valid graph is valid, so only the mask and the kept
        nodes' new weights are checked. Every node without new weights is
        ``self``, and every node with new weights shares ``self``'s arrays
        but ``w``. Otherwise the CSR is the parent's, filtered to the entries
        between kept positions and renumbered, each row ascending.
        """
        keep = self._selection(keep)
        kept = keep.nonzero()[0]
        every = kept.size == len(self.nodes)
        if weights is None and every:
            return self
        if weights is not None and len(weights) != self.n:
            raise GraphError(f"expected {self.n} weights by position, got {len(weights)}")
        nodes = self.nodes if every else tuple(map(self.nodes.__getitem__, kept.tolist()))
        w = self.w[kept] if weights is None else _checked_weights(nodes, weights, kept)
        if every:
            return object.__new__(WeightedGraph)._build(nodes, self._ids, w, *self._csr)
        indptr, nbr = self._csr
        # the entries between kept positions; kept entries before each row of
        # the parent are the new row bounds
        entry = (keep[nbr] & keep.repeat(self.degrees)).nonzero()[0]
        bounds = entry.searchsorted(indptr)
        # the position map: a kept node's number in the subgraph
        new_pos = np.empty(len(self.nodes), dtype=np.int64)
        new_pos[kept] = np.arange(kept.size)
        return object.__new__(WeightedGraph)._build(
            nodes, self._ids[kept], w, np.concatenate((bounds[kept], bounds[-1:])),
            new_pos[nbr[entry]])

    def mask(self, ids: Iterable[int]) -> np.ndarray:
        """Boolean mask by position, set at the nodes ``ids``; refuses unknown ids."""
        ids = set(ids)
        unknown = ids.difference(self.nodes)
        if unknown:
            raise GraphError(f"node {min(unknown)} is not in the graph")
        mask = np.zeros(self.n, dtype=bool)
        mask[self._ids.searchsorted(np.fromiter(ids, np.int64, len(ids)))] = True
        return mask

    def _selection(self, keep) -> np.ndarray:
        """``keep`` if a boolean mask by position (``[]`` when n = 0, or the
        engine interpreter's object array of bools), else ``GraphError``."""
        keep = np.asarray(keep)
        if keep.dtype == object and all(type(b) is bool for b in keep.ravel().tolist()):
            keep = keep.astype(bool)
        if keep.shape != (len(self.nodes),) or keep.dtype != bool and keep.size:
            raise GraphError(f"expected a boolean mask of {self.n} nodes, got {keep!r}")
        return keep if keep.size else keep.astype(bool)

    def __eq__(self, other) -> bool:
        return (isinstance(other, WeightedGraph) and self.nodes == other.nodes and all(
            map(np.array_equal, (self.w, *self._csr), (other.w, *other._csr))))

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
    def of(cls, g: WeightedGraph, inside: np.ndarray) -> "IndependentSet":
        """The nodes the boolean mask ``inside`` selects, if independent in ``g``."""
        inside = g._selection(inside)
        if not g._independent(inside):
            raise GraphError("set is not independent")
        return cls._of_independent(g, inside)

    @classmethod
    def _of_independent(cls, g: WeightedGraph, inside: np.ndarray) -> "IndependentSet":
        """``of`` for a boolean mask already known to be independent in ``g``."""
        return cls(frozenset(map(g.nodes.__getitem__, inside.nonzero()[0].tolist())),
                   sum(g.w[inside].tolist()))

    def __len__(self):
        return len(self.members)


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


def _checked_weights(nodes: Sequence[int], values: Sequence[int],
                     kept: np.ndarray | None = None) -> np.ndarray:
    """``nodes``' weights as int64: ``values``, or ``values[kept]`` when the
    positions ``kept`` are given; each an int (not a bool) in [0, INT64_MAX].

    An int64 array needs only one sign test, and its kept values are
    returned as they are; it refuses its first negative weight with the text
    the per-value loop gives. Other values are gathered as Python objects
    and checked one by one."""
    if _is_int64(values):
        if kept is not None:
            values = values[kept]
        negative = values < 0
        if negative.any():
            i = int(negative.argmax())
            raise GraphError(f"negative weight {int(values[i])} at node {nodes[i]}")
        return values
    if kept is not None:
        values = np.asarray(values, dtype=object)[kept].tolist()
    for v, wv in zip(nodes, values):
        if not isinstance(wv, int) or isinstance(wv, bool):
            raise GraphError(f"weight of node {v} is not an integer")
        if wv < 0:
            raise GraphError(f"negative weight {wv} at node {v}")
        if wv > INT64_MAX:
            raise GraphError(f"weight of node {v} exceeds 64-bit range")
    return np.array(values, dtype=np.int64)


def _position_dtype(n: int) -> type:
    """The narrowest of int32 and int64 that the endpoint arrays of a graph
    on positions 0..n-1 are built in: int32 whenever n <= INT32_MAX."""
    return np.int32 if n <= INT32_MAX else np.int64


def _edge_positions(edges: Iterable[tuple[int, int]],
                    pos: Mapping[int, int]) -> tuple[np.ndarray, np.ndarray]:
    """The positions ``pos`` gives the ends of ``edges``, checked: no
    self-loop, no unknown id."""
    ends: list[int] = []
    for u, v in edges:
        if u == v:
            raise GraphError(f"self-loop at node {u}")
        if u not in pos or v not in pos:
            raise GraphError(f"edge ({u}, {v}) references unknown node")
        ends += pos[u], pos[v]
    uv = np.array(ends, dtype=_position_dtype(len(pos))).reshape(-1, 2)
    return uv[:, 0], uv[:, 1]


# A graph's CSR is built in two steps, so that a builder can drop its endpoint
# arrays before the CSR's own arrays exist: ``_edge_keys`` turns the endpoints
# into one array of directed keys i << b | j (b bits hold any position), and
# ``_csr_of_keys`` sorts that array in place. Sorted, the keys are the CSR in
# row order: repeats are neighbouring equal keys (dropped only if there are
# any), row i starts at the first key >= i << b (n + 1 binary searches), and a
# key's neighbour is its low b bits. The keys are int32 whenever n << b fits,
# which halves the bytes the sort moves; int64 keys become ``nbr`` in place.


def _edge_keys(n: int, u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The directed keys of the edges between ``u[k]`` and ``v[k]`` (positions
    0..n-1, any integer dtype), both ways round, in one new array. Only that
    array is written."""
    b = max(n - 1, 0).bit_length()
    m = u.size
    keys = np.empty(2 * m, dtype=np.int32 if n << b <= INT32_MAX else np.int64)
    keys[:m] = u
    keys[m:] = v
    keys <<= b
    keys[:m] |= v
    keys[m:] |= u
    return keys


def _csr_of_keys(n: int, keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(indptr, nbr)``, both int64, of the graph on positions 0..n-1 whose
    directed keys (``_edge_keys``) are ``keys``, repeats merged. ``keys`` is
    sorted in place and may become ``nbr``: the caller hands it over."""
    b = max(n - 1, 0).bit_length()
    keys.sort()
    if (keys[1:] == keys[:-1]).any():
        keys = keys[np.append(True, keys[1:] != keys[:-1])]
    indptr = keys.searchsorted(np.arange(0, (n << b) + 1, 1 << b, dtype=keys.dtype))
    nbr = keys.astype(np.int64, copy=False)
    nbr &= (1 << b) - 1
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
    over a closed neighborhood can leave its range (always, for
    ``np.maximum`` over int64 arrays), and an array of Python integers
    (``dtype=object``) otherwise. One ``reduceat`` over the rows with
    entries serves every graph; a row without entries keeps its initial.
    """
    if (ufunc is np.maximum and _is_int64(values)
            and (initial is None or _is_int64(initial))):
        dtype = np.int64  # a maximum of int64 values is one of them
    else:
        top = _max_abs(values)
        if initial is not None:
            top = max(top, _max_abs(initial))
        dtype = np.int64 if top * (g.max_degree + 1) <= INT64_MAX else object
    vals = np.asarray(values, dtype=dtype)
    out = (np.zeros(g.n, dtype=dtype) if initial is None
           else np.array(initial, dtype=dtype))
    rows, starts = g._row_starts()
    if starts.size:
        out[rows] = ufunc(out[rows], ufunc.reduceat(vals[g._csr[1]], starts))
    return out


def _is_int64(values) -> bool:
    return isinstance(values, np.ndarray) and values.dtype == np.int64


def _max_abs(values) -> int:
    if isinstance(values, np.ndarray) and values.dtype != object:
        return max(int(values.max()), -int(values.min())) if values.size else 0
    return max(map(abs, values), default=0)


# ---------------------------------------------------------------------------
# generators

# ``generate`` and ``build_clique_cycle`` refuse, before they allocate, a graph
# whose build would need more than BUILD_CEILING_BYTES by ``build_bytes``. The
# ceiling is a constant, not the free memory, so the same input is refused or
# accepted on every machine; G(2^22, 20/n) needs about 1.3 GiB.
BUILD_CEILING_BYTES = 4 << 30


def build_bytes(n: int, m: int) -> int:
    """The bytes that building a graph of ``n`` nodes and ``m`` edges may
    peak at. Per edge: the kept ``nbr`` holds 16, and the endpoints and keys
    it is built from peak at 24. Per node: the kept arrays (``indptr``,
    ``degrees``, ids, ``w``) hold 32, the id tuple about 40, and the row
    scans and weight draws the rest."""
    return 24 * m + 96 * n


def _check_build_fits(n: int, m: int) -> None:
    need = build_bytes(n, m)
    if need > BUILD_CEILING_BYTES:
        raise GraphError(
            f"a graph of {n} nodes and {m} edges needs about {need / 2**30:.3g} GiB "
            f"to build, past the ceiling of {BUILD_CEILING_BYTES / 2**30:g} GiB")


def _draw_weights(n: int, model: str, seed: int) -> np.ndarray:
    if model not in WEIGHT_MODELS:
        raise GraphError(f"unknown weight model {model!r}; choose from {WEIGHT_MODELS}")
    if model == "unit":
        return np.ones(n, dtype=np.int64)
    rng = random.Random(derive_seed(seed, 0x57E16875))
    if model == "uniform_range":
        # randint(1, top)'s stream: 1 + the next draw of top.bit_length()
        # bits below top, each draw at or above top rejected
        top = UNIFORM_RANGE_MAX
        bits, r = top.bit_length(), []
        while len(r) < n:
            r += [x for x in [rng.getrandbits(bits) for _ in range(n - len(r))] if x < top]
        return np.array(r, np.int64) + 1
    # heavy_tail: Pareto-like integer weights, capped; a few giant nodes
    # dominate the total weight, which is the regime the weighted sampler
    # targets. Each weight is min(int(1 / u^2), cap) for the next non-zero
    # u of the stream: a zero is dropped and the rest move up one place.
    u = [rng.random() for _ in range(n)]
    while 0.0 in u:
        k = u.index(0.0)
        u[k:] = [*u[k + 1:], rng.random()]
    # exact as float64 steps: the cap is an exact double, and truncating a
    # positive double below it is int()
    return np.minimum(1.0 / np.square(u), HEAVY_TAIL_CAP).astype(np.int64)


def _clique_edges(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, of 0..n-1 in lexicographic order, as arrays
    of ``_position_dtype(n)``."""
    dtype = _position_dtype(n)
    rows = np.arange(n - 1, dtype=dtype)
    length = np.arange(n - 1, 0, -1)  # row u holds the pairs (u, u + 1..n - 1)
    u = np.repeat(rows, length)
    # v climbs by 1 along a row and falls from n - 1 to u + 2 where row u + 1 starts
    v = np.ones(u.size, dtype=dtype)
    v[np.cumsum(length[:-1])] = rows[1:] + 2 - n
    np.cumsum(v, dtype=dtype, out=v)
    return u, v


def _gnp_block(left: float, p: float) -> int:
    """How many gaps the G(n, p) scan draws next, when the slots left hold a
    Binomial count of edges with mean ``left``: its mean + 6 sd + 64 almost
    always ends the scan, and a short block only costs another."""
    return int(left + 6 * math.sqrt(left * (1 - p))) + 64


GAP_PIECE = 1 << 14  # gaps converted from one float64 buffer at a time
GAP_CAP = 1 << 62  # past the last slot of any graph the ceiling admits


def _gnp_gaps(gen: np.random.Generator, p: float, size: int) -> np.ndarray:
    """``size`` gaps of the G(n, p) scan as int64: ``gen.geometric(p, size)``
    bit for bit, save that a gap past ``GAP_CAP`` reads ``GAP_CAP``.

    Below 1/3, numpy draws a geometric by inversion, ``ceil(E / -log1p(-p))``
    with E from ``gen.standard_exponential``, one exponential per gap and
    with no further state; this applies that rule in array steps, piece by
    piece, so that no block-sized float64 array is live. Each step rounds
    as numpy's C code does: negation is exact, so ``E / -log1p(-p)`` is
    numpy's ``-E / log1p(-p)``, one correctly rounded division;
    ``math.log1p`` calls the C library's ``log1p``, as numpy does; and
    capping before ``ceil`` equals capping after it, since the cap is an
    integer. From 1/3 up numpy searches the cumulative sums instead, so
    those gaps are ``gen.geometric``'s own draws."""
    if p >= 1 / 3:
        return gen.geometric(p, size)
    out = np.empty(size, dtype=np.int64)
    buf = np.empty(min(size, GAP_PIECE))
    scale = -math.log1p(-p)
    with np.errstate(over="ignore"):  # E / scale is inf for a subnormal p
        for start in range(0, size, GAP_PIECE):
            piece = out[start:start + GAP_PIECE]
            # draws split across calls are the same stream as one call's
            e = gen.standard_exponential(out=buf[:piece.size])
            np.divide(e, scale, out=e)
            np.minimum(e, GAP_CAP, out=e)
            np.ceil(e, out=piece, casting="unsafe")
    return out


def _gnp_edges(n: int, p: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """G(n, p) endpoint arrays, of ``_position_dtype(n)``, via geometric
    skipping over the n(n-1)/2 slots.

    The gaps between edge slots come from ``_gnp_gaps`` on one PCG64
    ``Generator``, in blocks sized by ``_gnp_block``. The graphs therefore
    rest on numpy keeping PCG64's stream (NEP 19), ``standard_exponential``'s
    ziggurat for p below 1/3 and ``geometric``'s search from 1/3 up; the
    sha256 pins in ``tests/test_graphs.py`` check each path."""
    if p <= 0.0 or n < 2:
        none = np.zeros(0, dtype=_position_dtype(n))
        return none, none
    total = n * (n - 1) // 2
    if p >= 1.0:
        return _clique_edges(n)
    gen = np.random.Generator(np.random.PCG64(derive_seed(seed, 0x6E90)))
    chunks = []
    pos = -1
    while pos < total:
        # draws split across calls are the same stream as one call's, so the
        # block size never changes the edges
        block = _gnp_gaps(gen, p, _gnp_block((total - pos) * p, p))
        # a gap past the last slot ends the scan either way; clipping it keeps
        # the running sum inside int64 when p is tiny
        np.cumsum(np.minimum(block, total + 1, out=block), out=block)
        block += pos
        pos = int(block[-1])
        # every gap is >= 1, so the slots ascend and those in range are a prefix
        chunks.append(block[:block.searchsorted(total)])
    return _slot_pairs(n, chunks[0] if len(chunks) == 1 else np.concatenate(chunks))


def _slot_pairs(n: int, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs (u, v), u < v, at slots ``k`` of the n(n-1)/2 pairs of
    0..n-1 in lexicographic order, as arrays of ``_position_dtype(n)``;
    exact while n(n-1)/2 fits in int64.

    ``k`` must be strictly ascending, so that each row's slots are one run
    of ``k``, found by one binary search per row start. It is only read."""
    row_start = np.zeros(n - 1, dtype=np.int64)
    np.cumsum(np.arange(n - 1, 1, -1, dtype=np.int64), out=row_start[1:])
    count = np.diff(k.searchsorted(row_start), append=k.size)
    dtype = _position_dtype(n)
    u = np.repeat(np.arange(n - 1, dtype=dtype), count)
    # slot row_start[u] holds the pair (u, u + 1)
    v = np.repeat(row_start - np.arange(1, n, dtype=np.int64), count)
    np.subtract(k, v, out=v)
    return u, v.astype(dtype, copy=False)


@dataclass(frozen=True)
class CliqueCycle:
    """The built graph plus the (clique index, member index) id scheme.

    Composite identifiers concatenate the base cycle id with the member
    number: id(v_ij) = base_id(i) << j_bits | j, with j in 1..n1, so a
    vertex's base id is ``v >> j_bits``.
    """

    n0: int
    n1: int
    base_ids: tuple[int, ...]
    j_bits: int
    graph: WeightedGraph


def build_clique_cycle(n0: int, n1: int,
                       base_ids: Sequence[int] | None = None) -> CliqueCycle:
    """Unit-weight cycle of cliques: n0*n1 vertices, degree 3*n1 - 1.

    Edge rule: v_ij ~ v_i'j' iff i = i' (j != j'), |i - i'| = 1, or
    {i, i'} = {1, n0}. The CSR comes straight from node positions: ids
    ascend with the base id, then with j.
    """
    if n0 < 3:
        raise GraphError(f"cycle of cliques needs n0 >= 3, got {n0}")
    if n1 < 1:
        raise GraphError(f"clique size must be >= 1, got {n1}")
    n = n0 * n1
    _check_build_fits(n, n0 * (n1 * (n1 - 1) // 2 + n1 * n1))
    if base_ids is None:
        base_ids = tuple(range(n0))
    else:
        base_ids = tuple(base_ids)
        if len(base_ids) != n0 or len(set(base_ids)) != n0:
            raise GraphError("base_ids must be n0 distinct identifiers")
    j_bits = max(1, n1.bit_length())
    if min(base_ids) < 0:
        raise GraphError("node identifiers must be non-negative")
    top = max(base_ids) << j_bits | n1
    if top > INT64_MAX:
        raise GraphError(f"node identifier {top} exceeds 64-bit range")
    base = np.array(base_ids, dtype=np.int64)
    ids = (np.sort(base)[:, None] << j_bits | np.arange(1, n1 + 1)).ravel()
    # first position of clique i (in cycle order)
    first = np.empty(n0, dtype=_position_dtype(n))
    first[base.argsort()] = np.arange(0, n, n1)
    indptr, nbr = _csr_of_keys(n, _edge_keys(n, *_clique_cycle_edges(first, n1)))
    graph = object.__new__(WeightedGraph)._build(
        tuple(ids.tolist()), ids, np.ones(n, dtype=np.int64), indptr, nbr)
    return CliqueCycle(n0, n1, base_ids, j_bits, graph)


def _clique_cycle_edges(first: np.ndarray, n1: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays, of ``first``'s dtype, of the cycle of cliques whose
    clique i holds positions ``first[i]`` .. ``first[i] + n1 - 1``: row i
    pairs clique i's members with each other and then with each member of
    clique i + 1 (mod n0)."""
    a, b = _clique_edges(n1)
    x = np.arange(n1, dtype=a.dtype).repeat(n1)
    y = np.tile(np.arange(n1, dtype=a.dtype), n1)
    u = first[:, None] + np.concatenate((a, x))
    v = np.empty_like(u)
    np.add(first[:, None], b, out=v[:, :a.size])
    np.add(np.roll(first, -1)[:, None], y, out=v[:, a.size:])
    return u.ravel(), v.ravel()


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
        n0, n1 = int(params["n0"]), int(params["n1"])
        g = build_clique_cycle(n0, n1).graph
        if weight_model == "unit":
            return g
        return g.induced(np.ones(g.n, bool), _draw_weights(g.n, weight_model, seed))

    n = int(params["n"])
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    if family == "cycle" and n < 3:
        raise GraphError(f"cycle needs n >= 3, got {n}")
    p = None
    if family == "gnp":
        p = float(params["p"])
        if not 0.0 <= p <= 1.0:
            raise GraphError(f"gnp needs 0 <= p <= 1, got {p}")
        m = math.ceil(n * (n - 1) // 2 * Fraction(p))  # the expected edge count
    else:
        m = {"cycle": n, "clique": n * (n - 1) // 2}.get(family, n - 1)
    _check_build_fits(n, m)
    w = _draw_weights(n, weight_model, seed)
    indptr, nbr = _csr_of_keys(n, _edge_keys(n, *_family_edges(family, n, p, seed)))
    return object.__new__(WeightedGraph)._build(
        tuple(range(n)), np.arange(n, dtype=np.int64), w, indptr, nbr)


def _family_edges(family: str, n: int, p: float | None,
                  seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Endpoint arrays, of ``_position_dtype(n)``, of ``generate``'s families
    on ids 0..n-1."""
    if family == "gnp":
        return _gnp_edges(n, p, seed)
    if family == "clique":
        return _clique_edges(n)
    pos = np.arange(n, dtype=_position_dtype(n))
    if family == "cycle":
        return pos, np.roll(pos, -1)
    if family == "path":
        return pos[:-1], pos[1:]
    return np.zeros(n - 1, dtype=pos.dtype), pos[1:]  # star


def random_tree(n: int, seed: int, weight_model: str = "unit") -> WeightedGraph:
    """Uniform-attachment random tree on ids 0..n-1 (degeneracy 1 for n >= 2)."""
    if n < 1:
        raise GraphError(f"n must be >= 1, got {n}")
    rng = random.Random(derive_seed(seed, 0x7EEE))
    edges = [(rng.randrange(i), i) for i in range(1, n)]
    weights = _draw_weights(n, weight_model, seed).tolist()
    return WeightedGraph(range(n), edges, dict(enumerate(weights)))


# ---------------------------------------------------------------------------
# degeneracy


# A frontier under PEEL_SCALAR nodes is peeled one node at a time (``_drain``),
# a larger one in array layers (``_layer``); a layer reads at most
# PEEL_PIECE frontier nodes and about PEEL_PIECE CSR entries at a time (one
# row may be longer), so its temporaries stay bounded on a star as on G(n, p).
PEEL_SCALAR = 64
PEEL_PIECE = 1 << 16


def degeneracy(g: WeightedGraph) -> int:
    """Graph degeneracy: the largest k whose k-core is not empty.

    Serves as the implementable surrogate for arboricity: alpha <= d <= 2*alpha - 1.
    Computed once per graph and cached on it, by ``_layer_peel``: for the
    current k, the frontier is the live nodes of degree <= k; they are
    removed, and every live neighbour loses one degree per edge to them,
    which makes the next frontier; when a frontier is empty, k jumps to the
    minimum live degree. The answer is the last k that removed a node
    (Batagelj and Zaversnik, "An O(m) algorithm for cores decomposition of
    networks", 2003; Matula and Beck, J. ACM 1983).
    """
    if g._degeneracy is None:
        g._degeneracy = _layer_peel(g)
    return g._degeneracy


def _layer_peel(g: WeightedGraph) -> int:
    """The peel of ``degeneracy``, one loop for every graph. A large
    frontier is removed in array layers (``_layer``), a small one by a stack
    (``_drain``); nothing is O(n) per layer, only the jumps of k, which
    compact the live nodes, are."""
    indptr, nbr = g.csr()
    deg = g.degrees.copy()
    alive = np.ones(g.n, dtype=bool)
    # memoryviews index to Python ints at list speed, with no copy
    views = memoryview(deg), memoryview(alive), memoryview(indptr), memoryview(nbr)
    live = np.arange(g.n)
    d = 0
    while live.size:
        # every live node is above the last k, so k only grows
        d = k = int(deg[live].min())
        frontier = _take(live, deg, alive, k)
        while frontier.size:
            if frontier.size < PEEL_SCALAR:
                frontier = np.array(_drain(frontier.tolist(), k, *views), dtype=np.int64)
            else:
                frontier = _layer(frontier, k, deg, alive, indptr, nbr)
        live = live[alive[live]]
    return d


def _take(nodes: np.ndarray, deg: np.ndarray, alive: np.ndarray, k: int) -> np.ndarray:
    """The frontier among ``nodes`` (distinct, live): those of degree <= k,
    now marked dead."""
    frontier = nodes[deg[nodes] <= k]
    alive[frontier] = False
    return frontier


def _drain(stack: list[int], k: int, deg: memoryview, alive: memoryview,
           ptr: memoryview, nbr: memoryview) -> list[int]:
    """Peel the nodes on ``stack`` (dead, rows unread) one at a time at
    level k: each live neighbour loses one degree, and one that falls to k
    is marked dead and pushed. Stops when the stack is empty or holds
    PEEL_SCALAR nodes, and returns it. ``deg``, ``alive``, ``ptr`` and
    ``nbr`` are memoryviews of the peel's arrays: they index to Python ints."""
    cap = PEEL_SCALAR
    while stack and len(stack) < cap:
        v = stack.pop()
        for u in nbr[ptr[v]:ptr[v + 1]]:
            if alive[u]:
                deg[u] -= 1
                if deg[u] == k:
                    alive[u] = False
                    stack.append(u)
    return stack


def _layer(frontier: np.ndarray, k: int, deg: np.ndarray, alive: np.ndarray,
           indptr: np.ndarray, nbr: np.ndarray) -> np.ndarray:
    """Remove ``frontier`` (dead, rows unread) at level k in one array layer:
    it is read in pieces of at most PEEL_PIECE nodes, and their rows in
    pieces of about PEEL_PIECE entries; each live hit loses one degree per
    entry (``np.unique`` counts them), and the hits that fall to k or below
    are the next frontier."""
    nxt = []
    for i in range(0, frontier.size, PEEL_PIECE):
        nodes = frontier[i:i + PEEL_PIECE]
        starts = indptr[nodes]
        lens = indptr[nodes + 1] - starts
        cut = np.cumsum(lens)
        bounds = [0, *cut.searchsorted(np.arange(PEEL_PIECE, cut[-1], PEEL_PIECE)).tolist(),
                  nodes.size]
        for a, b in zip(bounds, bounds[1:]):
            if a == b:
                continue
            before = cut[a:b] - lens[a:b]  # the entries of the rows before each row
            at = np.repeat(starts[a:b] - (before - before[0]), lens[a:b])
            at += np.arange(at.size)
            hits = nbr[at]
            del at
            hits = hits[alive[hits]]
            hit, count = np.unique(hits, return_counts=True)
            deg[hit] -= count
            nxt.append(_take(hit, deg, alive, k))
    return np.concatenate(nxt)


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
    ptr, nbr = (a.tolist() for a in g.csr())
    bit_w = {1 << i: wv for i, wv in enumerate(g.w.tolist())}
    bit_nbr = {1 << i: sum(1 << j for j in nbr[a:b])
               for i, (a, b) in enumerate(zip(ptr, ptr[1:]))}

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

    bb((1 << g.n) - 1, 0, 0, g.total_weight())
    members = frozenset(g.nodes[i] for i in range(g.n) if best_mask >> i & 1)
    return IndependentSet(members, best_weight)


# ---------------------------------------------------------------------------
# text format: "n m" header, n x "id weight", m x "u v"


def save(g: WeightedGraph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{v} {wv}" for v, wv in zip(g.nodes, g.w.tolist()))
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
    for k in range(1 + n + m, len(lines)):
        if lines[k].strip():
            raise GraphParseError(k + 1, f"line past the header's {n} nodes and {m} edges")
    return WeightedGraph(weights.keys(), edges, weights)
