"""Deterministic per-node random streams, counter-based.

Every source of randomness in a run is derived from (master seed, node id)
through a splitmix64 chain, so results never depend on the order in which
nodes are processed within a round.

Word k of node v in a run with seed s is the k-th output (k = 0, 1, ...) of
the SplitMix64 generator seeded with ``derive_seed(s, v)``:

    word(x0, k) = splitmix64(x0 + k * GAMMA mod 2^64)

(Steele, Lea and Flood, OOPSLA 2014). A word depends only on (s, v, k), as
in the counter-based generators of Salmon et al. (SC 2011), so one node's
draws can be taken one at a time (``NodeStream``, for the per-node
interpreter) or all nodes' draws at once (``stream_words``, numpy
``uint64``); both forms give the same words. ``getrandbits(k)`` reads the
top k bits of the next ceil(k/64) words, first word most significant;
``randint`` draws exactly as many bits as the range needs and rejects
values past its end, so every value is equally likely.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15
_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output function (well-mixed 64-bit hash)."""
    x = (x + GAMMA) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * _M1) & _MASK64
    z = ((z ^ (z >> 27)) * _M2) & _MASK64
    return z ^ (z >> 31)


# numpy forms of the constants, made once: building them costs more than
# the arithmetic on a small array
_GAMMA_U64, _M1_U64, _M2_U64 = np.uint64(GAMMA), np.uint64(_M1), np.uint64(_M2)
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)


def _splitmix64_np(x: np.ndarray) -> np.ndarray:
    """``splitmix64`` over a uint64 array (arithmetic wraps mod 2^64)."""
    z = x + _GAMMA_U64
    z = (z ^ (z >> _S30)) * _M1_U64
    z = (z ^ (z >> _S27)) * _M2_U64
    return z ^ (z >> _S31)


def derive_seed(master_seed: int, node_id: int, salt: int = 0) -> int:
    """Mix (master seed, node id, salt) into one 64-bit stream seed."""
    h = splitmix64(master_seed & _MASK64)
    h = splitmix64(h ^ (node_id & _MASK64))
    if salt:
        h = splitmix64(h ^ (salt & _MASK64))
    return h


def derive_seeds(master_seed: int, node_ids, salt: int = 0) -> np.ndarray:
    """``derive_seed`` for every id in ``node_ids`` (Python integers, or an
    int64 array such as a graph's ids), as a uint64 array."""
    if isinstance(node_ids, np.ndarray):
        ids = node_ids.astype(np.uint64)  # wraps mod 2^64, as the mask does
    else:
        ids = np.fromiter((v & _MASK64 for v in node_ids), dtype=np.uint64)
    h = _splitmix64_np(ids ^ np.uint64(splitmix64(master_seed & _MASK64)))
    if salt:
        h = _splitmix64_np(h ^ np.uint64(salt & _MASK64))
    return h


def stream_words(seeds: np.ndarray, k) -> np.ndarray:
    """Word ``k`` (an int or an array of them) of the streams seeded by
    ``seeds``, the numpy form of ``NodeStream``'s draws."""
    step = np.asarray(k, dtype=np.uint64) * _GAMMA_U64
    return _splitmix64_np(seeds + step)


class NodeStream:
    """The private random stream of one node for one run.

    Holds the seed and a draw counter; it derives the node's seed on the
    first draw, so a program that never draws costs two attribute stores.
    """

    __slots__ = ("_master", "_node", "_state")

    def __init__(self, master_seed: int, node_id: int):
        self._master = master_seed
        self._node = node_id
        self._state: int | None = None

    def _word(self) -> int:
        s = self._state
        if s is None:
            s = derive_seed(self._master, self._node)
        # splitmix64(x0 + k * GAMMA) = the output after k + 1 state steps
        self._state = s = (s + GAMMA) & _MASK64
        z = ((s ^ (s >> 30)) * _M1) & _MASK64
        z = ((z ^ (z >> 27)) * _M2) & _MASK64
        return z ^ (z >> 31)

    def getrandbits(self, k: int) -> int:
        """The top ``k`` bits of the next ceil(k/64) words."""
        if k < 0:
            raise ValueError(f"number of bits must be non-negative, got {k}")
        words = -(-k // 64)
        x = 0
        for _ in range(words):
            x = (x << 64) | self._word()
        return x >> (64 * words - k)

    def randint(self, a: int, b: int) -> int:
        """Uniform integer in [a, b] by exact rejection over
        ``(b - a).bit_length()`` bits."""
        span = b - a + 1
        if span < 1:
            raise ValueError(f"empty range [{a}, {b}]")
        k = (span - 1).bit_length()
        while True:
            x = self.getrandbits(k)
            if x < span:
                return a + x


def node_rng(master_seed: int, node_id: int) -> NodeStream:
    """The private random stream of one node for one run."""
    return NodeStream(master_seed, node_id)


def stream_randints(seeds: np.ndarray, a: int, b: int) -> np.ndarray:
    """Each stream's first ``randint(a, b)``, as ``NodeStream`` draws it.

    int64 when every value fits, Python integers (``dtype=object``) when the
    range is wider than 63 bits.
    """
    span = b - a + 1
    if span < 1:
        raise ValueError(f"empty range [{a}, {b}]")
    k = (span - 1).bit_length()
    words = -(-k // 64)
    wide = a < 0 or b >= 1 << 63
    out = np.empty(len(seeds), dtype=object if wide else np.int64)
    todo = np.arange(len(seeds))
    attempt = 0
    while todo.size:
        first = attempt * words
        if words == 1:
            x = stream_words(seeds[todo], first) >> np.uint64(64 - k)
            x = x.astype(object) if wide else x.astype(np.int64)
        else:
            x = np.zeros(todo.size, dtype=object)
            for j in range(words):
                x = (x << 64) | stream_words(seeds[todo], first + j).astype(object)
            x = x >> (64 * words - k)
        ok = x < span
        out[todo[ok]] = x[ok] + a
        todo = todo[~ok]
        attempt += 1
    return out


def node_uniform(master_seed: int, node_id: int, salt: int = 0) -> float:
    """One 53-bit uniform draw in [0, 1) from the node's derived seed.

    Used for per-node Bernoulli decisions (subgraph sampling);
    ``node_uniforms`` is the same draw for many nodes at once.
    """
    return (derive_seed(master_seed, node_id, salt) >> 11) / float(1 << 53)


def node_uniforms(master_seed: int, node_ids, salt: int = 0) -> np.ndarray:
    """``node_uniform`` for every id in ``node_ids``, as a float64 array."""
    top = derive_seeds(master_seed, node_ids, salt) >> np.uint64(11)
    return top.astype(np.float64) / float(1 << 53)
