"""Deterministic per-node random streams.

Every source of randomness in a run is derived from (master seed, node id)
through a splitmix64 chain, so results never depend on the order in which
nodes are processed within a round.
"""

from __future__ import annotations

import random

_MASK64 = (1 << 64) - 1


def splitmix64(x: int) -> int:
    """One step of the splitmix64 output function (well-mixed 64-bit hash)."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    z = x
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive_seed(master_seed: int, node_id: int, salt: int = 0) -> int:
    """Mix (master seed, node id, salt) into one 64-bit stream seed."""
    h = splitmix64(master_seed & _MASK64)
    h = splitmix64(h ^ (node_id & _MASK64))
    if salt:
        h = splitmix64(h ^ (salt & _MASK64))
    return h


def node_rng(master_seed: int, node_id: int) -> random.Random:
    """The private random stream of one node for one run."""
    return random.Random(derive_seed(master_seed, node_id))


def node_uniform(master_seed: int, node_id: int, salt: int = 0) -> float:
    """One 53-bit uniform draw in [0, 1) from the node's derived stream.

    Used for per-node Bernoulli decisions (subgraph sampling) where a full
    Random instance would be overkill.
    """
    return (derive_seed(master_seed, node_id, salt) >> 11) / float(1 << 53)
