"""Seeding helpers: every stochastic operation takes a seed or Generator.

No function in this package touches numpy's global RNG state. Reproducible
splitting uses ``SeedSequence`` spawn keys, so a (root_seed, *indices) pair
always names the same stream regardless of execution order or worker count.
"""

from __future__ import annotations

import numpy as np

def as_generator(seed) -> np.random.Generator:
    """Return a Generator from an int seed, passing Generators through."""
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def child_generator(root_seed: int, *indices: int) -> np.random.Generator:
    """Independent generator addressed by (root_seed, *indices).

    Used by the experiment harness so every (grid cell, repetition) owns its
    own stream; results then do not depend on execution order.
    """
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(indices))
    return np.random.default_rng(ss)


def child_seed(root_seed: int, *indices: int) -> int:
    """Stable derived integer seed for the same addressing scheme."""
    ss = np.random.SeedSequence(entropy=root_seed, spawn_key=tuple(indices))
    return int(ss.generate_state(1, dtype=np.uint64)[0] >> 1)
