"""Deterministic random-number management.

Every stochastic component in the simulator (data generators, minibatch
sampling, failure injection, LDA Gibbs chains, ...) draws from a
:class:`numpy.random.Generator` obtained through :class:`RngRegistry`, so a
single top-level seed reproduces an entire experiment bit-for-bit.
"""

from __future__ import annotations

import zlib

import numpy as np


def _stable_hash(name):
    """Return a stable 32-bit hash of *name* (Python's ``hash`` is salted)."""
    return zlib.crc32(name.encode("utf-8"))


class RngRegistry:
    """Hands out independent, named random generators from one root seed.

    The generator for a given ``(root_seed, name)`` pair is always the same
    stream, regardless of the order in which names are requested.  This keeps
    e.g. failure injection independent from minibatch sampling: adding one
    does not perturb the other.
    """

    def __init__(self, seed=0):
        self.seed = int(seed)
        self._generators = {}

    def get(self, name):
        """Return the generator dedicated to *name*, creating it on first use."""
        if name not in self._generators:
            stream_seed = (self.seed * 0x9E3779B1 + _stable_hash(name)) % (2**63)
            self._generators[name] = np.random.default_rng(stream_seed)
        return self._generators[name]


def generator(seed, name="default"):
    """One-shot helper: a named generator without keeping a registry around."""
    return RngRegistry(seed).get(name)
