"""Wire-size estimation for simulated network transfers.

The network cost model charges time proportional to the number of bytes a
message would occupy on the wire.  These helpers estimate that size for the
payload types the system actually ships: numpy arrays, sparse index/value
pairs, scalars and small containers.  Sizes are estimates of a compact binary
encoding (as PS2's Netty/Protobuf transport would produce), not of Python's
in-memory representation.
"""

from __future__ import annotations

import numpy as np

from repro.costs import FLOAT_BYTES


def sizeof(payload):
    """Return the estimated wire size in bytes of *payload* (sans envelope).

    Supports ``None``, numbers, strings/bytes, numpy arrays and (nested)
    lists/tuples/dicts of those.  Unknown objects fall back to a conservative
    fixed cost so that forgetting a case never makes traffic free.
    """
    if payload is None:
        return 0
    if isinstance(payload, np.ndarray):
        return int(payload.nbytes)
    if isinstance(payload, (bool, int, float, np.integer, np.floating)):
        return FLOAT_BYTES
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload.encode("utf-8"))
    if isinstance(payload, dict):
        return sum(sizeof(key) + sizeof(value) for key, value in payload.items())
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(sizeof(item) for item in payload)
    return 256
