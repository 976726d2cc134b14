"""Seed derivation: one stable seed per record from the run's root seed."""

from __future__ import annotations

import hashlib

_SEED_BITS = 63


def derive_seed(root: int, *parts: str | int) -> int:
    """Stable per-record seed from a root seed and identifying parts.

    Records can then be processed in any order (or in parallel) without
    changing the randomness any one of them sees.
    """
    h = hashlib.sha256()
    h.update(str(root).encode("utf-8"))
    for p in parts:
        h.update(b"\x1f")
        h.update(str(p).encode("utf-8"))
    return int.from_bytes(h.digest()[:8], "big") % (1 << _SEED_BITS)
