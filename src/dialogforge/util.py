"""Seed derivation and the order-preserving per-record runner."""

from __future__ import annotations

import hashlib
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Callable, Iterable, TypeVar

from .atomic_ops import BackendUnavailable

T = TypeVar("T")
R = TypeVar("R")

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


def run_records(fn: Callable[[T], R], items: Iterable[T], concurrency: int,
                reject: Callable[[T, Exception], dict[str, Any]],
                ) -> tuple[list[R], list[dict[str, Any]]]:
    """Apply ``fn`` with at most ``concurrency`` in flight; outputs and rejects in input order.

    An exception from one item becomes the reject record ``reject(item, err)``.
    BackendUnavailable is an infrastructure failure, not a data problem, so it
    propagates.
    """

    def one(item: T):
        try:
            return fn(item), None
        except BackendUnavailable:
            raise
        except Exception as err:  # noqa: BLE001 - per-record errors become rejects
            return None, reject(item, err)

    items = list(items)
    if concurrency <= 1 or len(items) <= 1:
        results = [one(x) for x in items]
    else:
        with ThreadPoolExecutor(max_workers=concurrency) as pool:
            results = list(pool.map(one, items))
    outputs, rejects = [], []
    for output, rejected in results:
        if rejected is None:
            outputs.append(output)
        else:
            rejects.append(rejected)
    return outputs, rejects
