"""Seed derivation and the lazy, order-preserving per-record runner.

``concurrent.futures`` is loaded only by a run with more than one call in
flight, so serial runs do not pay for it.
"""

from __future__ import annotations

import collections
import hashlib
from typing import Callable, Iterable, Iterator, TypeVar

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


def run_records(fn: Callable[[T], R], items: Iterable[T], concurrency: int) -> Iterator[R]:
    """Yield ``fn(item)`` per item in input order, at most ``concurrency`` calls in flight.

    ``items`` is read at most ``4 * concurrency`` ahead of what was yielded. One
    thread pool (none at concurrency 1) serves the whole call, so its workers and
    their per-thread connections last the run. Exceptions propagate in input
    order; if the caller stops early, calls not yet started are cancelled.
    """
    if concurrency <= 1:
        yield from map(fn, items)
        return
    from concurrent.futures import ThreadPoolExecutor

    pool = ThreadPoolExecutor(max_workers=concurrency)
    pending = collections.deque()
    try:
        for item in items:
            pending.append(pool.submit(fn, item))
            if len(pending) >= 4 * concurrency:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)
