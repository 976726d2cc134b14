"""Weighted category sampling and best-fit-decreasing sequence packing.

Draws are seeded and sequential, so a (config, corpora, n, seed) tuple pins
the output bytes. Samples are whole and never truncated. ``pack_greedy``
builds best-fit-decreasing (BFD) packs: longest sample first, each into the
open pack with the least room that still holds it, flagging packs that end
light as underfull. ``pack_corpus`` packs the draws and writes the packs in
a seeded order so the pack file carries no length curriculum.
"""

from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Mapping, Sequence, TypeVar

from .util import derive_seed

T = TypeVar("T")


class EmptyCategory(ValueError):
    """A positive-weight category has no samples to draw from."""


class AllZeroWeights(ValueError):
    """No category carries positive weight."""


class SampleTooLong(ValueError):
    """A single sample exceeds the pack upper bound."""


@dataclass(frozen=True)
class SamplingConfig:
    categories: Mapping[str, float]

    def __post_init__(self):
        object.__setattr__(self, "categories", dict(self.categories))

    def validate(self) -> None:
        for name, w in self.categories.items():
            if type(w) not in (int, float) or not 0 <= w < math.inf:
                raise ValueError(f"category {name!r} needs a finite weight >= 0, not {w!r}")
        if not any(w > 0 for w in self.categories.values()):
            raise AllZeroWeights("at least one category needs positive weight")


def sample_stream(cfg: SamplingConfig, corpora: Mapping[str, Sequence[T]],
                  n: int, seed: int) -> list[tuple[str, T]]:
    """n seeded draws: category by normalized weight, then uniform with replacement.

    Raises:
        AllZeroWeights / EmptyCategory: unusable configuration.
    """
    cfg.validate()
    positive = [(name, w) for name, w in cfg.categories.items() if w > 0]
    for name, _ in positive:
        if not corpora.get(name):
            raise EmptyCategory(f"category {name!r} has positive weight but no samples")
    total = sum(w for _, w in positive)
    rng = random.Random(seed)
    draws: list[tuple[str, T]] = []
    for _ in range(n):
        r = rng.random() * total
        acc = 0.0
        name = positive[-1][0]
        for cand, w in positive:
            acc += w
            if r < acc:
                name = cand
                break
        pool = corpora[name]
        draws.append((name, pool[rng.randrange(len(pool))]))
    return draws


@dataclass(frozen=True)
class Pack:
    pack_id: str
    sample_ids: tuple[str, ...]
    lengths: tuple[int, ...]
    total: int
    underfull: bool


def pack_greedy(samples: Sequence[tuple[str, int]], l_min: int, l_max: int) -> list[Pack]:
    """Best-fit-decreasing packs of ``samples``, in the order they opened.

    Samples are placed longest first, equal lengths in input order. Each goes
    into the open pack with the least room that still holds it, the earliest
    such pack on a tie, or opens a new one. A pack lists its samples in the
    order they were placed. Every sample is checked before any is placed, so
    an error names the first bad sample in input order.

    Raises:
        SampleTooLong: a sample longer than l_max can never be packed.
        ValueError: bad bounds or a non-positive length.
    """
    if l_min > l_max:
        raise ValueError(f"l_min {l_min} exceeds l_max {l_max}")
    lengths = [length for _, length in samples]
    for sid, length in samples:
        if length > l_max:
            raise SampleTooLong(f"sample {sid!r} has length {length} > l_max {l_max}")
        if length < 1:
            raise ValueError(f"sample {sid!r} has non-positive length {length}")
    rooms: list[tuple[int, int]] = []  # (room left, pack number), ascending
    members: list[list[tuple[str, int]]] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True):
        length = lengths[i]
        at = bisect.bisect_left(rooms, (length,))
        if at < len(rooms):
            room, number = rooms.pop(at)
        else:
            room, number = l_max, len(members)
            members.append([])
        members[number].append(samples[i])
        bisect.insort(rooms, (room - length, number))
    packs = []
    for number, member in enumerate(members):
        ids, lens = zip(*member)
        total = sum(lens)
        packs.append(Pack(f"pack-{number:05d}", ids, lens, total, total < l_min))
    return packs


def pack_to_record(p: Pack) -> dict[str, Any]:
    return {
        "pack_id": p.pack_id,
        "sample_ids": list(p.sample_ids),
        "lengths": list(p.lengths),
        "total": p.total,
        "underfull": p.underfull,
    }


def pack_corpus(cfg: SamplingConfig, corpora: Mapping[str, Sequence[tuple[str, int]]],
                n_draws: int, l_min: int, l_max: int,
                seed: int) -> tuple[list[Pack], dict[str, Any]]:
    """Seeded draws packed by ``pack_greedy``, in a seeded pack order, plus run stats.

    The packs open longest sample first; shuffling them with an rng derived
    from ``seed`` (apart from the draw rng) keeps any prefix of the pack file
    a fair sample of the weights. ``pack_id``s follow file order.
    """
    draws = sample_stream(cfg, corpora, n_draws, seed)
    items = [(sid, length) for _, (sid, length) in draws]
    packs = pack_greedy(items, l_min, l_max)
    random.Random(derive_seed(seed, "pack-order")).shuffle(packs)
    packs = [replace(p, pack_id=f"pack-{n:05d}") for n, p in enumerate(packs)]

    category_draws: dict[str, int] = {}
    category_tokens: dict[str, int] = {}
    for cat, (_, length) in draws:
        category_draws[cat] = category_draws.get(cat, 0) + 1
        category_tokens[cat] = category_tokens.get(cat, 0) + length
    token_total = sum(p.total for p in packs)
    stats = {
        "pack_count": len(packs),
        "sample_count": len(items),
        "token_count": token_total,
        "mean_fill": (token_total / len(packs) / l_max) if packs else 0.0,
        "underfull_count": sum(p.underfull for p in packs),
        "category_draws": {k: category_draws[k] for k in sorted(category_draws)},
        "category_token_share": {
            k: (category_tokens[k] / token_total if token_total else 0.0)
            for k in sorted(category_tokens)
        },
    }
    return packs, stats
