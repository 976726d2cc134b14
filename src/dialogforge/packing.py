"""Weighted category sampling and best-fit-decreasing sequence packing.

Draws are seeded and sequential, so a (config, corpora, n, seed) tuple pins
the output bytes. Samples are whole and never truncated. ``best_fit_order``
plans best-fit-decreasing (BFD) packs: longest sample first, each into the
open pack with the least room that still holds it. ``pack_greedy`` (next-fit)
then builds exactly those packs from that order, flagging any that close
light as underfull, and ``pack_corpus`` writes them in a seeded order so the
pack file carries no length curriculum.
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
    """Next-fit in input order: only the open pack is tried, closed packs never reopen.

    Raises:
        SampleTooLong: a sample longer than l_max can never be packed.
        ValueError: bad bounds or a non-positive length.
    """
    if l_min > l_max:
        raise ValueError(f"l_min {l_min} exceeds l_max {l_max}")
    packs: list[Pack] = []
    ids: list[str] = []
    lens: list[int] = []
    total = 0

    def close():
        nonlocal ids, lens, total
        if ids:
            packs.append(Pack(
                pack_id=f"pack-{len(packs):05d}",
                sample_ids=tuple(ids),
                lengths=tuple(lens),
                total=total,
                underfull=total < l_min,
            ))
            ids, lens, total = [], [], 0

    for sid, length in samples:
        if length > l_max:
            raise SampleTooLong(f"sample {sid!r} has length {length} > l_max {l_max}")
        if length < 1:
            raise ValueError(f"sample {sid!r} has non-positive length {length}")
        if total + length > l_max:
            close()
        ids.append(sid)
        lens.append(length)
        total += length
    close()
    return packs


def best_fit_order(lengths: Sequence[int], l_max: int) -> list[int]:
    """Best-fit-decreasing plan: sample indices grouped pack by pack, packs in opening order.

    Samples are taken longest first, equal lengths in input order. Each goes
    into the open pack with the least room that still holds it, the earliest
    such pack on a tie, or opens a new one. Next-fit over the returned order
    closes exactly these packs: a pack's first sample fitted no earlier pack
    when it was placed, and rooms only shrink after that.
    """
    rooms: list[tuple[int, int]] = []  # (room left, pack number), ascending
    packs: list[list[int]] = []
    for i in sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True):
        length = lengths[i]
        at = bisect.bisect_left(rooms, (length,))
        if at < len(rooms):
            room, number = rooms.pop(at)
        else:
            room, number = l_max, len(packs)
            packs.append([])
        packs[number].append(i)
        bisect.insort(rooms, (room - length, number))
    return [i for pack in packs for i in pack]


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
    """Seeded draws packed best-fit-decreasing, in a seeded pack order, plus run stats.

    ``pack_greedy`` runs over the draws in ``best_fit_order``, so it builds the
    BFD packs. They open longest sample first; shuffling them with an rng
    derived from ``seed`` (apart from the draw rng) keeps any prefix of the
    pack file a fair sample of the weights. ``pack_id``s follow file order.
    """
    draws = sample_stream(cfg, corpora, n_draws, seed)
    items = [(sid, length) for _, (sid, length) in draws]
    order = best_fit_order([length for _, length in items], l_max)
    packs = pack_greedy([items[i] for i in order], l_min, l_max)
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
