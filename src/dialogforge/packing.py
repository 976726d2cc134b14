"""Weighted category sampling and sequence packing with no sample twice in a pack.

Draws are seeded and sequential, so a (config, corpora, n, seed) tuple pins
the output bytes. Samples are whole and never truncated. ``pack_greedy``
fills one pack at a time, never with two samples of one id: first a copy of
each stream that needs one in every pack left, then the copies that leave the
pack's room usable. It then repairs the emptiest packs with exact subset sums
until the pack count reaches ``ceil(sum of lengths / l_max)``, stops gaining
or spends its work budget. Packs that end light are flagged underfull.
``pack_corpus`` packs the draws and writes the packs in a seeded order so the
pack file carries no length curriculum."""

from __future__ import annotations

import bisect
import collections
import heapq
import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Any, Iterable, Mapping, Sequence, TypeVar

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


# The repair's settings. Pass k pools the packs at most half full, or the
# REPAIR_POOL_SIZES[k % 4] emptiest packs if that is more, and visits the
# REPAIR_VISITS packs with most room after those. Each pooled draw and each
# subset-sum candidate costs max(l_max + 1, 2**16) of REPAIR_BUDGET: the width
# of a candidate's bitset, or at short l_max about the interpreter's work per
# candidate. No pass or sum starts once the budget is spent, and a visit whose
# sum would hold more than REPAIR_SUM_BITS bits of bitsets is skipped (8 MB).
REPAIR_POOL_SIZES = (6, 10, 3, 14)
REPAIR_VISITS = 100
REPAIR_BUDGET = 50_000 << 16  # 50,000 candidates and pooled draws at the default l_max
REPAIR_SUM_BITS = 1024 << 16


def pack_greedy(samples: Sequence[tuple[str, int]], l_min: int, l_max: int) -> list[Pack]:
    """Packs of ``samples`` in which no id appears twice, in the order they opened.

    Two phases, both deterministic. *Placement* fills one pack at a time, as
    ``_Packs.fill`` says, never with a sample whose id the pack holds. A pack
    first takes a sample of each stream (an id at a length) with at least as
    many samples left as the packs the samples left would fill. Then, with
    room r, it takes a sample of length r, else the longest that leaves room
    for the shortest sample it could still take, else the longest that fits;
    equal lengths go to the stream with most samples left, the one first in
    the input on a tie. So a stream drawn m times lands in m packs, spread
    over the run rather than left to the last packs.

    *Repair* then takes passes, while there are more packs than ``ceil(sum of
    lengths / l_max)``, until a cycle of ``REPAIR_POOL_SIZES`` passes gains
    nothing or ``REPAIR_BUDGET`` is spent. A pass pools the samples of the
    emptiest packs (``_Packs.repair`` says which), lets each visited pack take
    the fullest subset of its own samples and the pool's that fits ``l_max``
    with no id twice, places the rest of the pool by the placement rule (into
    the live packs that have room, fullest first, then new ones), and is kept
    only if it closed a pack.

    A pack lists its samples in the order they joined it. Packs keep their
    opening order; a kept pass drops the pooled packs and appends any it
    opened. Every sample is checked before any is placed, so an error names
    the first bad sample in input order.

    Raises:
        SampleTooLong: a sample longer than l_max can never be packed.
        ValueError: bad bounds or a non-positive length.
    """
    if l_min > l_max:
        raise ValueError(f"l_min {l_min} exceeds l_max {l_max}")
    for sid, length in samples:
        if length > l_max:
            raise SampleTooLong(f"sample {sid!r} has length {length} > l_max {l_max}")
        if length < 1:
            raise ValueError(f"sample {sid!r} has non-positive length {length}")
    lengths = [length for _, length in samples]
    state = _Packs([sid for sid, _ in samples], lengths, l_max)
    state.fill(range(len(lengths)))
    state.repair()
    packs = []
    for pack in filter(None, state.packs):
        ids, lens = zip(*(samples[i] for i in pack.values()))
        total = sum(lens)
        packs.append(Pack(f"pack-{len(packs):05d}", ids, lens, total, total < l_min))
    return packs


class _Packs:
    """``pack_greedy``'s packs, numbered in opening order.

    ``packs[q]`` maps each draw in pack q to its draw index by the draw's id, in
    the order the draws joined; a pack holds no id twice, so the id is a key,
    and a pack that is gone is empty. ``rooms`` holds ``(room left, q)`` for
    every live pack, ascending. ``owned`` holds the packs whose dicts may change
    in place: a repair pass shares the others with the packs it may go back to.
    """

    def __init__(self, ids: list[str], lengths: list[int], l_max: int):
        self.ids, self.lengths, self.l_max = ids, lengths, l_max
        self.packs: list[dict[str, int]] = []
        self.rooms: list[tuple[int, int]] = []
        self.owned: set[int] = set()

    def fill(self, draws: Iterable[int]) -> None:
        """Place ``draws``, filling one pack at a time: first the live packs that
        have room for the shortest draw, fullest first (the earliest opened on
        a tie), then new packs.

        A stream is an id at a length. A pack first takes one copy of each
        stream that has at least as many copies left as the packs its draws
        left would fill (``ceil(length left / l_max)``), if it fits and the pack
        lacks its id, most copies first: such a stream needs a copy in every
        pack from here on. Then, while it can, the pack with room r takes one
        copy of a stream whose id it lacks: of length r if there is one; else
        of the longest length that still leaves room for the shortest such
        copy; else of the longest length that fits. Among equal lengths it
        takes the stream with most copies left. Ties go to the stream drawn
        first, and a stream's copies go in draw order.
        """
        packs, rooms, owned, l_max = self.packs, self.rooms, self.owned, self.l_max
        streams: dict[tuple[str, int], list[int]] = {}  # a stream's copies left, the last first
        for i in sorted(draws, reverse=True):
            streams.setdefault((self.ids[i], self.lengths[i]), []).append(i)
        copies = {c[-1]: c for c in streams.values()}  # the same lists by first draw
        tokens = sum(length * len(c) for (_, length), c in streams.items())  # left to place
        # length -> a heap of (-copies left, first draw, id) of its streams with copies left
        heaps: dict[int, list[tuple[int, int, str]]] = {}
        for (sid, length), c in streams.items():
            heaps.setdefault(length, []).append((-len(c), c[-1], sid))
        for heap in heaps.values():
            heapq.heapify(heap)
        lengths = sorted(heaps)  # the lengths whose heaps are not empty
        # (-copies, first draw, id, length) of every stream, the copies as last counted
        most = [(-len(c), c[-1], sid, length) for (sid, length), c in streams.items()]
        heapq.heapify(most)
        pack: dict[str, int] = {}
        held: list[tuple[int, tuple[int, int, str]]] = []  # set aside: the pack holds their id

        def top(length: int) -> tuple[int, int, str] | None:
            """The stream of ``length`` the pack would take, setting aside those
            whose id it holds; a heap left empty drops its length."""
            heap = heaps[length]
            while heap and heap[0][2] in pack:
                held.append((length, heapq.heappop(heap)))
            if heap:
                return heap[0]
            del lengths[bisect.bisect_left(lengths, length)]
            return None

        def longest(hi: int) -> int | None:
            """The longest of ``lengths[:hi]`` with a stream the pack may take."""
            while hi:
                hi -= 1
                length = lengths[hi]
                if heaps[length][0][2] not in pack or top(length):
                    return length
            return None

        def take(length: int, k: int) -> None:
            """Move the next copy of the stream at ``heaps[length][k]`` into pack q."""
            nonlocal pack, room, tokens
            if q not in owned:
                pack = packs[q] = dict(pack)
                owned.add(q)
            heap = heaps[length]
            _, first, sid = heap[k]
            stream = copies[first]
            pack[sid] = stream.pop()
            room -= length
            tokens -= length
            if k:  # out of the middle of the heap
                if stream:
                    heap[k] = (-len(stream), first, sid)
                else:
                    heap[k] = heap[-1]
                    heap.pop()
                heapq.heapify(heap)
            elif stream:
                heapq.heapreplace(heap, (-len(stream), first, sid))
            else:
                heapq.heappop(heap)
            if not heap:
                del lengths[bisect.bisect_left(lengths, length)]

        reopen = iter(rooms[bisect.bisect_left(rooms, (lengths[0],)):] if lengths else ())
        while lengths:
            room, q = next(reopen, (l_max, len(packs)))
            if q == len(packs):
                packs.append({})
                owned.add(q)
            else:
                del rooms[bisect.bisect_left(rooms, (room, q))]
            pack = packs[q]
            due = -(-tokens // l_max)  # the packs the draws left would fill
            urgent = []
            while most and -most[0][0] >= due:
                n, first, sid, length = heapq.heappop(most)
                if len(copies[first]) == -n:
                    urgent.append((n, first, sid, length))
                elif copies[first]:
                    heapq.heappush(most, (-len(copies[first]), first, sid, length))
            for n, first, sid, length in urgent:
                if sid not in pack and length <= room:
                    take(length, heaps[length].index((n, first, sid)))
                if copies[first]:
                    heapq.heappush(most, (-len(copies[first]), first, sid, length))
            while lengths:
                short = lengths[0]  # the shortest the pack may take, once its top is checked
                if heaps[short][0][2] in pack and not top(short):
                    continue
                if short > room:
                    break
                exact = heaps.get(room)
                if exact and (exact[0][2] not in pack or top(room)):
                    take(room, 0)
                    continue
                length = (longest(bisect.bisect_right(lengths, room - short))
                          or longest(bisect.bisect_right(lengths, room)))
                if length is None:
                    break
                take(length, 0)
            for length, entry in held:
                if not heaps[length]:
                    bisect.insort(lengths, length)
                heapq.heappush(heaps[length], entry)
            held.clear()
            bisect.insort(rooms, (room, q))

    def repair(self) -> None:
        """Repair passes, as ``pack_greedy`` says, each run on a copy of the list
        of packs and of ``rooms`` that replaces them only if it closed a pack.
        The copy shares each pack's dict until the pass changes that pack.

        Pass k ranks the live packs by room, most first, the later opened first
        on a tie. It pools the samples of the first ``max(REPAIR_POOL_SIZES[k %
        len(REPAIR_POOL_SIZES)], packs at most half full)`` packs, in rank and
        then pack order, and visits the next ``REPAIR_VISITS`` in rank order.
        A pass that would pool every pack is skipped as one without gain: it
        would only place every draw again. A visited pack's candidates are its
        own samples, then the first pool sample of each id it lacks. It takes
        ``_fullest`` of them if that is fuller than it is, and its samples left
        out join the end of the pool. Then ``fill`` places the rest of the pool.
        """
        ids, lengths, l_max = self.ids, self.lengths, self.l_max
        bound = -(-sum(lengths) // l_max)
        unit = max(l_max + 1, 1 << 16)
        spent = fails = passes = 0
        while len(self.rooms) > bound and fails < len(REPAIR_POOL_SIZES) and spent < REPAIR_BUDGET:
            size = REPAIR_POOL_SIZES[passes % len(REPAIR_POOL_SIZES)]
            passes += 1
            before = len(self.rooms)
            half_full = before - bisect.bisect_left(self.rooms, (l_max - l_max // 2,))
            cut = before - min(before, max(size, half_full))
            if cut == 0:  # pooling every pack places all draws again, as placement did
                fails += 1
                continue
            kept = self.packs, self.rooms
            packs = self.packs = list(self.packs)
            rooms = self.rooms = list(self.rooms)
            self.owned = set()
            # id -> its pooled draws as (place in the pool order, draw), in order
            pool: dict[str, collections.deque[tuple[int, int]]] = {}
            order = itertools.count()

            def join(i: int) -> None:
                pool.setdefault(ids[i], collections.deque()).append((next(order), i))

            for _, q in reversed(rooms[cut:]):
                spent += len(packs[q]) * unit
                for i in packs[q].values():
                    join(i)
                packs[q] = {}
            visits = rooms[max(0, cut - REPAIR_VISITS):cut]
            del rooms[cut:]
            for room, q in reversed(visits):
                if not pool or not room or spent >= REPAIR_BUDGET:
                    break
                own = list(packs[q].values())
                firsts = sorted(draws[0] for sid, draws in pool.items() if sid not in packs[q])
                items = own + [i for _, i in firsts]
                if len(items) * (l_max + 1) > REPAIR_SUM_BITS:
                    continue
                spent += len(items) * unit
                best, chosen = _fullest([lengths[i] for i in items], l_max)
                if best > l_max - room:
                    for j in chosen[bisect.bisect_left(chosen, len(own)):]:
                        draws = pool[ids[items[j]]]
                        draws.popleft()
                        if not draws:
                            del pool[ids[items[j]]]
                    taken = set(chosen)
                    for j, i in enumerate(own):
                        if j not in taken:
                            join(i)
                    packs[q] = {ids[items[j]]: items[j] for j in chosen}
                    self.owned.add(q)
                    del rooms[bisect.bisect_left(rooms, (room, q))]
                    bisect.insort(rooms, (l_max - best, q))
            self.fill([i for draws in pool.values() for _, i in draws])
            if len(rooms) < before:
                fails = 0
            else:
                fails += 1
                self.packs, self.rooms = kept


def _fullest(lengths: list[int], cap: int) -> tuple[int, list[int]]:
    """The largest subset sum of ``lengths`` that is at most ``cap``, and the
    ascending indices of one subset with it.

    An exact subset sum over bitsets, where bit s says some subset sums to s.
    Walking back from the last length, a length is taken only when the sum
    still wanted is out of reach without it. A run of equal adjacent lengths
    is added at once, and the walk takes the first m of a run, m the fewest
    copies that leave the wanted sum within reach of the runs before it: what
    the walk over single lengths would take.
    """
    mask = (1 << cap + 1) - 1
    runs: list[tuple[int, int, int]] = []  # (first index, length, copies)
    for j, length in enumerate(lengths):
        if runs and runs[-1][1] == length:
            runs[-1] = (runs[-1][0], length, runs[-1][2] + 1)
        else:
            runs.append((j, length, 1))
    reach = [1]  # reach[k]: the sums of subsets of the first k runs
    for _, length, copies in runs:
        bits, step = reach[-1], 1
        while copies:  # 1, 2, 4, ... copies at a time make every count up to copies
            step = min(step, copies)
            bits |= (bits << step * length) & mask
            copies -= step
            step *= 2
        reach.append(bits)
        if bits >> cap:  # cap itself is reached; later runs are never taken
            break
    best = want = reach[-1].bit_length() - 1
    chosen: list[int] = []
    for k in range(len(reach) - 2, -1, -1):
        first, length, _ = runs[k]
        m = 0
        while not reach[k] >> want - m * length & 1:
            m += 1
        chosen[:0] = range(first, first + m)
        want -= m * length
    return best, chosen


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
        "lower_bound": -(-token_total // l_max),
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
