"""The packer's rule written plainly: the oracle ``packing.pack_greedy`` is held against.

``pack_greedy`` keeps a sorted list of rooms and one id-keyed dict per pack,
runs each repair pass on a copy of them, and returns ``Pack``s. Here every step
scans lists: ``placed_packs`` is the placement phase alone, ``reference_packs``
adds the repair passes, and both return packs as lists of input indices in
opening order. The repair's settings are the library's constants, read at each
call.
"""

import collections
import itertools

from dialogforge import packing


def fill(draws: list[int], packs: list[list[int]], ids: list[str], lengths: list[int],
         l_max: int) -> None:
    """Place ``draws``: the packs of ``packs``, fullest first (the earliest on a
    tie), then new packs, each filled in turn. A stream is an id at a length.
    A pack first takes a copy of each stream with at least as many copies left
    as ``ceil(length left / l_max)``, if it fits and the pack lacks the id, most
    copies first. Then, while it can, a copy of a stream whose id it lacks: of
    length equal to its room; else of the longest length that leaves room for
    the shortest such copy; else of the longest that fits; among equal lengths,
    of the stream with most copies left. Ties go to the stream drawn first, and
    a stream's copies go in draw order."""
    left = sorted(draws)
    first = {}  # stream -> its first draw
    for i in left:
        first.setdefault((ids[i], lengths[i]), i)

    def copies(stream: tuple[str, int]) -> int:
        return sum(1 for j in left if (ids[j], lengths[j]) == stream)

    order = sorted(range(len(packs)), key=lambda p: (l_max - sum(lengths[i] for i in packs[p]), p))
    for p in itertools.chain(order, itertools.count(len(packs))):
        if not left:
            break
        if p == len(packs):
            packs.append([])
        pack = packs[p]

        def room() -> int:
            return l_max - sum(lengths[i] for i in pack)

        def put(stream: tuple[str, int]) -> None:
            i = min(j for j in left if (ids[j], lengths[j]) == stream)
            pack.append(i)
            left.remove(i)

        due = -(-sum(lengths[i] for i in left) // l_max)
        counts = collections.Counter((ids[i], lengths[i]) for i in left)
        for stream in sorted((s for s, n in counts.items() if n >= due),
                             key=lambda s: (-counts[s], first[s])):
            if all(ids[j] != stream[0] for j in pack) and stream[1] <= room():
                put(stream)
        while True:
            held, r = {ids[j] for j in pack}, room()
            lacked = [i for i in left if ids[i] not in held]
            fits = [i for i in lacked if lengths[i] <= r]
            if not fits:
                break
            shortest = min(lengths[i] for i in lacked)
            choice = ([i for i in fits if lengths[i] == r]
                      or [i for i in fits if lengths[i] <= r - shortest] or fits)
            length = max(lengths[i] for i in choice)
            put(min({(ids[i], length) for i in choice if lengths[i] == length},
                    key=lambda s: (-copies(s), first[s])))


def placed_packs(ids: list[str], lengths: list[int], l_max: int) -> list[list[int]]:
    packs: list[list[int]] = []
    fill(list(range(len(lengths))), packs, ids, lengths, l_max)
    return packs


def fullest(lengths: list[int], cap: int) -> tuple[int, list[int]]:
    """The largest subset sum at most ``cap``; walking back from the last
    length, a length is taken only if the sum still wanted needs it."""
    reach = [{0}]  # reach[j]: the sums of the subsets of lengths[:j]
    for n in lengths:
        reach.append(reach[-1] | {s + n for s in reach[-1] if s + n <= cap})
    best = want = max(reach[-1])
    chosen = []
    for j in reversed(range(len(lengths))):
        if want not in reach[j]:
            chosen.append(j)
            want -= lengths[j]
    return best, sorted(chosen)


def reference_packs(ids: list[str], lengths: list[int], l_max: int) -> list[list[int]]:
    packs = placed_packs(ids, lengths, l_max)
    bound = -(-sum(lengths) // l_max)

    def total(pack: list[int]) -> int:
        return sum(lengths[i] for i in pack)

    sizes, visits, budget = packing.REPAIR_POOL_SIZES, packing.REPAIR_VISITS, packing.REPAIR_BUDGET
    unit = max(l_max + 1, 1 << 16)
    spent = fails = passes = 0
    while len(packs) > bound and fails < len(sizes) and spent < budget:
        size = sizes[passes % len(sizes)]
        passes += 1
        # most room first, the later pack first on a tie
        ranked = sorted(range(len(packs)), key=lambda p: (l_max - total(packs[p]), p),
                        reverse=True)
        half_full = sum(1 for pack in packs if 2 * total(pack) <= l_max)
        pooled = ranked[:max(size, half_full)]
        if len(pooled) == len(packs):  # placement again, at no cost, and no gain
            fails += 1
            continue
        pool = [i for p in pooled for i in packs[p]]
        spent += len(pool) * unit
        trial = [list(pack) for pack in packs]
        for p in ranked[len(pooled):len(pooled) + visits]:
            if not pool or total(trial[p]) == l_max or spent >= budget:
                break
            items = list(trial[p])
            for i in pool:
                if all(ids[i] != ids[j] for j in items):
                    items.append(i)
            if len(items) * (l_max + 1) > packing.REPAIR_SUM_BITS:
                continue
            spent += len(items) * unit
            best, chosen = fullest([lengths[i] for i in items], l_max)
            if best > total(trial[p]):
                take = [items[j] for j in chosen]
                pool = [i for i in pool + trial[p] if i not in take]
                trial[p] = take
        trial = [pack for p, pack in enumerate(trial) if p not in pooled]
        fill(pool, trial, ids, lengths, l_max)
        if len(trial) < len(packs):
            packs, fails = trial, 0
        else:
            fails += 1
    return packs
