"""The packer's rule written plainly: the oracle ``packing.pack_greedy`` is held against.

``pack_greedy`` keeps a sorted list of rooms and one id-keyed dict per pack,
runs each repair pass on a copy of them, and returns ``Pack``s. Here every step
scans lists: ``placed_packs`` is the placement phase alone, ``reference_packs``
adds the repair passes, and both return packs as lists of input indices in
opening order. The repair's settings are the library's constants, read at each
call.
"""

from dialogforge import packing


def place(order: list[int], packs: list[list[int]], ids: list[str], lengths: list[int],
          l_max: int) -> None:
    """Each sample of ``order`` into the fullest pack of ``packs`` that has room
    for it and no sample with its id, the earliest on a tie, else a new pack."""
    for i in order:
        best = None
        for p, pack in enumerate(packs):
            total = sum(lengths[j] for j in pack)
            if (total + lengths[i] <= l_max and all(ids[j] != ids[i] for j in pack)
                    and (best is None or total > best[0])):
                best = total, p
        if best is None:
            packs.append([i])
        else:
            packs[best[1]].append(i)


def placement_order(indices: list[int], ids: list[str], lengths: list[int]) -> list[int]:
    """Longest first; equal lengths by stream, streams in the order of their
    earliest draw among ``indices``, a stream's copies in draw order."""
    earliest: dict[tuple[str, int], int] = {}
    for i in sorted(indices):
        earliest.setdefault((ids[i], lengths[i]), i)
    return sorted(indices, key=lambda i: (-lengths[i], earliest[ids[i], lengths[i]], i))


def placed_packs(ids: list[str], lengths: list[int], l_max: int) -> list[list[int]]:
    packs: list[list[int]] = []
    place(placement_order(list(range(len(lengths))), ids, lengths), packs, ids, lengths, l_max)
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
        place(placement_order(pool, ids, lengths), trial, ids, lengths, l_max)
        if len(trial) < len(packs):
            packs, fails = trial, 0
        else:
            fails += 1
    return packs
