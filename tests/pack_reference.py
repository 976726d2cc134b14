"""Best-fit-decreasing packs for tests: the plain scan the library's packer is held against.

``packing.pack_greedy`` keeps a sorted list of rooms and returns ``Pack``s.
``bfd_packs`` states the same rule literally: take samples longest first
(equal lengths in input order) and scan every open pack for the fullest one
that still holds the sample, the earliest on a tie, else open a new pack. It
costs O(n * packs) and returns the packs as index lists, in opening order.
"""


def bfd_packs(lengths: list[int], l_max: int) -> list[list[int]]:
    packs: list[list[int]] = []
    totals: list[int] = []
    for i in sorted(range(len(lengths)), key=lambda i: (-lengths[i], i)):
        best = None
        for p, total in enumerate(totals):
            if total + lengths[i] <= l_max and (best is None or total > totals[best]):
                best = p
        if best is None:
            packs.append([i])
            totals.append(lengths[i])
        else:
            packs[best].append(i)
            totals[best] += lengths[i]
    return packs
