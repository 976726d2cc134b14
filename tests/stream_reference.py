"""Block-level oracle for streams, for tests.

The library holds a stream as one entry per grammar part, so its kinds,
tokens, roles, losses, rounds and positions cannot be wrong; it only derives
them, in ``TokenStream.blocks``. ``block_faults`` checks such derived blocks
against the block grammar of ``docs/stream-format.md``, written out here
again rather than read from ``dialogforge.stream``, so that a slip in the
library's grammar table or in the derivation shows.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from dialogforge.stream import BlockKind, LossTag, Role, SpecialToken, TokenBlock

_CLEAN_IMAGE = (
    (BlockKind.SPECIAL, SpecialToken.V_S, LossTag.NONE),
    (BlockKind.VIT, None, LossTag.NONE),
    (BlockKind.VAE_CLEAN, None, LossTag.NONE),
    (BlockKind.SPECIAL, SpecialToken.V_E, LossTag.NONE),
)

# part -> (role, one (kind, special token, loss) per block), as in the docs' table
GRAMMAR = {
    "user_text": (Role.USER, ((BlockKind.SPECIAL, SpecialToken.IM_S, LossTag.NONE),
                              (BlockKind.TEXT, None, LossTag.NONE),
                              (BlockKind.SPECIAL, SpecialToken.IM_E, LossTag.NONE))),
    "upload": (Role.USER, _CLEAN_IMAGE),
    "noised": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.V_S, LossTag.CE),
                                (BlockKind.VAE_NOISED, None, LossTag.MSE),
                                (BlockKind.SPECIAL, SpecialToken.V_E, LossTag.CE))),
    "replay": (Role.ASSISTANT, _CLEAN_IMAGE),
    "text": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.IM_S, LossTag.CE),
                              (BlockKind.TEXT, None, LossTag.CE),
                              (BlockKind.SPECIAL, SpecialToken.IM_E, LossTag.CE))),
    "end": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.END, LossTag.CE),)),
}

# round = user_text upload? (noised replay text? | text) end: part -> the parts
# that may follow it, the last one being required when none of the others fits
FOLLOWS = {
    "end": ("user_text",),
    "user_text": ("upload", "noised", "text"),
    "upload": ("noised", "text"),
    "noised": ("replay",),
    "replay": ("text", "end"),
    "text": ("end",),
}

# parts whose non-special blocks carry an image id -> whether the part names it
# (a replay shows the image of the noised part before it)
IMAGE_PARTS = {"upload": True, "noised": True, "replay": False}


def _tiling_faults(b: TokenBlock, pos: int) -> Iterator[tuple[str, str]]:
    if b.units < 1:
        yield "unit-count", f"block has {b.units} units"
    if b.start != pos or b.end != b.start + b.units:
        yield "positions", f"block spans [{b.start}, {b.end}), expected start {pos}"


def block_faults(blocks: Sequence[TokenBlock], total_len: int) -> list[tuple[str, str, int | None]]:
    """Every fault of ``blocks`` as (rule, detail, block index), tiling faults first.

    Rules: ``unit-count``, ``positions`` and ``total-len`` for blocks that do
    not tile [0, total_len) with at least one unit each (a special block with
    exactly one); ``grammar`` for a block whose kind or token is not its slot's,
    which ends the walk there; ``image-id``, ``roles``, ``round-index`` and
    ``loss-tags`` for a block that fits its slot otherwise.
    """
    faults: list[tuple[str, str, int | None]] = []
    pos = 0
    for i, b in enumerate(blocks):
        faults += [(rule, detail, i) for rule, detail in _tiling_faults(b, pos)]
        pos = b.end
        if b.kind is BlockKind.SPECIAL and b.units != 1:
            faults.append(("unit-count", "special block must be one unit", i))
    if total_len != pos:
        faults.append(("total-len", f"total_len {total_len} != position sum {pos}", None))
    if not blocks:
        faults.append(("grammar", "stream has no blocks", None))

    def fits(part: str) -> bool:
        slots = GRAMMAR[part][1]
        ahead = blocks[i:i + len(slots)]
        return len(ahead) == len(slots) and all(
            b.kind is kind and b.tok is tok for b, (kind, tok, _) in zip(ahead, slots))

    i, rnd, prev, image_id = 0, 0, "end", None
    while i < len(blocks) or prev != "end":
        *optional, part = FOLLOWS[prev]
        part = next((p for p in optional if fits(p)), part)
        role, slots = GRAMMAR[part]
        named = IMAGE_PARTS.get(part)
        for j, (kind, tok, loss) in enumerate(slots, i):
            b = blocks[j] if j < len(blocks) else None
            if b is None or b.kind is not kind or b.tok is not tok:
                got = "end of stream" if b is None else (b.tok or b.kind).value
                faults.append(("grammar", f"expected {(tok or kind).value}, got {got}", j))
                return faults
            if named and j == i + 1:
                image_id = b.image_id
                if type(image_id) is not str:
                    faults.append(("image-id", f"image id {image_id!r} is not a string", j))
            want = image_id if named is not None and tok is None else None
            if b.image_id != want:
                faults.append(("image-id", f"block has image id {b.image_id!r}, expected {want!r}", j))
            what = f"{(tok or kind).value} of the {part} part"
            if b.role is not role:
                faults.append(("roles", f"{what} must be a {role.value} block", j))
            if b.round_index != rnd:
                faults.append(("round-index", f"{what} is in round {b.round_index}, expected {rnd}", j))
            if b.loss is not loss:
                faults.append(("loss-tags", f"{what} must carry {loss.value!r}, got {b.loss.value!r}", j))
        i += len(slots)
        rnd += part == "end"
        prev = part
    return faults
