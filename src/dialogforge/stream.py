"""Serialized token-stream view of a dialogue, with loss tags and attention masks.

Each round becomes a run of delimiter, text, and image-latent blocks:
``|im_s| .. |im_e|`` wraps a text span, ``|v_s| .. |v_e|`` wraps visual
content, and ``|end|`` closes an assistant turn. A generated image appears
twice: first as noised VAE latents (the diffusion target, MSE loss), then
replayed as clean ViT + VAE blocks so later turns have noise-free context to
condition on. Text the assistant produces, and the structural delimiters it
predicts, carry cross-entropy loss; everything on the user side carries none.

Attention over the stream is causal with two exceptions: positions inside one
noised block attend to each other bidirectionally (the latents of an image
are denoised jointly), and no position outside a noised block ever sees into
it, so history is always consumed through the clean replay.

Block sizes are unit *counts* only; no tokenizer vocabulary or latent tensors
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Any, Callable, Iterator

from .dialogue import Dialogue, Role, ValidationReport

__all__ = [
    "SpecialToken", "BlockKind", "LossTag", "TokenBlock", "TokenStream",
    "StreamConfig", "serialize", "validate_stream",
    "mask_intervals", "loss_summary",
    "LossSummary", "stream_to_record", "stream_from_record",
    "EmptyText", "UnitOverflow", "InvalidStream",
]


class EmptyText(ValueError):
    """A turn contributes no text where the grammar requires some."""


class UnitOverflow(ValueError):
    """An image's computed unit count exceeds the configured cap."""


class InvalidStream(ValueError):
    """Blocks that break the grammar or the tiling, or a round the grammar cannot express."""


class SpecialToken(Enum):
    IM_S = "|im_s|"
    IM_E = "|im_e|"
    V_S = "|v_s|"
    V_E = "|v_e|"
    END = "|end|"


class BlockKind(Enum):
    SPECIAL = "special"
    TEXT = "text"
    VIT = "vit"
    VAE_CLEAN = "vae_clean"
    VAE_NOISED = "vae_noised"


class LossTag(Enum):
    NONE = "none"
    CE = "ce"
    MSE = "mse"


# Kind -> record string, for the mask rows. Keyed by id() (members live as long
# as their class) because ``Enum.__hash__`` and ``.value`` are Python-level calls.
_VALUE = {id(m): m.value for m in BlockKind}


@dataclass(frozen=True)
class TokenBlock:
    kind: BlockKind
    units: int
    round_index: int
    role: Role
    loss: LossTag
    start: int
    end: int
    tok: SpecialToken | None = None
    image_id: str | None = None


@dataclass(frozen=True)
class TokenStream:
    dialogue_id: str
    blocks: tuple[TokenBlock, ...]
    total_len: int

    def __post_init__(self):
        object.__setattr__(self, "blocks", tuple(self.blocks))


def patch_grid_units(width: int, height: int, patch: int) -> int:
    return math.ceil(width / patch) * math.ceil(height / patch)


@dataclass(frozen=True)
class StreamConfig:
    """Encoder patch sizes and the per-image unit cap the trainer expects.

    A ``w x h`` image takes ``patch_grid_units(w, h, p)`` units in the ViT
    (``p = vit_patch``) and VAE (``p = vae_patch``) blocks; text takes one
    unit per whitespace-separated word.
    """

    vit_patch: int = 14
    vae_patch: int = 16
    max_image_units: int = 16384


_CLEAN_IMAGE = (
    (BlockKind.SPECIAL, SpecialToken.V_S, LossTag.NONE),
    (BlockKind.VIT, None, LossTag.NONE),
    (BlockKind.VAE_CLEAN, None, LossTag.NONE),
    (BlockKind.SPECIAL, SpecialToken.V_E, LossTag.NONE),
)

# The block grammar of docs/stream-format.md, written once: part -> (role, slots),
# one (kind, special token, loss) slot per block, and ``_NEXT`` below. ``serialize``
# emits parts from it, ``_parts`` matches streams against it (for
# ``validate_stream`` and ``stream_to_record``) and ``stream_from_record``
# rebuilds blocks from it, a round being
#   user_text upload? (noised replay text? | text) end
_PARTS: dict[str, tuple[Role, tuple]] = {
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

# Part -> the parts that may follow it, the last one being what the round
# requires when none of the others fits. A stream starts as if after an ``end``
# and must stop right after one.
_NEXT: dict[str, tuple[str, ...]] = {
    "end": ("user_text",),
    "user_text": ("upload", "noised", "text"),
    "upload": ("noised", "text"),
    "noised": ("replay",),
    "replay": ("text", "end"),
    "text": ("end",),
}

# Parts whose non-special blocks carry an image id -> whether the part names it
# (in the block after its |v_s|, and in its record entry); a replay reuses the
# id of the noised part that ``_NEXT`` puts before it. No other block has an id.
_IMAGE_PARTS = {"upload": True, "noised": True, "replay": False}


def serialize(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> TokenStream:
    """Flatten a dialogue into its block sequence, one ``_PARTS`` part at a time.

    Raises:
        EmptyText: a required text span is empty.
        UnitOverflow: an image exceeds the configured unit cap.
        InvalidStream: the grammar cannot express a round (a user turn with
            more than one image, an assistant turn that is not at most one
            image followed by text) or an image has no positive size.
    """
    blocks: list[TokenBlock] = []

    def units(kind: BlockKind, ri: int, texts: list[str], img) -> int:
        if kind is BlockKind.SPECIAL:
            return 1
        if kind is BlockKind.TEXT:
            n = len(" ".join(texts).split())
            if n < 1:
                raise EmptyText(f"dialogue {d.id!r}: round {ri} has an empty text span")
            return n
        where = f"dialogue {d.id!r}: image {img.id!r}"
        if img.width < 1 or img.height < 1:
            raise InvalidStream(f"{where} is {img.width}x{img.height}, not a positive size")
        n = patch_grid_units(img.width, img.height,
                             cfg.vit_patch if kind is BlockKind.VIT else cfg.vae_patch)
        if n > cfg.max_image_units:
            raise UnitOverflow(f"{where} needs {n} units, cap is {cfg.max_image_units}")
        return n

    def emit(part: str, ri: int, texts: list[str] | None = None, img=None) -> None:
        role, slots = _PARTS[part]
        for kind, tok, loss in slots:
            pos = blocks[-1].end if blocks else 0
            n = units(kind, ri, texts, img)
            image_id = img.id if img is not None and tok is None else None
            blocks.append(TokenBlock(kind, n, ri, role, loss, pos, pos + n, tok, image_id))

    for ri, rnd in enumerate(d.rounds):
        asst = rnd.assistant
        if (len(rnd.user.images()) > 1 or not asst.segments
                or any(s.is_image for s in asst.segments[1:])):
            raise InvalidStream(f"dialogue {d.id!r}: round {ri}: the grammar takes one upload at "
                                "most and an assistant turn of one image at most, then text")
        emit("user_text", ri, [s.text for s in rnd.user.segments if s.is_text])
        for img in rnd.user.images():
            emit("upload", ri, img=img)
        for img in asst.images():
            emit("noised", ri, img=img)
            emit("replay", ri, img=img)
        texts = [s.text for s in asst.segments if s.is_text]
        if texts:
            emit("text", ri, texts)
        emit("end", ri)
    return TokenStream(d.id, tuple(blocks), blocks[-1].end if blocks else 0)


def _tiling_faults(b: TokenBlock, pos: int) -> Iterator[tuple[str, str]]:
    """(rule, detail) for each way block ``b`` fails to span [pos, pos + units), units >= 1."""
    if b.units < 1:
        yield "unit-count", f"block has {b.units} units"
    if b.start != pos or b.end != b.start + b.units:
        yield "positions", f"block spans [{b.start}, {b.end}), expected start {pos}"


def _parts(s: TokenStream,
           fault: Callable[[str, str, int | None], None]) -> Iterator[tuple[str, int]]:
    """Match ``s`` against the grammar, yielding (part, index of its first block).

    Calls ``fault(rule, detail, block index)`` once per fault, tiling faults
    first; a block whose kind or token is not its slot's ends the walk there.
    """
    blocks = s.blocks
    pos = 0
    for i, b in enumerate(blocks):
        if b.start != pos or b.units < 1 or b.end != pos + b.units:
            for rule, detail in _tiling_faults(b, pos):
                fault(rule, detail, i)
        pos = b.end
        if b.kind is BlockKind.SPECIAL and b.units != 1:
            fault("unit-count", "special block must be one unit", i)
    if s.total_len != pos:
        fault("total-len", f"total_len {s.total_len} != position sum {pos}", None)
    if not blocks:
        fault("grammar", "stream has no blocks", None)

    def fits(part: str) -> bool:
        """Whether the next blocks have the part's kinds and tokens (roles and losses aside)."""
        slots = _PARTS[part][1]
        ahead = blocks[i:i + len(slots)]
        return len(ahead) == len(slots) and all(
            b.kind is kind and b.tok is tok for b, (kind, tok, _) in zip(ahead, slots))

    i, rnd, prev, image_id = 0, 0, "end", None
    while i < len(blocks) or prev != "end":
        *optional, part = _NEXT[prev]
        part = next((p for p in optional if fits(p)), part)
        role, slots = _PARTS[part]
        named = _IMAGE_PARTS.get(part)
        for j, (kind, tok, loss) in enumerate(slots, i):
            b = blocks[j] if j < len(blocks) else None
            if b is None or b.kind is not kind or b.tok is not tok:
                got = "end of stream" if b is None else (b.tok or b.kind).value
                fault("grammar", f"expected {(tok or kind).value}, got {got}", j)
                return
            if named and j == i + 1:
                image_id = b.image_id
                if type(image_id) is not str:
                    fault("image-id", f"image id {image_id!r} is not a string", j)
            want = image_id if named is not None and tok is None else None
            if b.image_id != want:
                fault("image-id", f"block has image id {b.image_id!r}, expected {want!r}", j)
            if b.role is role and b.round_index == rnd and b.loss is loss:
                continue
            what = f"{(tok or kind).value} of the {part} part"
            if b.role is not role:
                fault("roles", f"{what} must be a {role.value} block", j)
            if b.round_index != rnd:
                fault("round-index", f"{what} is in round {b.round_index}, expected {rnd}", j)
            if b.loss is not loss:
                fault("loss-tags", f"{what} must carry {loss.value!r}, got {b.loss.value!r}", j)
        yield part, i
        i += len(slots)
        rnd += part == "end"
        prev = part


def validate_stream(s: TokenStream) -> ValidationReport:
    """Grammar, contiguity, role, loss-tag and image-id checks; violations are data."""
    report = ValidationReport()
    for _ in _parts(s, report.add):
        pass
    return report


# --- Attention mask -----------------------------------------------------------
#
# visible(q, k) holds iff
#   (i)  q and k lie in the same noised block (bidirectional denoising), or
#   (ii) k == q (self-attention is always allowed), or
#   (iii) k < q and k is not inside any noised block.
# Noised history is thereby invisible: later positions read an image only
# through its clean replay.


def mask_intervals(s: TokenStream) -> list[dict[str, Any]]:
    """Run-length form of the mask: visible context intervals per query block.

    Every query in a block sees the same strictly-earlier context; within its
    own block attention is causal for ordinary blocks and bidirectional for
    noised ones. ``docs/stream-format.md`` documents the encoding.

    Raises:
        InvalidStream: the blocks do not tile [0, total_len).
    """
    rows = []
    context: list[list[int]] = []  # merged [start, end) intervals of non-noised history
    pos = 0
    for i, b in enumerate(s.blocks):
        fault = next(_tiling_faults(b, pos), None)
        if fault is not None:
            raise InvalidStream(f"dialogue {s.dialogue_id!r}: block {i}: {fault[1]}")
        pos = b.end
        rows.append({
            "block": i,
            "kind": _VALUE[id(b.kind)],
            "start": b.start,
            "end": b.end,
            # Only the last interval can still grow: rows share the closed ones
            # and take a copy of that one.
            "context": [*context[:-1], list(context[-1])] if context else [],
            "within": "bidirectional" if b.kind is BlockKind.VAE_NOISED else "causal",
        })
        if b.kind is not BlockKind.VAE_NOISED:
            if context and context[-1][1] == b.start:
                context[-1][1] = b.end
            else:
                context.append([b.start, b.end])
    if pos != s.total_len:
        raise InvalidStream(f"dialogue {s.dialogue_id!r}: "
                            f"total_len {s.total_len} != position sum {pos}")
    return rows


@dataclass(frozen=True)
class LossSummary:
    ce_positions: int
    mse_positions: int
    none_positions: int

    @property
    def total(self) -> int:
        return self.ce_positions + self.mse_positions + self.none_positions


def loss_summary(s: TokenStream) -> LossSummary:
    counts = {LossTag.CE: 0, LossTag.MSE: 0, LossTag.NONE: 0}
    for b in s.blocks:
        counts[b.loss] += b.units
    return LossSummary(counts[LossTag.CE], counts[LossTag.MSE], counts[LossTag.NONE])


# --- JSONL record schema -------------------------------------------------------
#
# A v2 record holds one entry per part: the part's code, the units of its
# non-special blocks in slot order, and the image id for a part that shows an
# image first (upload, noised). Everything else follows from _PARTS and _NEXT.

_VERSION = 2
_CODE = {"user_text": "u", "upload": "p", "noised": "n", "replay": "r", "text": "t", "end": "e"}
_PART_OF = {code: part for part, code in _CODE.items()}
_ENTRY_LEN = {part: 1 + sum(tok is None for _, tok, _ in slots) + _IMAGE_PARTS.get(part, False)
              for part, (_, slots) in _PARTS.items()}


def stream_to_record(s: TokenStream) -> dict[str, Any]:
    """The v2 record of ``s`` (``docs/stream-format.md``).

    Raises:
        InvalidStream: a fault ``validate_stream`` reports, so that the record
            would not rebuild ``s``.
    """
    def fault(rule: str, detail: str, where: int | None) -> None:
        raise InvalidStream(f"dialogue {s.dialogue_id!r}: block {where}: {rule}: {detail}")

    entries = []
    for part, i in _parts(s, fault):
        entry: list[Any] = [_CODE[part]]
        entry += [b.units for b in s.blocks[i:i + len(_PARTS[part][1])] if b.tok is None]
        if _IMAGE_PARTS.get(part):
            entry.append(s.blocks[i + 1].image_id)
        entries.append(entry)
    return {"v": _VERSION, "dialogue_id": s.dialogue_id, "total_len": s.total_len,
            "blocks": entries}


def stream_from_record(rec: Any) -> TokenStream:
    """Rebuild the stream of a v2 record, walking the grammar over its entries.

    Raises:
        KeyError: a key is missing.
        ValueError: the record is not v2 or does not rebuild a stream exactly:
            a dialogue_id that is not a string, an entry that is not a list,
            an unknown part code, a part the grammar does not allow there, an
            entry of the wrong length, units that are not a positive int, an
            image id that is not a string, a last round without its end, or a
            total_len other than the position sum.
    """
    version = rec.get("v") if type(rec) is dict else None
    if version != _VERSION or type(version) is not int:
        raise ValueError(f"not a v{_VERSION} stream record (v is {version!r}); "
                         "write it again with `dialogforge serialize`")
    sid, total, entries = rec["dialogue_id"], rec["total_len"], rec["blocks"]
    if type(sid) is not str:
        raise ValueError(f"stream dialogue_id must be a string, not {sid!r}")
    if type(entries) is not list or not entries:
        raise ValueError(f"stream {sid!r}: blocks is not a non-empty list of part entries")
    blocks: list[TokenBlock] = []
    pos = rnd = 0
    prev = "end"
    image_id = None
    for k, entry in enumerate(entries):
        if type(entry) is not list or not entry:
            raise ValueError(f"stream {sid!r}: blocks[{k}]: {entry!r} is not a [part, ...] list")
        code = entry[0]
        part = _PART_OF.get(code) if type(code) is str else None
        if part is None:
            raise ValueError(f"stream {sid!r}: blocks[{k}]: {code!r} is not a valid part code")
        if part not in _NEXT[prev]:
            after = "start a stream" if k == 0 else f"follow {_CODE[prev]!r}"
            raise ValueError(f"stream {sid!r}: blocks[{k}]: part {code!r} cannot {after}")
        if len(entry) != _ENTRY_LEN[part]:
            raise ValueError(f"stream {sid!r}: blocks[{k}]: a {code!r} entry has "
                             f"{_ENTRY_LEN[part]} items, not {len(entry)}")
        named = _IMAGE_PARTS.get(part)
        if named:
            image_id = entry[-1]
            if type(image_id) is not str:
                raise ValueError(f"stream {sid!r}: blocks[{k}]: image id {image_id!r} "
                                 "is not a string")
        role, slots = _PARTS[part]
        u = 1
        for kind, tok, loss in slots:
            if tok is not None:
                blocks.append(TokenBlock(kind, 1, rnd, role, loss, pos, pos + 1, tok))
                pos += 1
                continue
            n = entry[u]
            u += 1
            if type(n) is not int or n < 1:
                raise ValueError(f"stream {sid!r}: blocks[{k}]: units {n!r} "
                                 "are not a positive int")
            blocks.append(TokenBlock(kind, n, rnd, role, loss, pos, pos + n, None,
                                     image_id if named is not None else None))
            pos += n
        rnd += part == "end"
        prev = part
    if prev != "end":
        raise ValueError(f"stream {sid!r}: the last round has no 'e' entry")
    if type(total) is not int or total != pos:
        raise ValueError(f"stream {sid!r}: total_len {total!r} != position sum {pos}")
    return TokenStream(sid, tuple(blocks), total)
