"""Serialized token-stream view of a dialogue, with loss tags and attention masks.

Each round becomes a run of delimiter, text, and image-latent blocks:
``|im_s| .. |im_e|`` wraps a text span, ``|v_s| .. |v_e|`` wraps visual
content, and ``|end|`` closes an assistant turn. A generated image appears
twice: first as noised VAE latents (the diffusion target, MSE loss), then
replayed as clean ViT + VAE blocks so later turns have noise-free context to
condition on. Text the assistant produces, and the structural delimiters it
predicts, carry cross-entropy loss; everything on the user side carries none.

A ``TokenStream`` holds one ``(part, units, image_id)`` entry per part of the
block grammar (``_PARTS``), the content of its v2 record. Kinds, tokens,
roles, losses, rounds and positions follow from the grammar, so a stream of
parts cannot get them wrong; ``TokenStream.blocks`` derives the blocks when a
caller wants them one by one.

Attention over the stream is causal with two exceptions: positions inside one
noised block attend to each other bidirectionally (the latents of an image
are denoised jointly), and no position outside a noised block ever sees into
it, so history is always consumed through the clean replay.
``mask_intervals`` writes a stream's run-length mask record as a JSONL line,
in one walk over the parts.

Block sizes are unit *counts* only; no tokenizer vocabulary or latent tensors
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from .io import dumps

if TYPE_CHECKING:
    from .dialogue import Dialogue, ValidationReport

__all__ = [
    "Role", "SpecialToken", "BlockKind", "LossTag", "TokenBlock", "TokenStream",
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
    """Parts that break the grammar, or a round the grammar cannot express."""


class Role(Enum):  # the slot a turn fills in its round; the grammar labels each part with it
    USER = "user"
    ASSISTANT = "assistant"


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


# (part, units of its non-special blocks in slot order, image id or None)
Part = tuple[str, tuple[int, ...], str | None]


@dataclass(frozen=True)
class TokenStream:
    """A serialized dialogue as one ``(part, units, image_id)`` per grammar part.

    ``part`` is a ``_PARTS`` key, ``units`` are the units of the part's
    non-special blocks in slot order, and ``image_id`` names the image of an
    ``upload`` or ``noised`` part; it is ``None`` on every other part (a
    ``replay`` shows the image of the ``noised`` part before it).
    ``validate_stream`` checks a stream built by hand.
    """

    dialogue_id: str
    parts: tuple[Part, ...]
    total_len: int

    @cached_property
    def blocks(self) -> tuple[TokenBlock, ...]:
        """The blocks the parts stand for, rebuilt from the grammar on first access.

        Assumes a stream that ``validate_stream`` passes.
        """
        blocks = []
        pos = rnd = 0
        image_id = None
        for part, units, part_image in self.parts:
            role = _PARTS[part][0]
            named = _IMAGE_PARTS.get(part)
            if named:
                image_id = part_image
            for kind, tok, loss, u in _SLOTS[part]:
                n = 1 if u is None else units[u]
                blocks.append(TokenBlock(kind, n, rnd, role, loss, pos, pos + n, tok,
                                         image_id if named is not None and u is not None else None))
                pos += n
            rnd += part == "end"
        return tuple(blocks)


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
# one (kind, special token, loss) slot per block, and ``_NEXT`` below, a round being
#   user_text upload? (noised replay text? | text) end
# ``serialize`` emits a round's parts in that order, ``_walk`` matches record
# entries against it (for ``stream_from_record``, ``validate_stream`` and
# ``stream_to_record``), and ``TokenStream.blocks``, ``mask_intervals`` and
# ``loss_summary`` expand parts into blocks through ``_SLOTS``.
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
# (as its image_id, and in its record entry); a replay reuses the id of the
# noised part that ``_NEXT`` puts before it. No other block has an id.
_IMAGE_PARTS = {"upload": True, "noised": True, "replay": False}

# Part -> per block (kind, token, loss, index of its units in the part's units,
# None for a special block, which takes one unit).
_SLOTS = {part: tuple((kind, tok, loss, None if tok else sum(t is None for _, t, _ in slots[:j]))
                      for j, (kind, tok, loss) in enumerate(slots))
          for part, (_, slots) in _PARTS.items()}
# Part -> the units its special blocks take.
_SPECIALS = {part: sum(u is None for *_, u in slots) for part, slots in _SLOTS.items()}


def serialize(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> TokenStream:
    """Flatten a dialogue into its parts, one ``_PARTS`` part at a time.

    Raises:
        EmptyText: a required text span is empty.
        UnitOverflow: an image exceeds the configured unit cap.
        InvalidStream: the grammar cannot express a round (a user turn with
            more than one image, an assistant turn that is not at most one
            image followed by text) or an image has no positive size.
    """
    parts: list[Part] = []

    def text(ri: int, texts: list[str]) -> int:
        n = len(" ".join(texts).split())
        if n < 1:
            raise EmptyText(f"dialogue {d.id!r}: round {ri} has an empty text span")
        return n

    def image(img, patch: int) -> int:
        where = f"dialogue {d.id!r}: image {img.id!r}"
        if img.width < 1 or img.height < 1:
            raise InvalidStream(f"{where} is {img.width}x{img.height}, not a positive size")
        n = patch_grid_units(img.width, img.height, patch)
        if n > cfg.max_image_units:
            raise UnitOverflow(f"{where} needs {n} units, cap is {cfg.max_image_units}")
        return n

    # Units go in the slot order of _PARTS: text; vit then vae for an image.
    for ri, rnd in enumerate(d.rounds):
        uploads, asst = rnd.user.images(), rnd.assistant
        if (len(uploads) > 1 or not asst.segments
                or any(s.is_image for s in asst.segments[1:])):
            raise InvalidStream(f"dialogue {d.id!r}: round {ri}: the grammar takes one upload at "
                                "most and an assistant turn of one image at most, then text")
        parts.append(("user_text", (text(ri, [s.text for s in rnd.user.segments if s.is_text]),),
                      None))
        for img in uploads:
            parts.append(("upload", (image(img, cfg.vit_patch), image(img, cfg.vae_patch)), img.id))
        for img in asst.images():
            vae = image(img, cfg.vae_patch)
            parts.append(("noised", (vae,), img.id))
            parts.append(("replay", (image(img, cfg.vit_patch), vae), None))
        texts = [s.text for s in asst.segments if s.is_text]
        if texts:
            parts.append(("text", (text(ri, texts),), None))
        parts.append(("end", (), None))
    total = sum(_SPECIALS[part] + sum(n) for part, n, _ in parts)
    return TokenStream(d.id, tuple(parts), total)


# --- JSONL record schema and the grammar walk ----------------------------------
#
# A v2 record holds one entry per part: the part's code, the units of its
# non-special blocks in slot order, and the image id for a part that shows an
# image first (upload, noised). Everything else follows from _PARTS and _NEXT.

_VERSION = 2
_CODE = {"user_text": "u", "upload": "p", "noised": "n", "replay": "r", "text": "t", "end": "e"}
_PART_OF = {code: part for part, code in _CODE.items()}
_ENTRY_LEN = {part: 1 + len(slots) - _SPECIALS[part] + _IMAGE_PARTS.get(part, False)
              for part, slots in _SLOTS.items()}


def _walk(entries: list, total: Any,
          fault: Callable[[str, str, int | None], None]) -> list[Part]:
    """Match v2 record entries against the grammar; the parts they hold.

    Calls ``fault(rule, detail, entry index or None)`` once per fault. A
    ``grammar`` fault (an entry that is not a ``[code, ...]`` list, an unknown
    code, a part ``_NEXT`` does not allow there, an entry of the wrong length)
    ends the walk there. ``image-id`` (a named image id that is not a string)
    and ``unit-count`` (units that are not a positive int) do not; then come
    ``grammar`` for no entries or a last round without its end, and
    ``total-len`` for a ``total`` other than the position sum.
    """
    parts: list[Part] = []
    pos = 0
    prev = "end"
    for k, entry in enumerate(entries):
        if type(entry) is not list or not entry:
            fault("grammar", f"{entry!r} is not a [part, ...] list", k)
            return parts
        code = entry[0]
        part = _PART_OF.get(code) if type(code) is str else None
        if part is None:
            fault("grammar", f"{code!r} is not a valid part code", k)
            return parts
        if part not in _NEXT[prev]:
            after = "start a stream" if k == 0 else f"follow {_CODE[prev]!r}"
            fault("grammar", f"part {code!r} cannot {after}", k)
            return parts
        if len(entry) != _ENTRY_LEN[part]:
            fault("grammar", f"a {code!r} entry has {_ENTRY_LEN[part]} items, not {len(entry)}", k)
            return parts
        image_id = None
        if _IMAGE_PARTS.get(part):
            image_id = entry[-1]
            if type(image_id) is not str:
                fault("image-id", f"image id {image_id!r} is not a string", k)
            units = tuple(entry[1:-1])
        else:
            units = tuple(entry[1:])
        pos += _SPECIALS[part]
        for n in units:
            if type(n) is not int or n < 1:
                fault("unit-count", f"units {n!r} are not a positive int", k)
            else:
                pos += n
        parts.append((part, units, image_id))
        prev = part
    if not entries:
        fault("grammar", "stream has no parts", None)
    elif prev != "end":
        fault("grammar", "the last round has no 'e' entry", None)
    elif type(total) is not int or total != pos:
        fault("total-len", f"total_len {total!r} != position sum {pos}", None)
    return parts


def _entries(s: TokenStream) -> list[list[Any]]:
    """The record entries of ``s``'s parts, for ``_walk`` to judge.

    The image id goes last where the part names one, and wherever it is not
    None, so that an id on any other part shows as an entry of the wrong length.
    """
    entries = []
    for part, units, image_id in s.parts:
        entry = [_CODE.get(part), *units]
        if image_id is not None or _IMAGE_PARTS.get(part):
            entry.append(image_id)
        entries.append(entry)
    return entries


def validate_stream(s: TokenStream) -> ValidationReport:
    """The ``_walk`` faults of ``s``'s parts, each with its part index; violations are data."""
    from .dialogue import ValidationReport

    report = ValidationReport()
    _walk(_entries(s), s.total_len, report.add)
    return report


def stream_to_record(s: TokenStream) -> dict[str, Any]:
    """The v2 record of ``s`` (``docs/stream-format.md``).

    Raises:
        InvalidStream: a fault ``validate_stream`` reports, so that the record
            would not rebuild ``s``.
    """
    def fault(rule: str, detail: str, k: int | None) -> None:
        raise InvalidStream(f"dialogue {s.dialogue_id!r}: part {k}: {rule}: {detail}")

    entries = _entries(s)
    _walk(entries, s.total_len, fault)
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

    def fault(rule: str, detail: str, k: int | None) -> None:
        raise ValueError(f"stream {sid!r}: {'' if k is None else f'blocks[{k}]: '}{detail}")

    return TokenStream(sid, tuple(_walk(entries, total, fault)), total)


# --- Attention mask -----------------------------------------------------------
#
# visible(q, k) holds iff
#   (i)  q and k lie in the same noised block (bidirectional denoising), or
#   (ii) k == q (self-attention is always allowed), or
#   (iii) k < q and k is not inside any noised block.
# Noised history is thereby invisible: later positions read an image only
# through its clean replay.

# Part -> per block (kind as written in a mask row, whether it is noised, index
# of its units as in ``_SLOTS``).
_MASK_SLOTS = {part: tuple((kind.value, kind is BlockKind.VAE_NOISED, u) for kind, _, _, u in slots)
               for part, slots in _SLOTS.items()}


def mask_intervals(s: TokenStream) -> str:
    """The mask record line of ``s``: the run-length mask, one row per query block.

    Every query in a block sees the same strictly-earlier context; within its
    own block attention is causal for ordinary blocks and bidirectional for
    noised ones. ``docs/stream-format.md`` documents the record. The line is
    built as text in one walk over the parts and has the bytes ``io.dumps``
    writes for the record. Assumes a stream that ``validate_stream`` passes.

    Raises:
        InvalidStream: the parts' units do not sum to total_len.
    """
    rows = []
    # Merged [start, end) runs of non-noised history: the text of the closed ones,
    # each with its comma, and the last one, [lo, hi), which can still grow
    # (lo is -1 before the first).
    closed, lo, hi = "", -1, -1
    pos = 0
    for part, units, _ in s.parts:
        for kind, noised, u in _MASK_SLOTS[part]:
            end = pos + (1 if u is None else units[u])
            rows.append(f'{{"block":{len(rows)},"kind":"{kind}","start":{pos},"end":{end},'
                        f'"context":[{closed}{"" if lo < 0 else f"[{lo},{hi}]"}],'
                        f'"within":"{"bidirectional" if noised else "causal"}"}}')
            if not noised:
                if hi != pos:
                    if lo >= 0:
                        closed = f"{closed}[{lo},{hi}],"
                    lo = pos
                hi = end
            pos = end
    if pos != s.total_len:
        raise InvalidStream(f"dialogue {s.dialogue_id!r}: "
                            f"total_len {s.total_len} != position sum {pos}")
    return (f'{{"dialogue_id":{dumps(s.dialogue_id)},"total_len":{s.total_len},'
            f'"rows":[{",".join(rows)}]}}')


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
    for part, units, _ in s.parts:
        for _, _, loss, u in _SLOTS[part]:
            counts[loss] += 1 if u is None else units[u]
    return LossSummary(counts[LossTag.CE], counts[LossTag.MSE], counts[LossTag.NONE])
