"""Serialized token-stream view of a dialogue, with loss tags and attention masks.

Each round becomes a run of delimiter, text, and image-latent blocks:
``|im_s| .. |im_e|`` wraps a text span, ``|v_s| .. |v_e|`` wraps visual
content, and ``|end|`` closes an assistant turn. A generated image appears
twice: first as noised VAE latents (the diffusion target, MSE loss), then
replayed as clean ViT + VAE blocks so later turns have noise-free context to
condition on. Text the assistant produces, and the structural delimiters it
predicts, carry cross-entropy loss; everything on the user side carries none.

A ``TokenStream`` holds its v2 record's entries, one per part of the block
grammar (``_PARTS``), as tuples. Kinds, tokens, roles, losses, rounds and
positions follow from the grammar, so a stream of entries cannot get them
wrong; ``TokenStream.blocks`` derives the blocks when a caller wants them one
by one.

Attention over the stream is causal with two exceptions: positions inside one
noised block attend to each other bidirectionally (the latents of an image
are denoised jointly), and no position outside a noised block ever sees into
it, so history is always consumed through the clean replay.
``mask_intervals`` writes a stream's run-length mask record as a JSONL line,
in one walk over the entries.

Block sizes are unit *counts* only; no tokenizer vocabulary or latent tensors
are involved.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from enum import Enum
from typing import TYPE_CHECKING, Any, Callable

from .io import dumps

if TYPE_CHECKING:
    from .dialogue import Dialogue, ImageRef, Round

__all__ = [
    "Role", "SpecialToken", "BlockKind", "LossTag", "TokenBlock", "TokenStream", "Violation",
    "ValidationReport", "StreamConfig", "round_entries", "serialize", "validate_stream",
    "mask_intervals", "loss_summary", "stream_to_record", "stream_from_record",
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
class Violation:
    rule: str
    detail: str
    where: int | None = None  # round index (dialogues) or part index (streams)


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, rule: str, detail: str, where: int | None = None) -> None:
        self.violations.append(Violation(rule, detail, where))


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
    """A serialized dialogue as its record entries, one tuple per grammar part.

    An entry is the part's code (a ``_PARTS`` key), the units of its
    non-special blocks in slot order, and the image id of a ``p`` or ``n``
    part (an ``r`` part shows the image of the ``n`` part before it):
    ``("u", 22)``, ``("n", 640, "img")``, ``("r", 851, 640)``, ``("e",)``.
    ``validate_stream`` checks a stream built by hand.
    """

    dialogue_id: str
    parts: tuple[tuple, ...]
    total_len: int

    @cached_property
    def blocks(self) -> tuple[TokenBlock, ...]:
        """The blocks the entries stand for, rebuilt from the grammar on first access.

        Assumes a stream that ``validate_stream`` passes.
        """
        blocks = []
        pos = rnd = 0
        image_id = None
        for entry in self.parts:
            code = entry[0]
            role = _PARTS[code][0]
            named = _IMAGE_PARTS.get(code)
            if named:
                image_id = entry[-1]
            for kind, tok, loss, u in _SLOTS[code]:
                n = 1 if u is None else entry[u]
                blocks.append(TokenBlock(kind, n, rnd, role, loss, pos, pos + n, tok,
                                         image_id if named is not None and u is not None else None))
                pos += n
            rnd += code == "e"
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

# The block grammar of docs/stream-format.md, written once: part code ->
# (role, slots), one (kind, special token, loss) slot per block, and ``_NEXT``
# below, a round being (u: user text, p: upload, n: noised, r: replay, t: text)
#   u p? (n r t? | t) e
# ``round_entries`` emits a round's entries in that order, ``_walk`` matches entries
# against it (for ``stream_from_record``, ``validate_stream`` and
# ``stream_to_record``), and ``TokenStream.blocks``, ``mask_intervals`` and
# ``loss_summary`` expand entries into blocks through ``_SLOTS``.
_PARTS: dict[str, tuple[Role, tuple]] = {
    "u": (Role.USER, ((BlockKind.SPECIAL, SpecialToken.IM_S, LossTag.NONE),
                      (BlockKind.TEXT, None, LossTag.NONE),
                      (BlockKind.SPECIAL, SpecialToken.IM_E, LossTag.NONE))),
    "p": (Role.USER, _CLEAN_IMAGE),
    "n": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.V_S, LossTag.CE),
                           (BlockKind.VAE_NOISED, None, LossTag.MSE),
                           (BlockKind.SPECIAL, SpecialToken.V_E, LossTag.CE))),
    "r": (Role.ASSISTANT, _CLEAN_IMAGE),
    "t": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.IM_S, LossTag.CE),
                           (BlockKind.TEXT, None, LossTag.CE),
                           (BlockKind.SPECIAL, SpecialToken.IM_E, LossTag.CE))),
    "e": (Role.ASSISTANT, ((BlockKind.SPECIAL, SpecialToken.END, LossTag.CE),)),
}

# Part -> the parts that may follow it, the last one being what the round
# requires when none of the others fits. A stream starts as if after an ``e``
# and must stop right after one.
_NEXT = {"e": ("u",), "u": ("p", "n", "t"), "p": ("n", "t"), "n": ("r",), "r": ("t", "e"),
         "t": ("e",)}

# Parts whose non-special blocks carry an image id -> whether the part names it
# (as the last item of its entry); an ``r`` reuses the id of the ``n`` that
# ``_NEXT`` puts before it. No other block has an id.
_IMAGE_PARTS = {"p": True, "n": True, "r": False}

# Part -> per block (kind, token, loss, index of its units in the entry, None
# for a special block, which takes one unit).
_SLOTS = {code: tuple((kind, tok, loss, None if tok else 1 + sum(t is None for _, t, _ in slots[:j]))
                      for j, (kind, tok, loss) in enumerate(slots))
          for code, (_, slots) in _PARTS.items()}
# Part -> the units its special blocks take, and the items of its entry that hold units.
_SPECIALS = {code: sum(u is None for *_, u in slots) for code, slots in _SLOTS.items()}
_UNITS = {code: slice(1, 1 + len(slots) - _SPECIALS[code]) for code, slots in _SLOTS.items()}


def round_entries(ri: int, rnd: Round, cfg: StreamConfig,
                  fault: Callable[[str, str, ValueError], None]) -> list[tuple]:
    """Round ``ri``'s entries, one ``_PARTS`` part each: the one copy of the turn rules.

    Calls ``fault(rule, detail, error)`` for each thing the grammar cannot
    express and goes on; ``error`` is what ``serialize`` raises for it:
    ``InvalidStream`` for ``user-image-count``, ``empty-segments`` (assistant),
    ``assistant-image-count``, ``assistant-image-order`` and ``image-dims``;
    ``EmptyText`` for ``empty-segments`` (user), ``user-text`` and ``empty-text``
    (a text span with no word); ``UnitOverflow`` for ``image-units``.
    """
    user, asst = rnd.user, rnd.assistant
    uploads, shown, segs = user.images(), asst.images(), asst.segments
    if len(uploads) > 1 or not segs or any(s.is_image for s in segs[1:]):
        shape = InvalidStream(f"round {ri}: the grammar takes one upload at most and an "
                              "assistant turn of one image at most, then text")
        if len(uploads) > 1:
            fault("user-image-count", f"user turn carries {len(uploads)} images", shape)
        if not segs:
            fault("empty-segments", "assistant turn has no segments", shape)
        if len(shown) > 1:
            fault("assistant-image-count", f"assistant turn carries {len(shown)} images", shape)
        if any(a.is_text and b.is_image for a, b in zip(segs, segs[1:])):
            fault("assistant-image-order", "assistant image segment appears after text", shape)

    def text(slot: str, texts: list[str]) -> int:
        n = len(" ".join(texts).split())
        if n < 1:  # only the user turn comes here without text segments
            rule, detail = (("empty-text", f"{slot} turn has no word in its text") if texts else
                            ("user-text", "user turn has no text segment") if user.segments else
                            ("empty-segments", "user turn has no segments"))
            fault(rule, detail, EmptyText(f"round {ri} has an empty text span"))
        return n

    def units(img: ImageRef, first: int, second: int) -> tuple[int, int]:
        w, h, cap = img.width, img.height, cfg.max_image_units
        a, b = patch_grid_units(w, h, first), patch_grid_units(w, h, second)
        if w < 1 or h < 1:
            fault("image-dims", f"image {img.id!r} has non-positive dimensions",
                  InvalidStream(f"image {img.id!r} is {w}x{h}, not a positive size"))
        elif a > cap or b > cap:
            over = f"image {img.id!r} needs {a if a > cap else b} units, cap is {cap}"
            fault("image-units", over, UnitOverflow(over))
        return a, b

    # Units go in the slot order of _PARTS: text; vit then vae for an image.
    entries = [("u", text("user", [s.text for s in user.segments if s.is_text]))]
    entries += [("p", *units(img, cfg.vit_patch, cfg.vae_patch), img.id) for img in uploads]
    for img in shown:
        vae, vit = units(img, cfg.vae_patch, cfg.vit_patch)
        entries += [("n", vae, img.id), ("r", vit, vae)]
    texts = [s.text for s in segs if s.is_text]
    return entries + ([("t", text("assistant", texts))] if texts else []) + [("e",)]


def serialize(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> TokenStream:
    """Flatten a dialogue into its record entries, ``round_entries`` for each round.

    Raises the first fault's error (``EmptyText``, ``InvalidStream`` or
    ``UnitOverflow``), led by the dialogue id.
    """
    def refuse(rule: str, detail: str, error: ValueError) -> None:
        raise type(error)(f"dialogue {d.id!r}: {error}")

    parts = [e for ri, rnd in enumerate(d.rounds) for e in round_entries(ri, rnd, cfg, refuse)]
    total = sum(_SPECIALS[e[0]] + sum(e[_UNITS[e[0]]]) for e in parts)
    return TokenStream(d.id, tuple(parts), total)


# --- JSONL record schema and the grammar walk ----------------------------------
#
# A v2 record holds the stream's entries as lists. Everything else follows from
# _PARTS and _NEXT.

_VERSION = 2
_ENTRY_LEN = {code: units.stop + _IMAGE_PARTS.get(code, False) for code, units in _UNITS.items()}


def _walk(entries: list | tuple, total: Any,
          fault: Callable[[str, str, int | None], None]) -> list[tuple]:
    """Match entries (lists from a record, tuples in memory) against the grammar.

    Returns the entries it walked as tuples. Calls ``fault(rule, detail, entry
    index or None)`` once per fault. A ``grammar`` fault (an entry that is not
    a ``[code, ...]`` list, an unknown code, a part ``_NEXT`` does not allow
    there, an entry of the wrong length, such as an image id on a part that
    names none) ends the walk there. ``image-id`` (a named image id that is
    not a string) and ``unit-count`` (units that are not a positive int) do
    not; then come ``grammar`` for no entries or a last round without its
    end, and ``total-len`` for a ``total`` other than the position sum.
    """
    parts: list[tuple] = []
    pos = 0
    prev = "e"
    for k, entry in enumerate(entries):
        if type(entry) not in (list, tuple) or not entry:
            fault("grammar", f"{entry!r} is not a [part, ...] list", k)
            return parts
        code = entry[0]
        if type(code) is not str or code not in _PARTS:
            fault("grammar", f"{code!r} is not a valid part code", k)
            return parts
        if code not in _NEXT[prev]:
            after = "start a stream" if k == 0 else f"follow {prev!r}"
            fault("grammar", f"part {code!r} cannot {after}", k)
            return parts
        if len(entry) != _ENTRY_LEN[code]:
            fault("grammar", f"a {code!r} entry has {_ENTRY_LEN[code]} items, not {len(entry)}", k)
            return parts
        if _IMAGE_PARTS.get(code) and type(entry[-1]) is not str:
            fault("image-id", f"image id {entry[-1]!r} is not a string", k)
        pos += _SPECIALS[code]
        for n in entry[_UNITS[code]]:
            if type(n) is not int or n < 1:
                fault("unit-count", f"units {n!r} are not a positive int", k)
            else:
                pos += n
        parts.append(tuple(entry))
        prev = code
    if not entries:
        fault("grammar", "stream has no parts", None)
    elif prev != "e":
        fault("grammar", "the last round has no 'e' entry", None)
    elif type(total) is not int or total != pos:
        fault("total-len", f"total_len {total!r} != position sum {pos}", None)
    return parts


def validate_stream(s: TokenStream) -> ValidationReport:
    """The ``_walk`` faults of ``s``'s entries, each with its part index; violations are data."""
    report = ValidationReport()
    _walk(s.parts, s.total_len, report.add)
    return report


def stream_to_record(s: TokenStream) -> dict[str, Any]:
    """The v2 record of ``s`` (``docs/stream-format.md``): its entries as lists.

    Raises:
        InvalidStream: a fault ``validate_stream`` reports, so that the record
            would not rebuild ``s``.
    """
    def fault(rule: str, detail: str, k: int | None) -> None:
        raise InvalidStream(f"dialogue {s.dialogue_id!r}: part {k}: {rule}: {detail}")

    _walk(s.parts, s.total_len, fault)
    return {"v": _VERSION, "dialogue_id": s.dialogue_id, "total_len": s.total_len,
            "blocks": [list(e) for e in s.parts]}


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
# of its units in the entry as in ``_SLOTS``).
_MASK_SLOTS = {code: tuple((kind.value, kind is BlockKind.VAE_NOISED, u) for kind, _, _, u in slots)
               for code, slots in _SLOTS.items()}


def mask_intervals(s: TokenStream) -> str:
    """The mask record line of ``s``: the run-length mask, one row per query block.

    Every query in a block sees the same strictly-earlier context; within its
    own block attention is causal for ordinary blocks and bidirectional for
    noised ones. ``docs/stream-format.md`` documents the record. The line is
    built as text in one walk over the entries and has the bytes ``io.dumps``
    writes for the record. Assumes a stream that ``validate_stream`` passes.

    Raises:
        InvalidStream: the entries' units do not sum to total_len.
    """
    rows = []
    # Merged [start, end) runs of non-noised history: the text of the closed ones,
    # each with its comma, and the last one, [lo, hi), which can still grow
    # (lo is -1 before the first).
    closed, lo, hi = "", -1, -1
    pos = 0
    for entry in s.parts:
        for kind, noised, u in _MASK_SLOTS[entry[0]]:
            end = pos + (1 if u is None else entry[u])
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


def loss_summary(s: TokenStream) -> dict[str, int]:
    """Positions per loss tag, ``{"ce": n, "mse": n, "none": n}``; they sum to total_len."""
    counts = {LossTag.CE: 0, LossTag.MSE: 0, LossTag.NONE: 0}
    for entry in s.parts:
        for _, _, loss, u in _SLOTS[entry[0]]:
            counts[loss] += 1 if u is None else entry[u]
    return {loss.value: n for loss, n in counts.items()}
