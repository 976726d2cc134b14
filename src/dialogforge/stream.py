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
from typing import Any, Iterator

from .dialogue import Dialogue, Role, ValidationReport, enum_decoder

__all__ = [
    "SpecialToken", "BlockKind", "LossTag", "TokenBlock", "TokenStream",
    "StreamConfig", "serialize", "validate_stream", "parse_stream",
    "mask_intervals", "loss_summary",
    "LossSummary", "ParsedRound", "stream_to_record", "stream_from_record",
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


# Member -> record string, for the encoders. Keyed by id() (members live as long
# as their class) because ``Enum.__hash__`` and ``.value`` are Python-level calls.
_VALUE = {id(m): m.value for e in (BlockKind, Role, LossTag, SpecialToken) for m in e}


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
# one (kind, special token, loss) slot per block. ``serialize`` emits parts from
# it and ``_walk`` matches streams against it, a round being
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


def serialize(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> TokenStream:
    """Flatten a dialogue into its block sequence, one ``_PARTS`` part at a time.

    Raises:
        EmptyText: a required text span is empty.
        UnitOverflow: an image exceeds the configured unit cap.
        InvalidStream: the grammar cannot express a round (a user turn with
            more than one image, an assistant turn that is not at most one
            image followed by text) or an image computes to no units.
        ValueError: a round has no assistant turn.
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
        n = patch_grid_units(img.width, img.height,
                             cfg.vit_patch if kind is BlockKind.VIT else cfg.vae_patch)
        where = f"dialogue {d.id!r}: image {img.id!r}"
        if n < 1:
            raise InvalidStream(f"{where} computes to {n} units")
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
        if asst is None:
            raise ValueError(f"dialogue {d.id!r}: round {ri} has no assistant turn")
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


@dataclass(frozen=True)
class ParsedRound:
    """Round skeleton reconstructed from a stream's block sequence."""

    index: int
    user_text_units: int
    upload_image_id: str | None
    noised_image_id: str | None
    assistant_text_units: int


def _tiling_faults(b: TokenBlock, pos: int) -> Iterator[tuple[str, str]]:
    """(rule, detail) for each way block ``b`` fails to span [pos, pos + units), units >= 1."""
    if b.units < 1:
        yield "unit-count", f"block has {b.units} units"
    if b.start != pos or b.end != b.start + b.units:
        yield "positions", f"block spans [{b.start}, {b.end}), expected start {pos}"


def _walk(s: TokenStream) -> tuple[list[ParsedRound], ValidationReport]:
    report = ValidationReport()
    pos = 0
    for i, b in enumerate(s.blocks):
        for rule, detail in _tiling_faults(b, pos):
            report.add(rule, detail, i)
        pos = b.end
        if b.kind is BlockKind.SPECIAL and b.units != 1:
            report.add("unit-count", "special block must be one unit", i)
    if s.total_len != pos:
        report.add("total-len", f"total_len {s.total_len} != position sum {pos}")
    if not s.blocks:
        report.add("grammar", "stream has no blocks")

    rounds: list[ParsedRound] = []
    i = 0

    def fits(part: str) -> bool:
        """Whether the next blocks have the part's kinds and tokens (roles and losses aside)."""
        slots = _PARTS[part][1]
        ahead = s.blocks[i:i + len(slots)]
        return len(ahead) == len(slots) and all(
            b.kind is kind and b.tok is tok for b, (kind, tok, _) in zip(ahead, slots))

    def take(part: str) -> tuple[TokenBlock, ...]:
        """Match one block per slot of ``part``; a kind or token mismatch ends the walk."""
        nonlocal i
        role, slots = _PARTS[part]
        for kind, tok, loss in slots:
            b = s.blocks[i] if i < len(s.blocks) else None
            got = "end of stream" if b is None else (b.tok.value if b.tok else b.kind.value)
            if b is None or b.kind is not kind or b.tok is not tok:
                report.add("grammar", f"expected {tok.value if tok else kind.value}, got {got}", i)
                raise InvalidStream  # reported above; parse_stream raises its own
            what = f"{got} of the {part} part"
            if b.role is not role:
                report.add("roles", f"{what} must be a {role.value} block", i)
            if b.round_index != len(rounds):
                report.add("round-index", f"{what} is in round {b.round_index}, "
                                          f"expected {len(rounds)}", i)
            if b.loss is not loss:
                report.add("loss-tags", f"{what} must carry {loss.value!r}, got {b.loss.value!r}", i)
            i += 1
        return s.blocks[i - len(slots):i]

    try:
        while i < len(s.blocks):
            user_text = take("user_text")[1]
            upload = take("upload")[1] if fits("upload") else None
            noised = take("noised")[1] if fits("noised") else None
            if noised is not None:
                take("replay")  # required: later turns read the image only through it
            text = take("text")[1] if noised is None or fits("text") else None
            take("end")
            rounds.append(ParsedRound(
                index=len(rounds),
                user_text_units=user_text.units,
                upload_image_id=upload.image_id if upload else None,
                noised_image_id=noised.image_id if noised else None,
                assistant_text_units=text.units if text else 0,
            ))
    except InvalidStream:
        pass
    return rounds, report


def validate_stream(s: TokenStream) -> ValidationReport:
    """Grammar, contiguity, role, and loss-tag checks; violations are data."""
    _, report = _walk(s)
    return report


def parse_stream(s: TokenStream) -> list[ParsedRound]:
    """Reconstruct round boundaries, roles, and image ids from the blocks.

    Raises:
        InvalidStream: the stream violates the grammar.
    """
    rounds, report = _walk(s)
    if not report.ok:
        first = report.violations[0]
        raise InvalidStream(f"{first.rule}: {first.detail} (block {first.where})")
    return rounds


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


def stream_to_record(s: TokenStream) -> dict[str, Any]:
    blocks = []
    for b in s.blocks:
        obj: dict[str, Any] = {"kind": _VALUE[id(b.kind)]}
        if b.tok is not None:
            obj["tok"] = _VALUE[id(b.tok)]
        obj["units"] = b.units
        obj["round"] = b.round_index
        obj["role"] = _VALUE[id(b.role)]
        if b.image_id is not None:
            obj["image_id"] = b.image_id
        obj["loss"] = _VALUE[id(b.loss)]
        obj["start"] = b.start
        obj["end"] = b.end
        blocks.append(obj)
    return {"dialogue_id": s.dialogue_id, "total_len": s.total_len, "blocks": blocks}


_kind, _role, _loss, _tok = map(enum_decoder, (BlockKind, Role, LossTag, SpecialToken))


def stream_from_record(rec: dict[str, Any]) -> TokenStream:
    blocks = tuple(
        TokenBlock(
            kind=_kind(o["kind"]),
            units=o["units"],
            round_index=o["round"],
            role=_role(o["role"]),
            loss=_loss(o["loss"]),
            start=o["start"],
            end=o["end"],
            tok=_tok(o["tok"]) if "tok" in o else None,
            image_id=o.get("image_id"),
        )
        for o in rec["blocks"]
    )
    return TokenStream(rec["dialogue_id"], blocks, rec["total_len"])
