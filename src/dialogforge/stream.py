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

from .dialogue import Dialogue, Role, ValidationReport

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
    """Block positions are inconsistent; no mask can be built."""


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


class _Emitter:
    def __init__(self, dialogue_id: str, cfg: StreamConfig):
        self.dialogue_id = dialogue_id
        self.cfg = cfg
        self.blocks: list[TokenBlock] = []
        self.pos = 0

    def emit(self, kind: BlockKind, units: int, round_index: int, role: Role,
             loss: LossTag, tok: SpecialToken | None = None,
             image_id: str | None = None) -> None:
        self.blocks.append(TokenBlock(
            kind=kind, units=units, round_index=round_index, role=role,
            loss=loss, start=self.pos, end=self.pos + units,
            tok=tok, image_id=image_id,
        ))
        self.pos += units

    def special(self, tok: SpecialToken, round_index: int, role: Role, loss: LossTag) -> None:
        self.emit(BlockKind.SPECIAL, 1, round_index, role, loss, tok=tok)

    def clean_image(self, img, round_index: int, role: Role) -> None:
        """Loss-free ``|v_s| ViT VAE |v_e|`` context: an upload or a replayed generation."""
        self.special(SpecialToken.V_S, round_index, role, LossTag.NONE)
        self.emit(BlockKind.VIT, self.image_units(img, self.cfg.vit_patch),
                  round_index, role, LossTag.NONE, image_id=img.id)
        self.emit(BlockKind.VAE_CLEAN, self.image_units(img, self.cfg.vae_patch),
                  round_index, role, LossTag.NONE, image_id=img.id)
        self.special(SpecialToken.V_E, round_index, role, LossTag.NONE)

    def image_units(self, img, patch: int) -> int:
        units = patch_grid_units(img.width, img.height, patch)
        where = f"dialogue {self.dialogue_id!r}: image {img.id!r}"
        if units < 1:
            raise InvalidStream(f"{where} computes to {units} units")
        if units > self.cfg.max_image_units:
            raise UnitOverflow(f"{where} needs {units} units, cap is {self.cfg.max_image_units}")
        return units

    def stream(self) -> TokenStream:
        return TokenStream(self.dialogue_id, tuple(self.blocks), self.pos)


def _text_units(d: Dialogue, round_index: int, texts: list[str]) -> int:
    units = len(" ".join(texts).split())
    if units < 1:
        raise EmptyText(f"dialogue {d.id!r}: round {round_index} has an empty text span")
    return units


def serialize(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> TokenStream:
    """Flatten a dialogue into its block sequence.

    Raises:
        EmptyText: a required text span is empty.
        UnitOverflow: an image exceeds the configured unit cap.
        ValueError: a round has no assistant turn.
    """
    out = _Emitter(d.id, cfg)
    for ri, rnd in enumerate(d.rounds):
        # User part: text span, then the upload's clean context if present.
        user = rnd.user
        texts = [s.text for s in user.segments if s.is_text]
        units = _text_units(d, ri, texts)
        out.special(SpecialToken.IM_S, ri, Role.USER, LossTag.NONE)
        out.emit(BlockKind.TEXT, units, ri, Role.USER, LossTag.NONE)
        out.special(SpecialToken.IM_E, ri, Role.USER, LossTag.NONE)
        for img in user.images():
            out.clean_image(img, ri, Role.USER)

        asst = rnd.assistant
        if asst is None:
            raise ValueError(f"dialogue {d.id!r}: round {ri} has no assistant turn")
        # Assistant part follows segment order; consecutive texts merge into
        # one span. Structural delimiters the assistant predicts carry CE;
        # the replayed clean copy of a generated image carries no loss at all.
        pending: list[str] = []

        def flush_text():
            if pending:
                n = _text_units(d, ri, pending)
                out.special(SpecialToken.IM_S, ri, Role.ASSISTANT, LossTag.CE)
                out.emit(BlockKind.TEXT, n, ri, Role.ASSISTANT, LossTag.CE)
                out.special(SpecialToken.IM_E, ri, Role.ASSISTANT, LossTag.CE)
                pending.clear()

        for seg in asst.segments:
            if seg.is_text:
                pending.append(seg.text)
                continue
            flush_text()
            img = seg.image
            vae = out.image_units(img, out.cfg.vae_patch)
            out.special(SpecialToken.V_S, ri, Role.ASSISTANT, LossTag.CE)
            out.emit(BlockKind.VAE_NOISED, vae, ri, Role.ASSISTANT, LossTag.MSE, image_id=img.id)
            out.special(SpecialToken.V_E, ri, Role.ASSISTANT, LossTag.CE)
            out.clean_image(img, ri, Role.ASSISTANT)
        flush_text()
        out.special(SpecialToken.END, ri, Role.ASSISTANT, LossTag.CE)
    return out.stream()


@dataclass(frozen=True)
class ParsedRound:
    """Round skeleton reconstructed from a stream's block sequence."""

    index: int
    user_text_units: int
    upload_image_id: str | None
    noised_image_id: str | None
    assistant_text_units: int


class _Cursor:
    def __init__(self, blocks: tuple[TokenBlock, ...], report: ValidationReport):
        self.blocks = blocks
        self.i = 0
        self.report = report

    def peek(self, ahead: int = 0) -> TokenBlock | None:
        j = self.i + ahead
        return self.blocks[j] if j < len(self.blocks) else None

    def at_special(self, tok: SpecialToken, ahead: int = 0) -> bool:
        b = self.peek(ahead)
        return b is not None and b.kind is BlockKind.SPECIAL and b.tok is tok

    def take(self, kind: BlockKind, tok: SpecialToken | None = None) -> TokenBlock | None:
        b = self.peek()
        if b is None or b.kind is not kind or (tok is not None and b.tok is not tok):
            want = tok.value if tok else kind.value
            got = "end of stream" if b is None else (b.tok.value if b.tok else b.kind.value)
            self.report.add("grammar", f"expected {want}, got {got}", self.i)
            return None
        self.i += 1
        return b


def _expect_loss(report: ValidationReport, b: TokenBlock | None, loss: LossTag,
                 what: str, index: int) -> None:
    if b is not None and b.loss is not loss:
        report.add("loss-tags", f"{what} must carry {loss.value!r}, got {b.loss.value!r}", index)


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
        if b.kind is BlockKind.SPECIAL:
            if b.tok is None:
                report.add("special-tok", "special block lacks its token", i)
            if b.units != 1:
                report.add("unit-count", "special block must be one unit", i)
        elif b.tok is not None:
            report.add("special-tok", "non-special block carries a token", i)
        # Position-independent loss rules.
        if (b.loss is LossTag.MSE) != (b.kind is BlockKind.VAE_NOISED):
            report.add("loss-tags", "MSE loss exactly on noised latent blocks", i)
        if b.kind in (BlockKind.VIT, BlockKind.VAE_CLEAN) and b.loss is not LossTag.NONE:
            report.add("loss-tags", "clean visual context carries no loss", i)
        if b.role is Role.USER and b.loss is not LossTag.NONE:
            report.add("loss-tags", "user-side blocks carry no loss", i)
        if b.kind is BlockKind.TEXT and b.role is Role.ASSISTANT and b.loss is not LossTag.CE:
            report.add("loss-tags", "assistant text must carry CE", i)
    if s.total_len != pos:
        report.add("total-len", f"total_len {s.total_len} != position sum {pos}")

    rounds: list[ParsedRound] = []
    cur = _Cursor(s.blocks, report)
    if not s.blocks:
        report.add("grammar", "stream has no blocks")
        return rounds, report

    while cur.peek() is not None:
        start_i = cur.i
        first = cur.peek()
        ri = first.round_index

        def round_block(b: TokenBlock | None, role: Role) -> None:
            if b is None:
                return
            if b.round_index != ri:
                report.add("round-index", f"block belongs to round {b.round_index}, expected {ri}",
                           cur.i - 1)
            if b.role is not role:
                report.add("roles", f"expected a {role.value} block", cur.i - 1)

        # user_part = IM_S TEXT IM_E (V_S VIT VAE_CLEAN V_E)?
        round_block(cur.take(BlockKind.SPECIAL, SpecialToken.IM_S), Role.USER)
        user_text = cur.take(BlockKind.TEXT)
        round_block(user_text, Role.USER)
        round_block(cur.take(BlockKind.SPECIAL, SpecialToken.IM_E), Role.USER)
        upload_id = None
        if cur.at_special(SpecialToken.V_S) and cur.peek().role is Role.USER:
            round_block(cur.take(BlockKind.SPECIAL, SpecialToken.V_S), Role.USER)
            vit = cur.take(BlockKind.VIT)
            round_block(vit, Role.USER)
            round_block(cur.take(BlockKind.VAE_CLEAN), Role.USER)
            round_block(cur.take(BlockKind.SPECIAL, SpecialToken.V_E), Role.USER)
            upload_id = vit.image_id if vit else None

        # assistant_part = image_part? text_part? END, at least one part
        noised_id = None
        asst_text_units = 0
        saw_part = False
        if cur.at_special(SpecialToken.V_S):
            saw_part = True
            vs = cur.take(BlockKind.SPECIAL, SpecialToken.V_S)
            round_block(vs, Role.ASSISTANT)
            _expect_loss(report, vs, LossTag.CE, "the |v_s| opening a noised image", cur.i - 1)
            noised = cur.take(BlockKind.VAE_NOISED)
            round_block(noised, Role.ASSISTANT)
            noised_id = noised.image_id if noised else None
            ve = cur.take(BlockKind.SPECIAL, SpecialToken.V_E)
            round_block(ve, Role.ASSISTANT)
            _expect_loss(report, ve, LossTag.CE, "the |v_e| closing a noised image", cur.i - 1)
            # The clean replay is required: later turns read the image only through it.
            for kind, tok in ((BlockKind.SPECIAL, SpecialToken.V_S),
                              (BlockKind.VIT, None),
                              (BlockKind.VAE_CLEAN, None),
                              (BlockKind.SPECIAL, SpecialToken.V_E)):
                b = cur.take(kind, tok)
                round_block(b, Role.ASSISTANT)
                _expect_loss(report, b, LossTag.NONE, "a replayed clean block", cur.i - 1)
        if cur.at_special(SpecialToken.IM_S):
            saw_part = True
            ims = cur.take(BlockKind.SPECIAL, SpecialToken.IM_S)
            round_block(ims, Role.ASSISTANT)
            _expect_loss(report, ims, LossTag.CE, "the |im_s| opening assistant text", cur.i - 1)
            text = cur.take(BlockKind.TEXT)
            round_block(text, Role.ASSISTANT)
            asst_text_units = text.units if text else 0
            ime = cur.take(BlockKind.SPECIAL, SpecialToken.IM_E)
            round_block(ime, Role.ASSISTANT)
            _expect_loss(report, ime, LossTag.CE, "the |im_e| closing assistant text", cur.i - 1)
        if not saw_part:
            report.add("grammar", "assistant part needs an image or a text part", cur.i)
        end = cur.take(BlockKind.SPECIAL, SpecialToken.END)
        round_block(end, Role.ASSISTANT)
        _expect_loss(report, end, LossTag.CE, "the |end| token", cur.i - 1)

        rounds.append(ParsedRound(
            index=ri,
            user_text_units=user_text.units if user_text else 0,
            upload_image_id=upload_id,
            noised_image_id=noised_id,
            assistant_text_units=asst_text_units,
        ))
        if cur.i == start_i:
            # No progress: the stream is unrecoverably off-grammar.
            break
        if not report.ok and any(v.rule == "grammar" for v in report.violations):
            break
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
            "kind": b.kind.value,
            "start": b.start,
            "end": b.end,
            "context": [list(iv) for iv in context],
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
        obj: dict[str, Any] = {"kind": b.kind.value}
        if b.tok is not None:
            obj["tok"] = b.tok.value
        obj.update(units=b.units, round=b.round_index, role=b.role.value)
        if b.image_id is not None:
            obj["image_id"] = b.image_id
        obj.update(loss=b.loss.value, start=b.start, end=b.end)
        blocks.append(obj)
    return {"dialogue_id": s.dialogue_id, "total_len": s.total_len, "blocks": blocks}


def stream_from_record(rec: dict[str, Any]) -> TokenStream:
    blocks = tuple(
        TokenBlock(
            kind=BlockKind(o["kind"]),
            units=o["units"],
            round_index=o["round"],
            role=Role(o["role"]),
            loss=LossTag(o["loss"]),
            start=o["start"],
            end=o["end"],
            tok=SpecialToken(o["tok"]) if "tok" in o else None,
            image_id=o.get("image_id"),
        )
        for o in rec["blocks"]
    )
    return TokenStream(rec["dialogue_id"], blocks, rec["total_len"])
