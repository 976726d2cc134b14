"""Distractor insertion: elevates depth-one dialogues to long-range dependencies.

Unrelated single-turn rounds are spliced in one contiguous block immediately
after the last dependency-source round, and the final user query is rewritten
by the signature-appropriate history-dependent operation so it stays
unambiguous across the noise. The pre-rewrite query is kept in the final
turn's provenance, which makes the transformation reversible for audits.
``insert_distractors``, the module's one entry point, runs the stage on one
dialogue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any, Callable

from .atomic_ops import CompletionBackend, OpKind, invoke
from .dialogue import (
    Dialogue,
    Provenance,
    Round,
    Segment,
    Stage,
    Turn,
    turn_from_obj,
    turn_to_obj,
    image_caption,
    validate_round_turns,
    with_annotation,
)
from .stream import StreamConfig, ValidationReport
from .taxonomy import DependencyModality, DepthKind, format_signature
from .util import derive_seed


class WrongDepth(ValueError):
    """Input dialogue has dependency depth n, not one."""


class PoolExhausted(ValueError):
    """Fewer distinct pool entries than requested distractors."""


class DistractorCategory(Enum):
    T2I = "t2i"
    IMAGE_UNDERSTANDING = "image_understanding"
    TEXT_CHAT = "text_chat"


@dataclass(frozen=True)
class DistractorEntry:
    category: DistractorCategory
    user: Turn
    assistant: Turn


@dataclass(frozen=True)
class DistractorPool:
    entries: tuple[DistractorEntry, ...]

    def __post_init__(self):
        object.__setattr__(self, "entries", tuple(self.entries))

    def validate(self, cfg: StreamConfig = StreamConfig()) -> ValidationReport:
        report = ValidationReport()
        for i, entry in enumerate(self.entries):
            validate_round_turns(Round(entry.user, entry.assistant), cfg, report, i)
        return report


def entry_to_record(entry: DistractorEntry) -> dict[str, Any]:
    return {
        "category": entry.category.value,
        "user": turn_to_obj(entry.user),
        "assistant": turn_to_obj(entry.assistant),
    }


def entry_from_record(obj: dict[str, Any]) -> DistractorEntry:
    return DistractorEntry(
        category=DistractorCategory(obj["category"]),
        user=turn_from_obj(obj["user"], "user"),
        assistant=turn_from_obj(obj["assistant"], "assistant"),
    )


# input signature -> (operation that makes the final query history-dependent,
# its inputs from the dialogue and the original final query)
_REWRITES: dict[str, tuple[OpKind, Callable[[Dialogue, str], dict[str, str]]]] = {
    "t_i_i1_1": (OpKind.QUERY2DEP_Q, lambda d, query: {
        "query": query, "target_caption": image_caption(d, d.dep_target_rounds[0])}),
    "t_i_t1_1": (OpKind.CAPTION2QA_Q_DEP, lambda d, query: {
        "caption": image_caption(d, d.last_round_index)}),
    "t_i_in_1": (OpKind.DRIVE_HS_DEP, lambda d, query: {
        "caption_a": image_caption(d, d.dep_target_rounds[0]),
        "caption_b": image_caption(d, d.dep_target_rounds[1])}),
    "ti_i_i1_1": (OpKind.DRIVE_I_H_DEP, lambda d, query: {
        "caption_history": image_caption(d, d.dep_target_rounds[0])}),
}


def _as_distractor(turn: Turn) -> Turn:
    return replace(turn, provenance=replace(turn.provenance, stage=Stage.DISTRACTOR))


def insert_distractors(d: Dialogue, pool: DistractorPool, k_range: tuple[int, int], seed: int,
                       backend: CompletionBackend, *, retries: int = 2) -> Dialogue:
    """Stage b for one dialogue: splice in k distractors and rewrite the final query.

    ``k_range`` is ``(k_min, k_max)``; k is drawn from it by the id's seed, and
    k distinct pool entries are picked by it too. They are spliced right after
    the last target round, so every earlier turn and every non-final turn stays
    byte-identical and target indices do not move: the depth becomes n and the
    farthest separation grows by k. A dialogue without any dependency passes
    through unchanged, annotated as skipped.

    Raises:
        WrongDepth: the dialogue's depth is n.
        ValueError: k < 1, or the signature has no history-dependent rewrite.
        PoolExhausted: k exceeds the pool size.
        MissingCaption: a caption the rewrite needs is absent.
        InvalidTarget, AmbiguousDependency, UnclassifiableModality: the output
        has no signature (see ``Dialogue``).
    """
    if d.signature.dep is DependencyModality.NONE or d.signature.depth is DepthKind.ZERO:
        return with_annotation(d, "stage_b_skipped")
    k = random.Random(derive_seed(seed, d.id, "k")).randint(*k_range)
    if d.signature.depth is not DepthKind.ONE:
        raise WrongDepth(f"dialogue {d.id!r} has depth {d.signature.depth.value!r}, need '1'")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pool.entries):
        raise PoolExhausted(f"need {k} distractors, pool holds {len(pool.entries)}")
    sig_str = format_signature(d.signature)
    if sig_str not in _REWRITES:
        raise ValueError(f"no history-dependent rewrite for signature {sig_str!r}")
    entries = random.Random(derive_seed(seed, d.id, "plan")).sample(pool.entries, k)

    op, rewrite_inputs = _REWRITES[sig_str]
    final = d.rounds[-1]
    original = final.user.text_content()
    rewritten = invoke(op, rewrite_inputs(d, original), derive_seed(seed, d.id, "dep_rewrite"),
                       backend, retries)["query"]
    rewritten_user = Turn(
        segments=tuple(Segment(text=rewritten) if s.is_text else s for s in final.user.segments),
        provenance=Provenance(Stage.B, op_kind=op.value, original_text=original),
    )
    distractor_rounds = tuple(
        Round(_as_distractor(e.user), _as_distractor(e.assistant)) for e in entries
    )
    p = max(d.dep_target_rounds) + 1
    rounds = (d.rounds[:p] + distractor_rounds + d.rounds[p:-1]
              + (Round(rewritten_user, final.assistant),))
    return Dialogue(d.id, rounds, d.dep_target_rounds, d.annotations)
