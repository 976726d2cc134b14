"""Distractor insertion: elevates depth-one dialogues to long-range dependencies.

Unrelated single-turn rounds are spliced in one contiguous block immediately
after the last dependency-source round, and the final user query is rewritten
by the signature-appropriate history-dependent operation so it stays
unambiguous across the noise. The pre-rewrite query is kept in the final
turn's provenance, which makes the transformation reversible for audits.
``insert_distractors`` runs the stage on one dialogue.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum
from typing import Any

from .atomic_ops import CompletionBackend, OpKind, OpRequest, invoke
from .dialogue import (
    Dialogue,
    Provenance,
    Role,
    Round,
    Segment,
    Stage,
    Turn,
    ValidationReport,
    turn_from_obj,
    turn_to_obj,
    image_caption,
    validate_round_turns,
    with_annotation,
)
from .taxonomy import DependencyModality, DepthKind, format_signature
from .util import derive_seed


class WrongDepth(ValueError):
    """Input dialogue is not a depth-one dialogue with dependency targets."""


class PoolExhausted(ValueError):
    """Fewer distinct pool entries than requested distractors."""


class PlanMismatch(ValueError):
    """An insertion plan that does not fit the dialogue it is applied to."""


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

    def validate(self) -> ValidationReport:
        report = ValidationReport()
        for i, entry in enumerate(self.entries):
            validate_round_turns(entry.user, entry.assistant, report, where=i)
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
        user=turn_from_obj(obj["user"], Role.USER),
        assistant=turn_from_obj(obj["assistant"], Role.ASSISTANT),
    )


@dataclass(frozen=True)
class InsertionPlan:
    k: int
    picks: tuple[tuple[int, DistractorCategory], ...]  # (pool index, category)
    insert_position: int
    entries: tuple[DistractorEntry, ...]  # materialized picks, in pick order


# input signature -> operation that makes the final query history-dependent
_DEP_OPS = {
    "t_i_i1_1": OpKind.QUERY2DEP_Q,
    "t_i_t1_1": OpKind.CAPTION2QA_Q_DEP,
    "t_i_in_1": OpKind.DRIVE_HS_DEP,
    "ti_i_i1_1": OpKind.DRIVE_I_H_DEP,
}


def plan_insertion(d: Dialogue, pool: DistractorPool, k: int, seed: int) -> InsertionPlan:
    """Pick k distinct pool entries (seeded, without replacement) and the splice point.

    Raises:
        WrongDepth: input is not depth one or has no targets.
        PoolExhausted: k exceeds the pool size.
        ValueError: k < 1.
    """
    if d.signature.depth is not DepthKind.ONE:
        raise WrongDepth(f"dialogue {d.id!r} has depth {d.signature.depth.value!r}, need '1'")
    if not d.dep_target_rounds:
        raise WrongDepth(f"dialogue {d.id!r} has no dependency targets")
    if k < 1:
        raise ValueError("k must be >= 1")
    if k > len(pool.entries):
        raise PoolExhausted(f"need {k} distractors, pool holds {len(pool.entries)}")
    rng = random.Random(seed)
    indices = rng.sample(range(len(pool.entries)), k)
    return InsertionPlan(
        k=k,
        picks=tuple((i, pool.entries[i].category) for i in indices),
        insert_position=max(d.dep_target_rounds) + 1,
        entries=tuple(pool.entries[i] for i in indices),
    )


def _rewrite_inputs(d: Dialogue, op: OpKind, original: str) -> dict[str, str]:
    targets = d.dep_target_rounds
    if op is OpKind.QUERY2DEP_Q:
        return {"query": original, "target_caption": image_caption(d, targets[0])}
    if op is OpKind.CAPTION2QA_Q_DEP:
        return {"caption": image_caption(d, d.last_round_index)}
    if op is OpKind.DRIVE_HS_DEP:
        return {"caption_a": image_caption(d, targets[0]),
                "caption_b": image_caption(d, targets[1])}
    if op is OpKind.DRIVE_I_H_DEP:
        return {"caption_history": image_caption(d, targets[0])}
    raise PlanMismatch(f"no rewrite inputs for {op.value!r}")


def _as_distractor(turn: Turn) -> Turn:
    return replace(turn, is_distractor=True,
                   provenance=replace(turn.provenance, stage=Stage.DISTRACTOR))


def apply_insertion(d: Dialogue, plan: InsertionPlan, backend: CompletionBackend, *,
                    seed: int = 0, retries: int = 2) -> Dialogue:
    """Splice the planned distractors and rewrite the final query.

    Everything before the splice point and every non-final turn stays
    byte-identical; target indices are unchanged because insertion happens
    after the last target, so the depth becomes n and the farthest separation
    grows by k.

    Raises:
        PlanMismatch: plan does not fit this dialogue or its signature has no
        history-dependent rewrite operation.
        InvalidTarget, AmbiguousDependency, UnclassifiableModality: the output
        has no signature (see ``Dialogue``).
    """
    sig_str = format_signature(d.signature)
    if sig_str not in _DEP_OPS:
        raise PlanMismatch(f"no history-dependent rewrite for signature {sig_str!r}")
    if not d.dep_target_rounds or plan.insert_position != max(d.dep_target_rounds) + 1:
        raise PlanMismatch("insert position must immediately follow the last target round")
    if plan.insert_position > d.last_round_index:
        raise PlanMismatch("insert position is past the final round")
    if plan.k != len(plan.entries) or plan.k != len(plan.picks) or plan.k < 1:
        raise PlanMismatch("plan pick count disagrees with k")

    op = _DEP_OPS[sig_str]
    final = d.rounds[-1]
    original = final.user.text_content()
    rewritten = invoke(
        OpRequest(op, _rewrite_inputs(d, op, original), derive_seed(seed, d.id, "dep_rewrite")),
        backend, retries,
    ).fields["query"]

    rewritten_user = Turn(
        role=Role.USER,
        segments=tuple(Segment(text=rewritten) if s.is_text else s for s in final.user.segments),
        provenance=Provenance(Stage.B, op_kind=op.value, original_text=original),
        is_distractor=False,
    )
    distractor_rounds = tuple(
        Round(_as_distractor(e.user), _as_distractor(e.assistant)) for e in plan.entries
    )
    p = plan.insert_position
    rounds = d.rounds[:p] + distractor_rounds + d.rounds[p:-1] + (Round(rewritten_user, final.assistant),)

    return Dialogue(d.id, rounds, d.dep_target_rounds, d.annotations)


def insert_distractors(d: Dialogue, pool: DistractorPool, k_range: tuple[int, int], seed: int,
                       backend: CompletionBackend, *, retries: int = 2) -> Dialogue:
    """Stage b for one dialogue: insert k distractors, k drawn from ``k_range`` by the id's seed.

    ``k_range`` is ``(k_min, k_max)`` with ``1 <= k_min <= k_max``. A dialogue
    without any dependency passes through unchanged, annotated as skipped.
    """
    if d.signature.dep is DependencyModality.NONE or d.signature.depth is DepthKind.ZERO:
        return with_annotation(d, "stage_b_skipped")
    k = random.Random(derive_seed(seed, d.id, "k")).randint(*k_range)
    plan = plan_insertion(d, pool, k, derive_seed(seed, d.id, "plan"))
    return apply_insertion(d, plan, backend, seed=seed, retries=retries)
