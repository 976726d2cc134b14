"""Interleaved output generation: image-only replies gain a caption-grounded Q&A.

The final user turn is augmented with a general-knowledge question about the
requested image's subject and the final assistant turn answers it right after
the image, turning the output modality from image-only into text-and-image.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Any

from .atomic_ops import CompletionBackend, OpKind, OpRequest, invoke
from .dialogue import Dialogue, Round, Segment, Turn, image_caption, with_annotation
from .taxonomy import OutputModality
from .util import derive_seed, run_records


class AlreadyInterleaved(ValueError):
    """The dialogue's output modality is already text-and-image."""


def _insert_text(turn: Turn, text: str, *, after_image: bool) -> Turn:
    """Insert a text segment right after the turn's last text (or image) segment."""
    at = max((i for i, s in enumerate(turn.segments) if s.is_image == after_image),
             default=-1) + 1
    segments = turn.segments[:at] + (Segment(text=text),) + turn.segments[at:]
    return replace(turn, segments=segments)


def interleave_output(d: Dialogue, backend: CompletionBackend, *,
                      seed: int = 0, retries: int = 2) -> Dialogue:
    """Append a Q to the final request and an A after the final image.

    Raises:
        AlreadyInterleaved: output modality is already text-and-image.
        MissingCaption: the final image has no caption to ground the Q&A.
        InvalidTarget, AmbiguousDependency, UnclassifiableModality: the output
        has no signature (see ``Dialogue``).
    """
    if d.signature.output is OutputModality.TI:
        raise AlreadyInterleaved(f"dialogue {d.id!r} already has an interleaved output")
    caption = image_caption(d, d.last_round_index)
    question = invoke(
        OpRequest(OpKind.Q_FROM_CAPTION, {"caption": caption},
                  derive_seed(seed, d.id, "q_from_caption")),
        backend, retries,
    ).fields["q"]
    answer = invoke(
        OpRequest(OpKind.A_FROM_CAPTION, {"caption": caption, "question": question},
                  derive_seed(seed, d.id, "a_from_caption")),
        backend, retries,
    ).fields["a"]

    final = d.rounds[-1]
    new_final = Round(
        user=_insert_text(final.user, question, after_image=False),
        assistant=_insert_text(final.assistant, answer, after_image=True),
    )
    return Dialogue(d.id, d.rounds[:-1] + (new_final,), d.dep_target_rounds, d.annotations)


def run_stage_c(dialogues: list[Dialogue], backend: CompletionBackend, *,
                apply_fraction: float = 1.0, seed: int = 0,
                retries: int = 2, concurrency: int = 1,
                ) -> tuple[list[Dialogue], list[dict[str, Any]]]:
    """Interleave each dialogue selected by a seeded per-id coin.

    Unselected dialogues pass through untouched; selected ones that are
    already interleaved pass through with a skip annotation.
    """
    if not 0.0 <= apply_fraction <= 1.0:
        raise ValueError("apply_fraction must lie in [0, 1]")

    def one(d: Dialogue) -> Dialogue:
        if random.Random(derive_seed(seed, d.id, "apply")).random() >= apply_fraction:
            return d
        if d.signature.output is OutputModality.TI:
            return with_annotation(d, "stage_c_skipped")
        return interleave_output(d, backend, seed=seed, retries=retries)

    return run_records(one, dialogues, concurrency,
                       lambda d, err: {"id": d.id, "error": str(err)})
