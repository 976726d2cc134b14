"""Interleaved output generation: image-only replies gain a caption-grounded Q&A.

The final user turn is augmented with a general-knowledge question about the
requested image's subject and the final assistant turn answers it right after
the image, turning the output modality from image-only into text-and-image.
``interleave``, the module's one entry point, runs the stage on one dialogue
if its seeded per-id coin says so.
"""

from __future__ import annotations

import random
from dataclasses import replace

from .atomic_ops import CompletionBackend, OpKind, invoke
from .dialogue import Dialogue, Round, Segment, Turn, image_caption, with_annotation
from .taxonomy import OutputModality
from .util import derive_seed


def _insert_text(turn: Turn, text: str, *, after_image: bool) -> Turn:
    """Insert a text segment right after the turn's last text (or image) segment."""
    at = max((i for i, s in enumerate(turn.segments) if s.is_image == after_image),
             default=-1) + 1
    segments = turn.segments[:at] + (Segment(text=text),) + turn.segments[at:]
    return replace(turn, segments=segments)


def interleave(d: Dialogue, backend: CompletionBackend, *, apply_fraction: float = 1.0,
               seed: int = 0, retries: int = 2) -> Dialogue:
    """Stage c for one dialogue: append a Q to the final request and an A after the final image.

    Only if the id's seeded coin, which comes up ``apply_fraction`` of the time,
    selects it: unselected dialogues pass through untouched, and selected ones
    already interleaved get a skip annotation instead.

    Raises:
        MissingCaption: the final image has no caption to ground the Q&A.
        InvalidTarget, AmbiguousDependency, UnclassifiableModality: the output
        has no signature (see ``Dialogue``).
    """
    if random.Random(derive_seed(seed, d.id, "apply")).random() >= apply_fraction:
        return d
    if d.signature.output is OutputModality.TI:
        return with_annotation(d, "stage_c_skipped")
    caption = image_caption(d, d.last_round_index)
    question = invoke(OpKind.Q_FROM_CAPTION, {"caption": caption},
                      derive_seed(seed, d.id, "q_from_caption"), backend, retries)["q"]
    answer = invoke(OpKind.A_FROM_CAPTION, {"caption": caption, "question": question},
                    derive_seed(seed, d.id, "a_from_caption"), backend, retries)["a"]
    final = d.rounds[-1]
    new_final = Round(
        user=_insert_text(final.user, question, after_image=False),
        assistant=_insert_text(final.assistant, answer, after_image=True),
    )
    return Dialogue(d.id, d.rounds[:-1] + (new_final,), d.dep_target_rounds, d.annotations)
