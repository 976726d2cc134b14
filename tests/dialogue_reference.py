"""Dialogue oracles and generators for tests.

The library has no use for these: ``restore_stage_a_view`` undoes stage b for
the reversibility properties, ``structural_equal`` compares dialogues without
their provenance, ``pool_from_t2i_dialogues`` reuses text-to-image dialogues
as distractors, ``make_random_dialogue`` draws block layouts for the stream
and mask properties, and ``enumerate_valid_signatures`` lists every label a
dialogue can have.
"""

import itertools
import random
from dataclasses import replace

from dialogforge.dialogue import (
    Dialogue,
    ImageRef,
    Provenance,
    Round,
    Segment,
    Stage,
    Turn,
)
from dialogforge.fixtures import _NOUNS, make_caption
from dialogforge.stage_b import DistractorCategory, DistractorEntry
from dialogforge.taxonomy import (
    DependencyModality,
    DepthKind,
    InputModality,
    OutputModality,
    TaskSignature,
    format_signature,
)


def restore_stage_a_view(d: Dialogue) -> Dialogue:
    """Drop distractor rounds and restore the pre-rewrite final query.

    The dialogue derives its depth again from the surviving rounds, so a
    stage-(b) output maps back to a dialogue structurally equal to its input.
    """
    rounds = tuple(
        r for r in d.rounds
        if not (r.user.is_distractor or r.assistant.is_distractor)
    )
    final = rounds[-1]
    original = final.user.provenance.original_text
    if original is not None:
        user = replace(
            final.user,
            segments=tuple(Segment(text=original) if s.is_text else s for s in final.user.segments),
        )
        rounds = rounds[:-1] + (Round(user, final.assistant),)
    return replace(d, rounds=rounds)


def structural_equal(a: Dialogue, b: Dialogue) -> bool:
    """Content equality ignoring annotations and provenance, save whether a turn
    is a distractor.

    The signature and depth follow from the content, so they need no comparing.
    """
    return _structure_key(a) == _structure_key(b)


def _structure_key(d: Dialogue):
    def seg_key(s: Segment):
        if s.is_text:
            return ("text", s.text)
        img = s.image
        return ("image", img.id, img.uri, img.width, img.height, img.caption)

    def turn_key(t: Turn):
        return (t.is_distractor, tuple(seg_key(s) for s in t.segments))

    return (
        d.id,
        d.dep_target_rounds,
        tuple((turn_key(r.user), turn_key(r.assistant)) for r in d.rounds),
    )


def pool_from_t2i_dialogues(dialogues: list[Dialogue]) -> list[DistractorEntry]:
    """Reuse single-round text-to-image dialogues as distractor entries."""
    entries = []
    for d in dialogues:
        if len(d.rounds) != 1:
            raise ValueError(f"dialogue {d.id!r} is not a single-round dialogue")
        entries.append(DistractorEntry(DistractorCategory.T2I,
                                       d.rounds[0].user, d.rounds[0].assistant))
    return entries


def make_random_dialogue(rng: random.Random, dialogue_id: str, *,
                         max_rounds: int = 3, dims: list[int] | None = None,
                         max_words: int = 6) -> Dialogue:
    """Random structure that serializes to a grammar-valid stream.

    The dialogue has no dependency targets, and its final round always ends on
    a generated image so that it has a signature; mask and grammar tests only
    care about the block layout.
    """
    dims = dims or [16, 24, 32, 48]
    prov = Provenance(Stage.SOURCE)

    def words(k: int) -> str:
        return " ".join(rng.choice(_NOUNS) for _ in range(k))

    def image(image_id: str, caption: str | None) -> ImageRef:
        return ImageRef(id=image_id, uri=f"data/images/{image_id}.png",
                        width=rng.choice(dims), height=rng.choice(dims), caption=caption)

    rounds = []
    n_rounds = rng.randint(1, max_rounds)
    for ri in range(n_rounds):
        user_segs: list[Segment] = [Segment(text=words(rng.randint(1, max_words)))]
        if rng.random() < 0.3:
            user_segs.append(Segment(image=image(f"{dialogue_id}-u{ri}", None)))
        shape = rng.choice(["image", "image_text"] if ri == n_rounds - 1
                           else ["image", "text", "image_text"])
        asst_segs: list[Segment] = []
        if shape in ("image", "image_text"):
            asst_segs.append(Segment(image=image(f"{dialogue_id}-a{ri}", make_caption(rng))))
        if shape in ("text", "image_text"):
            asst_segs.append(Segment(text=words(rng.randint(1, max_words))))
        rounds.append(Round(
            Turn(tuple(user_segs), prov),
            Turn(tuple(asst_segs), prov),
        ))
    return Dialogue(id=dialogue_id, rounds=tuple(rounds))


def enumerate_valid_signatures() -> list[TaskSignature]:
    """All 36 valid signatures, in lexicographic order of their string forms."""
    sigs = []
    for inp, out, dep, kind in itertools.product(
        InputModality, OutputModality, DependencyModality, DepthKind
    ):
        sig = TaskSignature(inp, out, dep, kind)
        if sig.is_consistent:
            sigs.append(sig)
    sigs.sort(key=format_signature)
    return sigs
