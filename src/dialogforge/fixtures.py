"""Synthetic source records and distractor pools.

Everything here is seeded word-salad plumbing for demos and tests; the
shapes, not the prose, are what matter.
"""

from __future__ import annotations

import random
from typing import Any

from .dialogue import ImageRef, Provenance, Segment, Stage, Turn
from .stage_b import DistractorCategory, DistractorEntry, DistractorPool

_ADJECTIVES = ["golden", "white", "sleepy", "tiny", "ancient", "bright", "wooden",
               "striped", "foggy", "crimson", "silver", "round"]
_NOUNS = ["retriever", "cat", "lighthouse", "notebook", "bicycle", "teapot",
          "mountain", "violin", "robot", "garden", "umbrella", "lantern"]
_SCENES = ["running on the grass", "lying on an open book", "standing in the rain",
           "floating above a lake", "resting on a windowsill", "glowing at dusk",
           "parked by a brick wall", "covered in fresh snow"]
_EDITS = ["Add a red hat", "Make the sky blue", "Remove the background people",
          "Turn it into a watercolor painting", "Add falling leaves",
          "Give it a warm sunset glow", "Place a small flag on top"]
_QUESTIONS = ["What breed is shown here?", "Where was this taken?",
              "What season does this look like?", "What material is this made of?"]
_CHAT = [("What is the capital of Norway?", "The capital of Norway is Oslo."),
         ("How many strings does a violin have?", "A violin has four strings."),
         ("When does water boil at sea level?", "At 100 degrees Celsius."),
         ("Who wrote The Odyssey?", "The Odyssey is attributed to Homer.")]

_DIMS = [256, 320, 384, 448, 512]


def make_caption(rng: random.Random) -> str:
    return f"a {rng.choice(_ADJECTIVES)} {rng.choice(_NOUNS)} {rng.choice(_SCENES)}"


def make_image_obj(rng: random.Random, image_id: str, caption: str | None = None) -> dict[str, Any]:
    obj = {
        "id": image_id,
        "source": "dataset",
        "uri": f"data/images/{image_id}.png",
        "width": rng.choice(_DIMS),
        "height": rng.choice(_DIMS),
    }
    if caption is not None:
        obj["caption"] = caption
    return obj


def make_t2i_records(n: int, seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        rid = f"t2i-{i:05d}"
        caption = make_caption(rng)
        records.append({"id": rid, "caption": caption,
                        "image": make_image_obj(rng, f"{rid}-img", caption)})
    return records


def make_edit_records(n: int, seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        rid = f"edit-{i:05d}"
        src_caption = make_caption(rng)
        instruction = rng.choice(_EDITS)
        tgt_caption = f"{src_caption}, edited: {instruction.lower()}"
        records.append({
            "id": rid,
            "instruction": instruction,
            "source_image": make_image_obj(rng, f"{rid}-src", src_caption),
            "target_image": make_image_obj(rng, f"{rid}-tgt", tgt_caption),
            "source_caption": src_caption,
            "target_caption": tgt_caption,
        })
    return records


def make_subject_records(n: int, seed: int) -> list[dict[str, Any]]:
    rng = random.Random(seed)
    records = []
    for i in range(n):
        rid = f"subj-{i:05d}"
        cap_a, cap_b = make_caption(rng), make_caption(rng)
        composed = f"{cap_a} together with {cap_b}"
        records.append({
            "id": rid,
            "subjects": [
                {"caption": cap_a, "image": make_image_obj(rng, f"{rid}-a", cap_a)},
                {"caption": cap_b, "image": make_image_obj(rng, f"{rid}-b", cap_b)},
            ],
            "composed_image": make_image_obj(rng, f"{rid}-comp", composed),
            "composed_caption": composed,
        })
    return records


def _image_ref(rng: random.Random, image_id: str, caption: str) -> ImageRef:
    return ImageRef(id=image_id, uri=f"data/images/{image_id}.png",
                    width=rng.choice(_DIMS), height=rng.choice(_DIMS), caption=caption)


def make_distractor_pool(n_per_category: int, seed: int) -> DistractorPool:
    """T2I, image-understanding, and text-chat single-round entries."""
    rng = random.Random(seed)
    entries = []
    prov = Provenance(Stage.SOURCE)
    for i in range(n_per_category):
        caption = make_caption(rng)
        img = _image_ref(rng, f"pool-t2i-{i:04d}", caption)
        entries.append(DistractorEntry(
            DistractorCategory.T2I,
            Turn((Segment(text=f"Please generate an image of {caption}"),), prov),
            Turn((Segment(image=img),), prov),
        ))
    for i in range(n_per_category):
        caption = make_caption(rng)
        img = _image_ref(rng, f"pool-und-{i:04d}", caption)
        entries.append(DistractorEntry(
            DistractorCategory.IMAGE_UNDERSTANDING,
            Turn((Segment(text=rng.choice(_QUESTIONS)), Segment(image=img)), prov),
            Turn((Segment(text=f"It looks like {caption}."),), prov),
        ))
    for i in range(n_per_category):
        q, a = rng.choice(_CHAT)
        entries.append(DistractorEntry(
            DistractorCategory.TEXT_CHAT,
            Turn((Segment(text=q),), prov),
            Turn((Segment(text=a),), prov),
        ))
    return DistractorPool(tuple(entries))

