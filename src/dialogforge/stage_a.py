"""Builders that turn single-turn source records into basic stateful dialogues.

Each builder covers one task signature with dependency depth 0 or 1. Images
are passed through as references: a record's dataset image becomes the
generated image of the dialogue fiction where an assistant turn holds it and
the uploaded one where a user turn does, id preserved so input and output
corpora stay joinable. A record keeps each caption once, on its image, where
``_dataset_image`` fills it in or checks it.
"""

from __future__ import annotations

from typing import Any, Callable

from .atomic_ops import CompletionBackend, OpKind, invoke
from .dialogue import (
    Dialogue,
    ImageRef,
    Provenance,
    Round,
    Segment,
    Stage,
    Turn,
    image_from_obj,
)
from .util import derive_seed
from .values import Value, replace


class RecordError(ValueError):
    """An ingest record that violates its schema."""


class T2IRecord(Value):
    __slots__ = _fields = ("id", "image")

    def __init__(self, id: str, image: ImageRef):
        self.id, self.image = id, image


class EditRecord(Value):
    __slots__ = _fields = ("id", "instruction", "source_image", "target_image")

    def __init__(self, id: str, instruction: str, source_image: ImageRef, target_image: ImageRef):
        self.id, self.instruction = id, instruction
        self.source_image, self.target_image = source_image, target_image


class SubjectRecord(Value):
    __slots__ = _fields = ("id", "subjects", "composed_image")

    def __init__(self, id: str, subjects: tuple[ImageRef, ImageRef], composed_image: ImageRef):
        self.id, self.subjects, self.composed_image = id, subjects, composed_image


def _require(obj: dict[str, Any], key: str) -> Any:
    if key not in obj:
        raise RecordError(f"record is missing key {key!r}")
    return obj[key]


def _object(value: Any, key: str) -> dict[str, Any]:
    """``value``, read from record key ``key``, if it is a JSON object."""
    if not isinstance(value, dict):
        raise RecordError(f"record key {key!r} must be an object, not {value!r}")
    return value


def _dataset_image(record: dict[str, Any], key: str, caption: str,
                   path: str = "") -> ImageRef:
    """The dataset image at ``record[key]``, its caption filled in from ``caption``
    or checked against it. ``path`` prefixes ``key`` in a reject of a nested record."""
    obj = _object(_require(record, key), path + key)
    img = image_from_obj(obj)
    if obj.get("source") != "dataset":
        raise RecordError(f"image {img.id!r} must be dataset-sourced, got {obj.get('source')!r}")
    if img.caption is None:
        img = replace(img, caption=caption)
    elif img.caption != caption:
        raise RecordError(f"image {img.id!r} caption disagrees with the record caption")
    return img


def t2i_record_from_obj(obj: dict[str, Any]) -> T2IRecord:
    caption = _require(obj, "caption")
    if not isinstance(caption, str) or not caption.strip():
        raise RecordError("t2i record needs a non-empty caption")
    image = _dataset_image(obj, "image", caption)
    return T2IRecord(id=obj.get("id") or image.id, image=image)


def edit_record_from_obj(obj: dict[str, Any]) -> EditRecord:
    for key in ("instruction", "source_caption", "target_caption"):
        value = _require(obj, key)
        if not isinstance(value, str) or not value.strip():
            raise RecordError(f"edit record needs a non-empty {key}")
    source = _dataset_image(obj, "source_image", obj["source_caption"])
    target = _dataset_image(obj, "target_image", obj["target_caption"])
    if source.id == target.id:
        raise RecordError("edit record source and target images must have distinct ids")
    return EditRecord(id=obj.get("id") or target.id, instruction=obj["instruction"],
                      source_image=source, target_image=target)


def subject_record_from_obj(obj: dict[str, Any]) -> SubjectRecord:
    subjects_obj = _require(obj, "subjects")
    if not isinstance(subjects_obj, list) or len(subjects_obj) != 2:
        raise RecordError("subject record needs exactly two subjects")
    subjects = []
    for k, s in enumerate(subjects_obj):
        s = _object(s, f"subjects[{k}]")
        caption = _require(s, "caption")
        if not isinstance(caption, str) or not caption.strip():
            raise RecordError("subject needs a non-empty caption")
        subjects.append(_dataset_image(s, "image", caption, f"subjects[{k}]."))
    if subjects[0].id == subjects[1].id:
        raise RecordError("subject images must have distinct ids")
    composed_caption = _require(obj, "composed_caption")
    if not isinstance(composed_caption, str) or not composed_caption.strip():
        raise RecordError("subject record needs a non-empty composed_caption")
    composed = _dataset_image(obj, "composed_image", composed_caption)
    return SubjectRecord(id=obj.get("id") or composed.id, subjects=tuple(subjects),
                         composed_image=composed)


def _user(text: str, op: OpKind | None = None, upload: ImageRef | None = None) -> Turn:
    prov = Provenance(Stage.A, op_kind=op.value) if op else Provenance(Stage.SOURCE)
    upload_segment = () if upload is None else (Segment(image=upload),)
    return Turn((Segment(text=text),) + upload_segment, prov)


def _assistant_image(img: ImageRef) -> Turn:
    return Turn((Segment(image=img),), Provenance(Stage.SOURCE))


def _assistant_text(text: str, op: OpKind) -> Turn:
    return Turn((Segment(text=text),), Provenance(Stage.A, op_kind=op.value))


def _generation_round(img: ImageRef, backend: CompletionBackend, seed: int,
                      retries: int) -> Round:
    """A request written from the image's caption, answered by the image."""
    query = invoke(OpKind.CAPTION2QUERY, {"caption": img.caption}, seed, backend, retries)["query"]
    return Round(_user(query, OpKind.CAPTION2QUERY), _assistant_image(img))


def build_t_i_0_0(rec: T2IRecord, backend: CompletionBackend, *,
                  seed: int = 0, retries: int = 2) -> Dialogue:
    """Single-round text-to-image: caption becomes the request, image the reply."""
    return Dialogue(f"{rec.id}.t_i_0_0.{seed}", (_generation_round(
        rec.image, backend, derive_seed(seed, rec.id, "caption2query"), retries),))


def build_t_i_t1_1(rec: T2IRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Q&A about the subject, then a generic request that leans on that text history."""
    qa = invoke(OpKind.CAPTION2QA_Q, {"caption": rec.image.caption},
                derive_seed(seed, rec.id, "caption2qa_q"), backend, retries)
    rounds = (
        Round(_user(qa["q"], OpKind.CAPTION2QA_Q), _assistant_text(qa["a"], OpKind.CAPTION2QA_Q)),
        Round(_user(qa["query"], OpKind.CAPTION2QA_Q), _assistant_image(rec.image)),
    )
    return Dialogue(f"{rec.id}.t_i_t1_1.{seed}", rounds, (0,))


def build_ti_i_0_0(rec: EditRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Single-round edit: instruction plus uploaded image in, edited image out; no backend call."""
    return Dialogue(f"{rec.id}.ti_i_0_0.{seed}", (Round(
        _user(rec.instruction, upload=rec.source_image),
        _assistant_image(rec.target_image),
    ),))


def build_t_i_i1_1(rec: EditRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Edit split in two rounds: generate the original first, then edit it."""
    rounds = (
        _generation_round(rec.source_image, backend,
                          derive_seed(seed, rec.id, "caption2query"), retries),
        Round(_user(rec.instruction), _assistant_image(rec.target_image)),
    )
    return Dialogue(f"{rec.id}.t_i_i1_1.{seed}", rounds, (0,))


def build_t_i_in_1(rec: SubjectRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Two subjects generated in consecutive rounds, then composed into one image."""
    a, b = rec.subjects
    first = _generation_round(a, backend, derive_seed(seed, rec.id, "caption2query.0"), retries)
    second = _generation_round(b, backend, derive_seed(seed, rec.id, "caption2query.1"), retries)
    compose = invoke(OpKind.DRIVE_HS, {"caption_a": a.caption, "caption_b": b.caption},
                     derive_seed(seed, rec.id, "drive_hs"), backend, retries)["query"]
    rounds = (first, second, Round(_user(compose, OpKind.DRIVE_HS),
                                   _assistant_image(rec.composed_image)))
    return Dialogue(f"{rec.id}.t_i_in_1.{seed}", rounds, (0, 1))


def build_ti_i_i1_1(rec: SubjectRecord, backend: CompletionBackend, *,
                    seed: int = 0, retries: int = 2) -> Dialogue:
    """One generated subject combined with a newly uploaded one."""
    history, upload = rec.subjects
    first = _generation_round(history, backend, derive_seed(seed, rec.id, "caption2query"), retries)
    combine = invoke(OpKind.DRIVE_I_H, {"caption_history": history.caption},
                     derive_seed(seed, rec.id, "drive_i_h"), backend, retries)["query"]
    rounds = (first, Round(_user(combine, OpKind.DRIVE_I_H, upload=upload),
                           _assistant_image(rec.composed_image)))
    return Dialogue(f"{rec.id}.ti_i_i1_1.{seed}", rounds, (0,))


# task signature -> (record parser, builder)
BUILDERS: dict[str, tuple[Callable[[dict], Any], Callable[..., Dialogue]]] = {
    "t_i_0_0": (t2i_record_from_obj, build_t_i_0_0),
    "t_i_t1_1": (t2i_record_from_obj, build_t_i_t1_1),
    "ti_i_0_0": (edit_record_from_obj, build_ti_i_0_0),
    "t_i_i1_1": (edit_record_from_obj, build_t_i_i1_1),
    "t_i_in_1": (subject_record_from_obj, build_t_i_in_1),
    "ti_i_i1_1": (subject_record_from_obj, build_ti_i_i1_1),
}

