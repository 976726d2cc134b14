"""Builders that turn single-turn source records into basic stateful dialogues.

Each builder covers one task signature with dependency depth 0 or 1. Images
are passed through as references: a record's dataset image becomes the
generated (assistant) or uploaded (user) image of the dialogue fiction, id
preserved so input and output corpora stay joinable. A record keeps each
caption once, on its image, where ``_dataset_image`` fills it in or checks it.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from .atomic_ops import CompletionBackend, OpKind, OpRequest, invoke
from .dialogue import (
    Dialogue,
    ImageRef,
    ImageSource,
    Provenance,
    Role,
    Round,
    Segment,
    Stage,
    Turn,
    image_from_obj,
)
from .util import derive_seed, run_records


class RecordError(ValueError):
    """An ingest record that violates its schema."""


@dataclass(frozen=True)
class T2IRecord:
    id: str
    image: ImageRef


@dataclass(frozen=True)
class EditRecord:
    id: str
    instruction: str
    source_image: ImageRef
    target_image: ImageRef


@dataclass(frozen=True)
class SubjectRecord:
    id: str
    subjects: tuple[ImageRef, ImageRef]
    composed_image: ImageRef


def _require(obj: dict[str, Any], key: str) -> Any:
    if key not in obj:
        raise RecordError(f"record is missing key {key!r}")
    return obj[key]


def _dataset_image(obj: dict[str, Any], caption: str) -> ImageRef:
    img = image_from_obj(obj)
    if img.source is not ImageSource.DATASET:
        raise RecordError(f"image {img.id!r} must be dataset-sourced, got {img.source.value!r}")
    if img.caption is None:
        img = replace(img, caption=caption)
    elif img.caption != caption:
        raise RecordError(f"image {img.id!r} caption disagrees with the record caption")
    return img


def t2i_record_from_obj(obj: dict[str, Any]) -> T2IRecord:
    caption = _require(obj, "caption")
    if not isinstance(caption, str) or not caption.strip():
        raise RecordError("t2i record needs a non-empty caption")
    image = _dataset_image(_require(obj, "image"), caption)
    return T2IRecord(id=obj.get("id") or image.id, image=image)


def edit_record_from_obj(obj: dict[str, Any]) -> EditRecord:
    for key in ("instruction", "source_caption", "target_caption"):
        value = _require(obj, key)
        if not isinstance(value, str) or not value.strip():
            raise RecordError(f"edit record needs a non-empty {key}")
    source = _dataset_image(_require(obj, "source_image"), obj["source_caption"])
    target = _dataset_image(_require(obj, "target_image"), obj["target_caption"])
    if source.id == target.id:
        raise RecordError("edit record source and target images must have distinct ids")
    return EditRecord(id=obj.get("id") or target.id, instruction=obj["instruction"],
                      source_image=source, target_image=target)


def subject_record_from_obj(obj: dict[str, Any]) -> SubjectRecord:
    subjects_obj = _require(obj, "subjects")
    if not isinstance(subjects_obj, list) or len(subjects_obj) != 2:
        raise RecordError("subject record needs exactly two subjects")
    subjects = []
    for s in subjects_obj:
        caption = _require(s, "caption")
        if not isinstance(caption, str) or not caption.strip():
            raise RecordError("subject needs a non-empty caption")
        subjects.append(_dataset_image(_require(s, "image"), caption))
    if subjects[0].id == subjects[1].id:
        raise RecordError("subject images must have distinct ids")
    composed_caption = _require(obj, "composed_caption")
    if not isinstance(composed_caption, str) or not composed_caption.strip():
        raise RecordError("subject record needs a non-empty composed_caption")
    composed = _dataset_image(_require(obj, "composed_image"), composed_caption)
    return SubjectRecord(id=obj.get("id") or composed.id, subjects=tuple(subjects),
                         composed_image=composed)


def _generated(img: ImageRef) -> Segment:
    return Segment(image=replace(img, source=ImageSource.GENERATED))


def _uploaded(img: ImageRef) -> Segment:
    return Segment(image=replace(img, source=ImageSource.UPLOADED))


def _op_text(backend: CompletionBackend, kind: OpKind, inputs: dict[str, str],
             seed: int, retries: int, key: str = "query") -> str:
    return invoke(OpRequest(kind, inputs, seed), backend, retries).fields[key]


def _user(text: str, op: OpKind | None = None, upload: Segment | None = None) -> Turn:
    prov = Provenance(Stage.A, op_kind=op.value) if op else Provenance(Stage.SOURCE)
    segments = (Segment(text=text),) if upload is None else (Segment(text=text), upload)
    return Turn(Role.USER, segments, prov)


def _assistant_image(seg: Segment) -> Turn:
    return Turn(Role.ASSISTANT, (seg,), Provenance(Stage.SOURCE))


def _assistant_text(text: str, op: OpKind) -> Turn:
    return Turn(Role.ASSISTANT, (Segment(text=text),), Provenance(Stage.A, op_kind=op.value))


def _generation_round(img: ImageRef, backend: CompletionBackend, seed: int,
                      retries: int) -> Round:
    """A request written from the image's caption, answered by the image."""
    query = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": img.caption}, seed, retries)
    return Round(_user(query, OpKind.CAPTION2QUERY), _assistant_image(_generated(img)))


def build_t_i_0_0(rec: T2IRecord, backend: CompletionBackend, *,
                  seed: int = 0, retries: int = 2) -> Dialogue:
    """Single-round text-to-image: caption becomes the request, image the reply."""
    return Dialogue(f"{rec.id}.t_i_0_0.{seed}", (_generation_round(
        rec.image, backend, derive_seed(seed, rec.id, "caption2query"), retries),))


def build_t_i_t1_1(rec: T2IRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Q&A about the subject, then a generic request that leans on that text history."""
    resp = invoke(
        OpRequest(OpKind.CAPTION2QA_Q, {"caption": rec.image.caption},
                  derive_seed(seed, rec.id, "caption2qa_q")),
        backend, retries,
    )
    rounds = (
        Round(_user(resp.fields["q"], OpKind.CAPTION2QA_Q),
              _assistant_text(resp.fields["a"], OpKind.CAPTION2QA_Q)),
        Round(_user(resp.fields["query"], OpKind.CAPTION2QA_Q),
              _assistant_image(_generated(rec.image))),
    )
    return Dialogue(f"{rec.id}.t_i_t1_1.{seed}", rounds, (0,))


def build_ti_i_0_0(rec: EditRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Single-round edit: instruction plus uploaded image in, edited image out; no backend call."""
    return Dialogue(f"{rec.id}.ti_i_0_0.{seed}", (Round(
        _user(rec.instruction, upload=_uploaded(rec.source_image)),
        _assistant_image(_generated(rec.target_image)),
    ),))


def build_t_i_i1_1(rec: EditRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Edit split in two rounds: generate the original first, then edit it."""
    rounds = (
        _generation_round(rec.source_image, backend,
                          derive_seed(seed, rec.id, "caption2query"), retries),
        Round(_user(rec.instruction), _assistant_image(_generated(rec.target_image))),
    )
    return Dialogue(f"{rec.id}.t_i_i1_1.{seed}", rounds, (0,))


def build_t_i_in_1(rec: SubjectRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Two subjects generated in consecutive rounds, then composed into one image."""
    a, b = rec.subjects
    first = _generation_round(a, backend, derive_seed(seed, rec.id, "caption2query.0"), retries)
    second = _generation_round(b, backend, derive_seed(seed, rec.id, "caption2query.1"), retries)
    compose = _op_text(backend, OpKind.DRIVE_HS, {"caption_a": a.caption, "caption_b": b.caption},
                       derive_seed(seed, rec.id, "drive_hs"), retries)
    rounds = (first, second, Round(_user(compose, OpKind.DRIVE_HS),
                                   _assistant_image(_generated(rec.composed_image))))
    return Dialogue(f"{rec.id}.t_i_in_1.{seed}", rounds, (0, 1))


def build_ti_i_i1_1(rec: SubjectRecord, backend: CompletionBackend, *,
                    seed: int = 0, retries: int = 2) -> Dialogue:
    """One generated subject combined with a newly uploaded one."""
    history, upload = rec.subjects
    first = _generation_round(history, backend, derive_seed(seed, rec.id, "caption2query"), retries)
    combine = _op_text(backend, OpKind.DRIVE_I_H, {"caption_history": history.caption},
                       derive_seed(seed, rec.id, "drive_i_h"), retries)
    rounds = (first, Round(_user(combine, OpKind.DRIVE_I_H, upload=_uploaded(upload)),
                           _assistant_image(_generated(rec.composed_image))))
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


def run_stage_a(raw_records: list[dict[str, Any]], task: str, backend: CompletionBackend, *,
                seed: int = 0, retries: int = 2, concurrency: int = 1,
                ) -> tuple[list[Dialogue], list[dict[str, Any]]]:
    """Build one dialogue per record; failures land in the rejects list.

    Raises:
        KeyError: ``task`` is not a key of ``BUILDERS``.
    """
    parse, build = BUILDERS[task]
    return run_records(
        lambda indexed: build(parse(indexed[1]), backend, seed=seed, retries=retries),
        enumerate(raw_records), concurrency,
        lambda indexed, err: {"index": indexed[0], "error": str(err), "record": indexed[1]},
    )
