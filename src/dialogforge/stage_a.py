"""Builders that turn single-turn source records into basic stateful dialogues.

Each builder covers one task signature with dependency depth 0 or 1. Images
are passed through as references: a record's dataset image becomes the
generated (assistant) or uploaded (user) image of the dialogue fiction, id
preserved so input and output corpora stay joinable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Callable

from .atomic_ops import CompletionBackend, OpKind, OpRequest, invoke
from .dialogue import (
    Dialogue,
    ImageRef,
    ImageSource,
    MissingCaption,
    Provenance,
    Role,
    Round,
    Segment,
    Stage,
    Turn,
    image_from_obj,
)
from .taxonomy import parse_signature
from .util import derive_seed, run_records

SIG_T_I_0_0 = parse_signature("t_i_0_0")
SIG_T_I_T1_1 = parse_signature("t_i_t1_1")
SIG_TI_I_0_0 = parse_signature("ti_i_0_0")
SIG_T_I_I1_1 = parse_signature("t_i_i1_1")
SIG_T_I_IN_1 = parse_signature("t_i_in_1")
SIG_TI_I_I1_1 = parse_signature("ti_i_i1_1")


class RecordError(ValueError):
    """An ingest record that violates its schema."""


@dataclass(frozen=True)
class T2IRecord:
    id: str
    caption: str
    image: ImageRef


@dataclass(frozen=True)
class EditRecord:
    id: str
    instruction: str
    source_image: ImageRef
    target_image: ImageRef
    source_caption: str
    target_caption: str


@dataclass(frozen=True)
class SubjectRecord:
    id: str
    subjects: tuple[tuple[str, ImageRef], ...]  # (caption, image), exactly two
    composed_image: ImageRef
    composed_caption: str


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
    return T2IRecord(id=obj.get("id") or image.id, caption=caption, image=image)


def edit_record_from_obj(obj: dict[str, Any]) -> EditRecord:
    for key in ("instruction", "source_caption", "target_caption"):
        value = _require(obj, key)
        if not isinstance(value, str) or not value.strip():
            raise RecordError(f"edit record needs a non-empty {key}")
    source = _dataset_image(_require(obj, "source_image"), obj["source_caption"])
    target = _dataset_image(_require(obj, "target_image"), obj["target_caption"])
    if source.id == target.id:
        raise RecordError("edit record source and target images must have distinct ids")
    return EditRecord(
        id=obj.get("id") or target.id,
        instruction=obj["instruction"],
        source_image=source,
        target_image=target,
        source_caption=obj["source_caption"],
        target_caption=obj["target_caption"],
    )


def subject_record_from_obj(obj: dict[str, Any]) -> SubjectRecord:
    subjects_obj = _require(obj, "subjects")
    if not isinstance(subjects_obj, list) or len(subjects_obj) != 2:
        raise RecordError("subject record needs exactly two subjects")
    subjects = []
    for s in subjects_obj:
        caption = _require(s, "caption")
        if not isinstance(caption, str) or not caption.strip():
            raise RecordError("subject needs a non-empty caption")
        subjects.append((caption, _dataset_image(_require(s, "image"), caption)))
    if subjects[0][1].id == subjects[1][1].id:
        raise RecordError("subject images must have distinct ids")
    composed_caption = _require(obj, "composed_caption")
    if not isinstance(composed_caption, str) or not composed_caption.strip():
        raise RecordError("subject record needs a non-empty composed_caption")
    composed = _dataset_image(_require(obj, "composed_image"), composed_caption)
    return SubjectRecord(
        id=obj.get("id") or composed.id,
        subjects=tuple(subjects),
        composed_image=composed,
        composed_caption=composed_caption,
    )


def _generated(img: ImageRef, caption: str) -> Segment:
    return Segment(image=replace(img, source=ImageSource.GENERATED, caption=caption))


def _uploaded(img: ImageRef, caption: str) -> Segment:
    return Segment(image=replace(img, source=ImageSource.UPLOADED, caption=caption))


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


def build_t_i_0_0(rec: T2IRecord, backend: CompletionBackend, *,
                  seed: int = 0, retries: int = 2) -> Dialogue:
    """Single-round text-to-image: caption becomes the request, image the reply."""
    query = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": rec.caption},
                     derive_seed(seed, rec.id, "caption2query"), retries)
    return Dialogue(
        id=f"{rec.id}.t_i_0_0.{seed}",
        rounds=(Round(_user(query, OpKind.CAPTION2QUERY), _assistant_image(_generated(rec.image, rec.caption))),),
        signature=SIG_T_I_0_0,
    )


def build_t_i_t1_1(rec: T2IRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Q&A about the subject, then a generic request that leans on that text history."""
    resp = invoke(
        OpRequest(OpKind.CAPTION2QA_Q, {"caption": rec.caption},
                  derive_seed(seed, rec.id, "caption2qa_q")),
        backend, retries,
    )
    rounds = (
        Round(_user(resp.fields["q"], OpKind.CAPTION2QA_Q),
              _assistant_text(resp.fields["a"], OpKind.CAPTION2QA_Q)),
        Round(_user(resp.fields["query"], OpKind.CAPTION2QA_Q),
              _assistant_image(_generated(rec.image, rec.caption))),
    )
    return Dialogue(
        id=f"{rec.id}.t_i_t1_1.{seed}",
        rounds=rounds,
        signature=SIG_T_I_T1_1,
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )


def build_ti_i_0_0(rec: EditRecord, *, seed: int = 0) -> Dialogue:
    """Single-round edit: instruction plus uploaded image in, edited image out."""
    rounds = (
        Round(
            _user(rec.instruction, upload=_uploaded(rec.source_image, rec.source_caption)),
            _assistant_image(_generated(rec.target_image, rec.target_caption)),
        ),
    )
    return Dialogue(id=f"{rec.id}.ti_i_0_0.{seed}", rounds=rounds, signature=SIG_TI_I_0_0)


def build_t_i_i1_1(rec: EditRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Edit split in two rounds: generate the original first, then edit it."""
    if not rec.source_caption.strip():
        raise MissingCaption("splitting an edit needs the source image caption")
    query = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": rec.source_caption},
                     derive_seed(seed, rec.id, "caption2query"), retries)
    rounds = (
        Round(_user(query, OpKind.CAPTION2QUERY),
              _assistant_image(_generated(rec.source_image, rec.source_caption))),
        Round(_user(rec.instruction),
              _assistant_image(_generated(rec.target_image, rec.target_caption))),
    )
    return Dialogue(
        id=f"{rec.id}.t_i_i1_1.{seed}",
        rounds=rounds,
        signature=SIG_T_I_I1_1,
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )


def build_t_i_in_1(rec: SubjectRecord, backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    """Two subjects generated in consecutive rounds, then composed into one image."""
    (cap_a, img_a), (cap_b, img_b) = rec.subjects
    query_a = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": cap_a},
                       derive_seed(seed, rec.id, "caption2query.0"), retries)
    query_b = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": cap_b},
                       derive_seed(seed, rec.id, "caption2query.1"), retries)
    compose = _op_text(backend, OpKind.DRIVE_HS, {"caption_a": cap_a, "caption_b": cap_b},
                       derive_seed(seed, rec.id, "drive_hs"), retries)
    rounds = (
        Round(_user(query_a, OpKind.CAPTION2QUERY), _assistant_image(_generated(img_a, cap_a))),
        Round(_user(query_b, OpKind.CAPTION2QUERY), _assistant_image(_generated(img_b, cap_b))),
        Round(_user(compose, OpKind.DRIVE_HS),
              _assistant_image(_generated(rec.composed_image, rec.composed_caption))),
    )
    return Dialogue(
        id=f"{rec.id}.t_i_in_1.{seed}",
        rounds=rounds,
        signature=SIG_T_I_IN_1,
        dep_target_rounds=(0, 1),
        dep_depth_value=2,
    )


def build_ti_i_i1_1(rec: SubjectRecord, backend: CompletionBackend, *,
                    seed: int = 0, retries: int = 2) -> Dialogue:
    """One generated subject combined with a newly uploaded one."""
    (cap_hist, img_hist), (cap_up, img_up) = rec.subjects
    query = _op_text(backend, OpKind.CAPTION2QUERY, {"caption": cap_hist},
                     derive_seed(seed, rec.id, "caption2query"), retries)
    combine = _op_text(backend, OpKind.DRIVE_I_H, {"caption_history": cap_hist},
                       derive_seed(seed, rec.id, "drive_i_h"), retries)
    rounds = (
        Round(_user(query, OpKind.CAPTION2QUERY), _assistant_image(_generated(img_hist, cap_hist))),
        Round(_user(combine, OpKind.DRIVE_I_H, upload=_uploaded(img_up, cap_up)),
              _assistant_image(_generated(rec.composed_image, rec.composed_caption))),
    )
    return Dialogue(
        id=f"{rec.id}.ti_i_i1_1.{seed}",
        rounds=rounds,
        signature=SIG_TI_I_I1_1,
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )


# task signature -> (record parser, builder, builder needs a backend)
BUILDERS: dict[str, tuple[Callable[[dict], Any], Callable[..., Dialogue], bool]] = {
    "t_i_0_0": (t2i_record_from_obj, build_t_i_0_0, True),
    "t_i_t1_1": (t2i_record_from_obj, build_t_i_t1_1, True),
    "ti_i_0_0": (edit_record_from_obj, build_ti_i_0_0, False),
    "t_i_i1_1": (edit_record_from_obj, build_t_i_i1_1, True),
    "t_i_in_1": (subject_record_from_obj, build_t_i_in_1, True),
    "ti_i_i1_1": (subject_record_from_obj, build_ti_i_i1_1, True),
}


def build_for_task(task: str, raw: dict[str, Any], backend: CompletionBackend, *,
                   seed: int = 0, retries: int = 2) -> Dialogue:
    if task not in BUILDERS:
        raise RecordError(f"no builder for task {task!r}")
    parse, build, needs_backend = BUILDERS[task]
    rec = parse(raw)
    if needs_backend:
        return build(rec, backend, seed=seed, retries=retries)
    return build(rec, seed=seed)


def run_stage_a(raw_records: list[dict[str, Any]], task: str, backend: CompletionBackend, *,
                seed: int = 0, retries: int = 2, concurrency: int = 1,
                ) -> tuple[list[Dialogue], list[dict[str, Any]]]:
    """Build one dialogue per record; failures land in the rejects list."""
    return run_records(
        lambda indexed: build_for_task(task, indexed[1], backend, seed=seed, retries=retries),
        enumerate(raw_records), concurrency,
        lambda indexed, err: {"index": indexed[0], "error": str(err), "record": indexed[1]},
    )
