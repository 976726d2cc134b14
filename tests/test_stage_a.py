import copy
import functools
import operator

import pytest

from dialogforge import io
from dialogforge.atomic_ops import MissingInput
from dialogforge.cli import PipelineConfig
from dialogforge.dialogue import Stage, validate_dialogue
from dialogforge.fixtures import make_edit_records, make_subject_records, make_t2i_records
from dialogforge.stage_a import (
    BUILDERS,
    RecordError,
    build_t_i_0_0,
    build_t_i_i1_1,
    build_t_i_in_1,
    build_t_i_t1_1,
    build_ti_i_0_0,
    build_ti_i_i1_1,
    edit_record_from_obj,
    subject_record_from_obj,
    t2i_record_from_obj,
)
from dialogforge.taxonomy import DepthKind, format_signature
from dialogforge.values import replace


@pytest.fixture()
def t2i_rec():
    return t2i_record_from_obj(make_t2i_records(1, 11)[0])


@pytest.fixture()
def edit_rec():
    return edit_record_from_obj(make_edit_records(1, 12)[0])


@pytest.fixture()
def subj_rec():
    return subject_record_from_obj(make_subject_records(1, 13)[0])


def test_t_i_0_0(t2i_rec, backend):
    d = build_t_i_0_0(t2i_rec, backend, seed=7)
    assert format_signature(d.signature) == "t_i_0_0"
    assert len(d.rounds) == 1
    assert d.dep_target_rounds == ()
    assert d.dep_depth_value is None
    assert validate_dialogue(d).ok
    assert d.rounds[-1].user.text_content() == f"Please generate an image of {t2i_rec.image.caption}"
    assert d.id == f"{t2i_rec.id}.t_i_0_0.7"
    assert d.rounds[0].user.images() == []  # the record's image is generated, not uploaded
    img = d.rounds[0].assistant.images()[0]
    assert img.id == t2i_rec.image.id
    assert img.caption == t2i_rec.image.caption


def test_t_i_t1_1(t2i_rec, backend):
    d = build_t_i_t1_1(t2i_rec, backend, seed=7)
    assert format_signature(d.signature) == "t_i_t1_1"
    assert len(d.rounds) == 2
    assert d.dep_target_rounds == (0,)
    assert d.dep_depth_value == 1
    assert validate_dialogue(d).ok
    # round 0 is the Q&A, round 1 the generic request
    assert d.rounds[0].assistant.images() == []
    assert d.rounds[-1].user.text_content() == "Create one for me."
    # byte-determinism under a fixed seed
    again = build_t_i_t1_1(t2i_rec, backend, seed=7)
    assert again == d


def test_ti_i_0_0(edit_rec, backend):
    d = build_ti_i_0_0(edit_rec, backend, seed=7)
    assert format_signature(d.signature) == "ti_i_0_0"
    assert validate_dialogue(d).ok
    user = d.rounds[-1].user
    assert [img.id for img in user.images()] == [edit_rec.source_image.id]  # uploaded
    assert [img.id for img in d.rounds[-1].assistant.images()] == [edit_rec.target_image.id]
    assert user.segments[0].text == edit_rec.instruction
    assert user.provenance.stage is Stage.SOURCE


def test_t_i_i1_1(edit_rec, backend):
    d = build_t_i_i1_1(edit_rec, backend, seed=7)
    assert format_signature(d.signature) == "t_i_i1_1"
    assert d.dep_target_rounds == (0,)
    assert d.dep_depth_value == 1
    assert validate_dialogue(d).ok
    assert d.rounds[-1].user.text_content() == edit_rec.instruction
    assert d.rounds[0].assistant.images()[0].id == edit_rec.source_image.id
    assert d.rounds[1].assistant.images()[0].id == edit_rec.target_image.id


def test_t_i_i1_1_missing_caption(edit_rec, backend):
    blank = replace(edit_rec.source_image, caption="   ")
    broken = replace(edit_rec, source_image=blank)
    with pytest.raises(MissingInput):
        build_t_i_i1_1(broken, backend)


def test_t_i_in_1(subj_rec, backend):
    d = build_t_i_in_1(subj_rec, backend, seed=7)
    assert format_signature(d.signature) == "t_i_in_1"
    assert len(d.rounds) == 3
    assert d.dep_target_rounds == (0, 1)
    assert d.dep_depth_value == 2  # farthest subject sits two rounds back
    assert d.signature.depth is DepthKind.ONE  # nearest subject is adjacent
    assert validate_dialogue(d).ok
    final = d.rounds[-1].user.text_content()
    assert subj_rec.subjects[0].caption in final
    assert subj_rec.subjects[1].caption in final


def test_ti_i_i1_1(subj_rec, backend):
    d = build_ti_i_i1_1(subj_rec, backend, seed=7)
    assert format_signature(d.signature) == "ti_i_i1_1"
    assert len(d.rounds) == 2
    assert d.dep_target_rounds == (0,)
    assert d.dep_depth_value == 1
    assert validate_dialogue(d).ok
    # the history subject is generated in round 0; the other is uploaded with the request
    assert [img.id for img in d.rounds[0].assistant.images()] == [subj_rec.subjects[0].id]
    assert [img.id for img in d.rounds[-1].user.images()] == [subj_rec.subjects[1].id]


def test_image_ids_appear_exactly_once(subj_rec, backend):
    d = build_t_i_in_1(subj_rec, backend)
    ids = [img.id for r in d.rounds for t in (r.user, r.assistant) for img in t.images()]
    assert len(ids) == len(set(ids)) == 3


def test_builders_do_not_mutate_records(edit_rec, backend):
    before = copy.deepcopy(edit_rec)
    build_t_i_i1_1(edit_rec, backend)
    assert edit_rec == before


def test_record_parsing_rejects_bad_shapes():
    with pytest.raises(RecordError):
        t2i_record_from_obj({"caption": ""})
    with pytest.raises(RecordError):
        t2i_record_from_obj({"caption": "x"})
    rec = make_edit_records(1, 3)[0]
    rec["target_image"]["id"] = rec["source_image"]["id"]
    with pytest.raises(RecordError):
        edit_record_from_obj(rec)
    srec = make_subject_records(1, 3)[0]
    srec["subjects"] = srec["subjects"][:1]
    with pytest.raises(RecordError):
        subject_record_from_obj(srec)


@pytest.mark.parametrize("source", ["generated", "uploaded", None, "absent"])
def test_record_parsing_rejects_non_dataset_image(source):
    rec = make_t2i_records(1, 4)[0]
    if source == "absent":
        del rec["image"]["source"]
    else:
        rec["image"]["source"] = source
    got = None if source == "absent" else source
    with pytest.raises(RecordError, match=f"image 't2i-00000-img' must be dataset-sourced, "
                                          f"got {got!r}$"):
        t2i_record_from_obj(rec)


@pytest.mark.parametrize("make_records, task, path, value, error", [
    (make_t2i_records, "t_i_0_0", ["image"], 5, "record key 'image' must be an object, not 5"),
    (make_subject_records, "t_i_in_1", ["subjects", 1], 5,
     "record key 'subjects[1]' must be an object, not 5"),
    (make_subject_records, "t_i_in_1", ["subjects", 0, "image"], 5,
     "record key 'subjects[0].image' must be an object, not 5"),
    (make_edit_records, "t_i_i1_1", ["source_image"], "img.png",
     "record key 'source_image' must be an object, not 'img.png'"),
    (make_t2i_records, "t_i_0_0", ["image", "caption"], 5,
     "image 't2i-00000-img': caption must be a string, not 5"),
    (make_edit_records, "t_i_i1_1", ["target_image", "caption"], ["x"],
     "image 'edit-00000-tgt': caption must be a string, not ['x']"),
], ids=["image", "subject", "subject-image", "source_image", "caption-int", "caption-list"])
def test_stage_a_reject_names_a_key_that_is_not_an_object(backend, synthesize, make_records,
                                                          task, path, value, error):
    rec = make_records(1, 4)[0]
    *parents, last = path
    functools.reduce(operator.getitem, parents, rec)[last] = value
    records, rejects = synthesize([rec], ["a"], backend, PipelineConfig(), task=task)
    assert records == []
    assert rejects == [{"stage": "a", "index": 0, "error": error, "record": rec}]


def test_stage_a_chain_keeps_order_and_rejects(backend, synthesize):
    raw = make_t2i_records(5, 21)
    raw[2] = {"caption": "", "image": raw[2]["image"]}  # one broken record
    outputs, rejects = synthesize(raw, ["a"], backend, PipelineConfig(seed=1), task="t_i_0_0",
                                  threads=4)
    assert len(outputs) == 4
    assert rejects == [{"stage": "a", "index": 2, "error": rejects[0]["error"], "record": raw[2]}]
    assert ([d["id"].split(".")[0] for d in outputs]
            == [r["id"] for i, r in enumerate(raw) if i != 2])


def test_stage_a_chain_deterministic(backend, synthesize):
    raw = make_subject_records(6, 9)
    cfg = PipelineConfig(seed=5)
    assert (synthesize(raw, ["a"], backend, cfg, task="ti_i_i1_1", threads=1)
            == synthesize(raw, ["a"], backend, cfg, task="ti_i_i1_1", threads=4))


def test_every_builder_is_registered():
    assert set(BUILDERS) == {"t_i_0_0", "t_i_t1_1", "ti_i_0_0", "t_i_i1_1",
                             "t_i_in_1", "ti_i_i1_1"}


def test_stage_a_chain_refuses_an_unknown_task_before_any_record(backend, synthesize,
                                                                 monkeypatch):
    read = []
    monkeypatch.setattr(io, "numbered_lines", lambda path: read.append(path) or iter(()))
    with pytest.raises(KeyError, match="t_i_i1_n"):
        synthesize(make_t2i_records(3, 14), ["a"], backend, PipelineConfig(), task="t_i_i1_n")
    assert read == []
