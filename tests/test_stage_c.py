import pytest
from dialogue_reference import structural_equal

from dialogforge.cli import PipelineConfig
from dialogforge.dialogue import (
    MissingCaption,
    validate_dialogue,
)
from dialogforge.fixtures import (
    make_distractor_pool,
    make_edit_records,
    make_subject_records,
    make_t2i_records,
)
from dialogforge.stage_a import (
    BUILDERS,
    build_t_i_0_0,
    build_t_i_i1_1,
    build_ti_i_0_0,
    t2i_record_from_obj,
    edit_record_from_obj,
)
from dialogforge.stage_b import insert_distractors
from dialogforge.stage_c import interleave
from dialogforge.taxonomy import OutputModality, format_signature
from dialogforge.values import replace


@pytest.fixture()
def t2i_dialogue(backend):
    return build_t_i_0_0(t2i_record_from_obj(make_t2i_records(1, 71)[0]), backend, seed=1)


def all_image_output_dialogues(backend):
    """One dialogue per image-output pipeline signature, depth 0/1 and long-range."""
    records = {
        "t2i": make_t2i_records(1, 81)[0],
        "edit": make_edit_records(1, 82)[0],
        "subj": make_subject_records(1, 83)[0],
    }
    raw_for = {"t_i_0_0": "t2i", "t_i_t1_1": "t2i", "ti_i_0_0": "edit",
               "t_i_i1_1": "edit", "t_i_in_1": "subj", "ti_i_i1_1": "subj"}
    dialogues = []
    for task, (parse, build) in BUILDERS.items():
        dialogues.append(build(parse(records[raw_for[task]]), backend, seed=4))
    pool = make_distractor_pool(4, 84)
    deep = []
    for d in dialogues:
        if d.dep_target_rounds:
            deep.append(insert_distractors(d, pool, (2, 2), 5, backend))
    return dialogues + deep  # 6 basic + 4 long-range signatures


def test_interleave_t2i(t2i_dialogue, backend):
    out = interleave(t2i_dialogue, backend, seed=1)
    assert format_signature(out.signature) == "t_ti_0_0"
    assert validate_dialogue(out).ok
    # image first, answer after
    final = out.rounds[-1].assistant
    assert [s.is_image for s in final.segments] == [True, False]
    # question appended after the existing request text
    user = out.rounds[-1].user
    assert len(user.segments) == 2
    assert user.segments[0] == t2i_dialogue.rounds[-1].user.segments[0]
    assert user.segments[1].is_text


def test_interleave_grounded_in_final_caption(t2i_dialogue, backend):
    caption = t2i_dialogue.rounds[-1].assistant.images()[0].caption
    out = interleave(t2i_dialogue, backend, seed=1)
    assert caption in out.rounds[-1].user.segments[1].text
    assert caption in out.rounds[-1].assistant.segments[1].text


def test_interleave_upload_stays_last(backend):
    rec = edit_record_from_obj(make_edit_records(1, 72)[0])
    d = build_ti_i_0_0(rec, backend, seed=1)
    out = interleave(d, backend, seed=1)
    # question lands between the instruction and the upload
    kinds = ["image" if s.is_image else "text" for s in out.rounds[-1].user.segments]
    assert kinds == ["text", "text", "image"]
    assert format_signature(out.signature) == "ti_ti_0_0"


def test_interleave_missing_caption(t2i_dialogue, backend):
    final = t2i_dialogue.rounds[-1]
    img_seg = final.assistant.segments[0]
    stripped = replace(img_seg, image=replace(img_seg.image, caption=None))
    asst = replace(final.assistant, segments=(stripped,))
    d = replace(t2i_dialogue,
                            rounds=(replace(final, assistant=asst),))
    with pytest.raises(MissingCaption):
        interleave(d, backend)


def test_interleave_only_touches_final_round(backend):
    d = build_t_i_i1_1(edit_record_from_obj(make_edit_records(1, 73)[0]), backend, seed=2)
    out = interleave(d, backend, seed=2)
    assert out.rounds[:-1] == d.rounds[:-1]
    assert len(out.rounds) == len(d.rounds)
    added = sum(len(r.user.segments) + len(r.assistant.segments) for r in out.rounds) - \
        sum(len(r.user.segments) + len(r.assistant.segments) for r in d.rounds)
    assert added == 2


def test_signature_transform_is_output_only(backend):
    for d in all_image_output_dialogues(backend):
        out = interleave(d, backend, seed=9)
        assert out.signature.output is OutputModality.TI
        assert out.signature.input is d.signature.input
        assert out.signature.dep is d.signature.dep
        assert out.signature.depth == d.signature.depth
        assert validate_dialogue(out).ok
        assert [s.is_image for s in out.rounds[-1].assistant.segments][:1] == [True]
        assert out.rounds[-1].assistant.segments[-1].is_text


def test_interleave_universal(backend):
    dialogues = [build_t_i_0_0(t2i_record_from_obj(r), backend)
                 for r in make_t2i_records(20, 74)]
    outputs = [interleave(d, backend, apply_fraction=1.0, seed=3) for d in dialogues]
    assert all(o.signature.output is OutputModality.TI for o in outputs)
    assert [o.id for o in outputs] == [d.id for d in dialogues]


def test_interleave_identity_at_zero(backend):
    dialogues = [build_t_i_0_0(t2i_record_from_obj(r), backend)
                 for r in make_t2i_records(8, 75)]
    assert [interleave(d, backend, apply_fraction=0.0, seed=3) for d in dialogues] == dialogues


def test_interleave_seeded_selection(backend):
    dialogues = [build_t_i_0_0(t2i_record_from_obj(r), backend)
                 for r in make_t2i_records(40, 76)]

    def run(seed):
        return [interleave(d, backend, apply_fraction=0.5, seed=seed) for d in dialogues]

    o1 = run(3)
    assert run(3) == o1
    selected = [o.signature.output is OutputModality.TI for o in o1]
    assert 5 < sum(selected) < 35  # a fraction, not all or none
    assert [o.signature.output for o in run(4)] != [o.signature.output for o in o1]


def test_interleave_annotates_already_interleaved(backend):
    d = interleave(
        build_t_i_0_0(t2i_record_from_obj(make_t2i_records(1, 77)[0]), backend), backend)
    out = interleave(d, backend, apply_fraction=1.0, seed=3)
    assert out.annotations == ("stage_c_skipped",)
    assert structural_equal(out, d)


@pytest.mark.parametrize("make_records", [make_edit_records, make_t2i_records,
                                          make_subject_records])
def test_chain_outputs_do_not_depend_on_concurrency(backend, synthesize, make_records):
    raw = make_records(12, 91)
    raw.insert(5, {"id": "broken"})  # every record parser rejects it
    parse = BUILDERS[{make_edit_records: "t_i_i1_1", make_t2i_records: "t_i_0_0",
                      make_subject_records: "t_i_in_1"}[make_records]][0]
    pool = make_distractor_pool(3, 92)
    cfg = PipelineConfig(seed=5, apply_fraction=0.5)

    def chain(threads):
        return [synthesize(raw, ["a", "b", "c"], backend, cfg, task=task, pool=pool,
                           threads=threads)
                for task, (p, _) in BUILDERS.items() if p is parse]

    serial = chain(1)
    assert len(serial) == 2
    assert all(len(records) == 12 and [(r["stage"], r["index"]) for r in rejects] == [("a", 5)]
               for records, rejects in serial)
    assert chain(4) == serial
