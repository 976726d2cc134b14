import random

import pytest
from dialogue_reference import pool_from_t2i_dialogues, restore_stage_a_view, structural_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogforge.cli import PipelineConfig
from dialogforge.dialogue import Stage, dialogue_from_record, validate_dialogue
from dialogforge.fixtures import (
    make_distractor_pool,
    make_edit_records,
    make_subject_records,
    make_t2i_records,
)
from dialogforge.stage_a import (
    build_t_i_0_0,
    build_t_i_i1_1,
    build_t_i_in_1,
    build_t_i_t1_1,
    build_ti_i_i1_1,
    edit_record_from_obj,
    subject_record_from_obj,
    t2i_record_from_obj,
)
from dialogforge.stage_b import (
    DistractorCategory,
    DistractorPool,
    PoolExhausted,
    WrongDepth,
    entry_from_record,
    entry_to_record,
    insert_distractors,
)
from dialogforge.taxonomy import DepthKind, format_signature
from dialogforge.util import derive_seed


@pytest.fixture(scope="module")
def pool():
    return make_distractor_pool(6, 77)


@pytest.fixture()
def edit_dialogue(backend):
    rec = edit_record_from_obj(make_edit_records(1, 31)[0])
    return build_t_i_i1_1(rec, backend, seed=2)


def depth1_dialogues(backend):
    t2i = t2i_record_from_obj(make_t2i_records(1, 41)[0])
    edit = edit_record_from_obj(make_edit_records(1, 42)[0])
    subj = subject_record_from_obj(make_subject_records(1, 43)[0])
    return [
        build_t_i_t1_1(t2i, backend, seed=3),
        build_t_i_i1_1(edit, backend, seed=3),
        build_t_i_in_1(subj, backend, seed=3),
        build_ti_i_i1_1(subj, backend, seed=3),
    ]


def test_pool_validates(pool):
    assert len(pool.entries) == 18
    assert pool.validate().ok
    assert {e.category for e in pool.entries} == set(DistractorCategory)


def test_pool_entry_record_round_trip(pool):
    for entry in pool.entries[:3]:
        assert entry_from_record(entry_to_record(entry)) == entry


def test_pool_from_t2i_dialogues(backend):
    dialogues = [build_t_i_0_0(t2i_record_from_obj(r), backend)
                 for r in make_t2i_records(3, 44)]
    entries = pool_from_t2i_dialogues(dialogues)
    assert all(e.category is DistractorCategory.T2I for e in entries)
    assert DistractorPool(tuple(entries)).validate().ok


def test_plan_insertion(edit_dialogue, pool, backend):
    out = insert_distractors(edit_dialogue, pool, (2, 2), 5, backend)
    indices = random.Random(derive_seed(5, edit_dialogue.id, "plan")).sample(
        range(len(pool.entries)), 2)
    assert len(set(indices)) == 2  # without replacement

    def spliced(d):  # the two rounds right after the one target round
        return [(r.user.segments, r.assistant.segments) for r in d.rounds[1:3]]

    assert spliced(out) == [(pool.entries[i].user.segments, pool.entries[i].assistant.segments)
                            for i in indices]
    assert out == insert_distractors(edit_dialogue, pool, (2, 2), 5, backend)
    assert spliced(out) != spliced(insert_distractors(edit_dialogue, pool, (2, 2), 6, backend))


def test_plan_rejects_wrong_depth(pool, backend, edit_dialogue):
    deep = insert_distractors(edit_dialogue, pool, (1, 1), 0, backend)
    with pytest.raises(WrongDepth):
        insert_distractors(deep, pool, (1, 1), 0, backend)


def test_plan_rejects_k_zero(edit_dialogue, pool, backend):
    with pytest.raises(ValueError, match="k must be >= 1"):
        insert_distractors(edit_dialogue, pool, (0, 0), 0, backend)


def test_plan_pool_exhausted(edit_dialogue, pool, backend):
    k = len(pool.entries) + 1
    with pytest.raises(PoolExhausted):
        insert_distractors(edit_dialogue, pool, (k, k), 0, backend)


def test_apply_insertion_edit(edit_dialogue, pool, backend):
    out = insert_distractors(edit_dialogue, pool, (3, 3), 2, backend)
    assert format_signature(out.signature) == "t_i_i1_n"
    assert out.dep_depth_value == 4  # 1 + 3
    assert out.id == edit_dialogue.id
    assert len(out.rounds) == len(edit_dialogue.rounds) + 3
    assert validate_dialogue(out).ok
    # distractors sit right after the dependency source, all flagged
    for i in (1, 2, 3):
        assert out.rounds[i].user.is_distractor
        assert out.rounds[i].assistant.is_distractor
        assert out.rounds[i].user.provenance.stage is Stage.DISTRACTOR
    # targets unchanged, earlier turns byte-identical
    assert out.dep_target_rounds == edit_dialogue.dep_target_rounds
    assert out.rounds[0] == edit_dialogue.rounds[0]
    # final query rewritten by the dependency op, original preserved
    final = out.rounds[-1].user
    original = edit_dialogue.rounds[-1].user.text_content()
    assert final.provenance.op_kind == "query2dep_q"
    assert final.provenance.original_text == original
    assert final.text_content() != original
    assert final.text_content().startswith(original)


@pytest.mark.parametrize("index,expected_op,expected_sig", [
    (0, "caption2qa_q_dep", "t_i_t1_n"),
    (1, "query2dep_q", "t_i_i1_n"),
    (2, "drive_hs_dep", "t_i_in_n"),
    (3, "drive_i_h_dep", "ti_i_i1_n"),
])
def test_apply_uses_signature_specific_op(backend, pool, index, expected_op, expected_sig):
    d = depth1_dialogues(backend)[index]
    out = insert_distractors(d, pool, (2, 2), 3, backend)
    assert format_signature(out.signature) == expected_sig
    assert out.rounds[-1].user.provenance.op_kind == expected_op
    assert validate_dialogue(out).ok


def test_depth_arithmetic_all_signatures(backend, pool):
    for d in depth1_dialogues(backend):
        for k in range(1, 9):
            big_pool = make_distractor_pool(4, 7)  # 12 entries >= k
            out = insert_distractors(d, big_pool, (k, k), k, backend)
            assert out.dep_depth_value == d.dep_depth_value + k
            assert out.signature.depth is DepthKind.N
            # nearest-target separation grows by exactly k as well
            nearest_in = min(d.last_round_index - t for t in d.dep_target_rounds)
            nearest_out = min(out.last_round_index - t for t in out.dep_target_rounds)
            assert nearest_out == nearest_in + k


def test_strip_and_restore_round_trip(backend, pool):
    for d in depth1_dialogues(backend):
        out = insert_distractors(d, pool, (3, 3), 8, backend)
        assert structural_equal(restore_stage_a_view(out), d)


def test_no_distractor_is_ever_a_target(backend, pool):
    for d in depth1_dialogues(backend):
        out = insert_distractors(d, pool, (4, 4), 2, backend)
        for t in out.dep_target_rounds:
            assert not out.rounds[t].user.is_distractor


def test_stage_b_chain_passes_through_and_rejects(backend, pool, synthesize):
    t2i = build_t_i_0_0(t2i_record_from_obj(make_t2i_records(1, 51)[0]), backend)
    d1 = depth1_dialogues(backend)[1]
    deep = insert_distractors(d1, pool, (1, 1), 0, backend)
    # an interleaved depth-one dialogue: its signature has no history-dependent rewrite
    [ac], _ = synthesize(make_edit_records(1, 53), ["a", "c"], backend, PipelineConfig(seed=3),
                         task="t_i_i1_1")
    ac = dialogue_from_record(ac)
    assert format_signature(ac.signature) == "t_ti_i1_1"
    records, rejects = synthesize([t2i, d1, deep, ac], ["b"], backend, PipelineConfig(seed=99),
                                  pool=pool)
    outputs = [dialogue_from_record(rec) for rec in records]
    assert len(outputs) == 2
    assert outputs[0].id == t2i.id
    assert outputs[0].annotations == ("stage_b_skipped",)
    assert structural_equal(outputs[0], t2i)
    assert outputs[1].signature.depth is DepthKind.N
    assert rejects == [
        {"stage": "b", "id": deep.id, "error": f"dialogue {deep.id!r} has depth 'n', need '1'"},
        {"stage": "b", "id": ac.id,
         "error": "no history-dependent rewrite for signature 't_ti_i1_1'"},
    ]
    # a pool smaller than the drawn k
    small = DistractorPool(pool.entries[:2])
    records, rejects = synthesize([d1], ["b"], backend, PipelineConfig(k_min=3, k_max=3),
                                  pool=small)
    assert records == []
    assert rejects == [{"stage": "b", "id": d1.id, "error": "need 3 distractors, pool holds 2"}]


def test_insert_distractors_k_in_range(backend, pool):
    outputs = [insert_distractors(build_t_i_i1_1(edit_record_from_obj(r), backend, seed=4),
                                  pool, (1, 3), 7, backend)
               for r in make_edit_records(10, 52)]
    assert all(o.dep_depth_value in (2, 3, 4) for o in outputs)
    assert {o.dep_depth_value for o in outputs} == {2, 3, 4}  # spread over the range


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_depth_law_property(backend, k, seed):
    d = build_t_i_i1_1(edit_record_from_obj(make_edit_records(1, 61)[0]), backend)
    big_pool = make_distractor_pool(3, 13)
    out = insert_distractors(d, big_pool, (k, k), seed, backend)
    assert out.dep_depth_value == 1 + k
    assert structural_equal(restore_stage_a_view(out), d)
