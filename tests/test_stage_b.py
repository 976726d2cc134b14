import pytest
from dialogue_reference import pool_from_t2i_dialogues, restore_stage_a_view, structural_equal
from hypothesis import given, settings
from hypothesis import strategies as st

from dialogforge.dialogue import Stage, validate_dialogue
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
    PlanMismatch,
    PoolExhausted,
    WrongDepth,
    apply_insertion,
    entry_from_record,
    entry_to_record,
    plan_insertion,
    run_stage_b,
)
from dialogforge.taxonomy import DepthKind, format_signature


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


def test_plan_insertion(edit_dialogue, pool):
    plan = plan_insertion(edit_dialogue, pool, 2, seed=5)
    assert plan.k == 2
    assert len(plan.picks) == 2
    assert len({i for i, _ in plan.picks}) == 2  # without replacement
    assert plan.insert_position == 1
    assert plan.entries == tuple(pool.entries[i] for i, _ in plan.picks)
    assert plan == plan_insertion(edit_dialogue, pool, 2, seed=5)
    assert plan != plan_insertion(edit_dialogue, pool, 2, seed=6)


def test_plan_rejects_wrong_depth(pool, backend, edit_dialogue):
    deep = apply_insertion(edit_dialogue, plan_insertion(edit_dialogue, pool, 1, 0), backend)
    with pytest.raises(WrongDepth):
        plan_insertion(deep, pool, 1, seed=0)


def test_plan_rejects_k_zero(edit_dialogue, pool):
    with pytest.raises(ValueError):
        plan_insertion(edit_dialogue, pool, 0, seed=0)


def test_plan_pool_exhausted(edit_dialogue, pool):
    with pytest.raises(PoolExhausted):
        plan_insertion(edit_dialogue, pool, len(pool.entries) + 1, seed=0)


def test_apply_rejects_foreign_plan(backend, pool):
    d_short, d_long = depth1_dialogues(backend)[1], depth1_dialogues(backend)[2]
    plan_for_long = plan_insertion(d_long, pool, 2, seed=0)  # splice point 2
    with pytest.raises(PlanMismatch):
        apply_insertion(d_short, plan_for_long, backend)


def test_apply_insertion_edit(edit_dialogue, pool, backend):
    plan = plan_insertion(edit_dialogue, pool, 3, seed=9)
    out = apply_insertion(edit_dialogue, plan, backend, seed=2)
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
    out = apply_insertion(d, plan_insertion(d, pool, 2, seed=1), backend, seed=3)
    assert format_signature(out.signature) == expected_sig
    assert out.rounds[-1].user.provenance.op_kind == expected_op
    assert validate_dialogue(out).ok


def test_depth_arithmetic_all_signatures(backend, pool):
    for d in depth1_dialogues(backend):
        for k in range(1, 9):
            big_pool = make_distractor_pool(4, 7)  # 12 entries >= k
            out = apply_insertion(d, plan_insertion(d, big_pool, k, seed=k), backend)
            assert out.dep_depth_value == d.dep_depth_value + k
            assert out.signature.depth is DepthKind.N
            # nearest-target separation grows by exactly k as well
            nearest_in = min(d.last_round_index - t for t in d.dep_target_rounds)
            nearest_out = min(out.last_round_index - t for t in out.dep_target_rounds)
            assert nearest_out == nearest_in + k


def test_strip_and_restore_round_trip(backend, pool):
    for d in depth1_dialogues(backend):
        out = apply_insertion(d, plan_insertion(d, pool, 3, seed=8), backend)
        assert structural_equal(restore_stage_a_view(out), d)


def test_no_distractor_is_ever_a_target(backend, pool):
    for d in depth1_dialogues(backend):
        out = apply_insertion(d, plan_insertion(d, pool, 4, seed=2), backend)
        for t in out.dep_target_rounds:
            assert not out.rounds[t].user.is_distractor


def test_run_stage_b_passthrough_and_rejects(backend, pool):
    t2i = build_t_i_0_0(t2i_record_from_obj(make_t2i_records(1, 51)[0]), backend)
    d1 = depth1_dialogues(backend)[1]
    deep = apply_insertion(d1, plan_insertion(d1, pool, 1, 0), backend)
    outputs, rejects = run_stage_b([t2i, d1, deep], pool, (1, 3), 99, backend)
    assert len(outputs) == 2
    assert outputs[0].id == t2i.id
    assert outputs[0].annotations == ("stage_b_skipped",)
    assert structural_equal(outputs[0], t2i)
    assert outputs[1].signature.depth is DepthKind.N
    assert len(rejects) == 1
    assert rejects[0]["id"] == deep.id


def test_run_stage_b_k_in_range(backend, pool):
    dialogues = [build_t_i_i1_1(edit_record_from_obj(r), backend, seed=4)
                 for r in make_edit_records(10, 52)]
    outputs, rejects = run_stage_b(dialogues, pool, (1, 3), 7, backend)
    assert not rejects
    assert all(o.dep_depth_value in (2, 3, 4) for o in outputs)
    assert {o.dep_depth_value for o in outputs} == {2, 3, 4}  # spread over the range


def test_run_stage_b_deterministic(backend, pool):
    dialogues = [build_t_i_i1_1(edit_record_from_obj(r), backend, seed=4)
                 for r in make_edit_records(5, 53)]
    o1, _ = run_stage_b(dialogues, pool, (1, 3), 7, backend, concurrency=1)
    o2, _ = run_stage_b(dialogues, pool, (1, 3), 7, backend, concurrency=4)
    assert o1 == o2


@settings(max_examples=20, deadline=None)
@given(k=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_depth_law_property(backend, k, seed):
    d = build_t_i_i1_1(edit_record_from_obj(make_edit_records(1, 61)[0]), backend)
    big_pool = make_distractor_pool(3, 13)
    out = apply_insertion(d, plan_insertion(d, big_pool, k, seed), backend)
    assert out.dep_depth_value == 1 + k
    assert structural_equal(restore_stage_a_view(out), d)
