import json

import pytest
from dialogue_reference import structural_equal

from dialogforge import io
from dialogforge.cli import PipelineConfig
from dialogforge.dialogue import (
    AmbiguousDependency,
    Dialogue,
    ImageRef,
    InvalidTarget,
    Provenance,
    Round,
    Segment,
    Stage,
    Turn,
    UnclassifiableModality,
    dialogue_from_record,
    dialogue_to_record,
    validate_dialogue,
    with_annotation,
)
from dialogforge.fixtures import make_distractor_pool, make_edit_records
from dialogforge.stream import serialize, stream_from_record, stream_to_record
from dialogforge.taxonomy import DepthKind, format_signature, parse_signature
from dialogforge.values import replace

PROV = Provenance(Stage.SOURCE)


def image(img_id, caption="a golden retriever reading a book", w=512, h=384):
    return ImageRef(id=img_id, uri=f"img/{img_id}.png", width=w, height=h, caption=caption)


def user(*segments):
    return Turn(tuple(segments), PROV)


def assistant(*segments):
    return Turn(tuple(segments), PROV)


def text(s):
    return Segment(text=s)


def rules(report):
    return {v.rule for v in report.violations}


def edit_dialogue(targets=(0,)):
    # Generate-then-edit across two rounds, dependency back to round 0.
    return Dialogue(
        id="d0",
        rounds=(
            Round(user(text("Draw a dog reading a book")), assistant(Segment(image=image("g0")))),
            Round(user(text("Add a red hat")), assistant(Segment(image=image("g1")))),
        ),
        dep_target_rounds=targets,
    )


def test_segment_exclusive():
    with pytest.raises(ValueError):
        Segment()
    with pytest.raises(ValueError):
        Segment(text="x", image=image("i"))


def test_validate_clean_dialogue():
    assert validate_dialogue(edit_dialogue()).ok


@pytest.mark.parametrize("label, depth", [
    ("t_i_i1_n", 4), ("ti_i_i1_1", 1), ("t_ti_i1_1", None), ("ti_ti_i1_n", 7),
], ids=["depth", "input", "output", "three-fields"])
def test_decode_ignores_a_stored_label(label, depth):
    d = edit_dialogue()
    rec = {**dialogue_to_record(d), "signature": label, "dep_depth_value": depth}
    assert dialogue_from_record(rec) == d
    assert format_signature(dialogue_from_record(rec).signature) == "t_i_i1_1"
    assert dialogue_from_record(rec).dep_depth_value == 1


def test_replace_derives_the_signature_again():
    d = edit_dialogue()
    extra = Round(user(text("Now make it night")), assistant(Segment(image=image("g2"))))
    longer = replace(d, rounds=d.rounds + (extra,))
    assert format_signature(longer.signature) == "t_i_i1_n"
    assert longer.dep_depth_value == 2
    with pytest.raises(ValueError, match="no __init__ field 'signature'"):
        replace(d, signature=parse_signature("t_i_0_0"))


@pytest.mark.parametrize("bad_id", [5, None, ["d"]], ids=["int", "null", "list"])
def test_dialogue_id_must_be_a_string(bad_id):
    # a dialogue with a non-string id would serialize to a stream no reader accepts
    with pytest.raises(TypeError, match="dialogue id must be a string"):
        Dialogue(bad_id, edit_dialogue().rounds)


def test_content_without_a_signature_cannot_be_built():
    with pytest.raises(UnclassifiableModality, match="empty dialogue"):
        Dialogue("d", ())


def test_validate_empty_text_and_segments():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("  ")), assistant()),
                Round(user(text("draw it")), assistant(Segment(image=image("g"))))),
    )
    report = validate_dialogue(d)
    assert rules(report) == {"empty-text", "empty-segments"}
    assert {v.where for v in report.violations} == {0}


def test_validate_user_image_count():
    d = Dialogue(
        id="d",
        rounds=(Round(
            user(text("combine"), Segment(image=image("u0")), Segment(image=image("u1"))),
            assistant(Segment(image=image("g"))),
        ),),
    )
    assert "user-image-count" in rules(validate_dialogue(d))


def test_validate_assistant_image_count():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw two")),
                      assistant(Segment(image=image("g0")), Segment(image=image("g1")))),),
    )
    report = validate_dialogue(d)
    assert rules(report) == {"assistant-image-count"}
    assert report.violations[0].where == 0


def test_validate_assistant_image_after_text():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("go")), assistant(text("here"), Segment(image=image("g")))),),
    )
    assert "assistant-image-order" in rules(validate_dialogue(d))


def test_validate_duplicate_image_ids():
    d = Dialogue(
        id="d",
        rounds=(
            Round(user(text("a")), assistant(Segment(image=image("same")))),
            Round(user(text("b")), assistant(Segment(image=image("same")))),
        ),
        dep_target_rounds=(0,),
    )
    assert "image-id-unique" in rules(validate_dialogue(d))


@pytest.mark.parametrize("stage", list(Stage), ids=[s.value for s in Stage])
def test_a_turn_is_a_distractor_when_its_provenance_says_so(stage):
    turn = Turn((text("hi"),), Provenance(stage))
    assert turn.is_distractor is (stage is Stage.DISTRACTOR)


def test_validate_distractor_target():
    noise = Provenance(Stage.DISTRACTOR)
    d = Dialogue(
        id="d",
        rounds=(
            Round(user(text("a")), assistant(Segment(image=image("g0")))),
            Round(Turn((text("b"),), noise), Turn((Segment(image=image("g1")),), noise)),
            Round(user(text("c")), assistant(Segment(image=image("g2")))),
        ),
        dep_target_rounds=(0, 1),
    )
    report = validate_dialogue(d)
    assert [(v.rule, v.where, v.detail) for v in report.violations] == [
        ("distractor-target", 1, "target round 1 is a distractor")]


def test_validate_nonpositive_dims():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("a")), assistant(Segment(image=image("g", w=0)))),),
    )
    assert "image-dims" in rules(validate_dialogue(d))


def test_signature_follows_the_target_count():
    d = edit_dialogue()
    assert format_signature(Dialogue(d.id, d.rounds).signature) == "t_i_0_0"

    three = Dialogue(
        id="d3",
        rounds=(
            Round(user(text("a")), assistant(Segment(image=image("g0")))),
            Round(user(text("b")), assistant(Segment(image=image("g1")))),
            Round(user(text("c")), assistant(Segment(image=image("g2")))),
        ),
        dep_target_rounds=(0, 1),
    )
    assert format_signature(three.signature) == "t_i_in_1"
    assert three.dep_depth_value == 2


def test_signature_follows_the_target_content():
    d = Dialogue(
        id="d",
        rounds=(
            Round(user(text("what about dogs?")), assistant(text("they bark"))),
            Round(user(text("draw one")), assistant(Segment(image=image("g")))),
        ),
        dep_target_rounds=(0,),
    )
    assert format_signature(d.signature) == "t_i_t1_1"
    assert validate_dialogue(d).ok


def test_validate_is_pure_and_idempotent():
    d = edit_dialogue()
    r1 = validate_dialogue(d)
    r2 = validate_dialogue(d)
    assert r1.violations == r2.violations
    assert d == edit_dialogue()


def test_compute_depth_zero():
    d = edit_dialogue(targets=())
    assert d.signature.depth is DepthKind.ZERO
    assert d.dep_depth_value is None


def test_compute_depth_long_range():
    rounds = tuple(
        Round(user(text(f"q{i}")), assistant(Segment(image=image(f"g{i}"))))
        for i in range(5)
    )
    d = Dialogue(id="d", rounds=rounds, dep_target_rounds=(0,))
    assert d.signature.depth is DepthKind.N
    assert d.dep_depth_value == 4


def test_compute_depth_one():
    assert edit_dialogue().signature.depth is DepthKind.ONE
    assert edit_dialogue().dep_depth_value == 1


def test_compute_depth_invalid_target():
    for target in (1, 5, 99, -1):  # the final round itself, past it, far past it, before round 0
        with pytest.raises(InvalidTarget, match=f"target round {target} does not precede"):
            edit_dialogue(targets=(target,))


def test_infer_context_free_generation():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw a dog")), assistant(Segment(image=image("g")))),),
    )
    assert format_signature(d.signature) == "t_i_0_0"


def test_infer_interleaved_output():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw a dog")),
                      assistant(Segment(image=image("g")), text("here it is"))),),
    )
    assert format_signature(d.signature) == "t_ti_0_0"


def test_infer_two_image_targets():
    rounds = tuple(
        Round(user(text(f"q{i}")), assistant(Segment(image=image(f"g{i}"))))
        for i in range(6)
    )
    d = Dialogue(id="d", rounds=rounds, dep_target_rounds=(0, 2))
    assert format_signature(d.signature) == "t_i_in_n"
    assert d.signature.depth is DepthKind.N
    assert d.dep_depth_value == 5


def test_infer_mixed_targets_ambiguous():
    rounds = (
        Round(user(text("q")), assistant(text("a"))),
        Round(user(text("q")), assistant(Segment(image=image("g0")))),
        Round(user(text("q")), assistant(Segment(image=image("g1")))),
    )
    with pytest.raises(AmbiguousDependency, match="dependency targets mix text and image rounds"):
        Dialogue(id="d", rounds=rounds, dep_target_rounds=(0, 1))


def test_infer_text_only_output_unclassifiable():
    with pytest.raises(UnclassifiableModality, match="final assistant turn produces no image"):
        Dialogue(id="d", rounds=(Round(user(text("hi")), assistant(text("hello"))),))


def test_record_round_trip_lossless():
    d = edit_dialogue()
    rec = dialogue_to_record(d)
    assert dialogue_from_record(rec) == d
    assert dialogue_to_record(dialogue_from_record(rec)) == rec
    # absent optionals are omitted, not nulled
    assert "annotations" not in rec
    assert "caption" in rec["rounds"][0]["assistant"]["segments"][0]["image"]
    assert "op_kind" not in rec["rounds"][0]["user"]["provenance"]


def test_equal_records_decode_to_equal_and_hash_equal_values(synthesize, backend):
    """Values compare and hash by their fields, not by identity: two decodes of one
    line, a dialogue with distractors, rewrites and annotations among them, agree."""
    records, _ = synthesize(make_edit_records(4, seed=3), ["a", "b", "c"], backend,
                            PipelineConfig(k_min=2, k_max=2), task="t_i_i1_1",
                            pool=make_distractor_pool(2, seed=4))
    assert records[0]["rounds"][-1]["user"]["provenance"]["original_text"]
    noted = with_annotation(dialogue_from_record(records[0]), "note")
    records += [dialogue_to_record(noted), dialogue_to_record(edit_dialogue())]
    for rec in records:
        for encode, decode in ((lambda r: r, dialogue_from_record),
                               (lambda r: stream_to_record(serialize(dialogue_from_record(r))),
                                stream_from_record)):
            line = io.dumps(encode(rec))
            first, second = decode(json.loads(line)), decode(json.loads(line))
            assert first is not second
            assert first == second and hash(first) == hash(second)
            assert len({first, second}) == 1
    assert replace(noted, annotations=()) != noted
    assert replace(noted, annotations=()) == dialogue_from_record(records[0])
    assert noted != dialogue_to_record(noted)  # a value of another class is never equal


def test_record_field_order():
    rec = dialogue_to_record(edit_dialogue())
    assert list(rec) == ["id", "dep_target_rounds", "rounds"]
    turn = rec["rounds"][0]["user"]
    assert list(turn) == ["segments", "provenance"]
    assert list(turn["segments"][0]) == ["text"]
    assert list(rec["rounds"][0]["assistant"]["segments"][0]["image"]) == [
        "id", "uri", "width", "height", "caption"]


def test_structural_equal_ignores_provenance():
    d1 = edit_dialogue()
    rounds = d1.rounds[:-1] + (
        Round(
            Turn(d1.rounds[-1].user.segments, Provenance(Stage.B, op_kind="x")),
            d1.rounds[-1].assistant,
        ),
    )
    d2 = Dialogue(id=d1.id, rounds=rounds, dep_target_rounds=d1.dep_target_rounds)
    assert structural_equal(d1, d2)
    assert not structural_equal(d1, edit_dialogue(targets=()))
