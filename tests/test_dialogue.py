import pytest
from dialogue_reference import structural_equal

from dialogforge.dialogue import (
    AmbiguousDependency,
    Dialogue,
    ImageRef,
    ImageSource,
    InvalidTarget,
    Provenance,
    Role,
    Round,
    Segment,
    Stage,
    Turn,
    UnclassifiableModality,
    dialogue_from_record,
    dialogue_to_record,
    infer_signature,
    validate_dialogue,
)
from dialogforge.taxonomy import DepthKind, format_signature, parse_signature

PROV = Provenance(Stage.SOURCE)


def image(img_id, source=ImageSource.GENERATED, caption="a golden retriever reading a book",
          w=512, h=384):
    return ImageRef(id=img_id, source=source, uri=f"img/{img_id}.png",
                    width=w, height=h, caption=caption)


def user(*segments, distractor=False):
    return Turn(Role.USER, tuple(segments), PROV, is_distractor=distractor)


def assistant(*segments, distractor=False):
    return Turn(Role.ASSISTANT, tuple(segments), PROV, is_distractor=distractor)


def text(s):
    return Segment(text=s)


def edit_dialogue(signature="t_i_i1_1"):
    # Generate-then-edit across two rounds, dependency back to round 0.
    return Dialogue(
        id="d0",
        rounds=(
            Round(user(text("Draw a dog reading a book")), assistant(Segment(image=image("g0")))),
            Round(user(text("Add a red hat")), assistant(Segment(image=image("g1")))),
        ),
        signature=parse_signature(signature),
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )


def test_segment_exclusive():
    with pytest.raises(ValueError):
        Segment()
    with pytest.raises(ValueError):
        Segment(text="x", image=image("i"))


def test_validate_clean_dialogue():
    assert validate_dialogue(edit_dialogue()).ok


def test_validate_depth_kind_mismatch():
    report = validate_dialogue(edit_dialogue(signature="t_i_i1_n"))
    assert [(v.rule, v.detail) for v in report.violations] == [
        ("signature", "depth is 'n' in the signature, '1' in the content")]


@pytest.mark.parametrize("signature, fields", [
    ("ti_i_i1_1", [("input", "ti", "t")]),
    ("t_ti_i1_1", [("output", "ti", "i")]),
    ("ti_ti_i1_n", [("input", "ti", "t"), ("output", "ti", "i"), ("depth", "n", "1")]),
], ids=["input", "output", "three-fields"])
def test_validate_relabelled_modality(signature, fields):
    report = validate_dialogue(edit_dialogue(signature=signature))
    assert [(v.rule, v.detail) for v in report.violations] == [
        ("signature", f"{name} is {stored!r} in the signature, {found!r} in the content")
        for name, stored, found in fields]


def test_validate_reports_what_infer_signature_raises():
    rounds = (
        Round(user(text("q")), assistant(text("a"))),
        Round(user(text("q")), assistant(Segment(image=image("g0")))),
        Round(user(text("q")), assistant(Segment(image=image("g1")))),
    )
    d = Dialogue(id="d", rounds=rounds, signature=parse_signature("t_i_in_1"),
                 dep_target_rounds=(0, 1), dep_depth_value=2)
    assert [(v.rule, v.detail) for v in validate_dialogue(d).violations] == [
        ("signature", "dependency targets mix text and image rounds")]


def test_validate_role_swap():
    d = Dialogue(
        id="d",
        rounds=(Round(assistant(text("hi")), assistant(Segment(image=image("g")))),),
        signature=parse_signature("t_i_0_0"),
    )
    assert "round-roles" in validate_dialogue(d).rules()


def test_validate_empty_text_and_segments():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("  ")), Turn(Role.ASSISTANT, (), PROV)),),
        signature=parse_signature("t_i_0_0"),
    )
    rules = validate_dialogue(d).rules()
    assert "empty-text" in rules
    assert "empty-segments" in rules


def test_validate_user_image_count():
    d = Dialogue(
        id="d",
        rounds=(Round(
            user(text("combine"), Segment(image=image("u0", ImageSource.UPLOADED)),
                 Segment(image=image("u1", ImageSource.UPLOADED))),
            assistant(Segment(image=image("g"))),
        ),),
        signature=parse_signature("ti_i_0_0"),
    )
    assert "user-image-count" in validate_dialogue(d).rules()


def test_validate_assistant_image_count():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw two")),
                      assistant(Segment(image=image("g0")), Segment(image=image("g1")))),),
        signature=parse_signature("t_i_0_0"),
    )
    report = validate_dialogue(d)
    assert report.rules() == {"assistant-image-count"}
    assert report.violations[0].where == 0


def test_validate_assistant_image_after_text():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("go")), assistant(text("here"), Segment(image=image("g")))),),
        signature=parse_signature("t_i_0_0"),
    )
    assert "assistant-image-order" in validate_dialogue(d).rules()


def test_validate_source_placement():
    d = Dialogue(
        id="d",
        rounds=(Round(
            user(text("go"), Segment(image=image("u", ImageSource.GENERATED))),
            assistant(Segment(image=image("g", ImageSource.UPLOADED))),
        ),),
        signature=parse_signature("ti_i_0_0"),
    )
    rules = validate_dialogue(d).rules()
    assert "generated-placement" in rules
    assert "uploaded-placement" in rules


def test_validate_duplicate_image_ids():
    d = Dialogue(
        id="d",
        rounds=(
            Round(user(text("a")), assistant(Segment(image=image("same")))),
            Round(user(text("b")), assistant(Segment(image=image("same")))),
        ),
        signature=parse_signature("t_i_i1_1"),
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )
    assert "image-id-unique" in validate_dialogue(d).rules()


def test_validate_nonpositive_dims():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("a")), assistant(Segment(image=image("g", w=0)))),),
        signature=parse_signature("t_i_0_0"),
    )
    assert "image-dims" in validate_dialogue(d).rules()


def test_validate_dep_target_presence_and_counts():
    d = edit_dialogue()
    no_targets = Dialogue(id=d.id, rounds=d.rounds, signature=d.signature)
    assert "signature" in validate_dialogue(no_targets).rules()

    three = Dialogue(
        id="d3",
        rounds=(
            Round(user(text("a")), assistant(Segment(image=image("g0")))),
            Round(user(text("b")), assistant(Segment(image=image("g1")))),
            Round(user(text("c")), assistant(Segment(image=image("g2")))),
        ),
        signature=parse_signature("t_i_i1_1"),
        dep_target_rounds=(0, 1),
        dep_depth_value=2,
    )
    assert "signature" in validate_dialogue(three).rules()


def test_validate_dep_modality():
    d = Dialogue(
        id="d",
        rounds=(
            Round(user(text("what about dogs?")), assistant(text("they bark"))),
            Round(user(text("draw one")), assistant(Segment(image=image("g")))),
        ),
        signature=parse_signature("t_i_i1_1"),  # claims image dependency on a text round
        dep_target_rounds=(0,),
        dep_depth_value=1,
    )
    assert validate_dialogue(d).rules() == {"signature"}


def test_validate_target_range():
    d = Dialogue(
        id="d",
        rounds=edit_dialogue().rounds,
        signature=parse_signature("t_i_i1_1"),
        dep_target_rounds=(1,),  # final round cannot target itself
        dep_depth_value=1,
    )
    assert "target-range" in validate_dialogue(d).rules()


def test_validate_is_pure_and_idempotent():
    d = edit_dialogue()
    r1 = validate_dialogue(d)
    r2 = validate_dialogue(d)
    assert r1.violations == r2.violations
    assert d == edit_dialogue()


def test_compute_depth_zero():
    d = Dialogue(id="d", rounds=edit_dialogue().rounds, signature=parse_signature("t_i_0_0"))
    assert infer_signature(d).depth is DepthKind.ZERO


def test_compute_depth_long_range():
    rounds = tuple(
        Round(user(text(f"q{i}")), assistant(Segment(image=image(f"g{i}"))))
        for i in range(5)
    )
    d = Dialogue(id="d", rounds=rounds, signature=parse_signature("t_i_i1_n"),
                 dep_target_rounds=(0,), dep_depth_value=4)
    assert infer_signature(d).depth is DepthKind.N


def test_compute_depth_one():
    assert infer_signature(edit_dialogue()).depth is DepthKind.ONE


def test_compute_depth_invalid_target():
    for target in (1, 5, 99, -1):  # the final round itself, past it, far past it, before round 0
        d = Dialogue(id="d", rounds=edit_dialogue().rounds, signature=parse_signature("t_i_i1_1"),
                     dep_target_rounds=(target,), dep_depth_value=1)
        with pytest.raises(InvalidTarget, match=f"target round {target} does not precede"):
            infer_signature(d)


def test_infer_context_free_generation():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw a dog")), assistant(Segment(image=image("g")))),),
        signature=parse_signature("t_i_0_0"),
    )
    assert format_signature(infer_signature(d)) == "t_i_0_0"


def test_infer_interleaved_output():
    d = Dialogue(
        id="d",
        rounds=(Round(user(text("draw a dog")),
                      assistant(Segment(image=image("g")), text("here it is"))),),
        signature=parse_signature("t_ti_0_0"),
    )
    assert format_signature(infer_signature(d)) == "t_ti_0_0"


def test_infer_two_image_targets():
    rounds = tuple(
        Round(user(text(f"q{i}")), assistant(Segment(image=image(f"g{i}"))))
        for i in range(6)
    )
    d = Dialogue(id="d", rounds=rounds, signature=parse_signature("t_i_in_n"),
                 dep_target_rounds=(0, 2), dep_depth_value=5)
    sig = infer_signature(d)
    assert format_signature(sig) == "t_i_in_n"
    assert sig.depth is DepthKind.N


def test_infer_mixed_targets_ambiguous():
    rounds = (
        Round(user(text("q")), assistant(text("a"))),
        Round(user(text("q")), assistant(Segment(image=image("g0")))),
        Round(user(text("q")), assistant(Segment(image=image("g1")))),
    )
    d = Dialogue(id="d", rounds=rounds, signature=parse_signature("t_i_in_1"),
                 dep_target_rounds=(0, 1), dep_depth_value=2)
    with pytest.raises(AmbiguousDependency):
        infer_signature(d)


def test_infer_text_only_output_unclassifiable():
    d = Dialogue(id="d", rounds=(Round(user(text("hi")), assistant(text("hello"))),),
                 signature=parse_signature("t_i_0_0"))
    with pytest.raises(UnclassifiableModality):
        infer_signature(d)


def test_record_round_trip_lossless():
    d = edit_dialogue()
    rec = dialogue_to_record(d)
    assert dialogue_from_record(rec) == d
    assert dialogue_to_record(dialogue_from_record(rec)) == rec
    # absent optionals are omitted, not nulled
    assert "annotations" not in rec
    assert "caption" in rec["rounds"][0]["assistant"]["segments"][0]["image"]
    assert "op_kind" not in rec["rounds"][0]["user"]["provenance"]


def test_record_field_order():
    rec = dialogue_to_record(edit_dialogue())
    assert list(rec) == ["id", "signature", "dep_target_rounds", "dep_depth_value", "rounds"]
    turn = rec["rounds"][0]["user"]
    assert list(turn) == ["segments", "is_distractor", "provenance"]


def test_structural_equal_ignores_provenance():
    d1 = edit_dialogue()
    rounds = d1.rounds[:-1] + (
        Round(
            Turn(Role.USER, d1.rounds[-1].user.segments, Provenance(Stage.B, op_kind="x")),
            d1.rounds[-1].assistant,
        ),
    )
    d2 = Dialogue(id=d1.id, rounds=rounds, signature=d1.signature,
                  dep_target_rounds=d1.dep_target_rounds, dep_depth_value=d1.dep_depth_value)
    assert structural_equal(d1, d2)
    assert not structural_equal(d1, edit_dialogue(signature="t_i_i1_n"))
