import dataclasses
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, given, settings
from dialogue_reference import make_random_dialogue
from hypothesis import strategies as st
from mask_reference import StreamTooLong, dense_mask, mask_oracle
from stream_reference import block_faults

from dialogforge import io
from dialogforge.cli import main
from dialogforge.dialogue import (
    Dialogue,
    ImageRef,
    Provenance,
    Round,
    Segment,
    Stage,
    Turn,
    validate_dialogue,
)
from dialogforge.fixtures import make_t2i_records
from dialogforge.stage_a import build_t_i_0_0, t2i_record_from_obj
from dialogforge.stage_c import interleave
from dialogforge.stream import (
    BlockKind,
    EmptyText,
    InvalidStream,
    LossTag,
    Role,
    SpecialToken,
    StreamConfig,
    TokenStream,
    UnitOverflow,
    loss_summary,
    mask_intervals,
    patch_grid_units,
    round_entries,
    serialize,
    stream_from_record,
    stream_to_record,
    validate_stream,
)

PROV = Provenance(Stage.SOURCE)


def t2i_dialogue(backend, *, w=256, h=256, seed=90):
    rec = make_t2i_records(1, seed)[0]
    rec["image"]["width"] = w
    rec["image"]["height"] = h
    return build_t_i_0_0(t2i_record_from_obj(rec), backend, seed=1)


# Part code -> units of its special blocks, per the grammar in docs/stream-format.md
_SPECIAL_UNITS = {"u": 2, "p": 2, "n": 2, "r": 2, "t": 2, "e": 1}
# Part codes whose entry ends in the id of the image the part names
_NAMED = ("p", "n")


def _split(entry):
    """An entry as (code, units, image id or None)."""
    if entry[0] in _NAMED:
        return entry[0], tuple(entry[1:-1]), entry[-1]
    return entry[0], tuple(entry[1:]), None


def _join(code, units, image_id):
    """The entry of (code, units, image id): the id goes last where the part names
    one, and wherever it is not None, so an id on any other part makes the entry
    too long."""
    named = image_id is not None or code in _NAMED
    return (code, *units, image_id) if named else (code, *units)


def parts_stream(*entries):
    """Hand-build a stream from its entries; total_len is the position sum."""
    full = tuple(tuple(e) for e in entries)
    return TokenStream("hand", full, sum(_SPECIAL_UNITS[e[0]] + sum(_split(e)[1]) for e in full))


def test_unit_formulas():
    assert patch_grid_units(256, 256, 14) == math.ceil(256 / 14) ** 2
    assert patch_grid_units(256, 256, 16) == 16 * 16
    assert patch_grid_units(17, 17, 16) == 4


def test_serialize_t2i_block_sequence(backend):
    s = serialize(t2i_dialogue(backend))
    kinds = [(b.tok.value if b.tok else b.kind.value) for b in s.blocks]
    assert kinds == ["|im_s|", "text", "|im_e|",
                     "|v_s|", "vae_noised", "|v_e|",
                     "|v_s|", "vit", "vae_clean", "|v_e|", "|end|"]
    losses = [b.loss.value for b in s.blocks]
    assert losses == ["none", "none", "none",
                      "ce", "mse", "ce",
                      "none", "none", "none", "none", "ce"]
    assert validate_stream(s).ok
    assert s.total_len == sum(b.units for b in s.blocks)
    noised = s.blocks[4]
    clean = s.blocks[8]
    assert noised.units == clean.units == patch_grid_units(256, 256, 16)
    assert noised.image_id == clean.image_id
    assert s.blocks[7].units == patch_grid_units(256, 256, 14)


def test_serialize_uses_configured_patch_sizes(backend):
    s = serialize(t2i_dialogue(backend), StreamConfig(vit_patch=32, vae_patch=8))
    assert s.blocks[4].units == s.blocks[8].units == patch_grid_units(256, 256, 8)
    assert s.blocks[7].units == patch_grid_units(256, 256, 32)
    assert validate_stream(s).ok


def test_grammar_requires_replay_after_noised_image():
    s = parts_stream(("u", 3), ("n", 4, "g0"), ("e",))
    report = validate_stream(s)
    assert [(v.rule, v.where) for v in report.violations] == [("grammar", 2)]
    assert report.violations[0].detail == "part 'e' cannot follow 'n'"
    with pytest.raises(InvalidStream, match="part 2: grammar: part 'e' cannot follow 'n'"):
        stream_to_record(s)


def test_serialize_interleaved_order(backend):
    d = interleave(t2i_dialogue(backend), backend)
    s = serialize(d)
    kinds = [b.kind for b in s.blocks]
    # noised image blocks come before the answer text
    assert kinds.index(BlockKind.VAE_NOISED) < kinds.index(BlockKind.TEXT, 2)
    asst_text = [b for b in s.blocks if b.kind is BlockKind.TEXT and b.role is Role.ASSISTANT]
    assert len(asst_text) == 1 and asst_text[0].loss is LossTag.CE
    assert s.blocks[-1].tok is SpecialToken.END
    assert validate_stream(s).ok


def test_serialize_upload_blocks(backend):
    img = ImageRef("up0", "img/up0.png", 64, 64)
    d = Dialogue(
        id="d",
        rounds=(Round(
            Turn((Segment(text="make it blue"), Segment(image=img)), PROV),
            Turn((Segment(image=ImageRef("g0", "img/g0.png", 64, 64, "a cat")),), PROV),
        ),),
    )
    s = serialize(d)
    user_kinds = [(b.tok.value if b.tok else b.kind.value)
                  for b in s.blocks if b.role is Role.USER]
    assert user_kinds == ["|im_s|", "text", "|im_e|", "|v_s|", "vit", "vae_clean", "|v_e|"]
    assert all(b.loss is LossTag.NONE for b in s.blocks if b.role is Role.USER)
    assert validate_stream(s).ok


def test_serialize_empty_text(backend):
    d = t2i_dialogue(backend)
    user = d.rounds[0].user
    blank = dataclasses.replace(user, segments=(Segment(text="   "),))
    d2 = dataclasses.replace(d, rounds=(Round(blank, d.rounds[0].assistant),))
    with pytest.raises(EmptyText):
        serialize(d2)


@pytest.mark.parametrize("user_images, assistant_segments", [
    pytest.param(2, ("image",), id="two-uploads"),
    pytest.param(0, ("image", "image"), id="two-generated"),
    pytest.param(0, ("text", "image"), id="text-before-image"),
    pytest.param(0, (), id="empty-assistant"),
])
def test_serialize_refuses_rounds_the_grammar_cannot_express(user_images, assistant_segments):
    def img(i):
        return Segment(image=ImageRef(f"i{i}", f"img/i{i}.png", 32, 32, "a cat"))

    asst = tuple(Segment(text="here") if kind == "text" else img(10 + j)
                 for j, kind in enumerate(assistant_segments))
    # the broken round comes first: a final round without an image has no signature
    d = Dialogue(
        id="d",
        rounds=(Round(
            Turn((Segment(text="go"),) + tuple(img(j) for j in range(user_images)), PROV),
            Turn(asst, PROV),
        ), Round(
            Turn((Segment(text="again"),), PROV),
            Turn((img(20),), PROV),
        )),
    )
    with pytest.raises(InvalidStream, match="round 0"):
        serialize(d)


_SEGMENT = st.sampled_from(["hi", "  ", (64, 64), (0, 64)])
_TURN = st.lists(_SEGMENT, max_size=2)


@settings(max_examples=200, deadline=None)
@given(shapes=st.lists(st.tuples(_TURN, _TURN), min_size=1, max_size=2))
def test_a_dialogue_that_validates_serializes(shapes):
    """Text "hi" or blank, or an image under the unit cap, 64 wide or 0 wide, in any mix."""
    ids = iter(range(100))

    def turn(segments):
        return Turn(tuple(Segment(text=seg) if isinstance(seg, str) else
                          Segment(image=ImageRef(f"i{next(ids)}", "img/i.png", *seg, "a cat"))
                          for seg in segments), PROV)

    try:
        d = Dialogue("d", tuple(Round(turn(u), turn(a)) for u, a in shapes))
    except ValueError:  # no signature: the last assistant turn shows no image
        return
    if validate_dialogue(d).ok:
        serialize(d)


# The rules of ``round_entries``; ``validate_dialogue`` adds its own ``empty-text``
# for a blank segment in a turn whose text has words, which ``serialize`` streams.
_ROUND_RULES = {"empty-segments", "user-text", "empty-text", "user-image-count",
                "assistant-image-count", "assistant-image-order", "image-dims", "image-units"}
_BLANK_BESIDE_WORDS = {("empty-text", f"{slot} turn has a blank text segment")
                       for slot in ("user", "assistant")}


_IMAGE = st.sampled_from(["small"] * 5 + ["zero-wide", "vit-over", "over"])
_ANY_TURN = st.lists(st.sampled_from(["hi", "  ", "zero-wide", "small", "vit-over", "over"]),
                     max_size=3)
# Most turns have a shape the grammar takes, so that a fair share of dialogues stream.
_USER_TURN = st.one_of(_ANY_TURN, *[st.builds(lambda img: ["hi", *img],
                                              st.lists(_IMAGE, max_size=1))] * 3)
_ASSISTANT_TURN = st.one_of(_ANY_TURN, *[st.builds(lambda img, text: [img, *text], _IMAGE,
                                                   st.lists(st.just("hi"), max_size=1))] * 3)


@settings(max_examples=300, deadline=None)
@given(shapes=st.lists(st.tuples(_USER_TURN, _ASSISTANT_TURN), min_size=1, max_size=3),
       cap=st.integers(25, 2000))
def test_validate_reports_a_round_fault_exactly_when_serialize_refuses(shapes, cap):
    """Text "hi" or blank; an image 0 wide, 64x64, or over ``cap`` in its ViT grid
    only ("vit-over") or in both grids ("over"), in any mix of up to 3 segments a turn."""
    cfg = StreamConfig(max_image_units=cap)
    sizes = {"zero-wide": (0, 64), "small": (64, 64), "vit-over": (16 * cap, 16),
             "over": (16 * cap + 16, 16)}
    ids = iter(range(100))

    def turn(segments):
        return Turn(tuple(Segment(text=seg) if seg in ("hi", "  ") else
                          Segment(image=ImageRef(f"i{next(ids)}", "img/i.png", *sizes[seg], "a cat"))
                          for seg in segments), PROV)

    try:
        d = Dialogue("d", tuple(Round(turn(u), turn(a)) for u, a in shapes))
    except ValueError:  # no signature: the last assistant turn shows no image
        return
    faults = []
    for ri, rnd in enumerate(d.rounds):
        round_entries(ri, rnd, cfg, lambda *fault: faults.append(fault))
    reported = [(v.rule, v.detail) for v in validate_dialogue(d, cfg).violations
                if v.rule in _ROUND_RULES and (v.rule, v.detail) not in _BLANK_BESIDE_WORDS]
    assert reported == [(rule, detail) for rule, detail, _ in faults]
    try:
        s = serialize(d, cfg)
    except (EmptyText, InvalidStream, UnitOverflow) as err:
        event(f"refused: {faults[0][0]}")
        assert reported, err  # serialize refuses only what validate reports
        first = faults[0][2]
        assert (type(err), str(err)) == (type(first), f"dialogue 'd': {first}")
    else:
        event("streamed")
        assert not reported  # validate reports only what serialize refuses
        assert validate_stream(s).ok


def test_serialize_unit_overflow(backend):
    with pytest.raises(UnitOverflow):
        serialize(t2i_dialogue(backend), StreamConfig(max_image_units=10))


@pytest.mark.parametrize("w, h", [(0, 256), (256, -1), (-20, -20)])
def test_serialize_refuses_an_image_without_a_positive_size(backend, w, h):
    # -20 x -20 would otherwise compute to ceil(-20 / p) ** 2 = 1 unit per block
    with pytest.raises(InvalidStream, match=f"is {w}x{h}, not a positive size"):
        serialize(t2i_dialogue(backend, w=w, h=h))


def _record_rounds(rec):
    """The part entries of a stream record, split into rounds at each ``e`` entry."""
    rounds = [[]]
    for entry in rec["blocks"]:
        rounds[-1].append(entry)
        if entry[0] == "e":
            rounds.append([])
    assert rounds.pop() == []
    return rounds


def test_round_index_and_roles(backend):
    rng = random.Random(5)
    d = make_random_dialogue(rng, "rr", max_rounds=3)
    s = serialize(d)
    indices = [b.round_index for b in s.blocks]
    assert indices == sorted(indices)
    rounds = _record_rounds(stream_to_record(s))
    assert len(rounds) == len(d.rounds)
    # a part's blocks sit in the round its entry is in, user blocks in u/p parts only
    blocks = iter(s.blocks)
    slots = {"u": 3, "p": 4, "n": 3, "r": 4, "t": 3, "e": 1}
    for ri, entries in enumerate(rounds):
        for code, *_ in entries:
            for b in [next(blocks) for _ in range(slots[code])]:
                assert b.round_index == ri
                assert b.role is (Role.USER if code in "up" else Role.ASSISTANT)
    assert next(blocks, None) is None


def test_parse_stream_reconstructs_skeleton(backend):
    """A stream record's part entries carry each round's skeleton."""
    rng = random.Random(9)
    for i in range(25):
        d = make_random_dialogue(rng, f"sk-{i}", max_rounds=3)
        rounds = _record_rounds(stream_to_record(serialize(d)))
        assert len(rounds) == len(d.rounds)
        for entries, rnd in zip(rounds, d.rounds):
            parts = {code: rest for code, *rest in entries}
            assert [code for code, *_ in entries] in (
                ["u", "t", "e"], ["u", "p", "t", "e"], ["u", "n", "r", "e"],
                ["u", "n", "r", "t", "e"], ["u", "p", "n", "r", "e"], ["u", "p", "n", "r", "t", "e"])
            uploads = rnd.user.images()
            generated = rnd.assistant.images()
            assert parts.get("p", [None])[-1] == (uploads[0].id if uploads else None)
            assert parts.get("n", [None])[-1] == (generated[0].id if generated else None)
            assert ("t" in parts) == any(s.is_text for s in rnd.assistant.segments)


@pytest.mark.parametrize("parts, where, detail", [
    pytest.param([("n", 4, "g0"), ("r", 2, 4), ("e",)], 0,
                 "part 'n' cannot start a stream", id="noised-first"),
    pytest.param([("u", 2), ("t", 2), ("p", 2, 2, "u0"), ("e",)], 2,
                 "part 'p' cannot follow 't'", id="upload-after-text"),
    pytest.param([("u", 2), ("u", 2), ("e",)], 1,
                 "part 'u' cannot follow 'u'", id="two-user-texts"),
    pytest.param([("u", 2), ("t", 1), ("e",), ("e",)], 3,
                 "part 'e' cannot follow 'e'", id="two-ends"),
])
def test_validate_rejects_a_part_out_of_order(parts, where, detail):
    report = validate_stream(parts_stream(*parts))
    assert [(v.rule, v.where, v.detail) for v in report.violations] == [("grammar", where, detail)]


def test_block_oracle_rejects_end_without_ce(backend):
    blocks = list(serialize(t2i_dialogue(backend)).blocks)
    blocks[-1] = dataclasses.replace(blocks[-1], loss=LossTag.NONE)
    faults = block_faults(blocks, blocks[-1].end)
    assert [rule for rule, _, _ in faults] == ["loss-tags"]
    assert "|end|" in faults[0][1]


def test_block_oracle_rejects_mse_outside_noised(backend):
    blocks = list(serialize(t2i_dialogue(backend)).blocks)
    blocks[1] = dataclasses.replace(blocks[1], loss=LossTag.MSE)  # the user text
    assert [(rule, i) for rule, _, i in block_faults(blocks, blocks[-1].end)] == [("loss-tags", 1)]


def test_validate_rejects_bad_units_and_total_len():
    good = parts_stream(("u", 2), ("t", 2), ("e",))
    assert validate_stream(good).ok
    for units in [0, -1, "2", True, 2.0]:
        bad = dataclasses.replace(good, parts=(("u", units), *good.parts[1:]),
                                  total_len=good.total_len - 2)
        assert _found(bad) == [("unit-count", 0)]
    longer = dataclasses.replace(good, total_len=good.total_len + 1)
    assert _found(longer) == [("total-len", None)]
    with pytest.raises(InvalidStream, match="total_len 10 != position sum 9"):
        mask_intervals(longer)
    with pytest.raises(InvalidStream, match="part None: total-len"):
        stream_to_record(longer)
    assert _found(TokenStream("empty", (), 0)) == [("grammar", None)]


def test_block_oracle_checks_tiling(backend):
    blocks = serialize(t2i_dialogue(backend)).blocks
    total = blocks[-1].end
    assert block_faults(blocks, total) == []
    shifted = [dataclasses.replace(b, start=b.start + 1, end=b.end + 1) if i == 1 else b
               for i, b in enumerate(blocks)]
    assert [(rule, i) for rule, _, i in block_faults(shifted, total)] == [("positions", 1),
                                                                           ("positions", 2)]
    assert [rule for rule, _, _ in block_faults(blocks, total + 1)] == ["total-len"]
    empty = dataclasses.replace(blocks[1], units=0, end=blocks[1].start)
    assert ("unit-count", 1) in [(rule, i) for rule, _, i in block_faults(
        (blocks[0], empty), empty.end)]
    wide = dataclasses.replace(blocks[0], units=2, end=2)
    assert ("unit-count", 0) in [(rule, i) for rule, _, i in block_faults((wide,), 2)]


def test_serialized_dialogues_always_validate(backend):
    rng = random.Random(44)
    for i in range(50):
        d = make_random_dialogue(rng, f"v-{i}")
        report = validate_stream(serialize(d))
        assert report.ok, report.violations


def test_loss_summary_partition(backend):
    d = t2i_dialogue(backend)
    s = serialize(d)
    summary = loss_summary(s)
    assert list(summary) == ["ce", "mse", "none"]
    assert sum(summary.values()) == s.total_len
    assert summary["mse"] == patch_grid_units(256, 256, 16)
    # CE covers the assistant's structural specials only: v_s, v_e, end
    assert summary["ce"] == 3


def test_loss_summary_no_image():
    s = parts_stream(("u", 5), ("t", 3), ("e",))
    summary = loss_summary(s)
    assert summary["mse"] == 0
    assert summary["ce"] == 6
    assert summary["none"] == 7


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_rounds=st.integers(1, 4))
def test_loss_summary_and_record_entries_are_the_streams_own(seed, max_rounds):
    s = serialize(make_random_dialogue(random.Random(seed), f"e-{seed}", max_rounds=max_rounds))
    assert sum(loss_summary(s).values()) == s.total_len
    assert stream_to_record(s)["blocks"] == [list(e) for e in s.parts]


# --- attention mask -------------------------------------------------------------


def test_mask_pure_causal_text():
    s = parts_stream(("u", 3), ("t", 2), ("e",))
    mask = dense_mask(s)
    assert np.array_equal(mask, np.tril(np.ones((10, 10), dtype=bool)))


def test_mask_noised_isolated_and_bidirectional():
    # u: |im_s| 0, text 1-2, |im_e| 3; n: |v_s| 4, noised 5-7, |v_e| 8;
    # r: |v_s| 9, vit 10, vae_clean 11-13, |v_e| 14; |end| 15
    s = parts_stream(("u", 2), ("n", 3, "g0"), ("r", 1, 3), ("e",))
    mask = dense_mask(s)
    q = 15  # the |end| token
    assert mask[q, :5].all()                     # sees the prior text and |v_s|
    assert not mask[q, 5:8].any()                # never the noised latents
    assert mask[q, 8:].all()                     # the clean replay, and itself
    assert np.array_equal(mask[5:8, 5:8], np.ones((3, 3), dtype=bool))  # within noised block
    assert mask[5:8, 0:5].all()                  # noised queries see the prior context
    assert np.array_equal(mask, mask_oracle(s))


def test_mask_two_noised_blocks_do_not_see_each_other():
    rnd = [("u", 1), ("n", 2, "g"), ("r", 1, 2), ("e",)]
    s = parts_stream(*rnd, *rnd)
    first, second = [b for b in s.blocks if b.kind is BlockKind.VAE_NOISED]
    mask = dense_mask(s)
    assert not mask[second.start:second.end, first.start:first.end].any()
    assert not mask[first.start:first.end, second.start:second.end].any()
    assert mask[second.start:second.end, second.start - 1].all()
    assert np.array_equal(mask, mask_oracle(s))


def test_mask_empty_stream():
    s = TokenStream("empty", (), 0)
    assert dense_mask(s).shape == (0, 0)
    assert mask_oracle(s).shape == (0, 0)


def test_mask_self_visibility_everywhere(backend):
    s = serialize(t2i_dialogue(backend, w=32, h=32))
    mask = dense_mask(s)
    assert mask.diagonal().all()


def test_oracle_refuses_long_streams(backend):
    s = serialize(t2i_dialogue(backend, w=512, h=512))
    assert s.total_len > 512
    with pytest.raises(StreamTooLong):
        mask_oracle(s)


def test_mask_matches_oracle_on_random_streams():
    rng = random.Random(7)
    checked = 0
    for _ in range(80):  # a fixed number of draws; the seed meets the quota in 40
        d = make_random_dialogue(rng, f"m-{checked}", max_rounds=2, dims=[16, 24, 32])
        s = serialize(d)
        if s.total_len > 256:
            continue
        assert np.array_equal(dense_mask(s), mask_oracle(s))
        checked += 1
        if checked == 40:
            break
    assert checked == 40, f"{checked} of 40 streams within 256 positions in 80 draws"


def test_mask_prefix_stability(backend):
    rng = random.Random(17)
    checked = 0
    for _ in range(60):  # a fixed number of draws; the seed meets the quota in 22
        d = make_random_dialogue(rng, f"p-{checked}", max_rounds=3, dims=[16, 24])
        # the prefix is a dialogue only when its last round ends on an image
        if len(d.rounds) < 2 or not d.rounds[-2].assistant.images():
            continue
        full = dense_mask(serialize(d))
        head = dense_mask(serialize(dataclasses.replace(d, rounds=d.rounds[:-1])))
        n = head.shape[0]
        assert np.array_equal(full[:n, :n], head)
        checked += 1
        if checked == 6:
            break
    assert checked == 6, f"{checked} of 6 dialogues with a prefix in 60 draws"


def test_mask_intervals_reconstruct_dense():
    rng = random.Random(23)
    for i in range(15):
        s = serialize(make_random_dialogue(rng, f"r-{i}", max_rounds=2, dims=[16, 24]))
        assert np.array_equal(dense_mask(s), mask_oracle(s))


def test_stream_record_round_trip(backend):
    s = serialize(t2i_dialogue(backend))
    rec = stream_to_record(s)
    assert stream_from_record(rec) == s
    assert stream_to_record(stream_from_record(rec)) == rec
    assert list(rec) == ["v", "dialogue_id", "total_len", "blocks"]
    assert rec["v"] == 2 and rec["total_len"] == s.total_len
    # one entry per part: its code, its non-special blocks' units, a new image's id
    text, noised, vit = s.blocks[1], s.blocks[4], s.blocks[7]
    assert rec["blocks"] == [["u", text.units], ["n", noised.units, noised.image_id],
                             ["r", vit.units, noised.units], ["e"]]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_rounds=st.integers(1, 3))
def test_stream_record_bytes_round_trip(seed, max_rounds):
    d = make_random_dialogue(random.Random(seed), f"h-{seed}", max_rounds=max_rounds,
                             dims=[16, 24, 32])
    line = io.dumps(stream_to_record(serialize(d)))
    s = stream_from_record(json.loads(line))
    assert s == serialize(d)
    assert io.dumps(stream_to_record(s)) == line
    if s.total_len <= 512:
        assert np.array_equal(dense_mask(s), mask_oracle(s))


def _mutated(blocks, i, **change):
    blocks = list(blocks)
    blocks[i] = dataclasses.replace(blocks[i], **change)
    return blocks


def _oracle_found(blocks):
    return [(rule, i) for rule, _, i in block_faults(blocks, blocks[-1].end)]


def _found(s):
    return [(v.rule, v.where) for v in validate_stream(s).violations]


def _with_part(s, k, **change):
    code, units, image_id = _split(s.parts[k])
    new = _join(change.get("code", code), change.get("units", units),
                change.get("image_id", image_id))
    return dataclasses.replace(s, parts=s.parts[:k] + (new,) + s.parts[k + 1:])


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), max_rounds=st.integers(1, 3))
def test_blocks_pass_the_block_oracle(seed, max_rounds):
    d = make_random_dialogue(random.Random(seed), f"b-{seed}", max_rounds=max_rounds,
                             dims=[16, 24, 32])
    s = serialize(d)
    for t in (s, stream_from_record(stream_to_record(s))):
        assert block_faults(t.blocks, t.total_len) == []
        assert sum(b.units for b in t.blocks) == t.total_len
        if t.total_len <= 512:
            assert np.array_equal(dense_mask(t), mask_oracle(t))


def test_block_oracle_reports_each_fault_once_at_its_block():
    rng = random.Random(61)
    for n in range(40):
        blocks = serialize(make_random_dialogue(rng, f"g-{n}")).blocks
        for i, b in enumerate(blocks):
            for loss in LossTag:
                if loss is not b.loss:
                    assert _oracle_found(_mutated(blocks, i, loss=loss)) == [("loss-tags", i)]
            if i and blocks[i - 1].round_index == b.round_index:
                assert (_oracle_found(_mutated(blocks, i, round_index=b.round_index + 1))
                        == [("round-index", i)])
            if b.kind is BlockKind.TEXT and b.role is Role.USER:
                assert _oracle_found(_mutated(blocks, i, role=Role.ASSISTANT)) == [("roles", i)]


def test_each_part_fault_is_reported_once_at_its_part():
    rng = random.Random(62)
    for n in range(40):
        s = serialize(make_random_dialogue(rng, f"q-{n}"))
        assert _found(dataclasses.replace(s, total_len=s.total_len + 1)) == [("total-len", None)]
        for k, entry in enumerate(s.parts):
            _, units, image_id = _split(entry)
            if image_id is not None:
                assert _found(_with_part(s, k, image_id=7)) == [("image-id", k)]
            for u, old in enumerate(units):
                bad = units[:u] + (0,) + units[u + 1:]
                assert (_found(dataclasses.replace(_with_part(s, k, units=bad),
                                                   total_len=s.total_len - old))
                        == [("unit-count", k)])
            assert _found(_with_part(s, k, units=units + (1,))) == [("grammar", k)]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_block_oracle_refuses_a_block_off_its_slot(seed, data):
    blocks = serialize(make_random_dialogue(random.Random(seed), f"o-{seed}", max_rounds=3)).blocks
    i = data.draw(st.integers(0, len(blocks) - 1), label="block")
    b = blocks[i]
    field, value = data.draw(st.one_of(
        st.sampled_from([r for r in Role if r is not b.role]).map(lambda v: ("role", v)),
        st.sampled_from([x for x in LossTag if x is not b.loss]).map(lambda v: ("loss", v)),
        st.integers(-1, 4).filter(lambda r: r != b.round_index).map(lambda v: ("round_index", v)),
        st.sampled_from([None, *SpecialToken]).filter(lambda t: t is not b.tok)
        .map(lambda v: ("tok", v)),
    ), label="change")
    assert _oracle_found(_mutated(blocks, i, **{field: value}))


_PART_CODES = ["u", "p", "n", "r", "t", "e"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), data=st.data())
def test_stream_to_record_refuses_a_part_off_the_grammar(seed, data):
    s = serialize(make_random_dialogue(random.Random(seed), f"o-{seed}", max_rounds=3))
    k = data.draw(st.integers(0, len(s.parts) - 1), label="part")
    code, units, image_id = _split(s.parts[k])
    change = data.draw(st.one_of(
        st.sampled_from([c for c in _PART_CODES if c != code]).map(lambda v: {"code": v}),
        st.sampled_from([0, -1, "3", True]).map(lambda v: {"units": units[:-1] + (v,)})
        if units else st.just({"units": (1,)}),
        st.just({"units": units + (1,)}),
        # a named part's id must be a string; any other part carries none
        st.sampled_from([None, 7] if image_id is not None else ["x", 7])
        .map(lambda v: {"image_id": v}),
    ), label="change")
    m = _with_part(s, k, **change)
    assert not validate_stream(m).ok
    with pytest.raises(InvalidStream, match=f"part {k}: "):
        stream_to_record(m)


def test_stream_to_record_refuses_image_ids_it_cannot_carry(backend):
    s = serialize(t2i_dialogue(backend))  # u, n, r, e
    for k, image_id, rule in [(1, None, "image-id"), (1, 7, "image-id"), (0, "x", "grammar"),
                              (2, "other", "grammar"), (3, "x", "grammar")]:
        m = _with_part(s, k, image_id=image_id)
        with pytest.raises(InvalidStream, match=f"part {k}: {rule}"):
            stream_to_record(m)
        assert _found(m) == [(rule, k)]


def test_block_oracle_checks_image_ids(backend):
    blocks = serialize(t2i_dialogue(backend)).blocks  # u: 0-2, noised: 3-5, replay: 6-9, end: 10
    for i, image_id in [(5, "x"), (1, "x"), (4, None), (4, 7), (7, "other"), (8, "other")]:
        # a noised image without a string id also leaves its replay's ids unmatched
        assert (_oracle_found(_mutated(blocks, i, image_id=image_id))
                == [("image-id", j) for j in ([4, 7, 8] if i == 4 else [i])])


def test_mask_first_block_sees_only_itself():
    s = parts_stream(("u", 1), ("t", 1), ("e",))
    line = json.loads(mask_intervals(s))
    assert (line["dialogue_id"], line["total_len"]) == (s.dialogue_id, s.total_len)
    first, second = line["rows"][:2]
    # a 1x1 block: no context, causal within means the single position sees itself
    assert first["context"] == [] and first["within"] == "causal"
    assert (first["start"], first["end"]) == (0, 1)
    assert second["context"] == [[0, 1]]


def test_the_doc_example_is_the_first_record_its_command_writes(tmp_path):
    text = (Path(__file__).parents[1] / "docs" / "stream-format.md").read_text(encoding="utf-8")
    doc = json.loads(text.split("```json\n", 1)[1].split("```", 1)[0])
    data = Path(__file__).parent / "data"
    dialogues, streams = tmp_path / "d.jsonl", tmp_path / "s.jsonl"
    assert main(["synthesize", "--stages", "a,b,c", "--task", "ti_i_0_0",
                 "--in", str(data / "edit_records_20.jsonl"), "--pool", str(data / "pool.jsonl"),
                 "--out", str(dialogues), "--seed", "7"]) == 0
    assert main(["serialize", "--in", str(dialogues), "--out", str(streams)]) == 0
    rec = json.loads(streams.read_text(encoding="utf-8").splitlines()[0])
    assert rec == doc
    s = stream_from_record(rec)
    assert s.parts == (("u", 22), ("p", 896, 672, "edit-00000-src"), ("n", 640, "edit-00000-tgt"),
                       ("r", 851, 640), ("t", 36), ("e",))
    # the doc's decoded blocks: 18 of them, all in round 0, |end| at 3767-3768
    assert len(s.blocks) == 18 and {b.round_index for b in s.blocks} == {0}
    assert (s.blocks[-1].tok, s.blocks[-1].start, s.blocks[-1].end) == (SpecialToken.END, 3767, 3768)


def _edit_record():
    """One v2 record with every part: u p n r t e, then u t e."""
    return {"v": 2, "dialogue_id": "d", "total_len": 2427, "blocks": [
        ["u", 5], ["p", 4, 3, "src"], ["n", 800, "tgt"], ["r", 790, 800], ["t", 2], ["e"],
        ["u", 3], ["t", 4], ["e"]]}


def _set(path, value):
    def edit(rec):
        *keys, last = path
        for key in keys:
            rec = rec[key]
        rec[last] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    pytest.param(lambda rec: rec.pop("v"), r"not a v2 stream record \(v is None\)", id="v1"),
    pytest.param(_set(["v"], 3), "v is 3", id="v3"),
    pytest.param(_set(["v"], 2.0), "v is 2.0", id="v-float"),
    pytest.param(_set(["blocks"], []), "not a non-empty list", id="no-entries"),
    pytest.param(_set(["blocks"], {}), "not a non-empty list", id="blocks-dict"),
    pytest.param(_set(["blocks", 4], {"kind": "text"}), r"blocks\[4\]: .* is not a \[part",
                 id="entry-dict"),
    pytest.param(_set(["blocks", 4, 0], "x"), r"blocks\[4\]: 'x' is not a valid part code",
                 id="unknown-code"),
    pytest.param(_set(["blocks", 0, 0], "t"), r"blocks\[0\]: part 't' cannot start a stream",
                 id="bad-start"),
    pytest.param(lambda rec: rec["blocks"].pop(3), r"blocks\[3\]: part 't' cannot follow 'n'",
                 id="no-replay"),
    pytest.param(_set(["blocks", 1], ["p", 4, "src"]),
                 r"blocks\[1\]: a 'p' entry has 4 items, not 3", id="short-entry"),
    pytest.param(_set(["blocks", 3], ["r", 790, 800, "tgt"]), "a 'r' entry has 3 items, not 4",
                 id="replay-with-id"),
    pytest.param(_set(["blocks", 0, 1], 0), r"blocks\[0\]: units 0 are not a positive int",
                 id="units-zero"),
    pytest.param(_set(["blocks", 1, 2], -1), "units -1 ", id="units-negative"),
    pytest.param(_set(["blocks", 7, 1], "4"), "units '4' ", id="units-str"),
    pytest.param(_set(["blocks", 7, 1], True), "units True ", id="units-bool"),
    pytest.param(_set(["blocks", 2, 2], 7), r"blocks\[2\]: image id 7 is not a string",
                 id="image-id-int"),
    pytest.param(lambda rec: rec["blocks"].pop(), "the last round has no 'e' entry", id="no-end"),
    pytest.param(_set(["total_len"], 2428), "total_len 2428 != position sum 2427",
                 id="total-len"),
    pytest.param(_set(["total_len"], 2427.0), "total_len 2427.0 != ", id="total-len-float"),
])
def test_stream_from_record_refuses_what_it_cannot_rebuild(edit, message):
    rec = _edit_record()
    assert stream_to_record(stream_from_record(rec)) == rec
    edit(rec)
    with pytest.raises(ValueError, match=message):
        stream_from_record(rec)
