"""Conversation data model: image references, segments, turns, rounds, dialogues.

A dialogue is an ordered list of (user, assistant) rounds plus dependency
annotations tying the final user request to earlier rounds. Values are
``__slots__`` classes compared by value (``dialogforge.values``); nothing
changes one once built, and the transformation stages always build new
dialogues, with ``replace`` where they change one field.

Each fact is stored once. The constructor derives a dialogue's signature and
``dep_depth_value`` from its content and raises when the content has none. A
turn's role is the slot it fills in its round, so an image in a user turn is
an upload and one in an assistant turn a generated image, and a turn is a
distractor exactly when its provenance says so. Records carry none of these.
The remaining structural rules are checked by ``validate_dialogue``, which
reports violations as data rather than raising.

Depth bookkeeping: ``dep_depth_value`` records how far back the *farthest*
dependency target sits (in rounds), while the signature's depth kind is
classified by the *nearest* target — a composition request over the two
immediately preceding rounds is still an immediate (depth-one) task even
though its farthest subject is two rounds back.
"""

from __future__ import annotations

from enum import Enum
from typing import Any, Callable, TypeVar

from .stream import StreamConfig, ValidationReport, round_entries
from .taxonomy import (
    DependencyModality,
    DepthKind,
    InputModality,
    OutputModality,
    TaskSignature,
)
from .values import Value, replace


E = TypeVar("E", bound=Enum)


def enum_decoder(enum: type[E]) -> Callable[[Any], E]:
    """``enum(value)`` through a dict built once, several times cheaper per call.

    A value the dict misses, or cannot hash, goes to ``enum(value)`` itself,
    so the error stays ``ValueError("'x' is not a valid <Enum>")``.
    """
    members = {m.value: m for m in enum}

    def decode(value: Any) -> E:
        try:
            return members[value]
        except (KeyError, TypeError):
            return enum(value)

    return decode


class InvalidTarget(ValueError):
    """A dependency target index that cannot precede the final round."""


class AmbiguousDependency(ValueError):
    """Dependency targets mix text and image history; no code covers that."""


class UnclassifiableModality(ValueError):
    """A final turn whose content has no code in the taxonomy."""


class MissingCaption(ValueError):
    """An operation needed an image caption that is absent or blank."""


class Stage(Enum):
    A = "a"
    B = "b"
    C = "c"
    DISTRACTOR = "distractor"
    SOURCE = "source"


class ImageRef(Value):
    __slots__ = _fields = ("id", "uri", "width", "height", "caption")

    def __init__(self, id: str, uri: str, width: int, height: int, caption: str | None = None):
        self.id, self.uri, self.width, self.height, self.caption = id, uri, width, height, caption


class Segment(Value):
    """Exactly one of ``text`` or ``image``."""

    __slots__ = _fields = ("text", "image")

    def __init__(self, text: str | None = None, image: ImageRef | None = None):
        if (text is None) == (image is None):
            raise ValueError("a segment holds exactly one of text or image")
        self.text, self.image = text, image

    @property
    def is_text(self) -> bool:
        return self.text is not None

    @property
    def is_image(self) -> bool:
        return self.image is not None


class Provenance(Value):
    __slots__ = _fields = ("stage", "op_kind", "original_text")

    def __init__(self, stage: Stage, op_kind: str | None = None,
                 original_text: str | None = None):
        self.stage, self.op_kind = stage, op_kind
        # Pre-rewrite final query, kept when a history-dependent rewrite replaces it.
        self.original_text = original_text


class Turn(Value):
    """Segments and where they came from.

    A turn's role is the slot of its ``Round`` that holds it, and it is a
    distractor when its provenance stage is ``Stage.DISTRACTOR``.
    """

    __slots__ = _fields = ("segments", "provenance")

    def __init__(self, segments: tuple[Segment, ...], provenance: Provenance):
        self.segments, self.provenance = tuple(segments), provenance

    @property
    def is_distractor(self) -> bool:
        return self.provenance.stage is Stage.DISTRACTOR

    def text_content(self) -> str:
        """All text segments joined with single spaces, in order."""
        return " ".join(s.text for s in self.segments if s.is_text)

    def images(self) -> list[ImageRef]:
        return [s.image for s in self.segments if s.is_image]


class Round(Value):
    __slots__ = _fields = ("user", "assistant")

    def __init__(self, user: Turn, assistant: Turn):
        self.user, self.assistant = user, assistant


class Dialogue(Value):
    """Rounds and dependency targets; the signature and depth are derived from them.

    Raises TypeError for an ``id`` that is not a string, and what ``_classify``
    raises for content that has no signature.
    """

    __slots__ = ("id", "rounds", "dep_target_rounds", "annotations", "signature",
                 "dep_depth_value", "__weakref__")
    _fields = ("id", "rounds", "dep_target_rounds", "annotations")

    def __init__(self, id: str, rounds: tuple[Round, ...], dep_target_rounds: tuple[int, ...] = (),
                 annotations: tuple[str, ...] = ()):
        if type(id) is not str:
            raise TypeError(f"dialogue id must be a string, not {id!r}")
        rounds, targets = tuple(rounds), tuple(dep_target_rounds)
        self.id, self.rounds, self.dep_target_rounds = id, rounds, targets
        self.annotations = tuple(annotations)
        self.signature: TaskSignature = _classify(rounds, targets)
        self.dep_depth_value: int | None = _farthest(rounds, targets)

    @property
    def last_round_index(self) -> int:
        return len(self.rounds) - 1


def validate_round_turns(rnd: Round, cfg: StreamConfig, report: ValidationReport,
                         where: int) -> None:
    """The faults ``stream.round_entries`` finds in ``rnd``, and a blank text segment
    beside text with words, which streams; shared with distractor-pool validation."""
    round_entries(where, rnd, cfg, lambda rule, detail, error: report.add(rule, detail, where))
    for slot, turn in (("user", rnd.user), ("assistant", rnd.assistant)):
        texts = [s.text for s in turn.segments if s.is_text]
        if len(texts) > 1 and not all(t.strip() for t in texts) and " ".join(texts).split():
            report.add("empty-text", f"{slot} turn has a blank text segment", where)


def validate_dialogue(d: Dialogue, cfg: StreamConfig = StreamConfig()) -> ValidationReport:
    """What ``serialize`` with ``cfg`` refuses and what the constructor leaves open, as data."""
    report = ValidationReport()
    seen_ids: set[str] = set()
    for i, rnd in enumerate(d.rounds):
        validate_round_turns(rnd, cfg, report, i)
        for img in rnd.user.images() + rnd.assistant.images():
            if img.id in seen_ids:
                report.add("image-id-unique", f"image id {img.id!r} appears twice", i)
            seen_ids.add(img.id)

    targets = d.dep_target_rounds
    if len(set(targets)) != len(targets):
        report.add("target-unique", "duplicate dependency target rounds")
    for t in targets:
        if d.rounds[t].user.is_distractor or d.rounds[t].assistant.is_distractor:
            report.add("distractor-target", f"target round {t} is a distractor", t)
    return report


def image_caption(d: Dialogue, i: int) -> str:
    """Caption of the first image of round ``i``'s assistant turn.

    Raises:
        MissingCaption: the turn shows no image, or its caption is blank.
    """
    images = d.rounds[i].assistant.images()
    if not images or not (images[0].caption or "").strip():
        raise MissingCaption(f"dialogue {d.id!r}: round {i} has no captioned image")
    return images[0].caption


def _farthest(rounds: tuple[Round, ...], targets: tuple[int, ...]) -> int | None:
    """Rounds between the final round and the farthest target; None without targets."""
    return max((len(rounds) - 1 - t for t in targets), default=None)


def _classify(rounds: tuple[Round, ...], targets: tuple[int, ...]) -> TaskSignature:
    """The task signature of this content.

    The depth kind is classified by the nearest dependency target: zero
    without targets, one when some target is the immediately preceding
    round, long-range otherwise.

    Raises:
        InvalidTarget: a target does not strictly precede the final round.
        AmbiguousDependency: targets mix text and image history.
        UnclassifiableModality: no rounds, or final-turn content outside the taxonomy.
    """
    if not rounds:
        raise UnclassifiableModality("empty dialogue")
    final = rounds[-1]
    inp = InputModality.TI if final.user.images() else InputModality.T
    out_images = bool(final.assistant.images())
    out_text = any(s.is_text for s in final.assistant.segments)
    if not out_images:
        raise UnclassifiableModality("final assistant turn produces no image")
    out = OutputModality.TI if out_text else OutputModality.I

    if not targets:
        return TaskSignature(inp, out, DependencyModality.NONE, DepthKind.ZERO)
    last = len(rounds) - 1
    kinds = set()
    for t in targets:
        if not (0 <= t < last):
            raise InvalidTarget(f"target round {t} does not precede the final round {last}")
        kinds.add("image" if rounds[t].assistant.images() else "text")
    if len(kinds) != 1:
        raise AmbiguousDependency("dependency targets mix text and image rounds")
    if kinds == {"image"}:
        dep = DependencyModality.I1 if len(targets) == 1 else DependencyModality.IN
    else:
        dep = DependencyModality.T1 if len(targets) == 1 else DependencyModality.TN
    depth = DepthKind.ONE if last - max(targets) == 1 else DepthKind.N
    return TaskSignature(inp, out, dep, depth)


# --- JSONL record schema -----------------------------------------------------
# One dialogue per line. Field order is fixed and absent optionals are
# omitted, so identical dialogues serialize to identical bytes.


def image_to_obj(img: ImageRef) -> dict[str, Any]:
    obj: dict[str, Any] = {
        "id": img.id,
        "uri": img.uri,
        "width": img.width,
        "height": img.height,
    }
    if img.caption is not None:
        obj["caption"] = img.caption
    return obj


# The decoders check the value types later code computes with, so that a bad
# record is refused where it is read (the CLI's exit 3 with path:line). They pass
# constructor arguments by position, which costs less per call than by keyword.

_stage = enum_decoder(Stage)


def image_from_obj(obj: Any) -> ImageRef:
    if not isinstance(obj, dict):
        raise TypeError(f"image must be an object, not {obj!r}")
    if type(obj["id"]) is not str:
        raise TypeError(f"image id must be a string, not {obj['id']!r}")
    width, height = obj["width"], obj["height"]
    if type(width) is not int or type(height) is not int:
        raise TypeError(f"image {obj['id']!r}: width and height must be integers, "
                        f"not {width!r} and {height!r}")
    caption = obj.get("caption")
    if caption is not None and type(caption) is not str:
        raise TypeError(f"image {obj['id']!r}: caption must be a string, not {caption!r}")
    return ImageRef(obj["id"], obj["uri"], width, height, caption)


def _segment_to_obj(seg: Segment) -> dict[str, Any]:
    if seg.is_text:
        return {"text": seg.text}
    return {"image": image_to_obj(seg.image)}


def _segment_from_obj(obj: Any) -> Segment:
    if not isinstance(obj, dict) or ("text" in obj) == ("image" in obj):
        raise TypeError(f"segment must be an object with exactly one of text and image, "
                        f"not {obj!r}")
    if "text" in obj:
        if not isinstance(obj["text"], str):
            raise TypeError(f"text segment must be a string, not {obj['text']!r}")
        return Segment(obj["text"])
    return Segment(None, image_from_obj(obj["image"]))


def turn_to_obj(turn: Turn) -> dict[str, Any]:
    prov: dict[str, Any] = {"stage": turn.provenance.stage.value}
    if turn.provenance.op_kind is not None:
        prov["op_kind"] = turn.provenance.op_kind
    if turn.provenance.original_text is not None:
        prov["original_text"] = turn.provenance.original_text
    return {
        "segments": [_segment_to_obj(s) for s in turn.segments],
        "provenance": prov,
    }


def turn_from_obj(obj: dict[str, Any], slot: str) -> Turn:
    """Decode the turn in round slot ``slot``, which names it in errors."""
    if not isinstance(obj, dict):
        raise TypeError(f"{slot} turn must be an object, not {obj!r}")
    prov = obj["provenance"]
    if not isinstance(prov, dict):
        raise TypeError(f"{slot} turn: provenance must be an object, not {prov!r}")
    if not isinstance(obj["segments"], list):
        raise TypeError(f"{slot} turn: segments must be a list")
    return Turn(tuple([_segment_from_obj(s) for s in obj["segments"]]),
                Provenance(_stage(prov["stage"]), prov.get("op_kind"), prov.get("original_text")))


def dialogue_to_record(d: Dialogue) -> dict[str, Any]:
    rec: dict[str, Any] = {
        "id": d.id,
        "dep_target_rounds": list(d.dep_target_rounds),
        "rounds": [{"user": turn_to_obj(rnd.user), "assistant": turn_to_obj(rnd.assistant)}
                   for rnd in d.rounds],
    }
    if d.annotations:
        rec["annotations"] = list(d.annotations)
    return rec


def dialogue_from_record(rec: dict[str, Any]) -> Dialogue:
    """Decode one record.

    Older records also hold ``signature`` and ``dep_depth_value``, an
    ``is_distractor`` per turn and a ``source`` per image; all are ignored.
    """
    if not isinstance(rec["rounds"], list):
        raise TypeError(f"dialogue {rec['id']!r}: rounds must be a list")
    targets = rec["dep_target_rounds"]
    if type(targets) is not list or any(type(t) is not int for t in targets):
        raise TypeError(f"dialogue {rec['id']!r}: dep_target_rounds must be a list of "
                        f"integers, not {targets!r}")
    rounds = []
    for i, r in enumerate(rec["rounds"]):
        if not isinstance(r, dict):
            raise TypeError(f"dialogue {rec['id']!r}: round {i} must be an object, not {r!r}")
        try:
            rounds.append(Round(turn_from_obj(r["user"], "user"),
                                turn_from_obj(r["assistant"], "assistant")))
        except TypeError as err:
            raise TypeError(f"dialogue {rec['id']!r}: round {i}: {err}") from err
    annotations = rec.get("annotations", [])
    if type(annotations) is not list or any(type(a) is not str for a in annotations):
        raise TypeError(f"dialogue {rec['id']!r}: annotations must be a list of strings, "
                        f"not {annotations!r}")
    return Dialogue(rec["id"], rounds, targets, annotations)


def with_annotation(d: Dialogue, note: str) -> Dialogue:
    return replace(d, annotations=d.annotations + (note,))
