"""Four-dimensional task signatures for conversational samples.

A signature is the underscore-joined label ``<input>_<output>_<dependency>_<depth>``,
e.g. ``t_i_i1_1``: text input, image output, dependency on one historical image,
at depth one. Dependency and depth are coupled (no dependency forces depth zero),
which leaves exactly 36 valid combinations.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum


class SignatureError(ValueError):
    pass


class MalformedSignature(SignatureError):
    """Wrong field count or an unknown code."""


class InconsistentSignature(SignatureError):
    """Dependency and depth fields disagree (e.g. no dependency but nonzero depth)."""


class InputModality(Enum):
    T = "t"
    TI = "ti"


class OutputModality(Enum):
    I = "i"
    TI = "ti"


class DependencyModality(Enum):
    NONE = "0"
    T1 = "t1"
    TN = "tn"
    I1 = "i1"
    IN = "in"


class DepthKind(Enum):
    ZERO = "0"
    ONE = "1"
    N = "n"


@dataclass(frozen=True)
class TaskSignature:
    input: InputModality
    output: OutputModality
    dep: DependencyModality
    depth: DepthKind

    @property
    def is_consistent(self) -> bool:
        return (self.dep is DependencyModality.NONE) == (self.depth is DepthKind.ZERO)


def format_signature(sig: TaskSignature) -> str:
    """Render a signature as its four-code string form.

    Raises:
        InconsistentSignature: dependency/depth coupling violated.
    """
    if not sig.is_consistent:
        raise InconsistentSignature(
            f"dependency {sig.dep.value!r} is incompatible with depth {sig.depth.value!r}"
        )
    return "_".join((sig.input.value, sig.output.value, sig.dep.value, sig.depth.value))


def parse_signature(s: str) -> TaskSignature:
    """Parse a four-code signature string.

    Raises:
        MalformedSignature: not four fields, or an unknown code.
        InconsistentSignature: codes valid but dependency/depth disagree.
    """
    parts = s.split("_")
    if len(parts) != 4:
        raise MalformedSignature(f"expected 4 underscore-separated fields, got {len(parts)}: {s!r}")

    def lookup(enum_cls, code, what):
        try:
            return enum_cls(code)
        except ValueError:
            raise MalformedSignature(f"unknown {what} code {code!r} in {s!r}") from None

    sig = TaskSignature(
        input=lookup(InputModality, parts[0], "input modality"),
        output=lookup(OutputModality, parts[1], "output modality"),
        dep=lookup(DependencyModality, parts[2], "dependency modality"),
        depth=lookup(DepthKind, parts[3], "depth"),
    )
    if not sig.is_consistent:
        raise InconsistentSignature(
            f"dependency {sig.dep.value!r} is incompatible with depth {sig.depth.value!r} in {s!r}"
        )
    return sig
