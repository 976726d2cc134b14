import itertools

import pytest
from hypothesis import given
from dialogue_reference import enumerate_valid_signatures
from hypothesis import strategies as st

from dialogforge.taxonomy import (
    DependencyModality,
    DepthKind,
    InconsistentSignature,
    InputModality,
    MalformedSignature,
    OutputModality,
    TaskSignature,
    format_signature,
    parse_signature,
)


def brute_force_valid_strings() -> set[str]:
    # Independent enumeration straight from the code tables: every 4-tuple of
    # codes, minus the ones where dependency and depth disagree.
    out = set()
    for i, o, d, k in itertools.product(["t", "ti"], ["i", "ti"],
                                        ["0", "t1", "tn", "i1", "in"], ["0", "1", "n"]):
        if (d == "0") == (k == "0"):
            out.add(f"{i}_{o}_{d}_{k}")
    return out


def test_parse_basic():
    sig = parse_signature("t_i_i1_1")
    assert sig.input is InputModality.T
    assert sig.output is OutputModality.I
    assert sig.dep is DependencyModality.I1
    assert sig.depth is DepthKind.ONE


def test_parse_context_free():
    sig = parse_signature("t_i_0_0")
    assert sig.dep is DependencyModality.NONE
    assert sig.depth is DepthKind.ZERO


def test_parse_inconsistent():
    with pytest.raises(InconsistentSignature):
        parse_signature("t_i_0_1")
    with pytest.raises(InconsistentSignature):
        parse_signature("t_i_i1_0")


@pytest.mark.parametrize("bad", ["", "t_i_0", "t_i_0_0_0", "x_i_0_0", "t_x_0_0",
                                 "t_i_x_0", "t_i_0_x", "t__0_0", "T_I_0_0", "t_i_i1_2"])
def test_parse_malformed(bad):
    with pytest.raises(MalformedSignature):
        parse_signature(bad)


def test_format_basic():
    sig = TaskSignature(InputModality.T, OutputModality.TI, DependencyModality.NONE,
                        DepthKind.ZERO)
    assert format_signature(sig) == "t_ti_0_0"


def test_format_inconsistent():
    sig = TaskSignature(InputModality.T, OutputModality.I, DependencyModality.NONE,
                        DepthKind.ONE)
    with pytest.raises(InconsistentSignature):
        format_signature(sig)


def test_enumeration_cardinality_and_order():
    sigs = enumerate_valid_signatures()
    strings = [format_signature(s) for s in sigs]
    assert len(sigs) == 36
    assert strings == sorted(strings)
    assert len(set(strings)) == 36
    assert set(strings) == brute_force_valid_strings()


def test_enumeration_contents():
    strings = {format_signature(s) for s in enumerate_valid_signatures()}
    assert "t_i_i1_n" in strings
    assert not any(s.split("_")[2] == "0" and s.split("_")[3] == "1" for s in strings)


def test_round_trip_all():
    for sig in enumerate_valid_signatures():
        assert parse_signature(format_signature(sig)) == sig


@given(st.text(max_size=20))
def test_parse_rejects_everything_invalid(s):
    valid = brute_force_valid_strings()
    if s in valid:
        parse_signature(s)
    else:
        with pytest.raises((MalformedSignature, InconsistentSignature)):
            parse_signature(s)
