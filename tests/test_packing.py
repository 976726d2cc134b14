import collections
import itertools
import json
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from pack_reference import placed_packs, reference_packs

from dialogforge import packing
from dialogforge.packing import (
    AllZeroWeights,
    EmptyCategory,
    Pack,
    SampleTooLong,
    SamplingConfig,
    _fullest,
    pack_corpus,
    pack_greedy,
    pack_to_record,
    sample_stream,
)


def corpus(name, n, length=100):
    return [(f"{name}-{i}", length) for i in range(n)]


def test_single_category_gets_all_draws():
    cfg = SamplingConfig({"only": 1.0})
    draws = sample_stream(cfg, {"only": corpus("only", 5)}, 50, seed=1)
    assert len(draws) == 50
    assert all(cat == "only" for cat, _ in draws)


def test_all_zero_weights():
    with pytest.raises(AllZeroWeights):
        sample_stream(SamplingConfig({"a": 0.0, "b": 0}), {"a": [1], "b": [2]}, 1, 0)


def test_negative_weight():
    with pytest.raises(ValueError):
        SamplingConfig({"a": -1.0}).validate()


def test_empty_category():
    cfg = SamplingConfig({"a": 1.0, "b": 1.0})
    with pytest.raises(EmptyCategory):
        sample_stream(cfg, {"a": corpus("a", 3), "b": []}, 10, 0)


def test_zero_weight_category_may_be_empty():
    cfg = SamplingConfig({"a": 1.0, "b": 0.0})
    draws = sample_stream(cfg, {"a": corpus("a", 3)}, 10, 0)
    assert all(cat == "a" for cat, _ in draws)


def test_sampling_deterministic():
    cfg = SamplingConfig({"a": 0.3, "b": 0.7})
    corp = {"a": corpus("a", 10), "b": corpus("b", 10)}
    assert sample_stream(cfg, corp, 200, 42) == sample_stream(cfg, corp, 200, 42)
    assert sample_stream(cfg, corp, 200, 42) != sample_stream(cfg, corp, 200, 43)


def test_sampling_ratios_converge():
    cfg = SamplingConfig({"a": 0.25, "b": 0.75})
    corp = {"a": corpus("a", 50), "b": corpus("b", 50)}
    draws = sample_stream(cfg, corp, 20000, 7)
    freq = collections.Counter(cat for cat, _ in draws)
    assert abs(freq["a"] / 20000 - 0.25) < 0.03
    assert abs(freq["b"] / 20000 - 0.75) < 0.03


def test_sampling_with_replacement_within_category():
    cfg = SamplingConfig({"a": 1.0})
    draws = sample_stream(cfg, {"a": corpus("a", 2)}, 100, 3)
    ids = collections.Counter(sid for _, (sid, _) in draws)
    assert ids["a-0"] > 1 and ids["a-1"] > 1


def test_pack_greedy_hand_case():
    # 3+3 fits under 7, the third 3 opens a new, underfull pack; 2 packs is the bound
    packs = pack_greedy([("s0", 3), ("s1", 3), ("s2", 3)], l_min=5, l_max=7)
    assert [p.lengths for p in packs] == [(3, 3), (3,)]
    assert [p.underfull for p in packs] == [False, True]
    assert [p.pack_id for p in packs] == ["pack-00000", "pack-00001"]


def test_two_draws_of_one_stream_go_to_two_packs():
    packs = pack_greedy([("x", 5), ("x", 5)], l_min=1, l_max=10)
    assert [p.sample_ids for p in packs] == [("x",), ("x",)]


def test_a_copy_skips_the_pack_that_holds_its_stream():
    # the 10 tokens would fill one pack, so x (two copies) and y go first: x,
    # then y fill 7 of 10; the second x would fit there but opens its own pack,
    # and no repair can close a pack that holds only another copy of x
    packs = pack_greedy([("x", 3), ("x", 3), ("y", 4)], l_min=1, l_max=10)
    assert [p.sample_ids for p in packs] == [("x", "y"), ("x",)]


def test_pack_greedy_places_longest_first():
    # next-fit in input order would close (a, b) and (c, d); the fill takes b6,
    # the longest that leaves room for the shortest, c3, then a4 fills the pack.
    # The 8 tokens left would fill one pack, so c and d go in in draw order.
    packs = pack_greedy([("a", 4), ("b", 6), ("c", 3), ("d", 5)], l_min=1, l_max=10)
    assert [p.sample_ids for p in packs] == [("b", "a"), ("c", "d")]
    assert [p.lengths for p in packs] == [(6, 4), (3, 5)]
    assert [p.total for p in packs] == [10, 8]


def test_repair_closes_a_pack_that_placement_left_open():
    # placement: b10 would leave too little room for the shortest, a3, so the
    # first pack takes c6 and a3; d's two copies then open a pack each, since b10
    # leaves no room for d, and b10 opens a fourth, over a bound of ceil(29 / 12)
    # = 3. Pooling every pack closes nothing; the third pass pools the three
    # emptiest, (b) takes the fullest subset d+c = 11 of its own and the pool's,
    # the rest, d a b, is placed again as (d a) (b), and a pack is gone.
    samples = [("a", 3), ("b", 10), ("d", 5), ("d", 5), ("c", 6)]
    assert [[samples[i][0] for i in p] for p in placed_packs(*zip(*samples), 12)] == [
        ["c", "a"], ["d"], ["d"], ["b"]]
    packs = pack_greedy(samples, l_min=1, l_max=12)
    assert [p.sample_ids for p in packs] == [("d", "c"), ("d", "a"), ("b",)]
    assert [p.total for p in packs] == [11, 8, 10]


def test_pack_exact_fit():
    packs = pack_greedy([("s0", 7)], l_min=5, l_max=7)
    assert len(packs) == 1
    assert packs[0].total == 7
    assert not packs[0].underfull


def test_pack_sample_too_long():
    with pytest.raises(SampleTooLong):
        pack_greedy([("s0", 8)], l_min=5, l_max=7)


def test_pack_bad_bounds_and_lengths():
    with pytest.raises(ValueError):
        pack_greedy([], l_min=8, l_max=7)
    with pytest.raises(ValueError):
        pack_greedy([("s0", 0)], l_min=1, l_max=7)
    with pytest.raises(ValueError, match="'s1' has non-positive"):  # the first in input order
        pack_greedy([("s0", 3), ("s1", 0), ("s2", 8)], l_min=1, l_max=7)


def assert_pack_properties(samples, packs, l_max):
    """What every ``pack_greedy`` result keeps, whatever the ids repeat."""
    assert all(len(set(p.sample_ids)) == len(p.sample_ids) for p in packs)  # no id twice
    packed = collections.Counter(s for p in packs for s in zip(p.sample_ids, p.lengths))
    assert packed == collections.Counter(samples)  # every draw exactly once
    assert all(p.total == sum(p.lengths) <= l_max for p in packs)
    ids, lengths = [s for s, _ in samples], [n for _, n in samples]
    assert len(packs) <= len(placed_packs(ids, lengths, l_max))
    light = [set(p.sample_ids) for p in packs if p.total <= l_max / 2]
    assert all(a & b for a, b in itertools.combinations(light, 2))


@settings(max_examples=200)
@given(lengths=st.lists(st.integers(1, 64), max_size=60))
def test_pack_conservation_and_capacity(lengths):
    samples = [(f"s{i}", n) for i, n in enumerate(lengths)]
    packs = pack_greedy(samples, l_min=48, l_max=64)
    ids = [s for s, _ in samples]
    assert ([[int(sid[1:]) for sid in p.sample_ids] for p in packs]
            == reference_packs(ids, lengths, 64))
    assert_pack_properties(samples, packs, 64)
    assert sum(p.total for p in packs) == sum(lengths)
    assert sum(p.total <= 64 / 2 for p in packs) <= 1  # ids are unique


def test_sorted_desc_leaves_one_underfull_at_most():
    rng = random.Random(5)
    samples = sorted(((f"s{i}", rng.randint(200, 3000)) for i in range(2000)),
                     key=lambda x: x[1], reverse=True)
    packs = pack_greedy(samples, l_min=62464, l_max=65536)
    index = {sid: i for i, (sid, _) in enumerate(samples)}
    assert ([[index[sid] for sid in p.sample_ids] for p in packs]
            == reference_packs(*zip(*samples), 65536))
    assert sum(p.underfull for p in packs) <= 1
    assert all(not p.underfull for p in packs[:-1])


def test_pack_corpus_stats():
    cfg = SamplingConfig({"a": 1.0, "b": 1.0})
    corp = {"a": [(f"a-{i}", 30) for i in range(5)],
            "b": [(f"b-{i}", 50) for i in range(5)]}
    packs, stats = pack_corpus(cfg, corp, 100, l_min=90, l_max=100, seed=11)
    assert stats["pack_count"] == len(packs)
    assert stats["lower_bound"] == -(-stats["token_count"] // 100) <= len(packs)
    assert stats["sample_count"] == 100
    assert stats["token_count"] == sum(p.total for p in packs)
    assert 0 < stats["mean_fill"] <= 1
    assert set(stats["category_draws"]) == {"a", "b"}
    assert abs(sum(stats["category_token_share"].values()) - 1.0) < 1e-9


def test_pack_corpus_empty():
    cfg = SamplingConfig({"a": 1.0})
    packs, stats = pack_corpus(cfg, {"a": [("x", 10)]}, 0, l_min=5, l_max=20, seed=0)
    assert packs == []
    assert stats["pack_count"] == 0
    assert stats["mean_fill"] == 0.0
    assert stats["underfull_count"] == 0


def test_pack_corpus_deterministic():
    cfg = SamplingConfig({"a": 2.0, "b": 1.0})
    corp = {"a": [(f"a-{i}", 10 + i) for i in range(20)],
            "b": [(f"b-{i}", 40 + i) for i in range(20)]}
    p1, s1 = pack_corpus(cfg, corp, 500, 90, 100, seed=3)
    p2, s2 = pack_corpus(cfg, corp, 500, 90, 100, seed=3)
    assert p1 == p2 and s1 == s2


def test_pack_record_shape():
    rec = pack_to_record(Pack("pack-00000", ("a", "b"), (3, 4), 7, False))
    assert list(rec) == ["pack_id", "sample_ids", "lengths", "total", "underfull"]


bounded_lengths = st.integers(1, 200).flatmap(
    lambda l_max: st.tuples(st.lists(st.integers(1, l_max), max_size=80), st.just(l_max)))


@settings(max_examples=200)
@given(case=bounded_lengths)
def test_pack_greedy_builds_the_reference_packs(case):
    lengths, l_max = case
    packs = pack_greedy([(str(i), n) for i, n in enumerate(lengths)], l_min=l_max, l_max=l_max)
    indices = [[int(sid) for sid in p.sample_ids] for p in packs]
    assert indices == reference_packs([str(i) for i in range(len(lengths))], lengths, l_max)
    assert sorted(i for pack in indices for i in pack) == list(range(len(lengths)))
    assert [p.lengths for p in packs] == [tuple(lengths[i] for i in pack) for pack in indices]
    assert [p.pack_id for p in packs] == [f"pack-{i:05d}" for i in range(len(packs))]


@st.composite
def repeated_draws(draw):
    """Draws from a few streams, as ``pack_corpus`` makes them. Some ids have a
    second stream at another length, as when two category files hold one id."""
    l_max = draw(st.integers(1, 120))
    lengths = draw(st.lists(st.integers(1, l_max), min_size=1, max_size=12))
    seconds = draw(st.lists(st.tuples(st.integers(0, len(lengths) - 1), st.integers(1, l_max)),
                            max_size=4))
    streams = [(f"s{k}", n) for k, n in [*enumerate(lengths), *seconds]]
    picks = draw(st.lists(st.integers(0, len(streams) - 1), max_size=80))
    return [streams[k] for k in picks], l_max


@settings(max_examples=300)
@given(case=repeated_draws())
def test_pack_greedy_builds_the_reference_packs_from_repeated_draws(case):
    samples, l_max = case
    packs = pack_greedy(samples, l_min=1, l_max=l_max)
    ids, lengths = [s for s, _ in samples], [n for _, n in samples]
    assert ([list(p.sample_ids) for p in packs]
            == [[ids[i] for i in pack] for pack in reference_packs(ids, lengths, l_max)])
    assert_pack_properties(samples, packs, l_max)


@settings(max_examples=300)
@given(case=repeated_draws())
def test_placement_closes_a_pack_only_when_no_copy_it_lacks_fits(case):
    samples, l_max = case
    ids, lengths = [s for s, _ in samples], [n for _, n in samples]
    state = packing._Packs(ids, lengths, l_max)
    state.fill(range(len(samples)))
    for k, pack in enumerate(state.packs):
        room = l_max - sum(lengths[i] for i in pack.values())
        later = [i for opened in state.packs[k + 1:] for i in opened.values()]
        assert all(ids[i] in pack or lengths[i] > room for i in later)


@settings(max_examples=100)
@given(case=repeated_draws(), budget=st.integers(0, 1 << 20), sum_bits=st.integers(0, 4000))
# budgets that end the repair inside a pass, where the pooled draws or every
# candidate must count, and a largest sum that lets no visit run
@example(case=([("s1", 8), ("s1", 8), ("s0", 16), ("s4", 5), ("s3", 22)], 26),
         budget=1 << 16, sum_bits=1 << 20)
@example(case=([("s0", 17), ("s2", 6), ("s1", 7), ("s0", 17), ("s0", 17), ("s0", 17), ("s2", 6),
                ("s3", 9)], 20), budget=8 << 16, sum_bits=1 << 20)
@example(case=([("a", 3), ("b", 10), ("d", 5), ("d", 5), ("c", 6)], 12),
         budget=1 << 30, sum_bits=0)
def test_repair_keeps_to_its_budget_and_its_largest_sum(case, budget, sum_bits):
    samples, l_max = case
    ids, lengths = [s for s, _ in samples], [n for _, n in samples]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(packing, "REPAIR_BUDGET", budget)
        mp.setattr(packing, "REPAIR_SUM_BITS", sum_bits)
        packs = pack_greedy(samples, l_min=1, l_max=l_max)
        assert ([list(p.sample_ids) for p in packs]
                == [[ids[i] for i in pack] for pack in reference_packs(ids, lengths, l_max)])
    assert_pack_properties(samples, packs, l_max)


@settings(max_examples=200)
@given(lengths=st.lists(st.integers(1, 9), max_size=10), cap=st.integers(0, 60))
def test_fullest_is_the_largest_subset_sum_and_the_latest_items_it_can_avoid(lengths, cap):
    # few distinct lengths, so runs of equal lengths are common
    best, chosen = _fullest(lengths, cap)
    subsets = [c for r in range(len(lengths) + 1)
               for c in itertools.combinations(range(len(lengths)), r)
               if sum(lengths[i] for i in c) <= cap]
    assert best == max(sum(lengths[i] for i in c) for c in subsets)
    # among the fullest subsets, the one whose indices, largest first, are least
    fullest = [c for c in subsets if sum(lengths[i] for i in c) == best]
    assert chosen == list(min(fullest, key=lambda c: sorted(c, reverse=True)))


@st.composite
def pack_runs(draw):
    l_max = draw(st.integers(1, 120))
    names = draw(st.lists(st.sampled_from("abcd"), min_size=1, max_size=4, unique=True))
    corpora = {name: [(f"{name}-{i}", n) for i, n in
                      enumerate(draw(st.lists(st.integers(1, l_max), min_size=1, max_size=8)))]
               for name in names}
    weights = {name: draw(st.floats(0.1, 4.0)) for name in names}
    return SamplingConfig(weights), corpora, draw(st.integers(0, 120)), l_max, draw(st.integers(0, 2**32))


@settings(max_examples=100)
@given(run=pack_runs())
def test_pack_corpus_packs_every_draw_once_within_l_max(run):
    cfg, corpora, n, l_max, seed = run
    packs, stats = pack_corpus(cfg, corpora, n, l_max // 2, l_max, seed)
    drawn = collections.Counter(sid for _, (sid, _) in sample_stream(cfg, corpora, n, seed))
    assert collections.Counter(sid for p in packs for sid in p.sample_ids) == drawn
    assert_pack_properties([draw for _, draw in sample_stream(cfg, corpora, n, seed)],
                           packs, l_max)
    assert [p.pack_id for p in packs] == [f"pack-{i:05d}" for i in range(len(packs))]
    assert stats["pack_count"] == len(packs) and stats["sample_count"] == n


@settings(max_examples=50)
@given(run=pack_runs())
def test_pack_corpus_is_byte_deterministic(run):
    cfg, corpora, n, l_max, seed = run

    def dump():
        packs, stats = pack_corpus(cfg, corpora, n, l_max // 2, l_max, seed)
        return json.dumps([pack_to_record(p) for p in packs]), json.dumps(stats)

    assert dump() == dump()


def _ranks(values):
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0.0] * len(values)
    i = 0
    while i < len(order):
        j = i
        while j + 1 < len(order) and values[order[j + 1]] == values[order[i]]:
            j += 1
        for k in range(i, j + 1):
            ranks[order[k]] = (i + j) / 2
        i = j + 1
    return ranks


def test_pack_file_is_not_ordered_by_length():
    rng = random.Random(2)
    corp = {"a": [(f"a-{i}", rng.randint(200, 3000)) for i in range(400)]}
    packs, _ = pack_corpus(SamplingConfig({"a": 1.0}), corp, 2000, 14000, 16000, seed=5)
    x, y = _ranks(list(range(len(packs)))), _ranks([max(p.lengths) for p in packs])
    mx, my = sum(x) / len(x), sum(y) / len(y)
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    rho = cov / (sum((a - mx) ** 2 for a in x) * sum((b - my) ** 2 for b in y)) ** 0.5
    assert len(packs) > 150 and abs(rho) < 0.2
