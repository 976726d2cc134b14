"""Acceptance suite: every release gate runs here, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
All checks use the mock backend and finish in well under five minutes.
"""

import collections
import functools
import json
import random
import shutil
import time
from pathlib import Path

import numpy as np
from dialogue_reference import make_random_dialogue, restore_stage_a_view, structural_equal
from mask_reference import dense_mask, mask_oracle

from dialogforge.atomic_ops import (
    OPS,
    MockBackend,
    OpKind,
    OpRequest,
    invoke,
)
from dialogforge.cli import main as cli_main
from dialogforge.dialogue import dialogue_from_record, validate_dialogue
from dialogforge.fixtures import (
    make_distractor_pool,
    make_edit_records,
    make_subject_records,
    make_t2i_records,
)
from dialogforge.packing import SamplingConfig, pack_greedy, sample_stream
from dialogforge.stage_a import BUILDERS, run_stage_a
from dialogforge.stage_b import apply_insertion, plan_insertion, run_stage_b
from dialogforge.stage_c import interleave_output
from dialogforge.stream import (
    BlockKind,
    loss_summary,
    serialize,
    validate_stream,
)
from dialogforge.taxonomy import (
    enumerate_valid_signatures,
    format_signature,
    parse_signature,
)

DATA = Path(__file__).parent / "data"
BACKEND = MockBackend()

NAMED_SIGNATURES = [
    "t_i_0_0", "t_i_t1_1", "ti_i_0_0", "t_i_i1_1", "t_i_in_1", "ti_i_i1_1",
    "t_i_t1_n", "t_i_i1_n", "t_i_in_n", "ti_i_i1_n", "t_ti_0_0",
]


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {num:>2} FAIL  {name}")
                raise
            print(f"criterion {num:>2} PASS  {name}")
        return wrapper
    return deco


def stage_a_corpus(n_per_type: int, seed: int):
    """One dialogue per (record, builder) pair over all six builders."""
    raw = {
        "t2i": make_t2i_records(n_per_type, seed),
        "edit": make_edit_records(n_per_type, seed + 1),
        "subj": make_subject_records(n_per_type, seed + 2),
    }
    source_for = {"t_i_0_0": "t2i", "t_i_t1_1": "t2i", "ti_i_0_0": "edit",
                  "t_i_i1_1": "edit", "t_i_in_1": "subj", "ti_i_i1_1": "subj"}
    out = {}
    for task in BUILDERS:
        dialogues, rejects = run_stage_a(raw[source_for[task]], task, BACKEND, seed=seed)
        assert not rejects
        out[task] = dialogues
    return out


@criterion(1, "taxonomy: 36 signatures, full round-trip, all named tasks covered")
def test_taxonomy_completeness():
    sigs = enumerate_valid_signatures()
    assert len(sigs) == 36
    strings = [format_signature(s) for s in sigs]
    assert len(set(strings)) == 36
    for sig in sigs:
        assert parse_signature(format_signature(sig)) == sig
    for name in NAMED_SIGNATURES:
        assert format_signature(parse_signature(name)) == name
        assert name in strings


@criterion(2, "atomic ops: ten-kind registry, 1000-seed mock sweep fully parseable")
def test_atomic_op_coverage():
    assert len(OpKind) == 10
    inputs = {
        "caption": "a golden retriever running on the grass",
        "caption_a": "a white cat", "caption_b": "a golden retriever",
        "caption_history": "a white cat on a book",
        "query": "Add a red hat", "target_caption": "a dog reading a book",
        "question": "What breed is this?",
    }
    for kind in OpKind:
        req_inputs = {k: inputs[k] for k in OPS[kind].inputs}
        for seed in range(1000):
            resp = invoke(OpRequest(kind, req_inputs, seed), BACKEND, retries=0)
            assert set(resp.fields) == set(OPS[kind].outputs)
            assert all(v.strip() for v in resp.fields.values())


@criterion(3, "stage a: 500-record fixture, zero violations, inferred == declared")
def test_stage_a_builders():
    # 500 records split over the three source types; each feeds two builders.
    raw = {
        "t2i": make_t2i_records(168, 300),
        "edit": make_edit_records(166, 301),
        "subj": make_subject_records(166, 302),
    }
    source_for = {"t_i_0_0": "t2i", "t_i_t1_1": "t2i", "ti_i_0_0": "edit",
                  "t_i_i1_1": "edit", "t_i_in_1": "subj", "ti_i_i1_1": "subj"}
    assert sum(len(v) for v in raw.values()) == 500
    for task in BUILDERS:
        dialogues, rejects = run_stage_a(raw[source_for[task]], task, BACKEND, seed=17)
        assert not rejects
        assert len(dialogues) == len(raw[source_for[task]])
        for d in dialogues:
            report = validate_dialogue(d)
            assert report.ok, (task, d.id, report.violations)
            assert format_signature(d.signature) == task, (task, d.id)


@criterion(4, "stage b: depth grows by exactly k, strip+restore reconstructs the input")
def test_stage_b_depth_law():
    corpus = stage_a_corpus(3, 400)
    eligible = [d for task in ("t_i_t1_1", "t_i_i1_1", "t_i_in_1", "ti_i_i1_1")
                for d in corpus[task]]
    pool = make_distractor_pool(4, 401)  # 12 entries
    for d in eligible:
        nearest_in = min(d.last_round_index - t for t in d.dep_target_rounds)
        for k in range(1, 9):
            out = apply_insertion(d, plan_insertion(d, pool, k, seed=1000 + k), BACKEND, seed=4)
            assert out.dep_depth_value == d.dep_depth_value + k
            nearest_out = min(out.last_round_index - t for t in out.dep_target_rounds)
            assert nearest_out == nearest_in + k
            assert validate_dialogue(out).ok
            assert structural_equal(restore_stage_a_view(out), d)
            assert not any(out.rounds[t].user.is_distractor for t in out.dep_target_rounds)


@criterion(5, "stage c: output modality flips image -> image+text, image precedes answer")
def test_stage_c_transform():
    corpus = stage_a_corpus(2, 500)
    pool = make_distractor_pool(4, 501)
    dialogues = [d for task in BUILDERS for d in corpus[task]]
    dialogues += [
        apply_insertion(d, plan_insertion(d, pool, 2, seed=7), BACKEND, seed=5)
        for d in dialogues if d.dep_target_rounds
    ]
    seen = set()
    for d in dialogues:
        out = interleave_output(d, BACKEND, seed=6)
        assert out.signature.output.value == "ti"
        assert out.signature.input is d.signature.input
        assert out.signature.dep is d.signature.dep
        assert out.signature.depth == d.signature.depth
        flags = [s.is_image for s in out.rounds[-1].assistant.segments]
        assert flags[0] is True and flags[-1] is False  # image first, text answer last
        assert validate_dialogue(out).ok
        seen.add(format_signature(d.signature))
    # every image-output signature the pipeline produces was transformed
    assert seen == {"t_i_0_0", "t_i_t1_1", "ti_i_0_0", "t_i_i1_1", "t_i_in_1",
                    "ti_i_i1_1", "t_i_t1_n", "t_i_i1_n", "t_i_in_n", "ti_i_i1_n"}


def pipeline_corpus_1000():
    corpus = stage_a_corpus(100, 600)
    dialogues = [d for task in BUILDERS for d in corpus[task]]  # 600
    eligible = [d for d in dialogues if d.dep_target_rounds]  # 400
    pool = make_distractor_pool(4, 601)
    deep, rejects = run_stage_b(eligible, pool, (1, 3), 602, BACKEND)
    assert not rejects
    out = dialogues + deep
    assert len(out) == 1000
    # interleave half of them for output-modality diversity
    rng = random.Random(603)
    return [interleave_output(d, BACKEND, seed=604) if rng.random() < 0.5 else d
            for d in out]


@criterion(6, "stream grammar: 1000 pipeline dialogues serialize clean, loss partitions")
def test_stream_grammar():
    for d in pipeline_corpus_1000():
        s = serialize(d)
        report = validate_stream(s)
        assert report.ok, (d.id, report.violations[:3])
        summary = loss_summary(s)
        assert summary.total == s.total_len


@criterion(7, "mask: block construction equals the brute-force oracle on 200+ streams")
def test_mask_oracle_equivalence():
    rng = random.Random(700)
    checked = 0
    while checked < 200:
        d = make_random_dialogue(rng, f"acc-{checked}", max_rounds=2, dims=[16, 24, 32])
        s = serialize(d)
        if s.total_len > 256:
            continue
        assert np.array_equal(dense_mask(s), mask_oracle(s)), d.id
        checked += 1
    # spot cases: isolation of noised history, bidirectional denoising
    rng = random.Random(701)
    spot = 0
    while spot < 20:
        d = make_random_dialogue(rng, f"spot-{spot}", max_rounds=2, dims=[16, 24])
        s = serialize(d)
        noised = [b for b in s.blocks if b.kind is BlockKind.VAE_NOISED]
        if not noised or s.total_len > 256:
            continue
        mask = dense_mask(s)
        for b in noised:
            assert mask[b.start:b.end, b.start:b.end].all()
            outside = np.ones(s.total_len, dtype=bool)
            outside[b.start:b.end] = False
            assert not mask[outside][:, b.start:b.end].any()
        spot += 1


@criterion(8, "sampler: stage-2 mixture frequencies within 0.02 of weights at n=100000")
def test_sampler_ratios():
    start = time.monotonic()
    multi_turn = ["t_i_t1_1", "t_i_i1_1", "t_i_in_1", "ti_i_i1_1",
                  "t_i_t1_n", "t_i_i1_n", "t_i_in_n", "ti_i_i1_n"]
    weights = {"understanding": 0.25, "text_only": 0.15, "t2i": 0.5, "edit": 1.0}
    weights.update({name: 0.1 for name in multi_turn})
    cfg = SamplingConfig(weights)
    corpora = {name: [f"{name}-{i}" for i in range(50)] for name in weights}
    n = 100_000
    draws = sample_stream(cfg, corpora, n, seed=8)
    freq = collections.Counter(cat for cat, _ in draws)
    total = sum(weights.values())
    for name, w in weights.items():
        assert abs(freq[name] / n - w / total) <= 0.02, (name, freq[name] / n, w / total)
    assert time.monotonic() - start < 5.0


@criterion(9, "packer: hard cap respected, conservation holds, sorted run leaves <=1 underfull")
def test_packer():
    rng = random.Random(9)
    samples = [(f"s{i}", rng.randint(200, 3000)) for i in range(5000)]
    l_min, l_max = 62464, 65536

    packs = pack_greedy(samples, l_min, l_max)
    assert all(p.total <= l_max for p in packs)
    assert sum(p.total for p in packs) == sum(n for _, n in samples)
    assert [sid for p in packs for sid in p.sample_ids] == [sid for sid, _ in samples]

    sorted_packs = pack_greedy(sorted(samples, key=lambda x: x[1], reverse=True), l_min, l_max)
    assert sum(p.underfull for p in sorted_packs) <= 1
    assert all(not p.underfull for p in sorted_packs[:-1])
    assert sum(p.total for p in sorted_packs) == sum(n for _, n in samples)


@criterion(10, "end to end: two seeded runs produce byte-identical corpora and manifests")
def test_end_to_end_determinism(tmp_path, monkeypatch):
    def run_once(root: Path) -> dict[str, bytes]:
        root.mkdir()
        shutil.copy(DATA / "edit_records_20.jsonl", root / "records.jsonl")
        shutil.copy(DATA / "pool.jsonl", root / "pool.jsonl")
        monkeypatch.chdir(root)
        assert cli_main(["synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
                         "--in", "records.jsonl", "--pool", "pool.jsonl",
                         "--out", "dialogues.jsonl", "--backend", "mock", "--seed", "7"]) == 0
        (root / "streams").mkdir()
        assert cli_main(["serialize", "--in", "dialogues.jsonl",
                         "--out", "streams/t_ti_i1_n.jsonl"]) == 0
        (root / "weights.json").write_text(json.dumps({"t_ti_i1_n": 1.0}))
        assert cli_main(["pack", "--config", "weights.json", "--in-dir", "streams",
                         "--n", "100", "--seed", "7",
                         "--out", "packs.jsonl", "--stats", "stats.json"]) == 0
        names = ["dialogues.jsonl", "dialogues.jsonl.rejects.jsonl",
                 "dialogues.jsonl.manifest.json", "streams/t_ti_i1_n.jsonl",
                 "streams/t_ti_i1_n.jsonl.manifest.json", "packs.jsonl",
                 "stats.json", "packs.jsonl.manifest.json"]
        return {name: (root / name).read_bytes() for name in names}

    first = run_once(tmp_path / "run1")
    second = run_once(tmp_path / "run2")
    assert set(first) == set(second)
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    dialogues = [dialogue_from_record(json.loads(line)) for line in
                 first["dialogues.jsonl"].decode().splitlines()]
    assert len(dialogues) == 20
    assert all(format_signature(d.signature) == "t_ti_i1_n" for d in dialogues)
