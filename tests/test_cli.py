import collections
import concurrent.futures
import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import threading
import weakref
from io import StringIO
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from dialogue_reference import make_random_dialogue
from hypothesis import strategies as st
from mask_reference import dense_from_rows, mask_oracle

import dialogforge
from dialogforge import cli, dialogue, io, stage_b
from dialogforge.atomic_ops import BackendUnavailable, MockBackend
from dialogforge.cli import build_parser, main
from dialogforge.dialogue import dialogue_from_record
from dialogforge.fixtures import (
    make_distractor_pool,
    make_edit_records,
    make_subject_records,
    make_t2i_records,
)
from dialogforge.stage_a import (
    BUILDERS,
    edit_record_from_obj,
    subject_record_from_obj,
    t2i_record_from_obj,
)
from dialogforge.stage_b import entry_to_record
from dialogforge.stream import serialize, stream_from_record, stream_to_record, validate_stream
from dialogforge.taxonomy import format_signature
from dialogforge.util import derive_seed

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    for name in ("edit_records_20.jsonl", "t2i_records_20.jsonl", "pool.jsonl"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def read_dialogues(path):
    return [dialogue_from_record(rec) for rec in io.read_jsonl(path)]


def signatures(path):
    return {format_signature(d.signature) for d in read_dialogues(path)}


def test_synthesize_stage_a(workdir):
    code = run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--out", "out.jsonl",
               "--backend", "mock", "--seed", "7")
    assert code == 0
    assert len(read_dialogues("out.jsonl")) == 20
    assert signatures("out.jsonl") == {"t_i_i1_1"}
    assert Path("out.jsonl.rejects.jsonl").exists()
    manifest = json.loads(Path("out.jsonl.manifest.json").read_text())
    assert manifest["command"] == "synthesize"
    assert manifest["counts"] == {"written": 20, "rejected": 0}
    assert "edit_records_20.jsonl" in manifest["inputs"]


def test_synthesize_chained_stages(workdir):
    code = run("synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
               "--out", "full.jsonl", "--backend", "mock", "--seed", "7")
    assert code == 0
    dialogues = read_dialogues("full.jsonl")
    assert len(dialogues) == 20
    assert signatures("full.jsonl") == {"t_ti_i1_n"}
    assert all(2 <= d.dep_depth_value <= 4 for d in dialogues)  # k in [1, 3]


def _synthesize_lines(root, name, records, pool, seed):
    """Run stages a, b and c in-process on ``records``; each dialogue's line by its id."""
    src, out = root / f"{name}.jsonl", root / f"{name}.out.jsonl"
    io.write_jsonl(src, records)
    assert main(["synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1", "--in", str(src),
                 "--pool", str(pool), "--out", str(out), "--seed", str(seed)]) == 0
    return {json.loads(line)["id"]: line for line in out.read_text().splitlines()}


@settings(max_examples=10, deadline=None)
@given(n=st.integers(2, 10), seed=st.integers(0, 2**16), data=st.data())
def test_synthesize_lines_do_not_depend_on_input_order(tmp_path_factory, n, seed, data):
    root = tmp_path_factory.mktemp("order")
    pool = root / "pool.jsonl"
    io.write_jsonl(pool, (entry_to_record(e) for e in make_distractor_pool(8, seed + 1).entries))
    records = make_edit_records(n, seed)
    full = _synthesize_lines(root, "full", records, pool, seed)
    assert len(full) == n
    shuffled = data.draw(st.permutations(records), label="shuffled")
    assert _synthesize_lines(root, "shuffled", shuffled, pool, seed) == full
    k = data.draw(st.integers(1, n - 1), label="suffix from")
    kept = {rec["id"] for rec in records[k:]}
    assert (_synthesize_lines(root, "suffix", records[k:], pool, seed)
            == {i: line for i, line in full.items() if i.split(".")[0] in kept})


_MAKE_RECORDS = {t2i_record_from_obj: make_t2i_records, edit_record_from_obj: make_edit_records,
                 subject_record_from_obj: make_subject_records}


@settings(max_examples=12, deadline=None)
@given(task=st.sampled_from(sorted(BUILDERS)), n=st.integers(1, 6), seed=st.integers(0, 2**16))
def test_chain_writes_dialogues_that_decode_validate_and_deepen_by_k(tmp_path_factory, task, n,
                                                                     seed):
    root = tmp_path_factory.mktemp("chain")
    io.write_jsonl(root / "in.jsonl", _MAKE_RECORDS[BUILDERS[task][0]](n, seed))
    io.write_jsonl(root / "pool.jsonl",
                   (entry_to_record(e) for e in make_distractor_pool(2, seed + 1).entries))
    argv = ["--task", task, "--in", str(root / "in.jsonl"), "--pool", str(root / "pool.jsonl"),
            "--seed", str(seed)]
    with contextlib.redirect_stdout(StringIO()):
        assert main(["synthesize", "--stages", "a", *argv, "--out", str(root / "a.jsonl")]) == 0
        assert main(["synthesize", "--stages", "a,b,c", *argv,
                     "--out", str(root / "abc.jsonl")]) == 0
        assert main(["validate", "--in", str(root / "abc.jsonl")]) == 0
    assert (root / "abc.jsonl.rejects.jsonl").read_text() == ""
    basic = {d.id: d for d in read_dialogues(root / "a.jsonl")}
    chained = read_dialogues(root / "abc.jsonl")  # every line decodes: its content classifies
    assert [d.id for d in chained] == list(basic)
    for d in chained:
        k = sum(r.user.is_distractor for r in d.rounds)
        if basic[d.id].dep_target_rounds:
            assert k == random.Random(derive_seed(seed, d.id, "k")).randint(1, 3)
            assert d.dep_depth_value == basic[d.id].dep_depth_value + k
        else:
            assert k == 0 and d.dep_depth_value is None


@settings(max_examples=15, deadline=None)
@given(task=st.sampled_from(sorted(BUILDERS)), n=st.integers(1, 5), seed=st.integers(0, 2**16),
       patch=st.sampled_from([256, 512]), draws=st.integers(1, 30))
def test_chain_writes_streams_masks_and_packs_that_agree(tmp_path_factory, task, n, seed, patch,
                                                        draws):
    root = tmp_path_factory.mktemp("chain")
    io.write_jsonl(root / "in.jsonl", _MAKE_RECORDS[BUILDERS[task][0]](n, seed))
    io.write_jsonl(root / "pool.jsonl",
                   (entry_to_record(e) for e in make_distractor_pool(2, seed + 1).entries))
    (root / "streams").mkdir()
    # A second category holds the same dialogues serialized at the other patch,
    # so a dialogue id can be drawn at two lengths.
    (root / "w.json").write_text(json.dumps({"chain": 1.0, "other": 1.0}))
    d, streams, masks = root / "d.jsonl", root / "streams" / "chain.jsonl", root / "m.jsonl"
    other = root / "streams" / "other.jsonl"
    packs, stats = root / "p.jsonl", root / "p.json"
    # Patches at least half the largest fixture image keep every stream within
    # the 512 positions of the brute-force mask oracle.
    with contextlib.redirect_stdout(StringIO()):
        assert main(["synthesize", "--stages", "a,b,c", "--task", task, "--seed", str(seed),
                     "--in", str(root / "in.jsonl"), "--pool", str(root / "pool.jsonl"),
                     "--out", str(d)]) == 0
        for out, size in ((streams, patch), (other, 768 - patch)):
            assert main(["serialize", "--in", str(d), "--out", str(out),
                         "--vit-patch", str(size), "--vae-patch", str(size)]) == 0
        assert main(["mask", "--in", str(streams), "--out", str(masks)]) == 0
        assert main(["pack", "--config", str(root / "w.json"), "--in-dir", str(root / "streams"),
                     "--n", str(draws), "--l-min", "256", "--l-max", "512", "--seed", str(seed),
                     "--out", str(packs), "--stats", str(stats)]) == 0
    lengths = collections.defaultdict(set)  # id -> its lengths at the two patches
    for rec, mask in zip(io.read_jsonl(streams), io.read_jsonl(masks), strict=True):
        s = stream_from_record(rec)
        assert validate_stream(s).ok and stream_to_record(s) == rec
        assert (mask["dialogue_id"], mask["total_len"]) == (s.dialogue_id, s.total_len)
        assert np.array_equal(dense_from_rows(mask["rows"], s.total_len), mask_oracle(s))
        lengths[s.dialogue_id].add(s.total_len)
    for rec in io.read_jsonl(other):
        lengths[rec["dialogue_id"]].add(rec["total_len"])
    assert len(lengths) == n
    pack_stats = json.loads(stats.read_text())
    packed = list(io.read_jsonl(packs))
    assert sum(len(p["sample_ids"]) for p in packed) == pack_stats["sample_count"] == draws
    for p in packed:
        assert len(set(p["sample_ids"])) == len(p["sample_ids"])
        assert all(n in lengths[i] for i, n in zip(p["sample_ids"], p["lengths"], strict=True))
        assert p["total"] == sum(p["lengths"]) <= 512
        assert p["underfull"] == (p["total"] < 256)
    assert sum(p["total"] for p in packed) == pack_stats["token_count"]


class _ClosingBackend(MockBackend):
    """The mock backend, failing after ``calls`` replies and noting ``close``."""

    def __init__(self, calls):
        self.calls, self.closed = calls, 0

    def complete(self, prompt, seed):
        self.calls -= 1
        if self.calls < 0:
            raise BackendUnavailable("backend went away")
        return super().complete(prompt, seed)

    def close(self):
        self.closed += 1


@pytest.mark.parametrize("calls, code", [(10**6, 0), (5, 4)], ids=["done", "backend-failure"])
def test_synthesize_closes_its_backend(workdir, monkeypatch, calls, code):
    backend = _ClosingBackend(calls)
    monkeypatch.setattr(cli.PipelineConfig, "make_backend", lambda self: backend)
    assert run("synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
               "--out", "full.jsonl", "--seed", "7") == code
    assert backend.closed == 1


def test_synthesize_missing_input_exits_2(workdir, capsys):
    with pytest.raises(SystemExit) as exc:
        run("synthesize", "--task", "t_i_0_0", "--out", "x.jsonl")
    assert exc.value.code == 2


def test_synthesize_bad_stage_exits_2(workdir):
    assert run("synthesize", "--stages", "a,z", "--task", "t_i_0_0",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl") == 2


def test_synthesize_without_stages_exits_2(workdir, capsys):
    assert run("synthesize", "--task", "t_i_0_0",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl") == 2
    assert "--stage" in capsys.readouterr().err


def test_malformed_jsonl_line_exits_3_with_path_line(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    first = Path("d.jsonl").read_text().splitlines()[0]
    Path("bad.jsonl").write_text(first + "\nnot json\n")
    assert run("validate", "--in", "bad.jsonl") == 3
    assert "bad.jsonl:2:" in capsys.readouterr().err


def test_mock_runs_use_no_executor(workdir, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a mock run started a thread pool")

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", no_pool)
    assert run("synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
               "--out", "o.jsonl", "--concurrency", "8") == 0
    assert len(read_dialogues("o.jsonl")) == 20
    manifest = json.loads(Path("o.jsonl.manifest.json").read_text())
    assert manifest["config"]["concurrency"] == 8


def _child_env():
    """The environment for a child Python that imports this checkout's ``dialogforge``."""
    src = str(Path(dialogforge.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_cli_import_does_not_load_numpy():
    env = _child_env()
    heavy = ("numpy", "requests", "urllib3", "http.client", "urllib.request")
    code = f"import dialogforge.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


_REPORT_MODULES = ("import sys; from dialogforge.cli import main; code = main(sys.argv[1:]); "
                   "print(sorted(m for m in sys.modules if m.split('.')[0] == 'dialogforge')); "
                   "print('hashlib' in sys.modules); "
                   "print('concurrent.futures' in sys.modules); sys.exit(code)")
_READ_LAYERS = ["dialogforge", "dialogforge.cli", "dialogforge.io", "dialogforge.stream"]
_DIALOGUE_LAYERS = sorted(_READ_LAYERS + ["dialogforge.dialogue", "dialogforge.taxonomy"])


def _synthesis_layers(*stages):
    return sorted(_DIALOGUE_LAYERS + ["dialogforge.atomic_ops", "dialogforge.util"]
                  + [f"dialogforge.stage_{s}" for s in stages])


@pytest.fixture(scope="module")
def footprint_dir(tmp_path_factory):
    """The bundled fixtures, their stage-a dialogues and those dialogues' streams."""
    root = tmp_path_factory.mktemp("footprint")
    for name in ("edit_records_20.jsonl", "t2i_records_20.jsonl", "pool.jsonl"):
        shutil.copy(DATA / name, root / name)
    (root / "streams").mkdir()
    (root / "w.json").write_text(json.dumps({"t2i": 1.0}))
    with contextlib.redirect_stdout(StringIO()):
        assert main(["synthesize", "--stage", "a", "--task", "t_i_0_0",
                     "--in", str(root / "t2i_records_20.jsonl"),
                     "--out", str(root / "d.jsonl")]) == 0
        assert main(["serialize", "--in", str(root / "d.jsonl"),
                     "--out", str(root / "streams" / "t2i.jsonl")]) == 0
    return root


# (argv, every dialogforge module the run loads, whether it loads hashlib)
@pytest.mark.parametrize("argv, layers, hashes", [
    ("synthesize --stages a,b,c --task t_i_i1_1 --in edit_records_20.jsonl --pool pool.jsonl "
     "--out o.jsonl", _synthesis_layers("a", "b", "c"), True),
    ("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl --out o.jsonl",
     _synthesis_layers("a"), True),
    ("synthesize --stage c --in d.jsonl --out o.jsonl", _synthesis_layers("c"), True),
    ("validate --in d.jsonl", _DIALOGUE_LAYERS, False),
    ("serialize --in d.jsonl --out s.jsonl", _DIALOGUE_LAYERS, True),
    ("mask --in streams/t2i.jsonl --out m.jsonl", _READ_LAYERS, True),
    ("stats --in d.jsonl --out st.json", _DIALOGUE_LAYERS, False),
    ("pack --config w.json --in-dir streams --n 40 --out p.jsonl --stats p.json",
     sorted(_READ_LAYERS + ["dialogforge.packing", "dialogforge.util"]), True),
], ids=["synthesize", "synthesize-a", "synthesize-c", "validate", "serialize", "mask", "stats",
        "pack"])
def test_each_subcommand_loads_only_its_layers(footprint_dir, argv, layers, hashes):
    out = subprocess.run([sys.executable, "-c", _REPORT_MODULES, *argv.split()],
                         cwd=footprint_dir, env=_child_env(), check=True, capture_output=True,
                         text=True).stdout.splitlines()
    assert out[-3] == repr(layers)
    assert out[-2] == repr(hashes)  # only a command that writes a manifest hashes
    assert out[-1] == "False"  # a mock run, or none, starts no thread pool


def _in_process(argv):
    """``main(argv)``'s exit code, stdout and stderr, run in this process."""
    out, err = StringIO(), StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def test_the_script_exits_at_once_and_all_it_printed_arrives(footprint_dir, tmp_path):
    # every copy after the first repeats 20 ids: over 64 KB of id-unique lines
    lines = (footprint_dir / "d.jsonl").read_bytes()
    (tmp_path / "repeats.jsonl").write_bytes(lines * 60)
    cases = {
        0: ["stats", "--in", str(footprint_dir / "d.jsonl")],
        1: ["validate", "--in", str(tmp_path / "repeats.jsonl")],
        2: ["serialize", "--in", str(footprint_dir / "d.jsonl"), "--out", str(tmp_path / "s"),
            "--vit-patch", "0"],
        3: ["validate", "--in", str(tmp_path / "missing.jsonl")],
    }
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)  # buffered, as stdout to a pipe is by default
    for code, argv in cases.items():
        child = subprocess.run([sys.executable, "-m", "dialogforge.cli", *argv],
                               env=env, capture_output=True, text=True)
        assert (child.returncode, child.stdout, child.stderr) == _in_process(argv)
        assert child.returncode == code
        assert child.stderr if code >= 2 else not child.stderr
        if code == 1:
            assert len(child.stdout) > 65536  # more than a pipe buffer


_REPORT_PEAK = ("import sys; from dialogforge.cli import main; code = main(sys.argv[1:]); "
                "print(next(line for line in open('/proc/self/status') "
                "if line.startswith('VmHWM:')).split()[1]); sys.exit(code)")


@pytest.mark.skipif(not Path("/proc/self/status").exists(),
                    reason="needs VmHWM from /proc/self/status")
def test_synthesize_memory_does_not_grow_with_the_corpus(tmp_path):
    io.write_jsonl(tmp_path / "pool.jsonl",
                   (entry_to_record(e) for e in make_distractor_pool(4, 5).entries))
    peak_kb = {}
    for n in (500, 4000):
        io.write_jsonl(tmp_path / f"r{n}.jsonl", make_edit_records(n, 3))
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_PEAK, "synthesize", "--stages", "a,b,c",
             "--task", "t_i_i1_1", "--in", str(tmp_path / f"r{n}.jsonl"),
             "--pool", str(tmp_path / "pool.jsonl"), "--out", str(tmp_path / f"d{n}.jsonl"),
             "--seed", "1"],
            env=_child_env(), check=True, capture_output=True, text=True).stdout
        assert f"synthesize: {n} dialogues, 0 rejects" in out
        peak_kb[n] = int(out.splitlines()[-1])
    assert peak_kb[4000] - peak_kb[500] <= 3 * 1024, peak_kb


def test_a_record_given_twice_is_a_duplicate_id_reject_and_the_chain_runs_on(workdir):
    first = Path("t2i_records_20.jsonl").read_text().splitlines(keepends=True)[0]
    Path("twice.jsonl").write_text(first * 2)
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0", "--in", "twice.jsonl",
               "--out", "d.jsonl") == 0
    assert [d.id for d in read_dialogues("d.jsonl")] == ["t2i-00000.t_i_0_0.0"]
    assert list(io.read_jsonl("d.jsonl.rejects.jsonl")) == [
        {"stage": "a", "id": "t2i-00000.t_i_0_0.0",
         "error": "duplicate-id: an earlier dialogue has this id"}]
    assert run("validate", "--in", "d.jsonl") == 0
    Path("streams").mkdir()
    assert run("serialize", "--in", "d.jsonl", "--out", "streams/t.jsonl") == 0
    Path("w.json").write_text('{"t": 1.0}')
    assert run("pack", "--config", "w.json", "--in-dir", "streams", "--n", "3",
               "--out", "p.jsonl", "--stats", "p.json") == 0
    assert [p["sample_ids"] for p in io.read_jsonl("p.jsonl")] == [["t2i-00000.t_i_0_0.0"]] * 3


def test_chain_rejects_come_in_input_order(workdir):
    records = make_edit_records(12, 8)
    for k in (0, 5, 9):
        records[k] = {"id": records[k]["id"]}  # stage a rejects these
    io.write_jsonl("in.jsonl", records)
    io.write_jsonl("pool3.jsonl", (entry_to_record(e) for e in make_distractor_pool(1, 4).entries))
    # k is drawn from [2, 5] and the pool holds 3 entries, so stage b rejects some dialogues
    assert run("synthesize", "--stages", "a,b", "--task", "t_i_i1_1", "--in", "in.jsonl",
               "--pool", "pool3.jsonl", "--k-min", "2", "--k-max", "5", "--seed", "3",
               "--out", "d.jsonl") == 0
    rejects = list(io.read_jsonl("d.jsonl.rejects.jsonl"))
    line_of = {rec["id"]: k for k, rec in enumerate(records)}
    lines = [r["index"] if r["stage"] == "a" else line_of[r["id"].split(".")[0]] for r in rejects]
    assert [list(r) for r in rejects if r["stage"] == "a"] == [["stage", "index", "error",
                                                                "record"]] * 3
    assert {tuple(r) for r in rejects if r["stage"] == "b"} == {("stage", "id", "error")}
    assert lines == sorted(lines) and 0 in lines and len(lines) > 3
    assert len(read_dialogues("d.jsonl")) + len(rejects) == 12


@pytest.mark.parametrize("threads", [1, 4])
def test_chain_lets_backend_unavailable_through(synthesize, threads):
    with pytest.raises(BackendUnavailable):
        synthesize(make_edit_records(6, 2), ["a", "b", "c"], _ClosingBackend(5),
                   cli.PipelineConfig(), task="t_i_i1_1", pool=make_distractor_pool(2, 3),
                   threads=threads)


def _bad_dialogue_midway():
    """bad.jsonl: 300 stage-a dialogues, line 150 without rounds; out/o.jsonl: an old output."""
    io.write_jsonl("r300.jsonl", make_edit_records(300, 5))
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1", "--in", "r300.jsonl",
        "--out", "d.jsonl", "--seed", "1")
    records = list(io.read_jsonl("d.jsonl"))
    del records[149]["rounds"]
    io.write_jsonl("bad.jsonl", records)
    Path("out").mkdir()
    Path("out/o.jsonl").write_bytes(b"previous output\n")


def test_bad_dialogue_midway_exits_3_after_the_records_before_it(workdir, capsys, monkeypatch):
    # stage-b calls are counted in this process, so the run must not fork workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    _bad_dialogue_midway()
    calls = []
    monkeypatch.setattr(stage_b, "insert_distractors",
                        lambda d, *args, _fn=stage_b.insert_distractors, **kwargs:
                        calls.append(d.id) or _fn(d, *args, **kwargs))
    capsys.readouterr()
    assert run("synthesize", "--stage", "b", "--in", "bad.jsonl", "--pool", "pool.jsonl",
               "--out", "out/o.jsonl") == 3
    assert capsys.readouterr().err == "i/o error: bad.jsonl:150: missing key 'rounds'\n"
    assert len(calls) == 149  # the records before the bad line went through stage b
    assert os.listdir("out") == ["o.jsonl"]
    assert Path("out/o.jsonl").read_bytes() == b"previous output\n"


def test_bad_dialogue_midway_exits_3_under_workers(workdir, capsys, monkeypatch):
    forks = []
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    monkeypatch.setattr(os, "fork", lambda _fork=os.fork: forks.append(1) or _fork())
    _bad_dialogue_midway()
    forks.clear()
    capsys.readouterr()
    assert run("synthesize", "--stage", "b", "--in", "bad.jsonl", "--pool", "pool.jsonl",
               "--out", "out/o.jsonl") == 3
    assert capsys.readouterr().err == "i/o error: bad.jsonl:150: missing key 'rounds'\n"
    assert len(forks) == 2  # two CPUs, and the 300 lines make three chunks of 128
    assert os.listdir("out") == ["o.jsonl"]
    assert Path("out/o.jsonl").read_bytes() == b"previous output\n"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


NESTED = b"[" * 200_000 + b"\n"


@pytest.mark.parametrize("argv, bad, content, detail", [
    ("validate --in bad.jsonl", "bad.jsonl", NESTED, "JSON nested too deeply"),
    ("serialize --in bad.jsonl --out x.jsonl", "bad.jsonl", NESTED, "JSON nested too deeply"),
    ("stats --in bad.jsonl", "bad.jsonl", NESTED, "JSON nested too deeply"),
    ("mask --in bad.jsonl --out x.jsonl", "bad.jsonl", NESTED, "JSON nested too deeply"),
    ("synthesize --stage a --task t_i_0_0 --in bad.jsonl --out x.jsonl", "bad.jsonl", NESTED,
     "JSON nested too deeply"),
    ("synthesize --stage c --in bad.jsonl --out x.jsonl", "bad.jsonl", NESTED,
     "JSON nested too deeply"),
    ("synthesize --stage b --in t2i_records_20.jsonl --pool bad.jsonl --out x.jsonl",
     "bad.jsonl", NESTED, "JSON nested too deeply"),
    ("pack --config w.json --in-dir streams --n 5 --out p.jsonl --stats p.json",
     "streams/t2i.jsonl", NESTED, "JSON nested too deeply"),
    # a UTF-16 file starts with the byte-order mark \xff\xfe
    ("validate --in bad.jsonl", "bad.jsonl", '{"id": "x"}\n'.encode("utf-16"),
     "'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    # over the integer digit limit; Python 3.10 has none and fails to decode the value instead
    ("validate --in bad.jsonl", "bad.jsonl", b"5" * 5000 + b"\n", None),
], ids=["validate", "serialize", "stats", "mask", "synthesize-a", "synthesize-c",
        "synthesize-pool", "pack", "validate-utf16", "validate-long-integer"])
def test_deeply_nested_json_line_exits_3_with_path_line(workdir, capsys, argv, bad, content,
                                                        detail):
    """Also other lines that do not parse: each exits 3 with one ``path:line`` line."""
    Path("streams").mkdir()
    Path("w.json").write_text(json.dumps({"t2i": 1.0}))
    Path(bad).write_bytes(content)
    assert run(*argv.split()) == 3
    err = capsys.readouterr().err
    assert err.startswith(f"i/o error: {bad}:1: ") and err.count("\n") == 1
    assert detail is None or err == f"i/o error: {bad}:1: {detail}\n"


@pytest.mark.parametrize("argv, content, detail", [
    ("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl --out x.jsonl", NESTED,
     "JSON nested too deeply"),
    ("serialize --in d.jsonl --out x.jsonl", NESTED, "JSON nested too deeply"),
    ("mask --in s.jsonl --out x.jsonl", NESTED, "JSON nested too deeply"),
    ("stats --in d.jsonl --out x.jsonl", NESTED, "JSON nested too deeply"),
    ("pack --in-dir streams --n 5 --out x.jsonl --stats x.json", NESTED,
     "JSON nested too deeply"),
    ("serialize --in d.jsonl --out x.jsonl", b'{"seed": 1}\xff',
     "'utf-8' codec can't decode byte 0xff in position 11: invalid start byte"),
], ids=["synthesize", "serialize", "mask", "stats", "pack", "serialize-not-utf8"])
def test_deeply_nested_config_file_exits_2_naming_it(workdir, capsys, argv, content, detail):
    """Also a config file that is not UTF-8: each exits 2 with one line naming the file."""
    Path("cfg.json").write_bytes(content)
    assert run(*argv.split(), "--config", "cfg.json") == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and err.endswith(f" cfg.json: {detail}\n")
    assert not Path("x.jsonl").exists()


@pytest.mark.parametrize("n", ["0", "-5"])
def test_pack_fewer_than_one_draw_exits_2_before_reading_streams(workdir, capsys, n):
    Path("streams").mkdir()
    Path("streams/t2i.jsonl").write_text("not json\n")  # reading it would exit 3
    Path("w.json").write_text(json.dumps({"t2i": 1.0}))
    assert run("pack", "--config", "w.json", "--in-dir", "streams", "--n", n,
               "--out", "p.jsonl", "--stats", "p.json") == 2
    assert capsys.readouterr().err == f"config error: --n must be >= 1, not {n}\n"
    assert not Path("p.jsonl").exists() and not Path("p.json").exists()


def test_stage_b_without_pool_exits_2(workdir):
    assert run("synthesize", "--stages", "a,b", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--out", "x.jsonl") == 2


def test_missing_file_exits_3(workdir):
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0",
               "--in", "nope.jsonl", "--out", "x.jsonl") == 3


def test_remote_without_url_exits_2(workdir):
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl",
               "--backend", "remote") == 2


def test_remote_unreachable_exits_4(workdir):
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl",
               "--backend", "remote", "--backend-url", "http://127.0.0.1:9/c",
               "--retries", "0") == 4


@pytest.mark.parametrize("url", ["not-a-url", "ftp://127.0.0.1/x", "http:///x", "http://h:port/x"])
def test_remote_bad_url_exits_2_before_reading(workdir, capsys, url):
    # --in names no file: exit 2 rather than 3 shows the URL was refused first
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0",
               "--in", "nope.jsonl", "--out", "x.jsonl",
               "--backend", "remote", "--backend-url", url) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:") and repr(url) in err


@pytest.mark.parametrize("backend", ["mock", "remote"])
def test_concurrency_over_the_maximum_exits_2_before_any_thread(workdir, capsys, backend):
    threads = threading.active_count()
    argv = ["synthesize", "--stage", "a", "--task", "t_i_0_0", "--in", "t2i_records_20.jsonl",
            "--out", "x.jsonl", "--backend", backend, "--backend-url", "http://127.0.0.1:9/c"]
    assert run(*argv, "--concurrency", "100000") == 2
    assert threading.active_count() == threads
    assert capsys.readouterr().err == (
        f"config error: concurrency must lie in [1, {cli.MAX_CONCURRENCY}], not 100000\n")
    assert not Path("x.jsonl").exists()
    if backend == "mock":  # the maximum itself is accepted; a mock run starts no thread
        assert run(*argv, "--concurrency", str(cli.MAX_CONCURRENCY)) == 0
        assert threading.active_count() == threads


def test_validate_and_filter(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    assert run("validate", "--in", "d.jsonl") == 0
    assert run("validate", "--in", "d.jsonl", "--signature", "t_i_0_0") == 0


def test_validate_reports_violations(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    records = list(io.read_jsonl("d.jsonl"))
    records[0]["rounds"][0]["assistant"]["segments"][0]["image"]["width"] = 0
    io.write_jsonl("d.jsonl", records)
    assert run("validate", "--in", "d.jsonl") == 1
    assert "image-dims (round 0)" in capsys.readouterr().out


def test_a_user_turn_without_text_fails_validate_and_pool_validation(workdir, capsys):
    """``serialize`` needs text in every user turn, so an image-only one is a violation."""
    run("synthesize", "--stage", "a", "--task", "ti_i_0_0",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    records = list(io.read_jsonl("d.jsonl"))
    user = records[0]["rounds"][0]["user"]
    upload = [seg for seg in user["segments"] if "image" in seg]
    user["segments"] = upload
    io.write_jsonl("d.jsonl", records)
    capsys.readouterr()
    assert run("validate", "--in", "d.jsonl") == 1
    out = capsys.readouterr().out.splitlines()
    assert out[0] == f"{records[0]['id']}: user-text (round 0): user turn has no text segment"
    assert run("serialize", "--in", "d.jsonl", "--out", "s.jsonl") == 3
    assert "round 0 has an empty text span" in capsys.readouterr().err

    entries = [entry_to_record(e) for e in make_distractor_pool(2, 3).entries]
    entries[1]["user"]["segments"] = upload
    io.write_jsonl("pool_bad.jsonl", entries)
    assert run("synthesize", "--stage", "b", "--in", "d.jsonl", "--pool", "pool_bad.jsonl",
               "--out", "b.jsonl") == 2
    assert capsys.readouterr().err == ("config error: distractor pool pool_bad.jsonl: "
                                       "entry 1: user turn has no text segment\n")
    assert not Path("b.jsonl").exists()

    # an upload over the unit cap (a 286 x 286 ViT grid) is refused the same way
    entries = [entry_to_record(e) for e in make_distractor_pool(2, 3).entries]
    entries[2]["user"]["segments"][1]["image"].update(width=4000, height=4000)
    io.write_jsonl("pool_big.jsonl", entries)
    assert run("synthesize", "--stage", "b", "--in", "d.jsonl", "--pool", "pool_big.jsonl",
               "--out", "b.jsonl") == 2
    assert capsys.readouterr().err == ("config error: distractor pool pool_big.jsonl: entry 2: "
                                       "image 'pool-und-0000' needs 81796 units, cap is 16384\n")
    assert not Path("b.jsonl").exists()


def test_validate_reports_the_unit_cap_that_serialize_refuses(workdir, capsys):
    """``validate`` takes the stream flags and names an image over the cap ``image-units``."""
    run("synthesize", "--stage", "a", "--task", "ti_i_0_0",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "7")
    records = list(io.read_jsonl("d.jsonl"))
    records[0]["rounds"][0]["assistant"]["segments"][0]["image"].update(width=4000, height=4000)
    io.write_jsonl("d.jsonl", records)
    first = records[0]["id"]
    # the noised block takes a 250 x 250 VAE grid, the replay a 286 x 286 ViT grid
    for cap, units in [([], "62500 units, cap is 16384"),
                       (["--max-image-units", "62500"], "81796 units, cap is 62500")]:
        capsys.readouterr()
        assert run("validate", "--in", "d.jsonl", *cap) == 1
        assert capsys.readouterr().out.splitlines() == [
            f"{first}: image-units (round 0): image 'edit-00000-tgt' needs {units}",
            "validate: 1 dialogues with violations"]
        assert run("serialize", "--in", "d.jsonl", "--out", "s.jsonl", *cap) == 3
        assert capsys.readouterr().err == (f"stream error: d.jsonl:1: dialogue {first!r}: "
                                           f"image 'edit-00000-tgt' needs {units}\n")
    assert run("validate", "--in", "d.jsonl", "--max-image-units", "81796") == 0
    assert run("serialize", "--in", "d.jsonl", "--out", "s.jsonl", "--max-image-units", "81796") == 0
    assert run("validate", "--in", "d.jsonl", "--vit-patch", "16", "--max-image-units", "62500") == 0


@pytest.mark.parametrize("argv", [
    pytest.param("validate --in d.jsonl --signature bogus", id="validate-signature"),
    pytest.param("validate --in d.jsonl --signature t_i_0_1", id="validate-inconsistent"),
    pytest.param("stats --in d.jsonl --signature nope_x", id="stats-signature"),
    pytest.param("serialize --in d.jsonl --out x.jsonl --signature t_i", id="serialize-signature"),
    pytest.param("synthesize --stage a --task bogus --in t2i_records_20.jsonl --out x.jsonl",
                 id="synthesize-task"),
    pytest.param("synthesize --stages a,c --task t_i_i1_n --in t2i_records_20.jsonl "
                 "--out x.jsonl", id="synthesize-deep-task"),
    # a config error is found before --in is read, so a missing --in does not hide it
    pytest.param("serialize --in missing.jsonl --out x.jsonl --signature bogus",
                 id="serialize-signature-missing-in"),
    pytest.param("validate --in missing.jsonl --signature bogus",
                 id="validate-signature-missing-in"),
    pytest.param("stats --in missing.jsonl --signature bogus", id="stats-signature-missing-in"),
    pytest.param("synthesize --stage a --task bogus --in missing.jsonl --out x.jsonl",
                 id="synthesize-task-missing-in"),
])
def test_unknown_task_or_signature_exits_2_before_any_output(workdir, capsys, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    capsys.readouterr()
    assert run(*argv.split()) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("config error:") and len(err.splitlines()) == 1
    assert not Path("x.jsonl").exists() and not Path("x.jsonl.rejects.jsonl").exists()


@pytest.mark.parametrize("argv", [
    pytest.param("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl "
                 "--out nodir/x.jsonl", id="out"),
    pytest.param("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl "
                 "--out x.jsonl --rejects nodir/r.jsonl", id="rejects"),
    pytest.param("serialize --in d.jsonl --out x.jsonl --manifest nodir/m.json", id="manifest"),
    pytest.param("pack --config weights.json --in-dir streams --n 50 --out x.jsonl "
                 "--stats nodir/ps.json", id="pack-stats"),
    pytest.param("stats --in d.jsonl --out nodir/st.json", id="stats-out"),
])
def test_an_output_in_a_missing_directory_is_named_as_given(workdir, capsys, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    Path("streams").mkdir()
    run("serialize", "--in", "d.jsonl", "--out", "streams/t2i.jsonl")
    Path("weights.json").write_text(json.dumps({"t2i": 1.0}))
    capsys.readouterr()
    assert run(*argv.split()) == 3
    target = argv.split()[-1]
    assert capsys.readouterr().err == (
        f"i/o error: [Errno 2] No such file or directory: '{target}'\n")
    assert not Path("nodir").exists() and not list(workdir.rglob("*.tmp"))


@pytest.mark.parametrize("argv", [
    pytest.param("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl --out x.jsonl "
                 "--rejects nodir/r.jsonl", id="rejects"),
    pytest.param("synthesize --stage a --task t_i_0_0 --in t2i_records_20.jsonl --out x.jsonl "
                 "--manifest nodir/m.json", id="manifest"),
    pytest.param("pack --config weights.json --in-dir streams --n 50 --out x.jsonl "
                 "--stats nodir/ps.json", id="pack-stats"),
])
def test_a_run_that_fails_on_a_later_output_leaves_every_file_as_it_was(workdir, capsys, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    Path("streams").mkdir()
    run("serialize", "--in", "d.jsonl", "--out", "streams/t2i.jsonl")
    Path("weights.json").write_text(json.dumps({"t2i": 1.0}))
    Path("x.jsonl").write_bytes(b"previous output\n")
    before = {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()}
    capsys.readouterr()
    assert run(*argv.split()) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("i/o error: ") and "nodir" in err
    assert {p: p.read_bytes() for p in workdir.rglob("*") if p.is_file()} == before


def test_serialize_and_mask(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    assert run("serialize", "--in", "d.jsonl", "--out", "s.jsonl") == 0
    streams = [stream_from_record(rec) for rec in io.read_jsonl("s.jsonl")]
    assert len(streams) == 20
    assert all(validate_stream(s).ok for s in streams)
    assert run("mask", "--in", "s.jsonl", "--out", "m.jsonl") == 0
    masks = list(io.read_jsonl("m.jsonl"))
    assert len(masks) == 20
    assert all(len(m["rows"]) == len(s.blocks) and m["total_len"] == s.total_len
               for m, s in zip(masks, streams))


def test_pack_command(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    Path("streams").mkdir()
    run("serialize", "--in", "d.jsonl", "--out", "streams/t2i.jsonl")
    Path("weights.json").write_text(json.dumps({"t2i": 1.0}))
    code = run("pack", "--config", "weights.json", "--in-dir", "streams",
               "--n", "200", "--l-min", "8000", "--l-max", "16000",
               "--seed", "3", "--out", "packs.jsonl", "--stats", "stats.json")
    assert code == 0
    packs = list(io.read_jsonl("packs.jsonl"))
    assert packs
    assert all(p["total"] <= 16000 for p in packs)
    stats = json.loads(Path("stats.json").read_text())
    assert stats["sample_count"] == 200


def test_pack_refuses_a_repeated_dialogue_id(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    Path("streams").mkdir()
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    lines = Path("s.jsonl").read_text().splitlines(keepends=True)
    Path("streams/t2i.jsonl").write_text("".join(lines[:5] + ["\n"] + lines[2:3] + lines[5:]))
    Path("weights.json").write_text(json.dumps({"t2i": 1.0}))
    capsys.readouterr()
    assert run("pack", "--config", "weights.json", "--in-dir", "streams", "--n", "50",
               "--out", "packs.jsonl", "--stats", "stats.json") == 3
    sid = json.loads(lines[2])["dialogue_id"]
    assert capsys.readouterr().err == (f"i/o error: streams/t2i.jsonl:7: stream {sid!r}: "
                                       "dialogue_id repeats an earlier stream's\n")
    assert not Path("packs.jsonl").exists()


def test_stats_depth_histogram(workdir):
    run("synthesize", "--stages", "a,b", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
        "--out", "d.jsonl", "--seed", "7")
    assert run("stats", "--in", "d.jsonl", "--out", "stats.json") == 0
    stats = json.loads(Path("stats.json").read_text())
    assert stats["dialogues"] == 20
    assert set(stats["depth_values"]) <= {"2", "3", "4"}
    assert stats["distractor_rounds"] >= 20
    assert stats["loss"]["ce"] + stats["loss"]["mse"] + stats["loss"]["none"] == stats["loss"]["total"]


def test_stage_b_standalone(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "basic.jsonl", "--seed", "7")
    code = run("synthesize", "--stage", "b", "--in", "basic.jsonl",
               "--pool", "pool.jsonl", "--k-min", "1", "--k-max", "3",
               "--seed", "7", "--out", "deep.jsonl", "--rejects", "deep.rej.jsonl")
    assert code == 0
    assert signatures("deep.jsonl") == {"t_i_i1_n"}
    assert Path("deep.rej.jsonl").read_text() == ""


@pytest.mark.parametrize("label", ["t_i_t1_1", "t_i_in_1"])
def test_stage_b_rewrites_by_content_not_by_a_stored_label(workdir, label):
    # a line in the older format still carries the label; stage b must not follow it
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "basic.jsonl", "--seed", "7")
    io.write_jsonl("old.jsonl", ({**rec, "signature": label, "dep_depth_value": 1}
                                 for rec in io.read_jsonl("basic.jsonl")))
    assert run("synthesize", "--stage", "b", "--in", "old.jsonl", "--pool", "pool.jsonl",
               "--seed", "7", "--out", "deep.jsonl") == 0
    assert Path("deep.jsonl.rejects.jsonl").read_text() == ""
    dialogues = read_dialogues("deep.jsonl")
    assert len(dialogues) == 20
    assert {d.rounds[-1].user.provenance.op_kind for d in dialogues} == {"query2dep_q"}
    assert signatures("deep.jsonl") == {"t_i_i1_n"}
    assert run("validate", "--in", "deep.jsonl") == 0


def _with_old_keys(rec):
    """A dialogue record or pool entry as older writers wrote it: each turn with
    an ``is_distractor`` before its provenance, each image with a ``source``
    after its id, ``uploaded`` in user turns and ``generated`` in assistant turns."""
    def turn(t, source):
        segments = [{"image": {"id": s["image"]["id"], "source": source, **s["image"]}}
                    if "image" in s else s for s in t["segments"]]
        return {"segments": segments, "is_distractor": t["provenance"]["stage"] == "distractor",
                "provenance": t["provenance"]}

    def slots(r):
        return {**r, "user": turn(r["user"], "uploaded"),
                "assistant": turn(r["assistant"], "generated")}

    return {**rec, "rounds": [slots(r) for r in rec["rounds"]]} if "rounds" in rec else slots(rec)


def test_records_with_the_old_keys_give_the_same_outputs(workdir, capsys):
    subjects = DATA.as_posix() + "/subject_records_20.jsonl"
    Path("new").mkdir()
    Path("old").mkdir()
    for stages, name in (("a", "a"), ("a,b", "ab"), ("a,b,c", "abc")):
        assert run("synthesize", "--stages", stages, "--task", "ti_i_i1_1", "--in", subjects,
                   "--pool", "pool.jsonl", "--out", f"new/{name}.jsonl", "--seed", "7") == 0
    shutil.copy("pool.jsonl", "new/pool.jsonl")
    for name in ("a", "ab", "abc", "pool"):
        io.write_jsonl(f"old/{name}.jsonl", map(_with_old_keys, io.read_jsonl(f"new/{name}.jsonl")))
    old_abc = Path("old/abc.jsonl").read_text()
    assert old_abc.count('"is_distractor":true') > 20 and '"source":"uploaded"' in old_abc
    assert '"source":"generated"' in Path("old/pool.jsonl").read_text()
    capsys.readouterr()
    outputs = {}
    for tree in ("new", "old"):
        Path(f"{tree}/out").mkdir()
        for argv in ("validate --in {0}/abc.jsonl",
                     "serialize --in {0}/abc.jsonl --out {0}/out/s.jsonl",
                     "stats --in {0}/abc.jsonl",
                     "synthesize --stage b --in {0}/a.jsonl --pool {0}/pool.jsonl "
                     "--out {0}/out/b.jsonl --seed 7",
                     "synthesize --stage c --in {0}/ab.jsonl --out {0}/out/c.jsonl --seed 7"):
            assert run(*argv.format(tree).split()) == 0
        stdout = capsys.readouterr().out.replace(f"{tree}/", "")
        outputs[tree] = stdout, {f.name: f.read_bytes() for f in sorted(Path(tree, "out").iterdir())
                                 if not f.name.endswith(".manifest.json")}
    assert sorted(outputs["new"][1]) == ["b.jsonl", "b.jsonl.rejects.jsonl", "c.jsonl",
                                         "c.jsonl.rejects.jsonl", "s.jsonl"]
    assert outputs["old"] == outputs["new"]


def test_env_backend_url_read(workdir, monkeypatch):
    # the env URL satisfies config validation; the dead endpoint then maps to exit 4
    monkeypatch.setenv("DF_BACKEND_URL", "http://127.0.0.1:9/complete")
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl",
               "--backend", "remote", "--retries", "0") == 4


def test_env_seed_respected(workdir, monkeypatch):
    monkeypatch.setenv("DF_SEED", "7")
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "env.jsonl")
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "flag.jsonl", "--seed", "7")
    assert Path("env.jsonl").read_bytes() == Path("flag.jsonl").read_bytes()
    # explicit flag wins over the environment
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "other.jsonl", "--seed", "8")
    assert Path("other.jsonl").read_bytes() != Path("flag.jsonl").read_bytes()


def test_config_file_merged_under_flags(workdir):
    Path("cfg.json").write_text(json.dumps({"seed": 7, "k_min": 2, "k_max": 2}))
    run("synthesize", "--stages", "a,b", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
        "--out", "cfg_run.jsonl", "--config", "cfg.json")
    assert {d.dep_depth_value for d in read_dialogues("cfg_run.jsonl")} == {3}  # 1 + k, k = 2


def test_rerun_is_byte_identical(workdir):
    args = ("synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
            "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
            "--out", "r1.jsonl", "--seed", "7")
    run(*args)
    run(*(a if a != "r1.jsonl" else "r2.jsonl" for a in args))
    assert Path("r1.jsonl").read_bytes() == Path("r2.jsonl").read_bytes()


def test_manifest_replays_to_identical_bytes(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "orig.jsonl", "--seed", "5")
    manifest = json.loads(Path("orig.jsonl.manifest.json").read_text())
    before = Path("orig.jsonl").read_bytes()
    Path("orig.jsonl").unlink()
    assert run(*manifest["argv"]) == 0
    assert Path("orig.jsonl").read_bytes() == before


def test_dialogue_corpus_parses_back(workdir):
    run("synthesize", "--stages", "a,b,c", "--task", "ti_i_i1_1",
        "--in", DATA.as_posix() + "/subject_records_20.jsonl",
        "--pool", "pool.jsonl", "--out", "subj.jsonl", "--seed", "9")
    for rec in io.read_jsonl("subj.jsonl"):
        d = dialogue_from_record(rec)
        assert d.signature.depth.value == "n"


def test_mask_bad_total_len_exits_3(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    streams = list(io.read_jsonl("s.jsonl"))
    streams[3]["total_len"] += 1
    io.write_jsonl("s.jsonl", streams)
    capsys.readouterr()
    assert run("mask", "--in", "s.jsonl", "--out", "m.jsonl") == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert "s.jsonl" in err and repr(streams[3]["dialogue_id"]) in err


@pytest.mark.parametrize("command", ["serialize", "stats"])
def test_image_unit_overflow_exits_3(workdir, capsys, command):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    first_id = next(io.read_jsonl("d.jsonl"))["id"]
    capsys.readouterr()
    assert run(command, "--in", "d.jsonl", "--out", "o.jsonl", "--max-image-units", "5") == 3
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1
    assert err.startswith("stream error: d.jsonl:1: ") and repr(first_id) in err


@pytest.mark.parametrize("command", ["serialize", "stats"])
def test_empty_text_span_names_its_line(workdir, capsys, command):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    dialogues = list(io.read_jsonl("d.jsonl"))
    dialogues[1]["rounds"][0]["user"]["segments"] = [{"text": "   "}]
    io.write_jsonl("bad.jsonl", dialogues)
    capsys.readouterr()
    assert run(command, "--in", "bad.jsonl", "--out", "o.jsonl") == 3
    err = capsys.readouterr().err.strip()
    assert err == (f"stream error: bad.jsonl:2: dialogue {dialogues[1]['id']!r}: "
                   f"round 0 has an empty text span")


@pytest.mark.parametrize("cfg, code", [
    ({"validate": 1}, 2),
    ({"weights": {"t2i": 1.0}}, 2),
    ({"replay_clean": False}, 2),
    ({"k_min": "1"}, 2),
    ({"seed": True}, 2),
    ({"apply_fraction": "0.5"}, 2),
    ({"backend_url": 5}, 2),
    ({"apply_fraction": 1}, 0),
    ({"apply_fraction": 0.5, "backend_url": None}, 0),
    ({"backend_url": "http://127.0.0.1:9/c", "k_max": 2}, 0),
])
def test_config_file_keys_and_types(workdir, capsys, cfg, code):
    Path("cfg.json").write_text(json.dumps(cfg))
    assert run("synthesize", "--stage", "a", "--task", "t_i_0_0", "--config", "cfg.json",
               "--in", "t2i_records_20.jsonl", "--out", "x.jsonl") == code
    assert ("config error:" in capsys.readouterr().err) == (code == 2)


def test_stage_is_another_spelling_of_stages(capsys):
    parser = build_parser()
    for flag in ("--stage", "--stages"):
        args = parser.parse_args(["synthesize", flag, "a,b", "--in", "r.jsonl", "--out", "d.jsonl"])
        assert args.stages == "a,b"
    with pytest.raises(SystemExit):
        parser.parse_args(["synthesize", "--help"])
    out = capsys.readouterr().out
    assert "--stages STAGES, --stage STAGES" in out and "single stage" not in out


def _second_image(turn):
    """The turn record with a copy of its first image appended under a new id."""
    image = next(s["image"] for s in turn["segments"] if "image" in s)
    return {**turn, "segments": turn["segments"] + [{"image": {**image, "id": image["id"] + "-2"}}]}


def test_two_image_assistant_turn_is_refused(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    dialogues = list(io.read_jsonl("d.jsonl"))
    rnd = dialogues[2]["rounds"][0]
    rnd["assistant"] = _second_image(rnd["assistant"])
    io.write_jsonl("d.jsonl", dialogues)
    capsys.readouterr()
    assert run("validate", "--in", "d.jsonl") == 1
    assert "assistant-image-count" in capsys.readouterr().out
    for command in ("serialize", "stats"):
        assert run(command, "--in", "d.jsonl", "--out", "s.jsonl") == 3
        err = capsys.readouterr().err.strip()
        assert err.startswith("stream error: d.jsonl:3: ") and len(err.splitlines()) == 1
        assert repr(dialogues[2]["id"]) in err

    pool = list(io.read_jsonl("pool.jsonl"))
    pool[0]["assistant"] = _second_image(pool[0]["assistant"])
    io.write_jsonl("pool2.jsonl", pool)
    assert run("synthesize", "--stages", "a,b", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--pool", "pool2.jsonl",
               "--out", "x.jsonl", "--seed", "7") == 2
    assert "config error:" in capsys.readouterr().err


def _drop_key(path, key, out):
    """Copy the first two records of ``path`` to ``out``, the second without ``key``.

    A blank line between them puts that record on line 3 of ``out``.
    """
    first, second = list(io.read_jsonl(path))[:2]
    del second[key]
    Path(out).write_text(f"{json.dumps(first)}\n\n{json.dumps(second)}\n")


@pytest.mark.parametrize("weights, l_max, code, needle", [
    pytest.param({"t2i": "x"}, 16000, 2, "'t2i'", id="non-number-weight"),
    pytest.param({"t2i": -1}, 16000, 2, "'t2i'", id="negative-weight"),
    pytest.param({"t2i": 0, "edit": 0.0}, 16000, 2, "weight", id="all-zero-weights"),
    pytest.param({"t2i": 1.0, "edit": 1.0}, 16000, 2, "is empty", id="empty-stream-file"),
    pytest.param({"t2i": 1.0}, 100, 3, "t2i.jsonl:1: stream", id="stream-over-l-max"),
    pytest.param({"t2i": 1.0}, 16000, 3, "t2i.jsonl:3: missing key 'total_len'",
                 id="missing-total-len"),
])
def test_pack_bad_input_exits_without_traceback(workdir, capsys, weights, l_max, code, needle):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    Path("streams").mkdir()
    run("serialize", "--in", "d.jsonl", "--out", "streams/t2i.jsonl")
    Path("streams/edit.jsonl").write_text("")
    if "missing key" in needle:
        _drop_key("streams/t2i.jsonl", "total_len", "streams/t2i.jsonl")
    Path("weights.json").write_text(json.dumps(weights))
    capsys.readouterr()
    assert run("pack", "--config", "weights.json", "--in-dir", "streams", "--n", "50",
               "--l-min", "50", "--l-max", str(l_max), "--seed", "3",
               "--out", "packs.jsonl", "--stats", "stats.json") == code
    err = capsys.readouterr().err.strip()
    assert len(err.splitlines()) == 1 and needle in err
    assert err.startswith("config error:" if code == 2 else "i/o error:")
    if l_max == 100:
        assert repr(next(io.read_jsonl("streams/t2i.jsonl"))["dialogue_id"]) in err


@pytest.mark.parametrize("argv, source, key", [
    ("validate --in bad.jsonl", "d.jsonl", "rounds"),
    ("serialize --in bad.jsonl --out x.jsonl", "d.jsonl", "dep_target_rounds"),
    ("stats --in bad.jsonl", "d.jsonl", "id"),
    ("synthesize --stage c --in bad.jsonl --out x.jsonl", "d.jsonl", "dep_target_rounds"),
    ("mask --in bad.jsonl --out x.jsonl", "s.jsonl", "blocks"),
    ("synthesize --stage b --in d.jsonl --pool bad.jsonl --out x.jsonl", "pool.jsonl", "category"),
])
def test_record_missing_key_exits_3_with_path_line(workdir, capsys, argv, source, key):
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    _drop_key(source, key, "bad.jsonl")
    capsys.readouterr()
    assert run(*argv.split()) == 3
    err = capsys.readouterr().err.strip()
    assert err.endswith(f"bad.jsonl:3: missing key '{key}'") and len(err.splitlines()) == 1


def _image_segment(rec):
    return next(seg for seg in rec["rounds"][0]["assistant"]["segments"] if "image" in seg)


def _set_width(rec, value):
    _image_segment(rec)["image"]["width"] = value


def _set_text(rec, value):
    next(seg for seg in rec["rounds"][0]["user"]["segments"] if "text" in seg)["text"] = value


def _set_user_segment(rec, value):
    rec["rounds"][0]["user"]["segments"][0] = value


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(lambda rec: _set_width(rec, "x"), "width", id="width-str"),
    pytest.param(lambda rec: _set_width(rec, True), "width", id="width-bool"),
    pytest.param(lambda rec: _set_width(rec, 64.0), "width", id="width-float"),
    pytest.param(lambda rec: _set_text(rec, 5), "text", id="text-int"),
    pytest.param(lambda rec: _image_segment(rec)["image"].update(caption=5), "caption",
                 id="caption-int"),
    pytest.param(lambda rec: _image_segment(rec)["image"].update(caption=["x"]), "caption",
                 id="caption-list"),
    pytest.param(lambda rec: _set_user_segment(rec, 5), "segment", id="segment-int"),
    pytest.param(lambda rec: _set_user_segment(rec, {"text": "hi", **_image_segment(rec)}),
                 "segment", id="segment-text-and-image"),
    pytest.param(lambda rec: _set_user_segment(rec, {}), "segment", id="segment-empty"),
    pytest.param(lambda rec: _image_segment(rec).update(image=5), "image must be an object",
                 id="image-int"),
    pytest.param(lambda rec: rec["rounds"][0]["user"].update(segments={}), "segments",
                 id="segments-dict"),
    pytest.param(lambda rec: rec.update(rounds={}), "rounds", id="rounds-dict"),
    pytest.param(lambda rec: rec.update(dep_target_rounds=["a"]), "dep_target_rounds",
                 id="targets-str"),
    pytest.param(lambda rec: rec.update(dep_target_rounds=[0.5]), "dep_target_rounds",
                 id="targets-float"),
    pytest.param(lambda rec: rec.update(dep_target_rounds=[True]), "dep_target_rounds",
                 id="targets-bool"),
    pytest.param(lambda rec: rec.update(dep_target_rounds=0), "dep_target_rounds",
                 id="targets-int"),
    pytest.param(lambda rec: rec["rounds"][0]["assistant"]["segments"][0]["image"].update(id=[1]),
                 "image id", id="image-id-list"),
    pytest.param(lambda rec: rec.update(id=[1]), "dialogue id", id="id-list"),
    pytest.param(lambda rec: rec.update(annotations="stage_b_skipped"), "annotations",
                 id="annotations-str"),
    pytest.param(lambda rec: rec.update(annotations=[5, None]), "annotations",
                 id="annotations-not-str"),
])
@pytest.mark.parametrize("argv", ["validate --in bad.jsonl", "serialize --in bad.jsonl --out x.jsonl"])
def test_record_wrong_value_type_exits_3_with_path_line(workdir, capsys, mutate, needle, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    first, second = list(io.read_jsonl("d.jsonl"))[:2]
    mutate(second)
    Path("bad.jsonl").write_text(f"{json.dumps(first)}\n{json.dumps(second)}\n")
    capsys.readouterr()
    assert run(*argv.split()) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("i/o error: bad.jsonl:2: ") and len(err.splitlines()) == 1
    assert needle in err


@pytest.mark.parametrize("mutate, needle", [
    (lambda rec: rec["rounds"][1].pop("assistant"), "missing key 'assistant'"),
    (lambda rec: rec["rounds"][1].update(assistant=None),
     "round 1: assistant turn must be an object, not None"),
    (lambda rec: rec["rounds"][0].update(user=None),
     "round 0: user turn must be an object, not None"),
    (lambda rec: rec["rounds"][1]["user"].update(provenance=None),
     "round 1: user turn: provenance must be an object, not None"),
], ids=["missing", "null", "user-null", "provenance-null"])
@pytest.mark.parametrize("argv", ["validate --in bad.jsonl", "serialize --in bad.jsonl --out x.jsonl"])
def test_round_without_assistant_exits_3_with_path_line(workdir, capsys, mutate, needle, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    _bad_third_line("d.jsonl", "bad.jsonl", mutate)
    capsys.readouterr()
    assert run(*argv.split()) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("i/o error: bad.jsonl:3: ") and len(err.splitlines()) == 1
    assert needle in err


def _mix_targets(rec):
    text_round = json.loads(json.dumps(rec["rounds"][0]))
    text_round["assistant"]["segments"] = [{"text": "they bark"}]
    rec["rounds"].insert(0, text_round)
    rec["dep_target_rounds"] = [0, 1]


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(lambda rec: rec.update(rounds=[]), "empty dialogue", id="empty"),
    pytest.param(lambda rec: rec.update(dep_target_rounds=[1]),
                 "target round 1 does not precede the final round 1", id="target-range"),
    pytest.param(_mix_targets, "dependency targets mix text and image rounds", id="mixed-targets"),
    pytest.param(lambda rec: rec["rounds"][-1]["assistant"].update(segments=[{"text": "done"}]),
                 "final assistant turn produces no image", id="no-final-image"),
])
@pytest.mark.parametrize("argv", ["validate --in bad.jsonl", "serialize --in bad.jsonl --out x.jsonl",
                                  "stats --in bad.jsonl",
                                  "synthesize --stage b --in bad.jsonl --pool pool.jsonl --out x.jsonl"])
def test_content_without_a_signature_exits_3_with_path_line(workdir, capsys, mutate, needle, argv):
    run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
        "--in", "edit_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    _bad_third_line("d.jsonl", "bad.jsonl", mutate)
    capsys.readouterr()
    assert run(*argv.split()) == 3
    out, err = capsys.readouterr()
    assert err.startswith("i/o error: bad.jsonl:3: ") and len(err.splitlines()) == 1
    assert needle in err
    assert "validate:" not in out and not Path("x.jsonl").exists()


@pytest.mark.parametrize("value", [[1], 7, None], ids=["list", "int", "null"])
def test_stream_dialogue_id_not_a_string_exits_3_in_mask_and_pack(workdir, capsys, value):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    Path("streams").mkdir()
    _bad_third_line("s.jsonl", "streams/t2i.jsonl", lambda rec: rec.update(dialogue_id=value))
    Path("weights.json").write_text(json.dumps({"t2i": 1.0}))
    for argv in (["mask", "--in", "streams/t2i.jsonl", "--out", "m.jsonl"],
                 ["pack", "--config", "weights.json", "--in-dir", "streams", "--n", "5",
                  "--l-min", "10", "--out", "p.jsonl", "--stats", "p.json"]):
        capsys.readouterr()
        assert run(*argv) == 3, argv[0]
        err = capsys.readouterr().err.strip()
        assert err == (f"i/o error: streams/t2i.jsonl:3: "
                       f"stream dialogue_id must be a string, not {value!r}"), argv[0]


def test_stream_subcommands_hold_one_record_at_a_time(workdir, monkeypatch):
    io.write_jsonl("r50.jsonl", make_t2i_records(50, seed=3))
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "r50.jsonl", "--out", "d.jsonl", "--seed", "1")
    alive, peak = [0], [0]

    def died():
        alive[0] -= 1

    def watched(decode):
        def decode_and_watch(rec):
            obj = decode(rec)
            weakref.finalize(obj, died)
            alive[0] += 1
            peak[0] = max(peak[0], alive[0])
            return obj
        return decode_and_watch

    # the subcommands that read dialogues import the decoder from its module as they run
    monkeypatch.setattr(dialogue, "dialogue_from_record", watched(dialogue.dialogue_from_record))
    monkeypatch.setattr(cli, "stream_from_record", watched(cli.stream_from_record))
    for argv in ("validate --in d.jsonl", "serialize --in d.jsonl --out s.jsonl",
                 "mask --in s.jsonl --out m.jsonl", "stats --in d.jsonl --out st.json"):
        peak[0] = 0
        assert run(*argv.split()) == 0
        assert 0 < peak[0] <= 2, f"{argv}: {peak[0]} decoded records alive at once"
    assert len(list(io.read_jsonl("m.jsonl"))) == 50


def _bad_third_line(source, out, mutate):
    """Copy the first three records of ``source`` to ``out``, the third changed by ``mutate``."""
    records = list(io.read_jsonl(source))[:3]
    mutate(records[2])
    io.write_jsonl(out, records)


def _unknown_part(rec):
    rec["dialogue_id"] = "s3"
    rec["blocks"][0][0] = "bogus"


@pytest.mark.parametrize("command, source, mutate, needle", [
    ("serialize", "d.jsonl", lambda rec: rec.pop("rounds"), "missing key 'rounds'"),
    ("mask", "s.jsonl", _unknown_part, "stream 's3': blocks[0]: 'bogus' is not a valid part code"),
])
def test_failed_run_keeps_previous_output(workdir, capsys, command, source, mutate, needle):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    _bad_third_line(source, "bad.jsonl", mutate)
    Path("out").mkdir()
    Path("out/o.jsonl").write_bytes(b"previous output\n")
    capsys.readouterr()
    assert run(command, "--in", "bad.jsonl", "--out", "out/o.jsonl") == 3
    err = capsys.readouterr().err.strip()
    assert err == f"i/o error: bad.jsonl:3: {needle}"
    assert os.listdir("out") == ["o.jsonl"]
    assert Path("out/o.jsonl").read_bytes() == b"previous output\n"


def test_output_may_replace_its_input(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")
    streams = io.sha256_file("s.jsonl")
    assert run("mask", "--in", "s.jsonl", "--out", "m.jsonl") == 0
    assert run("mask", "--in", "s.jsonl", "--out", "s.jsonl") == 0
    assert Path("s.jsonl").read_bytes() == Path("m.jsonl").read_bytes()
    # the manifest names the streams it read, not the masks that replaced them
    manifest = json.loads(Path("s.jsonl.manifest.json").read_text())
    assert manifest["inputs"] == {"s.jsonl": streams}
    assert manifest["outputs"] == {"s.jsonl": io.sha256_file("m.jsonl")}


def _set_at(rec, path, value):
    *keys, last = path
    for key in keys:
        rec = rec[key]
    rec[last] = value


def _v1_record(rec):
    """The record of one block per entry that streams had before v2."""
    s = stream_from_record(rec)
    return {"dialogue_id": s.dialogue_id, "total_len": s.total_len, "blocks": [
        {"kind": b.kind.value, **({"tok": b.tok.value} if b.tok else {}), "units": b.units,
         "round": b.round_index, "role": b.role.value,
         **({"image_id": b.image_id} if b.image_id else {}), "loss": b.loss.value,
         "start": b.start, "end": b.end}
        for b in s.blocks]}


_NOT_V2 = "not a v2 stream record (v is None); write it again with `dialogforge serialize`"


@pytest.mark.parametrize("value", ["bogus", [1]], ids=["unknown", "unhashable"])
@pytest.mark.parametrize("command, source, path, enum", [
    ("mask", "s.jsonl", ("blocks", 0, 0), "part code"),
    # v1 records named each block's kind, role, loss and special token; v2 derives
    # them from the part code, so a v1 record is refused whole, whatever they hold
    ("mask", "v1", ("blocks", 0, "kind"), None),
    ("mask", "v1", ("blocks", 0, "role"), None),
    ("mask", "v1", ("blocks", 0, "loss"), None),
    ("mask", "v1", ("blocks", 0, "tok"), None),
    ("validate", "d.jsonl", ("rounds", 0, "user", "provenance", "stage"), "Stage"),
], ids=["part", "kind", "role", "loss", "tok", "stage"])
def test_unknown_enum_value_exits_3_with_its_enum(workdir, capsys, command, source, path,
                                                  enum, value):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    run("serialize", "--in", "d.jsonl", "--out", "s.jsonl")

    def mutate(rec):
        if source == "v1":
            v1 = _v1_record(rec)
            rec.clear()
            rec.update(v1)
        _set_at(rec, path, value)

    _bad_third_line("s.jsonl" if source == "v1" else source, "bad.jsonl", mutate)
    capsys.readouterr()
    out = [] if command == "validate" else ["--out", "x.jsonl"]
    assert run(command, "--in", "bad.jsonl", *out) == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("i/o error: bad.jsonl:3: ") and len(err.splitlines()) == 1
    assert err.endswith(_NOT_V2 if enum is None else f"{value!r} is not a valid {enum}")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    (root / "streams").mkdir()
    (root / "weights.json").write_text(json.dumps({"bad": 1.0}))
    return root


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data(), mutation=st.sampled_from(
    ["drop", "swap", "duplicate", "unknown-part", "units", "total-len", "no-key", "v1"]))
def test_broken_stream_record_exits_3_in_mask_and_pack(fuzz_dir, seed, mutation, data):
    records = [stream_to_record(serialize(make_random_dialogue(
        random.Random(seed + k), f"f-{k}", max_rounds=3))) for k in range(3)]
    rec = records[2]
    entries = rec["blocks"]
    k = data.draw(st.integers(0, len(entries) - 1), label="entry")
    if mutation == "drop":
        del entries[k]
    elif mutation == "swap":  # no two adjacent parts of the grammar may follow each other both ways
        k = data.draw(st.sampled_from([j for j in range(len(entries) - 1)
                                       if entries[j][0] != entries[j + 1][0]]), label="swap at")
        entries[k], entries[k + 1] = entries[k + 1], entries[k]
    elif mutation == "duplicate":
        entries.insert(k, list(entries[k]))
    elif mutation == "unknown-part":
        entries[k][0] = data.draw(st.sampled_from(["x", "", "U", "end", None, 1, ["u"]]),
                                  label="code")
    elif mutation == "units":
        entry = data.draw(st.sampled_from([e for e in entries if e[0] != "e"]), label="units of")
        j = data.draw(st.sampled_from([j for j, x in enumerate(entry) if type(x) is int]))
        entry[j] = data.draw(st.sampled_from([0, -1, "3", True]), label="units")
    elif mutation == "total-len":
        rec["total_len"] += data.draw(st.sampled_from([-1, 1]), label="by")
    elif mutation == "no-key":
        del rec[data.draw(st.sampled_from(sorted(rec)), label="key")]
    else:
        records[2] = _v1_record(rec)
    path = fuzz_dir / "streams" / "bad.jsonl"
    io.write_jsonl(path, records)
    for argv in (["mask", "--in", str(path), "--out", str(fuzz_dir / "m.jsonl")],
                 ["pack", "--config", str(fuzz_dir / "weights.json"),
                  "--in-dir", str(fuzz_dir / "streams"), "--n", "5", "--l-min", "10",
                  "--out", str(fuzz_dir / "p.jsonl"), "--stats", str(fuzz_dir / "p.json")]):
        err = StringIO()
        with contextlib.redirect_stderr(err):
            code = main(argv)
        assert code == 3, argv[0]
        assert err.getvalue().startswith("i/o error: ") and len(err.getvalue().splitlines()) == 1
        assert "bad.jsonl:3: " in err.getvalue()


@pytest.fixture(scope="module")
def dialogue_corpus(tmp_path_factory):
    """A work directory and the first three records of a stage a,b,c run on the edit fixtures."""
    root = tmp_path_factory.mktemp("dialogues")
    with contextlib.redirect_stdout(StringIO()):
        assert main(["synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
                     "--in", str(DATA / "edit_records_20.jsonl"),
                     "--pool", str(DATA / "pool.jsonl"), "--out", str(root / "d.jsonl"),
                     "--seed", "1"]) == 0
    return root, list(io.read_jsonl(root / "d.jsonl"))[:3]


@pytest.fixture(scope="module")
def basic_dialogues(tmp_path_factory):
    """The stage-a dialogues of the edit fixtures, in a work directory of their own."""
    path = tmp_path_factory.mktemp("basic") / "basic.jsonl"
    with contextlib.redirect_stdout(StringIO()):
        assert main(["synthesize", "--stage", "a", "--task", "t_i_i1_1",
                     "--in", str(DATA / "edit_records_20.jsonl"), "--out", str(path),
                     "--seed", "1"]) == 0
    return path


def _json_paths(obj, path=()):
    """The path of every value below ``obj``, a JSON tree."""
    items = (obj.items() if isinstance(obj, dict)
             else enumerate(obj) if isinstance(obj, list) else ())
    for key, value in items:
        yield path + (key,)
        yield from _json_paths(value, path + (key,))


def _at(rec, path):
    for key in path:
        rec = rec[key]
    return rec


_WRONG_TYPES = [None, True, -1, 2.5, "x", [], {}, [None]]
_MUTATIONS = ["type", "missing-key", "image-size", "enum"]


def _mutate(rec, mutation, data):
    """Break ``rec``, a JSON tree, in place by one of ``_MUTATIONS``, drawn from ``data``."""
    paths = list(_json_paths(rec))
    if mutation == "image-size" and not any(p[-1] == "width" for p in paths):
        mutation = "type"  # a text-only record has no image to resize
    if mutation == "type":
        path = data.draw(st.sampled_from(paths), label="path")
        value = _at(rec, path)
        _set_at(rec, path, data.draw(st.sampled_from(
            [v for v in _WRONG_TYPES if type(v) is not type(value) or v != value]), label="value"))
    elif mutation == "missing-key":
        path = data.draw(st.sampled_from([p for p in paths if isinstance(p[-1], str)]),
                         label="path")
        del _at(rec, path[:-1])[path[-1]]
    elif mutation == "image-size":
        path = data.draw(st.sampled_from([p for p in paths if p[-1] in ("width", "height")]),
                         label="path")
        size = data.draw(st.sampled_from([0, -1, -64, 10**9]), label="size")
        for key in data.draw(st.sampled_from([[path[-1]], ["width", "height"]]), label="keys"):
            _at(rec, path[:-1])[key] = size
    else:
        path = data.draw(st.sampled_from(
            [p for p in paths if p[-1] in ("source", "stage", "category")]), label="path")
        _set_at(rec, path, data.draw(st.sampled_from(
            ["bogus", "", "ti_ti_in_n", "t_i_0_0", "uploaded", "distractor", "t2i"]),
            label="value"))


def _never_escapes(argv, path):
    """Run ``main(argv)``; its code is documented, and an exit of 2 to 4 names ``path``."""
    err = StringIO()
    with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3, 4), argv[0]
    if code >= 2:
        assert len(err.getvalue().splitlines()) == 1 and str(path) in err.getvalue(), argv
    return code


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mutation=st.sampled_from([*_MUTATIONS, "target"]))
def test_mutated_dialogue_record_never_escapes_main(dialogue_corpus, data, mutation):
    root, corpus = dialogue_corpus
    records = json.loads(json.dumps(corpus))
    rec = records[2]
    if mutation == "target":
        last = len(rec["rounds"]) - 1
        rec["dep_target_rounds"] = data.draw(st.sampled_from(
            [[99], [-1], [last], [last + 1], [0, 0], [], [0, last - 1]]), label="targets")
    else:
        _mutate(rec, mutation, data)
    io.write_jsonl(root / "bad.jsonl", records)
    for argv in (["validate"], ["serialize", "--out", str(root / "s.jsonl")],
                 ["stats", "--out", str(root / "st.json")],
                 ["synthesize", "--stage", "c", "--out", str(root / "c.jsonl")]):
        _never_escapes([argv[0], "--in", str(root / "bad.jsonl"), *argv[1:]], root / "bad.jsonl")


_INGEST = {"t_i_t1_1": make_t2i_records, "t_i_i1_1": make_edit_records,
           "ti_i_i1_1": make_subject_records}


@settings(max_examples=80, deadline=None)
@given(task=st.sampled_from(sorted(_INGEST)), seed=st.integers(0, 2**16), data=st.data(),
       mutation=st.sampled_from(_MUTATIONS))
def test_mutated_ingest_record_never_escapes_main(dialogue_corpus, task, seed, data, mutation):
    root, _ = dialogue_corpus
    records = _INGEST[task](3, seed)
    _mutate(records[2], mutation, data)
    io.write_jsonl(root / "bad_in.jsonl", records)
    out = root / "a.jsonl"
    if _never_escapes(["synthesize", "--stage", "a", "--task", task,
                       "--in", str(root / "bad_in.jsonl"), "--out", str(out)],
                      root / "bad_in.jsonl") == 0:
        counts = json.loads(Path(f"{out}.manifest.json").read_text())["counts"]
        assert counts["written"] + counts["rejected"] == 3


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**16), data=st.data(), mutation=st.sampled_from(_MUTATIONS))
def test_mutated_pool_entry_never_escapes_main(basic_dialogues, seed, data, mutation):
    root = basic_dialogues.parent
    entries = [entry_to_record(e) for e in make_distractor_pool(1, seed).entries]
    _mutate(entries[data.draw(st.integers(0, 2), label="entry")], mutation, data)
    io.write_jsonl(root / "bad_pool.jsonl", entries)
    _never_escapes(["synthesize", "--stage", "b", "--in", str(basic_dialogues),
                    "--pool", str(root / "bad_pool.jsonl"), "--k-min", "1", "--k-max", "1",
                    "--out", str(root / "b.jsonl")], root / "bad_pool.jsonl")
