import contextlib
import json
import os
import random
import shutil
import subprocess
import sys
import weakref
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from dialogue_reference import make_random_dialogue
from hypothesis import strategies as st

import dialogforge
from dialogforge import cli, io
from dialogforge.cli import main
from dialogforge.dialogue import dialogue_from_record
from dialogforge.fixtures import make_t2i_records
from dialogforge.stream import serialize, stream_from_record, stream_to_record, validate_stream

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def workdir(tmp_path, monkeypatch):
    for name in ("edit_records_20.jsonl", "t2i_records_20.jsonl", "pool.jsonl"):
        shutil.copy(DATA / name, tmp_path / name)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def run(*argv):
    return main(list(argv))


def test_synthesize_stage_a(workdir):
    code = run("synthesize", "--stage", "a", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--out", "out.jsonl",
               "--backend", "mock", "--seed", "7")
    assert code == 0
    records = list(io.read_jsonl("out.jsonl"))
    assert len(records) == 20
    assert all(r["signature"] == "t_i_i1_1" for r in records)
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
    records = list(io.read_jsonl("full.jsonl"))
    assert len(records) == 20
    assert all(r["signature"] == "t_ti_i1_n" for r in records)
    assert all(2 <= r["dep_depth_value"] <= 4 for r in records)  # k in [1, 3]


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


def test_mock_stages_run_serially(workdir, monkeypatch):
    seen = []
    for name in ("run_stage_a", "run_stage_b", "run_stage_c"):
        def record(*args, _fn=getattr(cli, name), **kwargs):
            seen.append(kwargs["concurrency"])
            return _fn(*args, **kwargs)
        monkeypatch.setattr(cli, name, record)
    assert run("synthesize", "--stages", "a,b,c", "--task", "t_i_i1_1",
               "--in", "edit_records_20.jsonl", "--pool", "pool.jsonl",
               "--out", "o.jsonl", "--concurrency", "8") == 0
    assert seen == [1, 1, 1]
    manifest = json.loads(Path("o.jsonl.manifest.json").read_text())
    assert manifest["config"]["concurrency"] == 8


def test_cli_import_does_not_load_numpy():
    src = str(Path(dialogforge.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    heavy = ("numpy", "requests", "urllib3", "http.client", "urllib.request")
    code = f"import dialogforge.cli, sys; print([m for m in {heavy!r} if m in sys.modules])"
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


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


def test_validate_and_filter(workdir):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    assert run("validate", "--in", "d.jsonl") == 0
    assert run("validate", "--in", "d.jsonl", "--signature", "t_i_0_0") == 0


def test_validate_reports_violations(workdir, capsys):
    run("synthesize", "--stage", "a", "--task", "t_i_0_0",
        "--in", "t2i_records_20.jsonl", "--out", "d.jsonl", "--seed", "1")
    records = list(io.read_jsonl("d.jsonl"))
    records[0]["dep_target_rounds"] = [5]
    io.write_jsonl("d.jsonl", records)
    assert run("validate", "--in", "d.jsonl") == 1
    assert "target-range" in capsys.readouterr().out


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
    records = list(io.read_jsonl("deep.jsonl"))
    assert all(r["signature"] == "t_i_i1_n" for r in records)
    assert Path("deep.rej.jsonl").read_text() == ""


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
    records = list(io.read_jsonl("cfg_run.jsonl"))
    assert all(r["dep_depth_value"] == 3 for r in records)  # 1 + k, k pinned to 2


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
    assert "d.jsonl" in err and repr(first_id) in err


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
    assert run("serialize", "--in", "d.jsonl", "--out", "s.jsonl") == 3
    err = capsys.readouterr().err.strip()
    assert err.startswith("stream error:") and len(err.splitlines()) == 1
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
    ("serialize --in bad.jsonl --out x.jsonl", "d.jsonl", "signature"),
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


def _set_width(rec, value):
    next(seg for seg in rec["rounds"][0]["assistant"]["segments"] if "image" in seg)["image"]["width"] = value


def _set_text(rec, value):
    next(seg for seg in rec["rounds"][0]["user"]["segments"] if "text" in seg)["text"] = value


@pytest.mark.parametrize("mutate, needle", [
    pytest.param(lambda rec: _set_width(rec, "x"), "width", id="width-str"),
    pytest.param(lambda rec: _set_width(rec, True), "width", id="width-bool"),
    pytest.param(lambda rec: _set_width(rec, 64.0), "width", id="width-float"),
    pytest.param(lambda rec: _set_text(rec, 5), "text", id="text-int"),
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
    pytest.param(lambda rec: rec.update(dep_depth_value="1"), "dep_depth_value",
                 id="depth-str"),
    pytest.param(lambda rec: rec.update(dep_depth_value=None), "dep_depth_value",
                 id="depth-null"),
    pytest.param(lambda rec: rec["rounds"][0]["user"].update(is_distractor="no"),
                 "is_distractor", id="distractor-str"),
    pytest.param(lambda rec: rec["rounds"][0]["assistant"]["segments"][0]["image"].update(id=[1]),
                 "image id", id="image-id-list"),
    pytest.param(lambda rec: rec.update(id=[1]), "dialogue id", id="id-list"),
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

    monkeypatch.setattr(cli, "dialogue_from_record", watched(cli.dialogue_from_record))
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
    ("serialize", "d.jsonl", ("rounds", 0, "assistant", "segments", 0, "image", "source"),
     "ImageSource"),
    ("validate", "d.jsonl", ("rounds", 0, "user", "provenance", "stage"), "Stage"),
], ids=["part", "kind", "role", "loss", "tok", "image-source", "stage"])
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


@settings(max_examples=120, deadline=None)
@given(data=st.data(), mutation=st.sampled_from(
    ["type", "missing-key", "image-size", "enum", "target"]))
def test_mutated_dialogue_record_never_escapes_main(dialogue_corpus, data, mutation):
    root, corpus = dialogue_corpus
    records = json.loads(json.dumps(corpus))
    rec = records[2]
    paths = list(_json_paths(rec))
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
    elif mutation == "enum":
        path = data.draw(st.sampled_from(
            [p for p in paths if p[-1] in ("signature", "source", "stage")]), label="path")
        _set_at(rec, path, data.draw(st.sampled_from(
            ["bogus", "", "ti_ti_in_n", "t_i_0_0", "uploaded", "distractor"]), label="value"))
    else:
        last = len(rec["rounds"]) - 1
        rec["dep_target_rounds"] = data.draw(st.sampled_from(
            [[99], [-1], [last], [last + 1], [0, 0], [], [0, last - 1]]), label="targets")
    io.write_jsonl(root / "bad.jsonl", records)
    for argv in (["validate"], ["serialize", "--out", str(root / "s.jsonl")],
                 ["stats", "--out", str(root / "st.json")],
                 ["synthesize", "--stage", "c", "--out", str(root / "c.jsonl")]):
        err = StringIO()
        with contextlib.redirect_stdout(StringIO()), contextlib.redirect_stderr(err):
            code = main([argv[0], "--in", str(root / "bad.jsonl"), *argv[1:]])
        assert code in (0, 1, 2, 3, 4), argv[0]
        if code >= 2:
            assert len(err.getvalue().splitlines()) == 1 and "bad.jsonl" in err.getvalue()
