"""``io.map_lines`` and the subcommands that run on it, at one, two and three workers.

The ``cpus`` fixture makes ``map_lines`` see a chosen CPU count and cut 3-line
chunks, so the bundled 20-record fixtures span seven chunks; it counts the
workers forked, so a run that fell back to this process cannot pass as a
parallel one.
"""

import os
import shutil
import signal
import threading
from pathlib import Path

import pytest

from dialogforge import cli, io
from dialogforge.fixtures import make_distractor_pool
from dialogforge.stage_b import entry_to_record

DATA = Path(__file__).parent / "data"


@pytest.fixture()
def cpus(monkeypatch):
    """``set_cpus(n)``: ``map_lines`` sees ``n`` CPUs; returns the list that counts forks.

    A test that waits on a worker for more than a minute fails instead of hanging.
    """
    forks = []
    fork = os.fork
    monkeypatch.setattr(io, "CHUNK_LINES", 3)
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())

    def set_cpus(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))
        forks.clear()
        return forks

    def hung(signum, frame):
        raise TimeoutError("a map_lines run took over 60 s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(60)
    try:
        yield set_cpus
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture()
def lines_file(tmp_path):
    """20 non-blank lines, with blank lines among them."""
    path = tmp_path / "lines.jsonl"
    body = "".join(f"{k}\n" + ("\n" if k % 7 == 3 else "") for k in range(20))
    path.write_text("\n" + body)
    return path


def _where(index, lineno, line):
    return index, lineno, int(line), os.getpid()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_lines_yields_in_input_order(cpus, lines_file, n):
    forks = cpus(n)
    serial = list(io.numbered_lines(lines_file))
    out = list(io.map_lines(lines_file, _where))
    assert [(i, lineno, v) for i, lineno, v, _ in out] == [
        (i, lineno, int(line)) for i, lineno, line in serial]
    assert [v for _, _, v, _ in out] == list(range(20))
    pids = {pid for *_, pid in out}
    assert len(forks) == (n if n > 1 else 0)
    assert len(pids) == n and (os.getpid() in pids) == (n == 1)
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2, 3])
def test_map_lines_raises_the_first_failure_after_the_results_before_it(cpus, lines_file, n):
    cpus(n)

    def fail_late(index, lineno, line):
        if int(line) in (11, 16):
            raise ValueError(f"{lines_file.name}:{lineno}: line {int(line)}")
        return int(line)

    seen = []
    with pytest.raises(ValueError) as err:
        for value in io.map_lines(lines_file, fail_late):
            seen.append(value)
    assert seen == list(range(11))
    assert str(err.value) == f"{lines_file.name}:15: line 11"
    assert_no_child_left()


@pytest.mark.parametrize("stop", ["close", "interrupt"])
def test_map_lines_reaps_its_workers_when_the_caller_stops(cpus, lines_file, stop):
    forks = cpus(3)
    if stop == "close":
        it = io.map_lines(lines_file, _where)
        next(it)
        it.close()
    else:  # Ctrl-C reaches the parent, not the workers, which ignore it
        with pytest.raises(KeyboardInterrupt):
            for _ in io.map_lines(lines_file, _where):
                os.kill(os.getpid(), signal.SIGINT)
    assert len(forks) == 3
    assert_no_child_left()


def test_map_lines_reports_a_worker_that_died(cpus, lines_file):
    cpus(2)
    parent = os.getpid()

    def die_late(index, lineno, line):
        if int(line) == 10 and os.getpid() != parent:
            os._exit(1)
        return int(line)

    seen = []
    with pytest.raises(OSError) as err:
        for value in io.map_lines(lines_file, die_late):
            seen.append(value)
    assert seen == list(range(9))  # 10 is in the fourth 3-line chunk, lines 10-12
    assert str(err.value).startswith(f"{lines_file}: worker ")
    assert str(err.value).endswith(" ended without reporting non-blank lines 10-12")
    assert_no_child_left()


@pytest.mark.parametrize("case", ["one-cpu", "one-chunk", "thread-running", "no-fork"])
def test_map_lines_runs_in_this_process(cpus, lines_file, monkeypatch, case):
    forks = cpus(1 if case == "one-cpu" else 2)
    if case == "one-chunk":
        monkeypatch.setattr(io, "CHUNK_LINES", 20)
    if case == "no-fork":
        monkeypatch.delattr(os, "fork")
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if case == "thread-running":
        thread.start()
    try:
        out = list(io.map_lines(lines_file, _where))
    finally:
        release.set()
        if thread.is_alive():
            thread.join()
    assert {pid for *_, pid in out} == {os.getpid()} and forks == []


# --- subcommands ----------------------------------------------------------------


def run(*argv):
    return cli.main(list(argv))


def _inputs(root):
    """Edit records with two that stage a rejects, and a pool small enough for stage b rejects."""
    root.mkdir()
    records = list(io.read_jsonl(DATA / "edit_records_20.jsonl"))
    for k in (4, 11):
        records[k] = {"id": records[k]["id"]}
    io.write_jsonl(root / "in.jsonl", records)
    shutil.copy(DATA / "pool.jsonl", root / "pool.jsonl")
    io.write_jsonl(root / "pool3.jsonl",
                   (entry_to_record(e) for e in make_distractor_pool(1, 4).entries))


_CHAIN = [
    "synthesize --stages a,b,c --task t_i_i1_1 --in in.jsonl --pool pool.jsonl --out abc.jsonl "
    "--seed 7",
    "synthesize --stage a --task t_i_i1_1 --in in.jsonl --out a.jsonl --seed 7",
    "synthesize --stage b --in a.jsonl --pool pool3.jsonl --k-min 2 --k-max 5 --out b.jsonl "
    "--seed 3",
    "synthesize --stage c --in a.jsonl --apply-fraction 0.5 --out c.jsonl --seed 7",
    "validate --in bad.jsonl",
    "validate --in c.jsonl --signature t_ti_i1_n",
    "serialize --in c.jsonl --out s.jsonl",
    "serialize --in abc.jsonl --out s_n.jsonl --signature t_ti_i1_n",
    "mask --in s.jsonl --out m.jsonl",
    "stats --in abc.jsonl",
    "stats --in c.jsonl --out st.json",
]


def _with_violations(src, dst):
    """``src`` with an image width of 0 in every third dialogue."""
    records = list(io.read_jsonl(src))
    for rec in records[::3]:
        rec["rounds"][0]["assistant"]["segments"][0]["image"]["width"] = 0
    io.write_jsonl(dst, records)


def test_outputs_do_not_depend_on_the_worker_count(cpus, tmp_path, monkeypatch, capsys):
    runs = {}
    for n in (1, 2, 3):
        root = tmp_path / f"cpus{n}"
        _inputs(root)
        monkeypatch.chdir(root)
        forks = cpus(n)
        stdout = []
        for argv in _CHAIN:
            if argv.startswith("validate --in bad.jsonl"):
                _with_violations("c.jsonl", "bad.jsonl")
            code = run(*argv.split())
            stdout.append((argv, code, capsys.readouterr().out))
        assert len(forks) == (n * len(_CHAIN) if n > 1 else 0)
        runs[n] = stdout, {f.name: f.read_bytes() for f in sorted(root.iterdir())}
    stdout = runs[1][0]
    assert runs[2] == runs[1] and runs[3] == runs[1]
    assert [code for _, code, _ in stdout] == [0, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0]
    assert "synthesize: 18 dialogues, 2 rejects" in stdout[0][2]
    rejects = list(io.read_jsonl(Path(tmp_path / "cpus1" / "b.jsonl.rejects.jsonl")))
    assert len(rejects) > 1 and all(r["stage"] == "b" for r in rejects)
    ids = [rec["id"] for rec in io.read_jsonl(tmp_path / "cpus1" / "a.jsonl")]
    assert [ids.index(r["id"]) for r in rejects] == sorted(ids.index(r["id"]) for r in rejects)
    assert [r["index"] for r in io.read_jsonl(tmp_path / "cpus1" / "abc.jsonl.rejects.jsonl")
            ] == [4, 11]
    assert stdout[4][2].count("image-dims (round 0)") == 6


def _break_line(src, dst, k, key):
    lines = Path(src).read_text().splitlines(keepends=True)
    rec = io.parse_json(lines[k].encode())
    del rec[key]
    lines[k] = io.dumps(rec) + "\n"
    Path(dst).write_text("".join(lines))


@pytest.mark.parametrize("argv, source, key, needle", [
    ("validate --in bad.jsonl", "c.jsonl", "rounds", "missing key 'rounds'"),
    ("serialize --in bad.jsonl --out out/o.jsonl", "c.jsonl", "rounds", "missing key 'rounds'"),
    ("stats --in bad.jsonl --out out/o.jsonl", "c.jsonl", "rounds", "missing key 'rounds'"),
    ("mask --in bad.jsonl --out out/o.jsonl", "s.jsonl", "blocks", "missing key 'blocks'"),
    ("synthesize --stage b --in bad.jsonl --pool pool.jsonl --out out/o.jsonl", "a.jsonl",
     "rounds", "missing key 'rounds'"),
], ids=["validate", "serialize", "stats", "mask", "synthesize"])
def test_bad_line_in_a_later_chunk_exits_as_a_serial_run(cpus, tmp_path, monkeypatch, capsys,
                                                         argv, source, key, needle):
    _inputs(tmp_path / "w")
    monkeypatch.chdir(tmp_path / "w")
    for step in (_CHAIN[1], _CHAIN[3], "serialize --in c.jsonl --out s.jsonl"):
        run(*step.split())
    _break_line(source, "bad.jsonl", 13, key)
    if argv.startswith("validate"):
        _with_violations("bad.jsonl", "bad.jsonl")
    Path("out").mkdir()
    capsys.readouterr()
    seen = []
    for n in (1, 2, 3):
        Path("out/o.jsonl").write_bytes(b"previous output\n")
        forks = cpus(n)
        code = run(*argv.split())
        seen.append((code, capsys.readouterr()))
        assert len(forks) == (n if n > 1 else 0)
        assert os.listdir("out") == ["o.jsonl"]
        assert Path("out/o.jsonl").read_bytes() == b"previous output\n"
        assert_no_child_left()
    code, (out, err) = seen[0]
    assert code == 3 and err == f"i/o error: bad.jsonl:14: {needle}\n"
    assert seen[1] == seen[0] and seen[2] == seen[0]
    if argv.startswith("validate"):
        assert out.count("image-dims (round 0)") == 5  # the dialogues before line 14


def test_worker_that_dies_ends_the_run_with_exit_3(cpus, tmp_path, monkeypatch, capsys):
    _inputs(tmp_path / "w")
    monkeypatch.chdir(tmp_path / "w")
    run(*_CHAIN[1].split())
    victim = list(io.read_jsonl("a.jsonl"))[12]["id"]
    parent = os.getpid()
    serialize = cli.serialize

    def die_on_victim(d, cfg):
        if d.id == victim and os.getpid() != parent:
            os._exit(1)
        return serialize(d, cfg)

    monkeypatch.setattr(cli, "serialize", die_on_victim)
    Path("out").mkdir()
    Path("out/o.jsonl").write_bytes(b"previous output\n")
    cpus(2)
    capsys.readouterr()
    assert run("serialize", "--in", "a.jsonl", "--out", "out/o.jsonl") == 3
    out, err = capsys.readouterr()
    assert out == "" and len(err.splitlines()) == 1
    assert err.startswith("i/o error: a.jsonl: worker ")
    assert err.endswith(" ended without reporting non-blank lines 13-15\n")
    assert os.listdir("out") == ["o.jsonl"]
    assert Path("out/o.jsonl").read_bytes() == b"previous output\n"
    assert_no_child_left()
