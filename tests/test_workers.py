"""``io.map_lines`` and the subcommands that run on it, at one, two and three workers.

The ``cpus`` fixture makes ``map_lines`` see a chosen CPU count and cut 3-line
chunks, so the bundled 20-record fixtures span seven chunks; it counts the
workers forked, so a run that fell back to this process cannot pass as a
parallel one. The runner's promises are checked for each strategy it has
(``STRATEGIES``): forked workers, this thread, and a pool of threads.
"""

import concurrent.futures
import os
import shutil
import signal
import threading
import time
from pathlib import Path

import pytest

from dialogforge import cli, io
from dialogforge.atomic_ops import BackendUnavailable, OpKind, invoke, mock_complete
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


# ``threads`` for ``map_lines``, with two CPUs: two forked workers, none, or four threads.
STRATEGIES = pytest.mark.parametrize("threads", [0, 1, 4], ids=["fork", "serial", "threads"])


class SlowFirst:
    def complete(self, prompt, seed):
        if prompt.endswith("INPUT caption: c0"):  # the caption is the prompt's last line
            time.sleep(0.2)
        return mock_complete(prompt, seed)


@STRATEGIES
def test_map_lines_keeps_input_order_when_later_lines_finish_first(cpus, lines_file, threads):
    forks = cpus(2)

    def query(index, lineno, line):
        fields = invoke(OpKind.CAPTION2QUERY, {"caption": f"c{int(line)}"}, 0, SlowFirst())
        return fields, time.monotonic()

    outputs = list(io.map_lines(lines_file, query, threads))
    assert [fields["query"] for fields, _ in outputs] == [
        f"Please generate an image of c{k}" for k in range(20)]
    # Line 0 is slowed; only in this thread does every later line finish after it.
    finished_after_line_0 = all(t >= outputs[0][1] for _, t in outputs[1:])
    assert finished_after_line_0 == (threads == 1)
    assert len(forks) == (2 if threads == 0 else 0)
    assert_no_child_left()


@STRATEGIES
def test_map_lines_raises_the_first_error_in_input_order(cpus, lines_file, threads):
    cpus(2)

    def fn(index, lineno, line):
        if index == 1:  # in the first chunk; 4 is in the second, another worker's
            time.sleep(0.05)
            raise ValueError("bad 1")
        if index == 4:
            raise ValueError("bad 4")
        return index * 10

    outputs = []
    with pytest.raises(ValueError, match="bad 1"):
        for out in io.map_lines(lines_file, fn, threads):
            outputs.append(out)
    assert outputs == [0]
    assert_no_child_left()


@STRATEGIES
def test_map_lines_lets_backend_unavailable_through(cpus, lines_file, threads):
    cpus(2)

    def fn(index, lineno, line):
        if index == 2:
            raise BackendUnavailable("down")
        return index

    with pytest.raises(BackendUnavailable):
        list(io.map_lines(lines_file, fn, threads))
    assert_no_child_left()


@STRATEGIES
def test_map_lines_reads_at_most_four_lines_per_thread_ahead(cpus, lines_file, monkeypatch,
                                                             threads):
    """Forked workers read the file themselves; this process reads only the
    lines ``_workers`` counts, at most one chunk per CPU."""
    cpus(2)
    read = [0]
    numbered_lines = io.numbered_lines

    def counted(path):
        for item in numbered_lines(path):
            read[0] += 1
            yield item

    monkeypatch.setattr(io, "numbered_lines", counted)
    ahead = 4 * threads if threads else 2 * io.CHUNK_LINES
    yielded = 0
    for out in io.map_lines(lines_file, lambda index, lineno, line: 2 * int(line), threads):
        assert out == 2 * yielded
        yielded += 1
        assert read[0] - yielded <= ahead
    assert yielded == 20 and read[0] == (20 if threads else ahead)
    assert_no_child_left()


@STRATEGIES
def test_map_lines_uses_one_pool_per_run_and_none_without_threads(cpus, lines_file, monkeypatch,
                                                                  threads):
    forks = cpus(2)
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    out = list(io.map_lines(lines_file, lambda *item: (int(item[2]), os.getpid(),
                                                       threading.get_ident()), threads))
    assert [v for v, _, _ in out] == list(range(20))
    runners = {(pid, ident) for _, pid, ident in out}
    if threads > 1:
        assert len(made) == 1 and len(runners) <= threads and forks == []
    elif threads == 1:
        assert made == [] and runners == {(os.getpid(), threading.get_ident())} and forks == []
    else:
        assert made == [] and len(runners) == len(forks) == 2
    assert_no_child_left()


@pytest.mark.parametrize("threads", [0, 2], ids=["fork", "threads"])
def test_map_lines_stopped_early_starts_no_further_call(cpus, lines_file, tmp_path, threads):
    forks = cpus(2)
    log = tmp_path / "started"

    def fn(index, lineno, line):
        with open(log, "a") as f:
            f.write(f"{index}\n")
        if index:
            time.sleep(0.2)
        return index

    outputs = io.map_lines(lines_file, fn, threads)
    assert next(outputs) == 0
    # the thread that ran line 0 takes line 2 next; wait for it, since which of
    # that pickup and close comes first is up to the scheduler
    deadline = time.monotonic() + 5
    while threads and "2\n" not in log.read_text() and time.monotonic() < deadline:
        time.sleep(0.01)
    outputs.close()
    started = sorted(map(int, log.read_text().split()))
    time.sleep(0.3)
    assert sorted(map(int, log.read_text().split())) == started
    if threads:  # lines 1 and 2 held both threads; 3 to 7 waited in the queue
        assert started == [0, 1, 2]
    else:  # each worker was on its first or second chunk
        assert len(forks) == 2 and len(started) < 12
    assert_no_child_left()


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


@pytest.mark.parametrize("n", [1, 2])
def test_validate_reports_a_repeated_id_in_a_later_chunk(cpus, tmp_path, monkeypatch, capsys, n):
    _inputs(tmp_path / "w")
    monkeypatch.chdir(tmp_path / "w")
    run(*_CHAIN[1].split())
    lines = Path("a.jsonl").read_text().splitlines(keepends=True)
    # line 2 is in chunk 0 and its copy, line 17, in chunk 5: another worker's at n = 2
    Path("dup.jsonl").write_text("".join(lines[:16] + lines[1:2] + lines[16:]))
    repeated = io.parse_json(lines[1].encode())["id"]
    forks = cpus(n)
    capsys.readouterr()
    assert run("validate", "--in", "dup.jsonl") == 1
    assert len(forks) == (n if n > 1 else 0)
    assert capsys.readouterr().out == (f"{repeated}: id-unique: an earlier dialogue has this id\n"
                                       "validate: 1 dialogues with violations\n")
    assert run("validate", "--in", "a.jsonl") == 0
    assert_no_child_left()


@pytest.mark.parametrize("n", [1, 2])
def test_synthesize_rejects_a_repeated_id_in_a_later_chunk(cpus, tmp_path, monkeypatch, capsys,
                                                          n):
    _inputs(tmp_path / "w")
    monkeypatch.chdir(tmp_path / "w")
    run(*_CHAIN[0].split())
    lines = Path("in.jsonl").read_text().splitlines(keepends=True)
    # record 1 again after line 16, in chunk 5: another worker's at n = 2; then record 2
    Path("dup.jsonl").write_text("".join(lines[:16] + lines[1:2] + lines[16:] + lines[2:3]))
    forks = cpus(n)
    assert run(*_CHAIN[0].replace("in.jsonl", "dup.jsonl").replace("abc", "o").split()) == 0
    assert len(forks) == (n if n > 1 else 0)
    assert capsys.readouterr().out.endswith("synthesize: 18 dialogues, 4 rejects -> o.jsonl\n")
    assert Path("o.jsonl").read_bytes() == Path("abc.jsonl").read_bytes()
    ids = [rec["id"] for rec in io.read_jsonl("abc.jsonl")]  # records 0-3 made lines 0-3
    duplicate = "duplicate-id: an earlier dialogue has this id"
    assert [(r["stage"], r.get("index", r.get("id")), r["error"])
            for r in io.read_jsonl("o.jsonl.rejects.jsonl")] == [
        ("a", 4, "record is missing key 'instruction'"),
        ("a", 11, "record is missing key 'instruction'"),
        ("c", ids[1], duplicate), ("c", ids[2], duplicate)]
    assert run("validate", "--in", "o.jsonl") == 0
    assert_no_child_left()


@pytest.mark.parametrize("body", ["", "\n \n\n"], ids=["empty", "blank-lines"])
def test_every_subcommand_maps_an_input_without_records_to_no_line(cpus, tmp_path, monkeypatch,
                                                                   capsys, body):
    monkeypatch.chdir(tmp_path)
    Path("in.jsonl").write_text(body)
    forks = cpus(2)
    summaries = []
    for argv in ("synthesize --stage a --task t_i_0_0 --in in.jsonl --out d.jsonl",
                 "validate --in in.jsonl",
                 "serialize --in in.jsonl --out s.jsonl",
                 "mask --in in.jsonl --out m.jsonl",
                 "stats --in in.jsonl --out st.json"):
        assert run(*argv.split()) == 0, argv
        out, err = capsys.readouterr()
        assert err == ""
        summaries.append(out)
    assert summaries[:4] == ["synthesize: 0 dialogues, 0 rejects -> d.jsonl\n",
                             "validate: 0 dialogues with violations\n",
                             "serialize: 0 streams -> s.jsonl\n", "mask: 0 masks -> m.jsonl\n"]
    for name in ("d.jsonl", "d.jsonl.rejects.jsonl", "s.jsonl", "m.jsonl"):
        assert Path(name).read_bytes() == b""
    assert io.parse_json(Path("st.json").read_bytes())["dialogues"] == 0
    assert forks == []
