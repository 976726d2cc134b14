import concurrent.futures
import threading
import time

import pytest

from dialogforge.atomic_ops import BackendUnavailable, OpKind, invoke, mock_complete
from dialogforge.util import run_records


class SlowFirst:
    def complete(self, prompt, seed):
        if "INPUT caption: first" in prompt:
            time.sleep(0.05)
        return mock_complete(prompt, seed)


def test_run_records_preserves_order():
    captions = ["first", "second", "third", "fourth"]
    outputs = list(run_records(
        lambda c: invoke(OpKind.CAPTION2QUERY, {"caption": c}, 0, SlowFirst()), captions, 4))
    assert [fields["query"] for fields in outputs] == [
        f"Please generate an image of {c}" for c in captions
    ]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_records_raises_the_first_error_in_input_order(concurrency):
    def fn(x):
        if x == 1:
            time.sleep(0.05)
            raise ValueError("bad 1")
        if x == 4:
            raise ValueError("bad 4")
        return x * 10

    outputs = []
    with pytest.raises(ValueError, match="bad 1"):
        for out in run_records(fn, range(8), concurrency):
            outputs.append(out)
    assert outputs == [0]


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_records_backend_unavailable_propagates(concurrency):
    def fn(x):
        if x == 2:
            raise BackendUnavailable("down")
        return x

    with pytest.raises(BackendUnavailable):
        list(run_records(fn, range(6), concurrency))


@pytest.mark.parametrize("concurrency", [1, 4])
def test_run_records_reads_at_most_four_items_per_worker_ahead(concurrency):
    read = [0]

    def items():
        for i in range(100):
            read[0] += 1
            yield i

    yielded = 0
    for out in run_records(lambda x: x * 2, items(), concurrency):
        assert out == 2 * yielded
        yielded += 1
        assert read[0] - yielded <= 4 * concurrency
    assert yielded == read[0] == 100


def test_run_records_uses_one_executor_and_none_when_serial(monkeypatch):
    made = []

    class Counted(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, *args, **kwargs):
            made.append(self)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", Counted)
    assert list(run_records(lambda x: x + 1, range(50), 1)) == list(range(1, 51))
    assert made == []
    threads = set()

    def fn(x):
        threads.add(threading.get_ident())
        return x + 1

    assert list(run_records(fn, range(50), 2)) == list(range(1, 51))
    assert len(made) == 1 and len(threads) <= 2


def test_run_records_stopped_early_cancels_what_has_not_started():
    started = []
    gate = threading.Event()

    def fn(x):
        started.append(x)
        if x:
            gate.wait(5)
        return x

    outputs = run_records(fn, range(100), 2)
    assert next(outputs) == 0  # items 1 and 2 now hold both workers; 3 to 7 wait in the queue
    threading.Timer(0.05, gate.set).start()
    outputs.close()
    time.sleep(0.05)
    assert sorted(started) == [0, 1, 2]
