"""The library reads of the large_j benchmark worker, run in-process: every
op of seed 1, on the worker's revival grid, passes the worker's own
invariant checks (``benchmarks/large_j.py``, imported as it is)."""

from pathlib import Path

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def test_large_j_ops_pass(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    import large_j
    import workloads

    grid = workloads.revival_grid()
    ops = workloads.large_j_ops(1)
    failures = []
    for op in ops:
        _, _, kind, detail = large_j.run_op(op, grid)
        if kind is not None:
            failures.append((op, kind, detail))
    assert len(ops) == 60
    assert failures == []
