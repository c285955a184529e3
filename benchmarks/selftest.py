"""Self-test of the benchmark's seeding and exact work counters.

    python3 benchmarks/selftest.py

Checks that
  * each op list is a pure function of the seed, and another seed gives
    another list;
  * two traced runs of the same ops give identical exact counters
    (tracer.EXACT), on a short slice of every workload;
  * the bypass predictions hold: queries make no revival calls, and
    large_j does no CLI work.
Prints one line per check and exits 1 if any fails.  Takes about a minute.
"""

import sys

import run
import tracer as tr
import workloads


def _slice(workload, seed):
    ops = workloads.ops_for(workload, seed)
    if workload == "figures":
        return [op for op in ops if op["id"] in (1, 3)]
    if workload == "queries":         # first op of each kind
        return [next(op for op in ops if op["kind"] == kind) for kind in workloads.QUERY_KINDS]
    return ops[:8]


def traced_counters(workload, seed):
    if workload == "large_j":
        _, _, _, res = run.large_j_run(seed, 0.0, trace=True, limit=8)
        agg = res["trace"]
    else:
        work = run.CliWorkload(workload, seed)
        work.ops = _slice(workload, seed)
        agg = run.cli_traced(work)
        if work.totals.failed:
            raise run.BenchError(f"{workload}: {dict(work.totals.failures)}")
    metrics = tr.layer_metrics(agg)
    return {name: metrics[name] for name in tr.EXACT}


def main():
    failures = 0

    def report(ok, what):
        nonlocal failures
        failures += not ok
        print(("ok   " if ok else "FAIL ") + what)

    for workload in workloads.WORKLOADS:
        a, b, c = (workloads.digest(workloads.ops_for(workload, s)) for s in (1, 1, 2))
        report(a == b, f"{workload}: same seed, same op list")
        report(a != c, f"{workload}: seed 2 changes the op list")

    counters = {}
    for workload in workloads.WORKLOADS:
        first, second = traced_counters(workload, 7), traced_counters(workload, 7)
        counters[workload] = first
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        report(not diff, f"{workload}: exact counters repeat {diff or ''}")
        report(any(first.values()), f"{workload}: counters are not all zero")

    report(counters["queries"]["revival.calls"] == 0, "queries: no revival calls")
    report(counters["queries"]["measure.integrand_evals"] > 0, "queries: reaches measure")
    cli_work = {k: v for k, v in counters["large_j"].items() if k.startswith("cli.")}
    report(not any(cli_work.values()), f"large_j: no CLI work {cli_work}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
