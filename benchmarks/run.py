"""Benchmark for gkrevival: three seeded workloads, every output checked.

    python3 benchmarks/run.py [--workload figures|queries|large_j]
                              [--seed N] [--seconds S] [--trace 0|1]

``--seconds`` is the measured time of one workload; it defaults to
``run_seconds`` of BENCHMARK.json, the length the baseline in
DESIGN.md was measured with.

Run from anywhere inside a checkout that holds ``src/gkrevival``; the
library is imported from there (PYTHONPATH), nothing is installed.  With
no ``--workload`` all three run in turn.

Each workload is a closed loop with one client: one process or child at
a time.  A run sets up (median of SETUP_REPEATS set-ups is ``setup_s``), then
makes whole passes over the seeded op list until ``--seconds`` would be
exceeded (at least one pass).  Outputs are checked after each pass, when
every op timer has stopped.  End-to-end times are scaled to reference
host speed (hostspeed.py).  ``--trace 1`` instead makes one untraced and
one traced pass and reports the per-layer metrics.

Standard output: one summary line per workload, a ``report`` line with
every figure and the provenance, and last one JSON line
``{"correct", "attempted", "failed", "metrics"}`` whose metrics are the
ones BENCHMARK.json lists (end_to_end, or per_layer under ``--trace 1``).
See DESIGN.md for why the workloads are what they are.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import select
import subprocess
import sys
from collections import Counter
from importlib import metadata
from pathlib import Path
from time import perf_counter

import checks
import tracer as tr
import workloads
from hostspeed import Speedometer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 9
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def _child_env():
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # one busy thread per child: the loop is closed with a single client
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


ENV = _child_env()


class Totals:
    """Op records of one run.  Times are scaled to reference host speed
    (hostspeed.py) when read, from the bursts recorded in `speed`."""

    def __init__(self, speed):
        self.speed = speed
        self.records = []       # (pass number, start, end)
        self.passes = 0
        self.failures = Counter()
        self.examples = {}
        self.wrong = 0          # ops whose output failed a check

    def add(self, pass_no, start, end, kind=None, detail=None):
        self.records.append((pass_no, start, end))
        self.passes = max(self.passes, pass_no + 1)
        if kind is not None:
            self.failures[kind] += 1
            self.examples.setdefault(kind, detail)
            self.wrong += kind.startswith("check:")

    @property
    def attempted(self):
        return len(self.records)

    @property
    def failed(self):
        return sum(self.failures.values())

    def latencies(self):
        """Raw and scaled latency of every op."""
        raw = [end - start for _, start, end in self.records]
        return raw, [r * self.speed.factor(s, e) for r, (_, s, e) in zip(raw, self.records)]

    def walls(self):
        """Raw and scaled wall of every pass: the sum of its op latencies."""
        raw, scaled = [0.0] * self.passes, [0.0] * self.passes
        for (pass_no, _, _), r, n in zip(self.records, *self.latencies()):
            raw[pass_no] += r
            scaled[pass_no] += n
        return raw, scaled


def _p90(values):
    """Nearest-rank 90th percentile and the number of samples above it."""
    ordered = sorted(values)
    rank = math.ceil(0.9 * len(ordered))
    return ordered[rank - 1], len(ordered) - rank


# ------------------------------------------------------------ CLI workloads

def run_cli(args, trace_prefix=None):
    """One gkrevival CLI child.  Returns (start, end, exit code or None
    on timeout, stdout, peak RSS of this child in MB).  The child is
    reaped with wait4, so its own peak RSS is known."""
    if trace_prefix is None:
        cmd = [sys.executable, "-m", "gkrevival.cli", *args]
    else:
        cmd = [sys.executable, str(HERE / "cli_shim.py"), trace_prefix, *args]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    fd, chunks, timed_out = proc.stdout.fileno(), [], False
    while True:
        left = t0 + CHILD_TIMEOUT_S - perf_counter()
        if left <= 0 or not select.select([fd], [], [], left)[0]:
            proc.kill()
            timed_out = True
            break
        chunk = os.read(fd, 1 << 16)
        if not chunk:
            break
        chunks.append(chunk)
    _, status, usage = os.wait4(proc.pid, 0)
    t1 = perf_counter()
    proc.stdout.close()
    proc.returncode = os.waitstatus_to_exitcode(status)
    code = None if timed_out else proc.returncode
    return t0, t1, code, b"".join(chunks).decode(), usage.ru_maxrss / 1024.0


def cli_args(op, fig_dir):
    kind = op["kind"]
    if kind == "figure":
        return ["figure", "--id", str(op["id"]), "--out-dir", str(fig_dir)]
    args = [kind, "--mu", repr(op["mu"])]
    if kind == "mandel":
        args += ["--j-max", repr(op["j"])]
    elif kind != "unity":
        args += ["--j", repr(op["j"])]
    if kind in ("overlap", "mandel"):
        args += ["--points", str(op["points"])]
    if kind == "unity":
        args += ["--n-max", str(op["n_max"])]
    return args


class CliWorkload:
    def __init__(self, name, seed):
        self.name = name
        self.seed = seed
        self.ops = []
        self.fig_dir = OUT / "figures"
        self.speed = Speedometer()
        self.totals = Totals(self.speed)
        self.setup_ok = True
        self.peak_rss_mb = 0.0  # largest op child

    def setup(self):
        """Generate the op list and make one untimed warm-up invocation,
        SETUP_REPEATS times; returns the raw and scaled time of each."""
        raw, scaled = [], []
        for _ in range(SETUP_REPEATS):
            self.speed.sample()
            t0 = perf_counter()
            self.ops = workloads.ops_for(self.name, self.seed)
            _, t1, code, out, _ = run_cli(checks.WARMUP_ARGS)
            self.speed.sample()
            raw.append(t1 - t0)
            scaled.append((t1 - t0) * self.speed.factor(t0, t1))
            self.setup_ok &= code == 0 and not checks.check_warmup(out)
        return raw, scaled

    def one_pass(self, trace_dir=None):
        """One pass, a reference burst before each op and after the last;
        returns the elapsed time."""
        shutil.rmtree(self.fig_dir, ignore_errors=True)
        pass_no = self.totals.passes
        done = []
        begin = perf_counter()
        for k, op in enumerate(self.ops):
            prefix = None if trace_dir is None else str(trace_dir / f"op{k}")
            self.speed.sample()
            done.append((op,) + run_cli(cli_args(op, self.fig_dir), prefix))
        self.speed.sample()
        elapsed = perf_counter() - begin
        problems = {}
        if self.name == "figures":
            problems = checks.check_figures(self.fig_dir, [op["id"] for op in self.ops])
        for op, start, end, code, stdout, rss_mb in done:
            self.peak_rss_mb = max(self.peak_rss_mb, rss_mb)
            what = " ".join(cli_args(op, "."))
            if code is None:
                kind = "timeout"
            elif code != 0:
                kind = f"exit_{code}"
            else:
                bad = problems[op["id"]] if op["kind"] == "figure" else checks.check_query(op, stdout)
                kind = "check:" + ",".join(bad) if bad else None
            self.totals.add(pass_no, start, end, kind, what)
        return elapsed


def cli_traced(work):
    """One untraced and one traced pass (passes 0 and 1); returns the
    per-layer aggregates of the traced one."""
    trace_dir = OUT / "trace" / work.name
    shutil.rmtree(trace_dir, ignore_errors=True)
    trace_dir.mkdir(parents=True)
    work.one_pass()
    work.one_pass(trace_dir)
    agg = {}
    for k in range(len(work.ops)):
        try:
            with open(trace_dir / f"op{k}.json", encoding="utf-8") as fh:
                tr.merge(agg, json.load(fh))
        except OSError:
            pass        # the op failed before writing; it is counted as failed
    return agg


def startup_breakdown():
    """Median total and scipy import self time of a fresh
    `python -X importtime -m gkrevival.cli timescales`."""
    totals, scipys = [], []
    for _ in range(IMPORTTIME_REPEATS):
        r = subprocess.run([sys.executable, "-X", "importtime", "-m", "gkrevival.cli",
                            *checks.WARMUP_ARGS], cwd=ROOT, env=ENV, capture_output=True,
                           text=True, timeout=CHILD_TIMEOUT_S)
        total = scipy = 0
        for line in r.stderr.splitlines():
            if not line.startswith("import time:"):
                continue
            fields = line[len("import time:"):].split("|")
            if len(fields) != 3 or not fields[0].strip().isdigit():
                continue        # the column header
            us, name = int(fields[0]), fields[2].strip()
            total += us
            if name == "scipy" or name.startswith("scipy."):
                scipy += us
        totals.append(total / 1e6)
        scipys.append(scipy / 1e6)
    return statistics.median(totals), statistics.median(scipys)


# ------------------------------------------------------------------ large_j

def _start_worker(seed, limit, speed):
    """A fresh worker, timed from spawn to its ready line between two
    reference bursts.  Returns (process, hello line, raw s, scaled s)."""
    cmd = [sys.executable, str(HERE / "large_j.py"), str(seed)]
    if limit is not None:
        cmd.append(str(limit))
    speed.sample()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, text=True)
    hello = proc.stdout.readline()
    t1 = perf_counter()
    speed.sample()
    return proc, hello, t1 - t0, (t1 - t0) * speed.factor(t0, t1)


def _stop(proc, job_line=""):
    try:
        out, _ = proc.communicate(job_line, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("large_j worker timed out")
    return out


def large_j_run(seed, seconds, trace, limit=None):
    """Returns (ops, raw set-up times, scaled set-up times, worker result)."""
    ops = workloads.large_j_ops(seed)[:limit]
    speed = Speedometer()
    raw, scaled = [], []
    for i in range(SETUP_REPEATS):
        proc, hello, r, n = _start_worker(seed, limit, speed)
        raw.append(r)
        scaled.append(n)
        if not hello or json.loads(hello)["digest"] != workloads.digest(ops):
            _stop(proc)
            raise BenchError("large_j worker did not start or built another op list")
        if i < SETUP_REPEATS - 1:
            _stop(proc)
    if trace:
        (OUT / "trace").mkdir(parents=True, exist_ok=True)
        job = {"mode": "trace", "spans": str(OUT / "trace" / "large_j")}
    else:
        job = {"mode": "timed", "seconds": seconds}
    out = _stop(proc, json.dumps(job) + "\n")
    if proc.returncode != 0 or not out.strip():
        raise BenchError(f"large_j worker exited with code {proc.returncode}")
    return ops, raw, scaled, json.loads(out.splitlines()[-1])


# ------------------------------------------------------------------ report

def _git():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        if head.returncode != 0:
            return None, None
        status = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                                cwd=ROOT, env=env, capture_output=True, text=True, timeout=30)
        return head.stdout.strip(), bool(status.stdout.strip())
    except (OSError, subprocess.TimeoutExpired):
        return None, None


def _version(pkg):
    try:
        return metadata.version(pkg)
    except metadata.PackageNotFoundError:
        return None


def provenance(seed, ops):
    sha, dirty = _git()
    return {
        "git_sha": sha, "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"),
        "nproc": os.cpu_count(), "seed": seed,
        "ops_per_pass": len(ops), "op_digest": workloads.digest(ops),
    }


def measure(workload, seed, seconds, trace):
    """Run one workload and return its report: every metric value, the
    failures and the provenance.  peak_rss_mb of a CLI workload is the
    largest peak RSS of its op children."""
    if workload == "large_j":
        ops, raw_setups, setups, res = large_j_run(seed, seconds, trace)
        worker_speed = Speedometer()
        worker_speed.ends, worker_speed.refs = res["speed"]
        totals = Totals(worker_speed)
        for pass_no, start, end, kind, detail in res["records"]:
            totals.add(pass_no, start, end, kind, detail)
        peak_rss_mb = res["peak_rss_mb"]
        setup_ok = True
        agg = res.get("trace")
        known_failure = res["known_failure"]
    else:
        work = CliWorkload(workload, seed)
        raw_setups, setups = work.setup()
        ops = work.ops
        if trace:
            agg = cli_traced(work)
        else:
            workloads.timed_passes(work.one_pass, seconds)
        totals, setup_ok, peak_rss_mb = work.totals, work.setup_ok, work.peak_rss_mb
        known_failure = None
        shutil.rmtree(work.fig_dir, ignore_errors=True)

    raw, scaled = totals.latencies()
    raw_walls, walls = totals.walls()
    values = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(walls),
        "op_p50_ms": statistics.median(scaled) * 1e3,
        "peak_rss_mb": peak_rss_mb,
        "ops_failed_frac": totals.failed / totals.attempted,
    }
    p90, beyond = _p90(scaled)
    if beyond >= 10:
        values["op_p90_ms"] = p90 * 1e3
    if trace:
        values.update(tr.layer_metrics(agg))
        values["startup.import_s"], values["startup.scipy_import_s"] = startup_breakdown()
        values["trace.overhead_frac"] = walls[1] / walls[0] - 1.0
        values["trace.spans"] = agg.get("spans", 0)
    unscaled = {
        "setup_s": statistics.median(raw_setups),
        "wall_s": statistics.median(raw_walls),
        "op_p50_ms": statistics.median(raw) * 1e3,
        "reference_ms": totals.speed.median_ref_s() * 1e3,
    }
    return {
        "workload": workload, "trace": bool(trace),
        "correct": setup_ok and totals.wrong == 0,
        "attempted": totals.attempted, "failed": totals.failed,
        "failures": dict(totals.failures), "failure_examples": totals.examples,
        "passes": totals.passes, "values": values, "unscaled": unscaled,
        "setup_samples_s": setups, "pass_walls_s": walls,
        "known_failure": known_failure,
        "provenance": provenance(seed, ops),
    }


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def result_line(report, spec):
    listed = spec["per_layer"] if report["trace"] else spec["end_to_end"]
    missing = [m["name"] for m in listed if m["name"] not in report["values"]]
    if missing:
        raise BenchError(f"metrics not measured: {missing}")
    return {
        "correct": report["correct"],
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {m["name"]: {"value": report["values"][m["name"]], "unit": m["unit"]}
                    for m in listed},
    }


_UNITS = {"setup_s": "s", "wall_s": "s", "op_p50_ms": "ms", "op_p90_ms": "ms",
          "ops_failed_frac": "frac", "peak_rss_mb": "MB"}


def summary_line(report):
    v, raw = report["values"], report["unscaled"]
    parts = [f"{k}={v[k]:.6g} {u}" for k, u in _UNITS.items() if k in v]
    if "op_p90_ms" not in v:
        parts.insert(3, "op_p90_ms=undefined (fewer than 10 samples above p90)")
    return (f"{report['workload']}: " + "  ".join(parts)
            + f"  [{report['failed']}/{report['attempted']} failed, {report['passes']} passes,"
            f" correct={report['correct']}; unscaled: setup_s={raw['setup_s']:.6g} s"
            f" wall_s={raw['wall_s']:.6g} s op_p50_ms={raw['op_p50_ms']:.6g} ms,"
            f" reference kernel {raw['reference_ms']:.4g} ms]")


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ns = ap.parse_args(argv)
    if not (ROOT / "src" / "gkrevival" / "__init__.py").is_file():
        print(f"error: no gkrevival sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = _spec()
        seconds = spec["run_seconds"] if ns.seconds is None else ns.seconds
        for workload in [ns.workload] if ns.workload else workloads.WORKLOADS:
            report = measure(workload, ns.seed, seconds, ns.trace)
            line = result_line(report, spec)
            print(summary_line(report))
            print("report " + json.dumps(report))
            print(json.dumps(line), flush=True)
    except (BenchError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
