"""Benchmark the ``cdlab`` command line on one workload (or all of them).

Usage (from the repository root)::

    python3 perfbench/run.py --workload dense-window --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36

One client drives ``cdlab.cli.main`` in-process as a closed loop: each
request is a JSON file, the report goes to ``--out`` and the profile to
``--csv``, and the next request is sent only after the previous one has
returned.  Each workload runs in its own fresh process with BLAS pinned to
one thread; ``--workload all`` starts one such process per workload.

``--trace 0`` measures the end-to-end metrics with no wrapper installed.
``--trace 1`` sends a fixed number of rounds (``trace_rounds``), each one
first with the library's public functions wrapped (see ``tracing``) and then
again with the originals restored, to measure the tracing overhead, and
reports the per-layer metrics.

Every report is checked against the oracle.  The last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; a result file with provenance is written under
``perfbench/out/``.  The exit code is 0 when every report is correct, 1 when
some report disagrees with the oracle, and 2 when the library source is
missing.
"""

import os

BLAS_THREADS = 1
# must happen before numpy is imported anywhere in this process
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import collections  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / "perfbench" / "out"
sys.path.insert(0, str(ROOT))

from perfbench.oracle import Outcome, judge  # noqa: E402
from perfbench.provenance import provenance  # noqa: E402
from perfbench.workloads import MINIMAL_REQUEST, WORKLOADS, RequestStream, warmup_cases  # noqa: E402

#: Fresh-interpreter start-ups per run, spread over the timed loop; the
#: median is reported as ``setup_s``.
SETUP_REPEATS = 9
#: Traced rounds per second of ``--seconds``.  The count is fixed per workload
#: (about half of ``--seconds`` traced on the machine in the README), so span
#: counts and times are totals over the same requests on every commit.
TRACE_ROUNDS_PER_SECOND = {"dense-window": 0.23, "series-boundary": 0.3, "frame-similarity": 0.2}

_SETUP_CODE = """
import sys
sys.path.insert(0, sys.argv[1])
from cdlab import cli
sys.exit(cli.main([sys.argv[2], "--out", sys.argv[3]]))
"""


class SetupProbe:
    """Times a fresh interpreter that imports ``cdlab.cli`` and answers one request.

    The first start-up may compile byte code (users pay that once) and is not
    kept.
    """

    def __init__(self, io_dir: Path):
        req = io_dir / "setup-request.json"
        self.out = io_dir / "setup-report.json"
        req.write_text(json.dumps(MINIMAL_REQUEST))
        self.cmd = [sys.executable, "-c", _SETUP_CODE, str(SRC), str(req), str(self.out)]
        self.samples: list[float] = []
        self._start()

    def _start(self) -> float:
        self.out.unlink(missing_ok=True)
        t0 = time.perf_counter()
        proc = subprocess.run(self.cmd, capture_output=True, text=True, timeout=60)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0 or not self.out.exists():
            raise RuntimeError(f"set-up request failed ({proc.returncode}): {proc.stderr.strip()[-300:]}")
        return elapsed

    def sample(self) -> None:
        self.samples.append(self._start())


class Client:
    """Closed-loop, single client: one request file in, report and CSV files out."""

    def __init__(self, cli, io_dir: Path):
        self.cli = cli
        self.request = io_dir / "request.json"
        self.report = io_dir / "report.json"
        self.csv = io_dir / "profile.csv"

    def send(self, case) -> tuple[Outcome, float]:
        self.request.write_text(json.dumps(case.request))
        self.report.unlink(missing_ok=True)
        self.csv.unlink(missing_ok=True)
        err = io.StringIO()
        argv = [str(self.request), "--out", str(self.report), "--csv", str(self.csv), "--quiet"]
        with contextlib.redirect_stderr(err):
            t0 = time.perf_counter()
            code = self.cli.main(argv)  # looked up per call, so a traced run sees the wrapper
            latency = time.perf_counter() - t0
        report = self.report.read_text() if self.report.exists() else None
        csv = self.csv.read_text() if self.csv.exists() else None
        return Outcome(code, err.getvalue(), report, csv), latency


class Batch:
    """What one loop leaves behind: latencies, judgements and counts.

    Each outcome is judged as soon as it returns and then dropped, so the
    process keeps no report or CSV text and its peak RSS does not grow with
    the number of requests completed.
    """

    def __init__(self):
        self.latencies: list[float] = []
        self.families = collections.Counter()
        self.notes = collections.Counter()
        self.failures: list[tuple] = []  # the first few (case, problems)
        self.failed = 0
        self.judged = 0
        self.wall = 0.0

    def add(self, case, outcome: Outcome) -> None:
        j = judge(case, outcome)
        self.judged += 1
        self.notes.update(j.notes)
        if j.problems:
            self.failed += 1
            if len(self.failures) < 20:
                self.failures.append((case, j.problems))


def run_rounds(client: Client, stream: RequestStream, batch: Batch, *,
               seconds: float = math.inf, rounds: int | None = None, tracer=None, between=None) -> None:
    """Send whole rounds until ``seconds`` have passed or ``rounds`` are done.

    Judging is done between requests, and ``between(elapsed)`` is called
    before each round with the sending time so far; both are left out of the
    batch's wall time.
    """
    paused = 0.0
    done = 0
    t0 = time.perf_counter()
    while (rounds is None or done < rounds) and time.perf_counter() - t0 - paused < seconds:
        if between is not None:
            t1 = time.perf_counter()
            between(t1 - t0 - paused)
            paused += time.perf_counter() - t1
        for case in stream.next_round():
            if tracer is not None:
                tracer.request_id = len(batch.latencies)
            outcome, latency = client.send(case)
            t1 = time.perf_counter()
            batch.latencies.append(latency)
            batch.families[case.family] += 1
            batch.add(case, outcome)
            paused += time.perf_counter() - t1
        done += 1
    batch.wall += time.perf_counter() - t0 - paused


def trace_rounds(workload: str, seconds: float) -> int:
    """Rounds in a traced run: set by the workload and ``--seconds`` alone."""
    return max(1, int(seconds * TRACE_ROUNDS_PER_SECOND[workload]))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    import cdlab
    from cdlab import cli

    from perfbench import tracing

    if Path(cdlab.__file__).resolve().parent != SRC / "cdlab":
        print(f"perfbench: imported cdlab from {cdlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    batch, warm = Batch(), Batch()
    with tempfile.TemporaryDirectory(dir=OUT, prefix="io-") as tmp:
        io_dir = Path(tmp)
        client = Client(cli, io_dir)
        for case in warmup_cases(workload):
            warm.add(case, client.send(case)[0])
        if tracing.installed_wrappers():
            raise RuntimeError("span wrappers present before the run")
        if trace:
            # each round is sent traced, then again with no wrapper installed, so
            # both sides of the overhead see the same stretch of machine time
            tracer, untraced = tracing.Tracer(), Batch()
            traced_stream, untraced_stream = RequestStream(workload, seed), RequestStream(workload, seed)
            for _ in range(trace_rounds(workload, seconds)):
                with tracer.installed():
                    run_rounds(client, traced_stream, batch, rounds=1, tracer=tracer)
                leftover = tracing.installed_wrappers()
                if leftover:
                    raise RuntimeError(f"span wrappers left installed: {leftover}")
                run_rounds(client, untraced_stream, untraced, rounds=1)
        else:
            probe = SetupProbe(io_dir)

            def between(elapsed):  # spread the start-ups evenly over the loop
                if len(probe.samples) < SETUP_REPEATS and elapsed >= len(probe.samples) * seconds / SETUP_REPEATS:
                    probe.sample()

            run_rounds(client, RequestStream(workload, seed), batch, seconds=seconds, between=between)
            while len(probe.samples) < SETUP_REPEATS:
                probe.sample()
            setup = probe.samples
    checks = [warm, batch, untraced] if trace else [warm, batch]
    judged = sum(b.judged for b in checks)
    failed = sum(b.failed for b in checks)
    failures = [f for b in checks for f in b.failures]
    notes = sum((b.notes for b in checks), collections.Counter())
    requests = len(batch.latencies)

    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        metrics.update(tracer.metrics())
        traced_rps, untraced_rps = requests / batch.wall, requests / untraced.wall
        metrics["trace.requests_per_s"] = (traced_rps, "1/s")
        metrics["trace.untraced_requests_per_s"] = (untraced_rps, "1/s")
        metrics["trace.overhead_frac"] = (untraced_rps / traced_rps - 1.0, "ratio")
        tracer.write(OUT / f"{stem}-spans.npz")
    else:
        latencies = batch.latencies
        metrics["latency_p50_ms"] = (statistics.median(latencies) * 1e3, "ms")
        metrics["latency_p90_ms"] = (statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3, "ms")
        metrics["requests_per_s"] = (requests / batch.wall, "1/s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["pass_frac"] = (1.0 - failed / judged, "ratio")
    metrics_json = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}

    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "provenance": provenance(BLAS_THREADS),
        "requests": requests,
        "requests_by_family": dict(sorted(batch.families.items())),
        "latency_samples": requests,
        "setup_samples_s": None if trace else setup,
        "metrics": metrics_json,
        "notes": dict(notes),
        "failures": [{"family": c.family, "request": c.request, "problems": problems}
                     for c, problems in failures[:20]],
    }
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=2) + "\n")

    print(f"workload {workload}, seed {seed}, trace {int(trace)}: {requests} requests in {batch.wall:.2f} s, "
          f"{failed} of {judged} checks failed, BLAS threads {BLAS_THREADS}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:48s} {value:14.6g} {unit}")
    if not trace:
        print(f"  (latency percentiles over {requests} samples; setup_s over {len(setup)} start-ups)")
    for note, count in sorted(notes.items()):
        print(f"  note: {note} ({count}x)")
    for c, problems in failures[:5]:
        print(f"  FAILED {c.family}: {'; '.join(problems)[:300]}")
    result = {"correct": not failed, "attempted": judged, "failed": failed, "metrics": metrics_json}
    print(json.dumps(result))
    return 0 if not failed else 1


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in its own fresh process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    code = 0
    for workload in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode not in (0, 1) or not lines:
            return proc.returncode or 2
        result = json.loads(lines[-1])
        code = max(code, proc.returncode)
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{workload}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(combined))
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "cdlab" / "__init__.py").is_file():
        print(f"perfbench: library source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
