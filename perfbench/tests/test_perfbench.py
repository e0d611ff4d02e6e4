"""Tests of the benchmark itself: generator, oracle and tracing."""

import json
import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

from cdlab import blockops, cli
from perfbench import tracing
from perfbench.oracle import Outcome, coupling_is_contraction, judge
from perfbench.workloads import (
    WORKLOADS,
    RequestStream,
    contraction_coupling,
    section_tail_ratio,
    warmup_cases,
)


def _rounds(workload, seed, count=2):
    stream = RequestStream(workload, seed)
    return [case for _ in range(count) for case in stream.next_round()]


def _run(case, tmp_path):
    req, out, csv = tmp_path / "req.json", tmp_path / "out.json", tmp_path / "out.csv"
    for p in (out, csv):
        p.unlink(missing_ok=True)
    req.write_text(json.dumps(case.request))
    code = cli.main([str(req), "--out", str(out), "--csv", str(csv), "--quiet"])
    return Outcome(code, "", out.read_text() if out.exists() else None, csv.read_text() if csv.exists() else None)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_same_requests(workload):
    first, second = _rounds(workload, 7), _rounds(workload, 7)
    assert [(c.family, c.request, c.expect) for c in first] == [(c.family, c.request, c.expect) for c in second]
    assert [c.request for c in first] != [c.request for c in _rounds(workload, 8)]


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_valid_requests_pass_the_schema(workload):
    cases = _rounds(workload, 3, count=5)
    assert sum(c.exit_code != 0 for c in cases) == 5  # one invalid request per round of twenty
    assert len(cases) == 100
    for case in cases:
        if case.exit_code == 2:
            with pytest.raises(cli.SchemaViolation):
                cli.parse_request(json.dumps(case.request))
        else:
            cli.parse_request(json.dumps(case.request))


def test_self_time_on_nested_and_recursive_spans():
    # A[0,10] -> B[1,4] -> C[2,3];  A -> A'[5,9] -> A''[6,8]  (recursion)
    parents = np.array([-1, 0, 1, 0, 3])
    starts = np.array([0.0, 1.0, 2.0, 5.0, 6.0])
    ends = np.array([10.0, 4.0, 3.0, 9.0, 8.0])
    assert tracing.self_times(parents, starts, ends).tolist() == [3.0, 2.0, 1.0, 2.0, 2.0]


def _bindings():
    """Every module binding and class attribute that the tracer may replace."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name == "cdlab" or name.startswith("cdlab."):
            for key, value in vars(module).items():
                out[(name, key)] = value
                if isinstance(value, type):
                    for attr, v in vars(value).items():
                        out[(name, key, attr)] = v
    return out


def test_traced_run_restores_every_original(tmp_path):
    before = _bindings()
    tracer = tracing.Tracer()
    case = warmup_cases("dense-window")[0]
    with tracer.installed():
        assert hasattr(cli.main, "__perfbench_span__")
        assert tracing.installed_wrappers()
        tracer.request_id = 0
        assert not judge(case, _run(case, tmp_path)).problems
    after = _bindings()
    assert before.keys() == after.keys()
    assert all(after[k] is v for k, v in before.items())
    assert tracing.installed_wrappers() == []
    metrics = tracer.metrics()
    assert metrics["cli.main.calls"] == (1, "count")
    assert metrics["cli.main.self_s"][0] > 0.0
    assert set(metrics) >= {f"{s}.{kind}" for s in tracing.SPAN_NAMES for kind in ("calls", "self_s", "errors")}


def test_traced_counts_are_the_same_on_every_run(tmp_path):
    from perfbench.run import Batch, Client, run_rounds

    counts = []
    for _ in range(2):
        tracer, batch = tracing.Tracer(), Batch()
        with tracer.installed():
            run_rounds(Client(cli, tmp_path), RequestStream("series-boundary", 5), batch, rounds=1, tracer=tracer)
        assert batch.judged == len(batch.latencies) == 20 and batch.failed == 0
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit != "s"})
    assert counts[0] == counts[1]
    assert counts[0]["rules.RationalRule.__call__.calls"] > 0


def test_oracle_flags_flipped_verdict_and_wrong_exit_code(tmp_path):
    case = next(c for c in _rounds("dense-window", 1) if c.family == "hyper-counterexample")
    outcome = _run(case, tmp_path)
    assert not judge(case, outcome).problems
    report = json.loads(outcome.report)
    report["verdicts"][1] = not report["verdicts"][1]
    report["passed"] = not report["passed"]
    flipped = Outcome(0, "", json.dumps(report), None)
    assert judge(case, flipped).problems
    assert judge(case, Outcome(3, "", None, None)).problems
    invalid = next(c for c in _rounds("dense-window", 1, count=4) if c.exit_code)
    assert judge(invalid, Outcome(0, "", outcome.report, None)).problems


def test_coupling_oracle_matches_library_closed_form():
    rng = random.Random(5)
    for _ in range(200):
        case = contraction_coupling(rng, 32)
        e = case.expect
        a = [math.sqrt((i + 1) / (i + e["pa"])) for i in range(31)]
        b = [math.sqrt((i + 1) / (i + e["pb"])) for i in range(31)]
        assert coupling_is_contraction(e["pa"], e["pb"], e["d"]) == e["contraction"]
        assert blockops.ex48_closed_form(a, b, e["d"]) == e["contraction"]


def test_frame_truncation_requests_are_far_from_the_certification_level():
    for case in _rounds("frame-similarity", 2, count=10):
        if case.family == "invalid" and case.exit_code == 4:
            (r,) = case.request["radii"]["values"]
            assert section_tail_ratio(1, case.request["N"], r) > 1e-3


def test_benchmark_json_lists_every_traced_metric():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in bench["per_layer"]}
    emitted = {name: unit for name, (_, unit) in tracing.Tracer().metrics().items()}
    emitted.update({"trace.requests_per_s": "1/s", "trace.untraced_requests_per_s": "1/s",
                    "trace.overhead_frac": "ratio"})
    assert listed == emitted
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
