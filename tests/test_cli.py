import collections
import contextlib
import copy
import io
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc
import warnings
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from cdlab import blockops, cli, rkhs, rules, shifts, similarity
from cdlab.errors import DomainError, TruncationError
from malformed import CASCADE, CONTRACTION, EXPLICIT, MALFORMED, ONE, SHIFT, SZEGO1, TWO, UNIT_NORM, VALID
from oracles import block_to_json, operator_to_json, sequence_to_json, with_prefix
from replay import FLOAT_RANGE


def write_request(tmp_path, payload, name="req.json"):
    p = tmp_path / name
    p.write_text(json.dumps(payload))
    return str(p)


def run_main(tmp_path, payload, extra=()):
    return cli.main([write_request(tmp_path, payload), *extra])


CURVATURE_REQ = {
    "command": "curvature",
    "kernel": {"preset": "szego", "power": 2},
    "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12},
}

SIMDIAG_KERNELS_REQ = {
    "command": "simdiag",
    "source": {"kind": "kernels", "kernels": [{"prefix": [0.75], "tail": {"p": [1, 1]}},
                                              {"preset": "szego", "power": 1},
                                              {"preset": "szego", "power": 2}]},
    "kernel": {"preset": "szego", "power": 2}, "multiplicity": 2,
    "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12},
}

SIMDIAG_BLOCK_REQ = {
    "command": "simdiag",
    "source": {"kind": "block", "operator": {"N": 128, "grid": [
        [{"kind": "shift", "weights": {"preset": "szego", "power": 2}}, {"kind": "diagonal", "values": [0.4, -0.2]}],
        [None, {"kind": "shift", "weights": {"preset": "hardy"}}]]}},
    "kernel": {"preset": "szego", "power": 2}, "multiplicity": 2,
    "radii": {"kind": "explicit", "values": [0.2, 0.5, 0.8]},
}

#: The verdict keys of a diagnostic's witness (``witness_residual`` first) and its CSV columns.
WITNESS_KEYS = ("witness_residual", "witness_tolerance", "witness_passed", "phi_sup", "subharmonic_ok")
WITNESS_COLUMNS = ("laplacian_phi", "trace_curv_diff", "residual")

#: ``b_n = (n+1)^2/(n+2)``: a tail whose denominator is not constant takes the chunked sweep.
RATIONAL_KERNEL = {"tail": {"p": [1, 2, 1], "q": [2, 1]}}
RATIONAL_CURVATURE_REQ = {**CURVATURE_REQ, "kernel": RATIONAL_KERNEL}
RATIONAL_SIMDIAG_REQ = {**SIMDIAG_KERNELS_REQ, "source": {"kind": "kernels", "kernels": [
    {"prefix": [0.75], "tail": {"p": [1, 1], "q": [1, 1]}}, RATIONAL_KERNEL]}, "kernel": RATIONAL_KERNEL}

#: ``b_n = (2^32 + n)/(3 + 2^32 n)``: the coefficients of its forward ratio pass int64.
WIDE_TAIL_REQ = {"command": "curvature", "kernel": {"tail": {"p": [4294967296, 1], "q": [3, 4294967296]}},
                 "radii": {"kind": "explicit", "values": [0.5, 0.9]}}

RANK_ONE_REQ = {"command": "reduce", "detector": "rank-one-defect", "order": 2,
                "operator": {"N": 48, "grid": [[{"kind": "shift", "weights": {"preset": "szego", "power": 2}}]]}}

HYPER_REQ = {"command": "hypercontract", "shift": {"preset": "szego", "power": 2}, "order": 2, "N": 64}

COUNTEREXAMPLE_REQ = {
    "command": "hypercontract",
    "shift": {"prefix": [math.sqrt(13 / 25)], "tail": {"p": [1, 1], "q": [2, 1]}},
    "order": 2,
    "N": 64,
}

#: ``(id, request, path, field, value)``: setting ``field`` to ``value`` in the object at ``path`` of a valid
#: request gives a field no form admits.  These are fields that once set a tolerance, the finite-difference
#: step, a tail offset, a seed that seeded nothing, or output paths that duplicated ``--out`` and ``--csv``,
#: each on a form that admitted it (``curvature`` never admitted ``tol``), and ``shields`` given both horizon
#: sources.
DELETED_FIELDS = [
    ("curvature-tol", CURVATURE_REQ, (), "tol", 1e-8),
    ("hypercontract-tol", HYPER_REQ, (), "tol", 1e-8),
    ("contraction-tol", CONTRACTION, (), "tol", 1e-8),
    ("cascade-tol", CASCADE, (), "tol", 1e-8),
    ("rank-one-defect-tol", RANK_ONE_REQ, (), "tol", 1e-8),
    ("unit-norm-block-tol", UNIT_NORM, (), "tol", 1e-8),
    ("finite-difference-step", {**CURVATURE_REQ, "method": "finite-difference"}, (), "step", 1e-3),
    ("weight-tail-offset", COUNTEREXAMPLE_REQ, ("shift", "tail"), "offset", 1),
    ("kernel-tail-offset", RATIONAL_CURVATURE_REQ, ("kernel", "tail"), "offset", 0),
    ("seed", HYPER_REQ, (), "seed", 7),
    ("out", HYPER_REQ, (), "out", "from_body"),
    ("csv", CURVATURE_REQ, (), "csv", "from_body"),
    ("shields-horizon-and-horizons", {"command": "shields", "a": SZEGO1, "b": {"preset": "hardy"},
                                      "horizons": [16, 32, 64]}, (), "horizon", 16),
]


#: ``(id, request, path, field)``: the integer field ``field`` of the object at ``path``, one case per integer field
#: of each form that reads it.  JSON Schema counts an integral float such as ``64.0`` as an integer.
INTEGER_FIELDS = [
    ("hypercontract-N", HYPER_REQ, (), "N"),
    ("hypercontract-order", HYPER_REQ, (), "order"),
    ("weights-power", HYPER_REQ, ("shift",), "power"),
    ("weights-tail-p", COUNTEREXAMPLE_REQ, ("shift", "tail"), "p"),
    ("weights-tail-q", COUNTEREXAMPLE_REQ, ("shift", "tail"), "q"),
    ("shields-horizon", {"command": "shields", "a": SZEGO1, "b": {"preset": "hardy"}, "horizon": 16}, (), "horizon"),
    ("shields-horizons", {"command": "shields", "a": SZEGO1, "b": {"preset": "hardy"}, "horizons": [16, 32, 64]},
     (), "horizons"),
    ("kernel-power", CURVATURE_REQ, ("kernel",), "power"),
    ("kernel-tail-p", WIDE_TAIL_REQ, ("kernel", "tail"), "p"),
    ("kernel-tail-q", WIDE_TAIL_REQ, ("kernel", "tail"), "q"),
    ("k_min", CURVATURE_REQ, ("radii",), "k_min"),
    ("k_max", CURVATURE_REQ, ("radii",), "k_max"),
    ("count", {**CURVATURE_REQ, "radii": {"kind": "linear", "start": 0.1, "stop": 0.9, "count": 5}}, ("radii",), "count"),
    ("contraction-N", {"command": "contraction", "N": 16, "operator": {"grid": CONTRACTION["operator"]["grid"]}},
     (), "N"),
    ("operator-N", CONTRACTION, ("operator",), "N"),
    ("cascade-order", CASCADE, (), "order"),
    ("rank-one-order", RANK_ONE_REQ, (), "order"),
    ("unit-norm-N", {**UNIT_NORM, "N": 16, "operator": {"grid": UNIT_NORM["operator"]["grid"]}}, (), "N"),
    ("block-source-N", {**SIMDIAG_BLOCK_REQ, "N": 128, "source": {
        "kind": "block", "operator": {"grid": SIMDIAG_BLOCK_REQ["source"]["operator"]["grid"]}}}, (), "N"),
    ("multiplicity", SIMDIAG_KERNELS_REQ, (), "multiplicity"),
    ("ex-commutator-N", {"command": "ex-commutator", "x_diag": [0.5, -0.25], "N": 160}, (), "N"),
]


def _integer_fields(schema) -> set:
    """The property names that ``schema`` types as integers or as arrays of integers, anywhere in it."""
    found = set()
    if isinstance(schema, dict):
        for name, sub in schema.get("properties", {}).items():
            if isinstance(sub, dict) and "integer" in (sub.get("type"), sub.get("items", {}).get("type")):
                found.add(name)
        for value in schema.values():
            found |= _integer_fields(value)
    elif isinstance(schema, list):
        for value in schema:
            found |= _integer_fields(value)
    return found


class TestParseRequest:
    def test_curvature_example(self):
        req = cli.parse_request(json.dumps(CURVATURE_REQ))
        assert req.command == "curvature"

    def test_hypercontract_example(self):
        assert cli.parse_request(json.dumps(HYPER_REQ)).command == "hypercontract"

    def test_counterexample_request(self):
        req = cli.parse_request(json.dumps(COUNTEREXAMPLE_REQ))
        w = cli.sequence_from_json(req.payload["shift"], shifts.WeightSequence)
        assert w.weights(2)[0] == pytest.approx(math.sqrt(13 / 25))
        assert w.weights(2)[1] == pytest.approx(math.sqrt(2 / 3))

    def test_unknown_field_rejected(self):
        with pytest.raises(cli.SchemaViolation) as e:
            cli.parse_request(json.dumps({**HYPER_REQ, "bogus": 1}))
        assert "bogus" in str(e.value)

    def test_unknown_command(self):
        with pytest.raises(cli.SchemaViolation):
            cli.parse_request(json.dumps({"command": "flurbitz"}))

    def test_range_limits(self):
        with pytest.raises(cli.SchemaViolation) as e:
            cli.parse_request(json.dumps({**HYPER_REQ, "N": 4097}))
        assert "$.N" in str(e.value)
        with pytest.raises(cli.SchemaViolation):
            cli.parse_request(json.dumps({**HYPER_REQ, "tol": 1e-15}))

    def test_malformed_json(self):
        with pytest.raises(cli.SchemaViolation):
            cli.parse_request("{not json")

    def test_semantic_layer_is_separate(self):
        req = cli.parse_request(
            json.dumps({"command": "hypercontract", "shift": {"prefix": [-1.0]}, "order": 1})
        )
        with pytest.raises(DomainError):
            cli.sequence_from_json(req.payload["shift"], shifts.WeightSequence)


class TestExitCodes:
    def test_ok(self, tmp_path, capsys):
        assert run_main(tmp_path, HYPER_REQ) == 0
        assert json.loads(capsys.readouterr().out)["passed"] is True

    def test_mathematical_failure_still_exits_zero(self, tmp_path, capsys):
        assert run_main(tmp_path, COUNTEREXAMPLE_REQ) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["passed"] is False
        assert rep["first_failure"] == 2

    def test_schema_violation_is_two(self, tmp_path, capsys):
        assert run_main(tmp_path, {**HYPER_REQ, "bogus": 1}) == 2
        assert "schema violation" in capsys.readouterr().err

    def test_semantic_violation_is_three(self, tmp_path, capsys):
        bad = {"command": "hypercontract", "shift": {"prefix": [-0.5], "tail": {"p": [1]}}, "order": 1}
        assert run_main(tmp_path, bad) == 3

    @pytest.mark.parametrize("doc, path, field, value", [case[1:] for case in DELETED_FIELDS],
                             ids=[case[0] for case in DELETED_FIELDS])
    def test_deleted_field_is_two(self, tmp_path, capsys, monkeypatch, doc, path, field, value):
        # the field is rejected by name and nothing is written where a request body once named a path; the
        # request without it runs, and --out and --csv write its report and profile
        monkeypatch.chdir(tmp_path)
        bad = copy.deepcopy(doc)
        target = bad
        for key in path:
            target = target[key]
        target[field] = value
        assert run_main(tmp_path, bad) == 2
        assert f"('{field}' was unexpected)" in capsys.readouterr().err
        assert not (tmp_path / "from_body").exists()
        out, csv = tmp_path / "report.json", tmp_path / "profile.csv"
        assert run_main(tmp_path, doc, ("--out", str(out), "--csv", str(csv))) == 0
        assert json.loads(out.read_text())["command"] == doc["command"]
        assert csv.exists() == (doc["command"] == "curvature")

    def test_integral_float_cases_cover_every_integer_field(self):
        assert {field for _, _, _, field in INTEGER_FIELDS} == _integer_fields(cli._SCHEMAS)

    @pytest.mark.parametrize("doc, path, field", [case[1:] for case in INTEGER_FIELDS],
                             ids=[case[0] for case in INTEGER_FIELDS])
    def test_integral_float_gives_the_integer_form(self, tmp_path, capsys, doc, path, field):
        # such a request passes the schema: it once exited 1 with a TypeError traceback, or echoed the float
        floated = copy.deepcopy(doc)
        target = floated
        for key in path:
            target = target[key]
        value = target[field]
        target[field] = [float(v) for v in value] if isinstance(value, list) else float(value)
        written = []
        for i, payload in enumerate((doc, floated)):
            out, csv = tmp_path / f"report{i}.json", tmp_path / f"profile{i}.csv"
            assert run_main(tmp_path, payload, ("--out", str(out), "--csv", str(csv))) == 0, capsys.readouterr().err
            written.append((out.read_bytes(), csv.read_bytes() if csv.exists() else None))
        assert written[0] == written[1]

    def test_tail_negative_past_the_window_is_three(self, tmp_path, capsys):
        # (2i - 60)/(2i - 41) is nonpositive at i = 21..30; at N = 16 no weight reaches that range
        req = {"command": "hypercontract", "shift": {"tail": {"p": [-60, 2], "q": [-41, 2]}}, "order": 1, "N": 16}
        assert run_main(tmp_path, req) == 3
        assert "nonpositive at index 21" in capsys.readouterr().err

    def test_ex_commutator_sums_no_series(self):
        # the model is the rank-2 Hardy closed form -2/(1 - r^2)^2: no kernel is built and no series summed
        req = cli.parse_request(json.dumps({"command": "ex-commutator", "x_diag": [0.5], "N": 160}))
        with mock.patch.object(rkhs, "szego_power_coeffs", wraps=rkhs.szego_power_coeffs) as build, \
                mock.patch.object(rkhs, "_series_sums", wraps=rkhs._series_sums) as sums:
            report, _ = cli.run(req)
        assert build.call_count == 0 and sums.call_count == 0
        assert report["witness_passed"] is True

    def test_series_requests_evaluate_rules_on_index_arrays_only(self):
        simdiag = {"command": "simdiag",
                   "source": {"kind": "kernels", "kernels": [{"prefix": [0.75], "tail": {"p": [1, 1]}},
                                                             {"preset": "szego", "power": 1}]},
                   "kernel": {"preset": "szego", "power": 2}, "multiplicity": 1,
                   "radii": {"kind": "boundary_dyadic", "k_min": 3, "k_max": 12}}
        evaluate = rules.RationalRule.__call__

        def arrays_only(rule, i):
            if np.ndim(i) == 0:
                raise AssertionError(f"rule evaluated at the single index {i}")
            return evaluate(rule, i)

        with mock.patch.object(rules.RationalRule, "__call__", arrays_only):
            for doc in (CURVATURE_REQ, simdiag):
                report, csv_text = cli.run(cli.parse_request(json.dumps(doc)))
                assert csv_text

    @pytest.mark.parametrize("doc", [CONTRACTION, UNIT_NORM, CASCADE,
                                     {**CASCADE, "operator": {**TWO, "grid": [[SHIFT, None], TWO["grid"][1]]}}],
                             ids=["contraction", "unit-norm", "cascade", "split-cascade"])
    def test_block_requests_materialize_each_shift_block_once(self, doc):
        # the window norms and the assembly read one set of entries per block
        shift_blocks = sum(blk is not None and blk["kind"] == "shift" for row in doc["operator"]["grid"] for blk in row)
        counter = mock.Mock(wraps=shifts.materialize)
        with mock.patch.object(blockops, "materialize", counter):
            report, _ = cli.run(cli.parse_request(json.dumps(doc)))
        assert counter.call_count == shift_blocks == 2
        assert report

    def test_linear_kernel_tail_accepted(self, tmp_path, capsys):
        # b_n = n + 100 has radius of convergence exactly 1; the kernel
        # validator once rejected it from a sampled coefficient ratio.
        req = {"command": "curvature", "kernel": {"tail": {"p": [100, 1]}},
               "radii": {"kind": "explicit", "values": [0.5]}}
        assert run_main(tmp_path, req) == 0
        rep = json.loads(capsys.readouterr().out)
        # g(t) = sum (n + 100) t^n = t/(1-t)^2 + 100/(1-t), curvature -(t (log g)'' + (log g)')
        t = 0.25
        g = t / (1 - t) ** 2 + 100 / (1 - t)
        g1 = 101 / (1 - t) ** 2 + 2 * t / (1 - t) ** 3
        g2 = 204 / (1 - t) ** 3 + 6 * t / (1 - t) ** 4
        exact = -(t * (g2 * g - g1 ** 2) / g ** 2 + g1 / g)
        assert rep["min_value"] == pytest.approx(exact, rel=1e-12)

    def test_tail_whose_forward_ratio_passes_int64_against_mpmath(self, tmp_path):
        # the turning points of the forward ratio once reached the root finder as an object array (a traceback)
        csv = tmp_path / "profile.csv"
        assert run_main(tmp_path, WIDE_TAIL_REQ, ("--quiet", "--csv", str(csv))) == 0
        got = [float(row.split(",")[1]) for row in csv.read_text().splitlines()[1:]]
        with mpmath.workdps(40):
            b = lambda n: (2 ** 32 + n) / mpmath.mpf(3 + 2 ** 32 * n)
            for r, value in zip(WIDE_TAIL_REQ["radii"]["values"], got):
                t = mpmath.mpf(r) ** 2
                g = [mpmath.fsum(b(n) * mpmath.ff(n, m) * t ** (n - m) for n in range(m, 700)) for m in range(3)]
                exact = -(t * (g[2] / g[0] - (g[1] / g[0]) ** 2) + g[1] / g[0])
                assert abs(value - exact) <= 1e-14 * abs(exact), (r, value, exact)

    def test_numerical_failure_is_four(self, tmp_path, capsys):
        # truncation too small for the requested evaluation radius
        req = {"command": "ex-commutator", "x_diag": [0.5], "N": 32,
               "radii": {"kind": "explicit", "values": [0.94]}}
        assert run_main(tmp_path, req) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_overflowed_defect_is_four(self, tmp_path, capsys):
        # I - T*T overflows to -inf; it must not read as an asymmetric matrix (exit 3)
        block = {"kind": "matrix", "real": [[1e155] * 8 for _ in range(8)]}
        req = {"command": "contraction", "operator": {"grid": [[block]], "N": 8}}
        assert run_main(tmp_path, req) == 4
        assert "numerical failure" in capsys.readouterr().err

    def test_linalg_error_is_four(self, tmp_path, capsys):
        # the rank-one detector's SVD of an overflowed defect does not converge
        block = {"kind": "matrix",
                 "real": [[1e200 if (i + j) % 3 == 0 else 0.0 for j in range(8)] for i in range(8)]}
        req = {"command": "reduce", "detector": "rank-one-defect", "order": 1,
               "operator": {"grid": [[block]], "N": 8}}
        assert run_main(tmp_path, req) == 4
        assert "numerical failure" in capsys.readouterr().err

    @pytest.mark.parametrize("doc, message", FLOAT_RANGE, ids=["power-overflow", "power-underflow",
                                                              "block-power-overflow", "det-overflow"])
    def test_model_power_or_det_h_out_of_float_range_is_four(self, tmp_path, capsys, doc, message):
        # the three model powers once crashed with an OverflowError or ZeroDivisionError traceback (exit 1), the
        # block source's before its frame solve; the infinite det h exited 3 as a nonpositive ratio.  stderr holds
        # the one message line: no numpy overflow warning comes before it
        with mock.patch.object(similarity, "frame_solver", side_effect=AssertionError("frame solve")), \
                warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(tmp_path, doc) == 4
        err = capsys.readouterr().err
        assert err.startswith("cdlab: numerical failure: ") and err.endswith(message + "\n") and err.count("\n") == 1

    @pytest.mark.parametrize("method", ["series", "finite-difference"])
    def test_radius_beyond_analytic_cap_is_three(self, tmp_path, capsys, method):
        # rejected before any series is summed (each such radius once cost up to 8M terms)
        req = {**CURVATURE_REQ, "radii": {"kind": "explicit", "values": [0.5, 1 - 2.0 ** -20]}, "method": method}
        with mock.patch.object(rkhs, "_series_sums", side_effect=AssertionError("series summed")):
            assert run_main(tmp_path, req) == 3
        assert "analytic radius cap" in capsys.readouterr().err

    def test_kernel_simdiag_radius_beyond_cap_is_three(self, tmp_path, capsys):
        # every radius is checked before the one series pass of the request
        req = {**SIMDIAG_KERNELS_REQ, "radii": {"kind": "explicit", "values": [0.5, 0.9, 1 - 2.0 ** -20]}}
        with mock.patch.object(rkhs, "_series_sums", side_effect=AssertionError("series summed")):
            assert run_main(tmp_path, req) == 3
        assert "radii must lie in" in capsys.readouterr().err

    @pytest.mark.parametrize("k_min,k_max", [(4, 12), (2, 12), (3, 13)])
    def test_kernel_simdiag_dyadic_grid_off_3_to_12_is_three(self, tmp_path, k_min, k_max):
        # the boundedness verdicts need the grid k = 3..12 or a prefix of it; k = 13 passes the analytic cap
        req = {**SIMDIAG_KERNELS_REQ, "radii": {"kind": "boundary_dyadic", "k_min": k_min, "k_max": k_max}}
        assert run_main(tmp_path, req) == 3

    @pytest.mark.parametrize("doc", [RATIONAL_CURVATURE_REQ, {**RATIONAL_CURVATURE_REQ, "method": "finite-difference"},
                                     RATIONAL_SIMDIAG_REQ])
    def test_uncertified_series_is_four(self, tmp_path, capsys, doc):
        # two chunks cannot certify the tails near r = 1 - 2^-12: the sweep raises (tails whose
        # denominator is not constant take the sweep; the closed form has no tail to certify)
        with mock.patch.object(rkhs, "_MAX_TERMS", 2 * rkhs._CHUNK):
            assert run_main(tmp_path, doc) == 4
            err = capsys.readouterr().err
            assert "did not certify" in err
            t = float(re.search(r"at t=(\S+)$", err.strip()).group(1))
            kernels = [cli.sequence_from_json(k, rkhs.DiagonalKernel)
                       for k in [doc["kernel"], *doc.get("source", {}).get("kernels", [])]]
            for K in kernels:
                try:
                    rkhs._series_sums(K, t, 2)
                except TruncationError:
                    break
            else:
                pytest.fail(f"t={t} certifies for every kernel of the request")

    def test_one_coefficient_chunk_per_kernel_per_request(self):
        # the source repeats the model kernel: each (kernel, chunk start) is computed once when every row takes
        # the sweep (these kernels take the closed form, which certifies nothing with a zero tolerance);
        # ex-commutator sums no series at all
        coeffs_slice = rkhs.DiagonalKernel.coeffs_slice
        for doc in (SIMDIAG_KERNELS_REQ, SIMDIAG_BLOCK_REQ, {**CURVATURE_REQ, "method": "finite-difference"},
                    {"command": "ex-commutator", "x_diag": [0.5, 0.25]}):
            computed = collections.Counter()

            def counting(K, lo, hi):
                computed[K, lo] += 1
                return coeffs_slice(K, lo, hi)

            with mock.patch.object(rkhs.DiagonalKernel, "coeffs_slice", counting), \
                    mock.patch.object(rkhs, "_CLOSED_REL", 0.0):
                cli.run(cli.parse_request(json.dumps(doc)))
            if doc["command"] == "ex-commutator":
                assert not computed
            else:
                assert computed and max(computed.values()) == 1, doc["command"]

    @pytest.mark.parametrize("doc", [
        CURVATURE_REQ, {**CURVATURE_REQ, "method": "finite-difference"}, SIMDIAG_KERNELS_REQ, SIMDIAG_BLOCK_REQ,
        {**SIMDIAG_KERNELS_REQ, "radii": {"kind": "explicit", "values": [0.0, 0.5, 1 - 2.0 ** -12]}},
        {**CURVATURE_REQ, "kernel": {"prefix": [1.7, 0.25], "tail": {"p": [0, 1, 1], "q": [2]}},
         "radii": {"kind": "explicit", "values": [0.0, 1e-160, 0.3, 1 - 2.0 ** -12]}},
        {"command": "ex-commutator", "x_diag": [0.5, 0.25]}])
    def test_polynomial_tails_never_reach_the_sweep(self, doc):
        # every kernel of these requests has a constant tail denominator: the closed form certifies every row
        with mock.patch.object(rkhs, "_swept_sums", side_effect=AssertionError("chunked sweep")):
            cli.run(cli.parse_request(json.dumps(doc)))

    def test_series_requests_make_no_one_row_call(self):
        # the scalar wrappers stay for callers outside the CLI; every command sums through its request's pass
        docs = (CURVATURE_REQ, {**CURVATURE_REQ, "method": "finite-difference"}, SIMDIAG_KERNELS_REQ,
                SIMDIAG_BLOCK_REQ, {"command": "ex-commutator", "x_diag": [0.5, 0.25]})
        scalar = AssertionError("one-row series call")
        with mock.patch.object(rkhs, "metric_eval", side_effect=scalar), \
                mock.patch.object(rkhs, "curvature_series", side_effect=scalar), \
                mock.patch.object(rkhs, "curvature_fd", side_effect=scalar):
            for doc in docs:
                cli.run(cli.parse_request(json.dumps(doc)))

    @pytest.mark.parametrize("doc", [SIMDIAG_KERNELS_REQ, SIMDIAG_BLOCK_REQ,
                                     {"command": "ex-commutator", "x_diag": [0.5, 0.25]}],
                             ids=["simdiag-kernels", "simdiag-block", "ex-commutator"])
    def test_one_series_sum_per_distinct_kernel(self, doc):
        # the source kernels, the model kernel and every witness row of a request share one series pass;
        # ex-commutator's model is a closed form and sums none
        calls = collections.Counter()
        series_sums = rkhs._series_sums

        def counting(K, t, max_order):
            calls[K] += 1
            return series_sums(K, t, max_order)

        with mock.patch.object(rkhs, "_series_sums", counting):
            cli.run(cli.parse_request(json.dumps(doc)))
        if doc["command"] == "simdiag":
            distinct = len({json.dumps(k, sort_keys=True) for k in [doc["kernel"], *doc["source"].get("kernels", ())]})
        else:
            distinct = 0
        assert len(calls) == distinct and set(calls.values()) <= {1}, doc["command"]

    @pytest.mark.parametrize("doc", [SIMDIAG_KERNELS_REQ, SIMDIAG_BLOCK_REQ,
                                     {"command": "ex-commutator", "x_diag": [0.5]}],
                             ids=["simdiag-kernels", "simdiag-block", "ex-commutator"])
    def test_unsorted_radii_are_three_before_any_work(self, tmp_path, capsys, doc):
        # checked with the cap, before the series pass and the frame solves
        req = {**doc, "radii": {"kind": "explicit", "values": [0.2, 0.5, 0.3]}}
        work = AssertionError("series pass or frame solve")
        with mock.patch.object(blockops, "frame_solver", side_effect=work), \
                mock.patch.object(similarity, "frame_solver", side_effect=work), \
                mock.patch.object(rkhs, "series_pass", side_effect=work), \
                mock.patch.object(similarity, "series_pass", side_effect=work):
            assert run_main(tmp_path, req) == 3
        assert "radii must be strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [1.0, 1.5, -1.0, math.nan])
    def test_rank_one_radii_outside_the_disk_are_three(self, tmp_path, capsys, bad):
        # rejected before the defect is formed; they once exited 4 ("section tail", "SVD did not converge")
        req = {**RANK_ONE_REQ, "radii": {"kind": "explicit", "values": [0.5, bad]}}
        with mock.patch.object(blockops, "defect_blocks", side_effect=AssertionError("defect formed")):
            assert run_main(tmp_path, req) == 3
        assert "inside the unit disk" in capsys.readouterr().err

    @pytest.mark.parametrize("order", [7, 8, 12], ids=["N-1", "N", "N+4"])
    def test_rank_one_order_leaving_no_window_is_three(self, tmp_path, capsys, order):
        # a window of N - order < 2 rows has no second singular value; once an IndexError, or a verdict
        # read from a negative-length slice; rejected before any defect is formed
        req = {"command": "reduce", "detector": "rank-one-defect", "order": order,
               "operator": {"N": 8, "grid": [[{"kind": "shift", "weights": {"preset": "hardy"}}]]}}
        with mock.patch.object(blockops, "defect_blocks", side_effect=AssertionError("defect formed")):
            assert run_main(tmp_path, req) == 3
        assert f"window too small: N=8, order {order}" in capsys.readouterr().err

    def test_rank_one_negative_radii_inside_the_disk(self, tmp_path, capsys):
        req = {**RANK_ONE_REQ, "radii": {"kind": "explicit", "values": [-0.5, 0.3]}}
        assert run_main(tmp_path, req) == 0
        assert json.loads(capsys.readouterr().out)["reducible"] is True

    @pytest.mark.parametrize("doc,message", [
        ({"command": "ex-commutator", "x_diag": [0.5]}, "radii must lie in [0, 0.95]"),
        (SIMDIAG_BLOCK_REQ, "radii must lie in [0, 0.95]"),
        (SIMDIAG_KERNELS_REQ, "radii must lie in [0, 0.99975"),
    ], ids=["ex-commutator", "simdiag-block", "simdiag-kernels"])
    def test_nan_radius_meets_the_cap(self, tmp_path, capsys, doc, message):
        req = {**doc, "radii": {"kind": "explicit", "values": [0.5, math.nan]}}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_main(tmp_path, req) == 3
        assert message in capsys.readouterr().err

    def test_ex_commutator_checks_its_radii_before_any_frame_solve(self, tmp_path, capsys):
        req = {"command": "ex-commutator", "x_diag": [0.5, 0.25], "radii": {"kind": "explicit", "values": [-0.25, 0.5]}}
        with mock.patch.object(similarity, "frame_solver", side_effect=AssertionError("frame solved")):
            assert run_main(tmp_path, req) == 3
        assert "radii must lie in [0, 0.95]" in capsys.readouterr().err

    def test_io_failure_is_five(self, tmp_path):
        assert run_main(tmp_path, HYPER_REQ, ("--out", str(tmp_path / "no" / "dir" / "x.json"))) == 5

    def test_unreadable_request_is_five(self, capsys):
        assert cli.main([os.devnull + "/nope.json"]) == 5


class TestOutputs:
    def test_out_and_csv_files(self, tmp_path):
        out = tmp_path / "report.json"
        csv = tmp_path / "profile.csv"
        code = run_main(tmp_path, CURVATURE_REQ, ("--out", str(out), "--csv", str(csv)))
        assert code == 0
        rep = json.loads(out.read_text())
        assert rep["closed_form_match"] is True
        lines = csv.read_text().strip().splitlines()
        assert lines[0] == "r,value,method"
        assert len(lines) == 11
        r, v, method = lines[1].split(",")
        assert method == "series"
        assert float(v) == pytest.approx(-2 / (1 - float(r) ** 2) ** 2, rel=1e-10)

    def test_reduce_report(self, tmp_path, capsys):
        req = {
            "command": "reduce",
            "detector": "unit-norm-block",
            "operator": {
                "grid": [
                    [{"kind": "shift", "weights": {"preset": "szego", "power": 1}}, None],
                    [None, {"kind": "shift", "weights": {"preset": "hardy"}, "scale": 0.5}],
                ],
                "N": 16,
            },
        }
        assert run_main(tmp_path, req) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["reducible"] is True
        assert rep["detector"] == "unit-norm-block"

    def test_shields_report(self, tmp_path, capsys):
        req = {
            "command": "shields",
            "a": {"preset": "hardy"},
            "b": {"preset": "szego", "power": 2},
            "horizon": 128,
        }
        assert run_main(tmp_path, req) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdict"] in ("similar-consistent", "not-similar")
        assert len(rep["sup_ratio_at_horizons"]) == 3

    def test_simdiag_block_source(self, tmp_path, capsys):
        req = {
            "command": "simdiag",
            "source": {
                "kind": "block",
                "operator": {
                    "grid": [
                        [{"kind": "shift", "weights": {"preset": "hardy"}}, None],
                        [None, {"kind": "shift", "weights": {"preset": "hardy"}}],
                    ],
                    "N": 128,
                },
            },
            "kernel": {"preset": "szego", "power": 1},
            "multiplicity": 2,
            "radii": {"kind": "linear", "start": 0.1, "stop": 0.9, "count": 9},
        }
        assert run_main(tmp_path, req) == 0
        rep = json.loads(capsys.readouterr().out)
        assert rep["verdicts"]["min_ratio"] == pytest.approx(1.0, rel=1e-9)

    @staticmethod
    def _simdiag(doc: dict) -> tuple[dict, dict]:
        """The verdict block of a ``simdiag`` request and its CSV, column by column."""
        report, csv_text = cli.run(cli.parse_request(json.dumps(doc)))
        header, *rows = csv_text.strip().splitlines()
        columns = zip(*(map(float, row.split(",")) for row in rows))
        return report["verdicts"], dict(zip(header.split(","), map(np.array, columns)))

    def test_simdiag_kernel_source_report_carries_its_witness(self):
        # boundedness_verdict's replace keeps the witness that kernel_source_diagnostic attached
        verdicts, csv = self._simdiag(SIMDIAG_KERNELS_REQ)
        assert isinstance(verdicts["upper_bound_ok"], bool)
        assert isinstance(verdicts["boundary_limit_positive"], bool)
        assert set(WITNESS_KEYS) <= set(verdicts)
        assert all(verdicts[k] is not None for k in WITNESS_KEYS)
        assert len(csv["r"]) == 10
        for column in WITNESS_COLUMNS:
            assert np.all(np.isfinite(csv[column])), column

    def test_simdiag_block_source_report_has_no_witness(self):
        verdicts, csv = self._simdiag(SIMDIAG_BLOCK_REQ)
        assert verdicts["witness_residual"] is None
        assert not set(WITNESS_KEYS[1:]) & set(verdicts)
        for column in WITNESS_COLUMNS:
            assert np.all(np.isnan(csv[column])), column

    def test_quiet_suppresses_stdout(self, tmp_path, capsys):
        assert run_main(tmp_path, HYPER_REQ, ("--quiet",)) == 0
        assert capsys.readouterr().out == ""


class TestRequestContract:
    @pytest.mark.parametrize("doc,code,fragments", [case[1:] for case in MALFORMED],
                             ids=[case[0] for case in MALFORMED])
    def test_malformed_request_names_its_field(self, tmp_path, capsys, doc, code, fragments):
        assert run_main(tmp_path, doc) == code
        err = capsys.readouterr().err
        assert all(fragment in err for fragment in fragments), err

    def test_schema_message_is_an_excerpt(self, tmp_path, capsys):
        # jsonschema quotes the whole instance: 4097 radii once made a 20 kB line
        doc = {"command": "curvature", "kernel": SZEGO1, "radii": {"kind": "explicit", "values": [0.5] * 4097}}
        assert run_main(tmp_path, doc) == 2
        err = capsys.readouterr().err
        assert len(err.encode()) < 1024 and err.count("\n") == 1, err
        assert err.startswith("cdlab: schema violation: $.radii.values: ") and err.rstrip().endswith("is too long")

    @pytest.mark.parametrize("doc", VALID, ids=[f"{i}-{doc['command']}" for i, doc in enumerate(VALID)])
    def test_valid_forms_run(self, tmp_path, capsys, doc):
        assert run_main(tmp_path, doc, ("--quiet",)) == 0, capsys.readouterr().err


#: Fields some form admits, each with a value of its own type, to add where another form is expected.
OTHER_FIELDS = {"weights": SZEGO1, "values": [0.3], "scale": 0.5, "real": [[0.0]], "imag": [[0.0]], "k_min": 3,
                "start": 0.1, "stop": 0.5, "count": 2, "order": 2, "radii": EXPLICIT, "bound": 10.0, "N": 16,
                "power": 2, "prefix": [0.5], "tail": {"p": [1, 1]}, "operator": ONE,
                "kernels": [SZEGO1], "preset": "hardy"}
TAGS = {"kind": ["boundary_dyadic", "linear", "explicit", "shift", "diagonal", "zero", "matrix", "kernels", "block"],
        "detector": ["unit-norm-block", "cascade", "rank-one-defect"], "preset": ["szego", "hardy", "bergman"]}


def _objects(value):
    """Every JSON object inside ``value``, ``value`` included."""
    if isinstance(value, dict):
        yield value
        value = list(value.values())
    if isinstance(value, list):
        for item in value:
            yield from _objects(item)


def _mutate(doc: dict, data) -> dict:
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        objects = list(_objects(doc))
        op = data.draw(st.sampled_from(["drop", "add", "retag", "null"]))
        if op == "drop":
            keys = [(o, k) for o in objects for k in o]
            if keys:
                obj, key = data.draw(st.sampled_from(keys))
                del obj[key]
        elif op == "add":
            obj = data.draw(st.sampled_from(objects))
            key = data.draw(st.sampled_from(sorted(OTHER_FIELDS)))
            obj[key] = copy.deepcopy(OTHER_FIELDS[key])
        elif op == "retag":
            tags = [(o, k) for o in objects for k in TAGS if k in o]
            if tags:
                obj, key = data.draw(st.sampled_from(tags))
                obj[key] = data.draw(st.sampled_from(TAGS[key]))
        else:
            cells = [(row, j) for o in objects for row in o.get("grid", ()) for j in range(len(row))]
            if cells:
                row, j = data.draw(st.sampled_from(cells))
                row[j] = None
    return doc


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(VALID), st.data())
@example(WIDE_TAIL_REQ, None)
def test_mutated_requests_exit_with_a_documented_code(doc, data):
    # structural mutations of valid small requests: a field dropped, another kind's field added, a
    # discriminator changed, a block nulled; each must map to an exit code, never a traceback.
    # An explicit example (data None) runs unmutated.
    text = json.dumps(doc if data is None else _mutate(doc, data))
    with mock.patch("sys.stdin", io.StringIO(text)), contextlib.redirect_stderr(io.StringIO()), \
            warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert cli.main(["-", "--quiet"]) in {0, 2, 3, 4, 5}


class TestDeterminism:
    @pytest.mark.parametrize("payload", [CURVATURE_REQ, HYPER_REQ, COUNTEREXAMPLE_REQ])
    def test_byte_identical_reports(self, payload):
        req = cli.parse_request(json.dumps(payload))
        first = cli.render_report(cli.run(req)[0])
        second = cli.render_report(cli.run(req)[0])
        assert first == second

    def test_byte_identical_csv(self):
        req = cli.parse_request(json.dumps(CURVATURE_REQ))
        assert cli.run(req)[1] == cli.run(req)[1]

    @pytest.mark.parametrize("payload", [CURVATURE_REQ, {"command": "ex-commutator", "x_diag": [0.5, -0.25], "N": 160}])
    def test_two_main_calls_write_the_same_bytes(self, tmp_path, capsys, payload):
        # main parses with one parser built at import; a rejected command line between the calls leaves it as it was
        path = write_request(tmp_path, payload)
        written = []
        for i in range(2):
            out, csv = tmp_path / f"report{i}.json", tmp_path / f"profile{i}.csv"
            assert cli.main([path, "--out", str(out), "--csv", str(csv), "--quiet"]) == 0
            written.append((out.read_bytes(), csv.read_bytes()))
            with pytest.raises(SystemExit):
                cli.main([path, "--bogus"])
        assert written[0] == written[1]
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


class TestDefaultOrder:
    def test_request_without_n_runs_at_the_default(self, monkeypatch):
        # the same request gives the same report in every environment: no variable sets the order
        req = cli.parse_request(json.dumps({k: v for k, v in HYPER_REQ.items() if k != "N"}))
        assert cli.run(req)[0]["N"] == 64
        monkeypatch.setenv("CDLAB_DEFAULT_N", "32")
        assert cli.run(req)[0]["N"] == 64


BLOCK_ORDER_1024 = [
    {"command": "contraction", "N": 1024, "operator": {"grid": [
        [{"kind": "shift", "weights": {"preset": "szego", "power": 2}}, {"kind": "diagonal", "values": [0.3]}],
        [None, {"kind": "shift", "weights": {"preset": "szego", "power": 1}}]]}},
    {"command": "reduce", "detector": "cascade", "order": 2, "operator": {"N": 1024, "grid": [
        [{"kind": "shift", "weights": {"preset": "szego", "power": 2}}, {"kind": "diagonal", "values": [0.0, 0.3]}],
        [None, {"kind": "shift", "weights": {"preset": "szego", "power": 2}}]]}},
]


@pytest.mark.parametrize("payload", BLOCK_ORDER_1024, ids=["contraction", "cascade"])
def test_graded_block_requests_stay_small(payload):
    # a dense 2048 x 2048 complex matrix alone is 64 MiB
    assert _peak_bytes(payload) < 16 * 2 ** 20


def test_ex_commutator_at_the_largest_order_stays_small():
    # the coupling X M - M X has len(x) nonzero entries; as a dense 4096 x 4096 matrix it alone was 256 MiB
    assert _peak_bytes({"command": "ex-commutator", "x_diag": [0.5, -0.25, 0.7], "N": 4096}) < 16 * 2 ** 20


def test_shields_at_the_largest_horizons_stays_small():
    # a scan to 2^22 holds about eight arrays of 4M floats (224 MiB); past the cutoff the sums are closed-form
    payload = {"command": "shields", "a": {"preset": "hardy"}, "b": {"preset": "bergman"},
               "horizons": [2 ** 20, 2 ** 21, 2 ** 22]}
    assert _peak_bytes(payload) < 2 ** 20


def _peak_bytes(payload: dict) -> int:
    """``tracemalloc`` peak of one request through ``cli.run``."""
    req = cli.parse_request(json.dumps(payload))
    tracemalloc.start()
    try:
        cli.run(req)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_console_script_runs():
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cdlab.cli"],
        input=json.dumps(HYPER_REQ),
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout)["passed"] is True


def test_start_up_loads_no_scipy():
    # scipy would add about half a second and 26 MiB to every start-up, jsonschema and the packages it imports
    # about 70 ms and 5 MiB: the request schema is checked by cli's own compiled validator
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    code = ("import sys, cdlab.cli; code = cdlab.cli.main(['-', '--quiet']); "
            "print(code, sorted(m for m in sys.modules "
            "if m.split('.')[0] in ('scipy', 'jsonschema', 'referencing', 'rpds', 'attrs', 'attr')))")
    proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(HYPER_REQ), capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "0 []"


class TestSchemaRoundTrip:
    def test_weight_presets(self):
        from jsonschema import Draft202012Validator

        validator = Draft202012Validator(cli._WEIGHTS_SCHEMA)
        for w in (shifts.hardy(), shifts.bergman(), shifts.szego(4)):
            doc = sequence_to_json(w)
            validator.validate(doc)
            back = cli.sequence_from_json(doc, shifts.WeightSequence)
            assert back.weights(16) == pytest.approx(w.weights(16))

    def test_weight_prefix_tail(self):
        w = with_prefix(shifts.szego(2), [math.sqrt(13 / 25)])
        doc = sequence_to_json(w)
        assert doc["prefix"] == [pytest.approx(math.sqrt(13 / 25))]
        back = cli.sequence_from_json(doc, shifts.WeightSequence)
        assert back.weights(8) == pytest.approx(w.weights(8))

    def test_kernel_round_trip(self):
        for K in (rkhs.szego_power_coeffs(1), rkhs.szego_power_coeffs(3)):
            back = cli.sequence_from_json(sequence_to_json(K), rkhs.DiagonalKernel)
            assert back.coeffs_slice(0, 12) == pytest.approx(K.coeffs_slice(0, 12))

    def test_operator_round_trip(self):
        from cdlab import blockops
        from jsonschema import Draft202012Validator

        E = np.zeros((8, 8))
        E[0, 0] = 0.25
        B = blockops.BlockOperator(
            ((blockops.ShiftBlock(shifts.hardy(), 0.5), blockops.MatrixBlock(E)),
             (None, blockops.ShiftBlock(shifts.bergman()))),
            order=8,
        )
        doc = operator_to_json(B)
        Draft202012Validator(cli._OPERATOR_SCHEMA).validate(doc)
        back = cli.operator_from_json(doc, 8)
        assert np.allclose(blockops.assemble(back).matrix, blockops.assemble(B).matrix)

    def test_complex_data_rejected(self):
        from cdlab import blockops
        from cdlab.errors import DomainError as DE

        with pytest.raises(DE):
            block_to_json(blockops.DiagonalBlock((1j,)))
