import importlib
import inspect
import json
import subprocess
import sys
from pathlib import Path

REPLAY = Path(__file__).with_name("replay.py")

#: The functions and methods of ``src/cdlab/*.py`` that no replayed request enters, each with the reason it stays.
UNREACHED = {
    "matrix_core.psd_check": "a span of perfbench/tracing.py, which the benchmark names",
    "shifts.defect_operator": "a span of perfbench/tracing.py, which the benchmark names",
    "shifts.DefectBlocks.dense": "the dense matrix behind the shifts.defect_operator span",
    "rkhs.metric_eval": "a span of perfbench/tracing.py, which the benchmark names",
    "rkhs.curvature_series": "a span of perfbench/tracing.py, which the benchmark names",
    "rkhs.curvature_fd": "a span of perfbench/tracing.py, which the benchmark names",
    "blockops.ex48_closed_form": "perfbench/tests checks the benchmark oracle's contraction answers against it",
    "cli.main": "the console entry; the replay calls parse_request, run and render_report in-process",
}


def unreached_functions() -> list[str]:
    """``module.function`` and ``module.Class.method`` of each function in ``src/cdlab/*.py`` that replaying
    every request never enters.  The imports are traced too, since the schema is built at import: call it in a
    fresh interpreter."""
    entered = set()
    sys.setprofile(lambda frame, event, arg: entered.add(frame.f_code) if event == "call" else None)
    try:
        import replay

        for _, request in replay.labelled_requests(False):
            replay.answer(request)
    finally:
        sys.setprofile(None)
    import cdlab

    defined = {}
    for path in sorted(Path(cdlab.__file__).parent.glob("*.py")):
        name = path.stem
        module = importlib.import_module("cdlab" if name == "__init__" else f"cdlab.{name}")
        for attr, obj in vars(module).items():
            if inspect.isfunction(obj) and obj.__module__ == module.__name__:
                defined[obj.__code__] = f"{name}.{attr}"
            elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                for meth, member in vars(obj).items():
                    fn = getattr(member, "fget", None) or getattr(member, "func", None) or member  # property, cached
                    if inspect.isfunction(fn) and fn.__code__.co_filename == module.__file__:
                        defined[fn.__code__] = f"{name}.{attr}.{meth}"
    return sorted(label for code, label in defined.items() if code not in entered)


def test_replay_prints_one_digest_per_warmup_request():
    proc = subprocess.run([sys.executable, str(REPLAY), "--warmup-only"],
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    # five dense-window, three series-boundary and two frame-similarity warm-up cases
    assert [(w, int(i)) for w, i, _, _ in lines] == (
        [("dense-window", i) for i in range(5)] + [("series-boundary", i) for i in range(3)]
        + [("frame-similarity", i) for i in range(2)])
    assert all(outcome == "ok" and len(sha) == 64 for _, _, outcome, sha in lines)


def test_compare_tells_round_off_from_other_changes(tmp_path, capsys):
    import replay

    request = {"command": "curvature", "kernel": {"preset": "szego", "power": 2},
               "radii": {"kind": "explicit", "values": [0.5, 0.9]}}
    _, _, outcome, sha, numbers = replay.line("w 0", request, True).split(" ", 4)
    values = json.loads(numbers)
    assert outcome == "ok" and len(values) > 4

    def compare(moved, new_sha=sha):
        before, after = tmp_path / "before.txt", tmp_path / "after.txt"
        before.write_text(f"w 0 {outcome} {sha} {numbers}\n")
        after.write_text(f"w 0 {outcome} {new_sha} {json.dumps(moved)}\n")
        code = replay.compare(str(before), str(after))
        return code, capsys.readouterr().out.split()

    assert compare(values) == (0, [])
    i = max(range(len(values)), key=lambda k: abs(values[k]))
    code, out = compare(values[:i] + [values[i] * (1 + 4e-16)] + values[i + 1:])
    assert code == 0 and out[:3] == ["w", "0", "floats"]
    code, out = compare(values[:i] + [values[i] * (1 + 1e-9)] + values[i + 1:])
    assert code == 1 and out[:3] == ["w", "0", "beyond"]
    code, out = compare(values, "0" * 64)
    assert code == 1 and out == ["w", "0", "structure"]


def test_every_src_function_is_reached_by_a_replayed_request():
    # a function that no command reaches belongs in tests/ as an oracle, or on the list with its reason
    script = "import json, test_replay; print(json.dumps(test_replay.unreached_functions()))"
    proc = subprocess.run([sys.executable, "-c", script], cwd=REPLAY.parent, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == sorted(UNREACHED)
