import json
import subprocess
import sys
from pathlib import Path

REPLAY = Path(__file__).with_name("replay.py")


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
