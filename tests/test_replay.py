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
