"""Smoke run of tools/pool_digest.py on 32-point pools; no timing."""

import re
import subprocess
import sys
from pathlib import Path

DIGEST = Path(__file__).resolve().parent.parent / "tools" / "pool_digest.py"


def digest_lines(*args):
    run = subprocess.run([sys.executable, str(DIGEST), "--size", "32", *args],
                         capture_output=True, text=True, timeout=300, check=True)
    return run.stdout.splitlines()


def test_pool_digest_prints_one_line_per_pool():
    lines = digest_lines("--seeds", "1", "2")
    assert [line.split(":")[0] for line in lines] == [
        "peaked_shells seed 1", "peaked_shells seed 2", "cli_session seed 1", "cli_session seed 2"]
    assert all(re.fullmatch(r"[a-z_]+ seed \d: 32 points sha256 [0-9a-f]{64}", line) for line in lines)
    assert len({line.split()[-1] for line in lines}) == 4
    # the same pool run again, alone, gives the same digest
    assert digest_lines("--workloads", "cli_session", "--seeds", "2") == lines[3:]
