"""The runnable examples, run as a user would: a script in a subprocess."""

import os
import subprocess
import sys

from repro.faults import ENV_VAR as FAULTS_ENV_VAR

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
SRC_DIR = os.path.join(REPO_ROOT, "src")


def test_service_client_long_polls_dedups_and_replays_from_cache(tmp_path):
    env = os.environ.copy()
    env["PYTHONPATH"] = SRC_DIR + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONIOENCODING"] = "utf-8"
    env.pop(FAULTS_ENV_VAR, None)
    script = os.path.join(REPO_ROOT, "examples", "service_client.py")
    completed = subprocess.run(
        [sys.executable, script, "tiny", str(tmp_path / "cache")],
        capture_output=True, encoding="utf-8", env=env, cwd=tmp_path, timeout=300,
    )
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert "resubmission: deduped=True" in completed.stdout
    assert " 0 computed — pure cache replay" in completed.stdout
