"""Every demo script runs to completion, and the demos that check what
they print exit non-zero when a check fails."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ledgersim import ReplayVerdict, Simulation

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.stem for d in DEMOS])
def test_demo_exits_0(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    env.pop("SIM_SEED", None)
    proc = subprocess.run([sys.executable, str(demo)], capture_output=True,
                          text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def _load(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "demos" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_partial_synchrony_fails_a_window_after_gst_without_growth(monkeypatch, capsys):
    """The profile of a height stalled from t=200 on, as split locks once
    left the second panel."""
    demo = _load("partial_synchrony")
    assert demo.grows_after([6, 12, 15, 17, 23, 31, 39, 46, 52, 59], 0)
    assert demo.grows_after([0, 1, 1, 1, 1, 5, 13, 20, 24, 34], 500)
    assert not demo.grows_after([0, 1, 1, 1, 1, 1, 1, 1, 1, 1], 500)
    monkeypatch.setattr(demo, "growth_profile", lambda sim: [0, 1] + [1] * 8)
    assert demo.main() == 1
    assert "CHECK FAILED" in capsys.readouterr().out


def test_byzantine_faults_fails_when_nothing_finalizes(monkeypatch, capsys):
    """With no run, the experiments within F finalize nothing."""
    demo = _load("byzantine_faults")
    monkeypatch.setattr(Simulation, "run", lambda sim, until=None: None)
    assert demo.main() == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("CHECK FAILED")]
    assert len(failed) == 3 and not any("beyond F" in line for line in failed)


def test_replay_audit_fails_when_the_audit_passes_everything(monkeypatch, capsys):
    """An audit that says OK to both tampered dumps fails their two checks."""
    demo = _load("replay_audit")
    monkeypatch.setattr(demo, "replay_chain", lambda genesis, dump: ReplayVerdict(ok=True))
    assert demo.main() == 1
    failed = [line for line in capsys.readouterr().out.splitlines()
              if line.startswith("CHECK FAILED")]
    assert len(failed) == 2
