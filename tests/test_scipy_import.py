"""No repro process loads scipy.

numpy is the package's only runtime dependency: the analytic trace
model evaluates ``erfc``/``erfcinv`` through the numpy port in
:mod:`repro.traces.special`, and scipy serves the tests alone, as the
oracle of that port and of the PHY's log-sum-exp.  Loading scipy would
cost ~0.3 s and ~25 MB in every process.  The test process already
holds scipy (other tests import it), so every check runs in a fresh
interpreter, and a pooled campaign run goes further: it runs with a
``scipy`` on its path that refuses to import, so no worker can load it
either.
"""

import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _env(*paths):
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (*paths, _SRC, os.environ.get("PYTHONPATH")) if p))


def _loads_scipy(code, cwd):
    """Whether a fresh interpreter holds scipy after running ``code``."""
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300,
                          env=_env(), cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()[-1] == "True"


@pytest.mark.parametrize("code", [
    "import repro",
    "import repro.campaigns\n"
    "from repro.experiments import api\n"
    "api.load_all()",
    "from repro.experiments import api\n"
    "api.run('fig07', payload_bits=104, frames_per_point=1)",
    "from repro.cli import main\n"
    "assert main(['thresholds']) == 0",
    "from repro.experiments import api\n"
    "api.run('video', phy_backend='full', workload='generated',"
    " video_duration=0.1)",
    "from repro.experiments import api\n"
    "api.run('video', workload='generated', video_duration=0.1)",
], ids=["import", "load_all", "fig07", "thresholds", "video-full",
        "video-surrogate"])
def test_phy_only_processes_never_load_scipy(code, tmp_path):
    assert not _loads_scipy(code, str(tmp_path))


@pytest.mark.parametrize("code", [
    "from repro.phy.rates import RATE_TABLE\n"
    "from repro.traces.analytic import coded_ber\n"
    "coded_ber(RATE_TABLE[0], 10.0)",
    # The cell's rate-selection accuracy reads its first uplink's
    # per-rate columns.
    "from repro.experiments import api\n"
    "api.run('cell', duration=0.05)",
    "from repro.experiments import api\n"
    "api.run('fig01', duration=0.2)",
    "from repro.cli import main\n"
    "assert main(['trace', '--duration', '0.05', 'trace.npz']) == 0",
], ids=["coded_ber", "cell", "fig01", "trace"])
def test_trace_driven_processes_never_load_scipy(code, tmp_path):
    assert not _loads_scipy(code, str(tmp_path))


def test_a_pooled_campaign_runs_where_scipy_cannot_load(tmp_path):
    """Its forked workers run cells, which evaluate the analytic
    model; a worker that imported scipy would fail its scenario."""
    stub = tmp_path / "stub" / "scipy"
    stub.mkdir(parents=True)
    (stub / "__init__.py").write_text(
        "raise ImportError('scipy is not a runtime dependency')\n")
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "campaign", "run", "smoke-tiny",
         "--jobs", "2", "--cache-dir", str(tmp_path / "cache")],
        capture_output=True, text=True, timeout=600,
        env=_env(str(tmp_path / "stub")), cwd=str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "8/8" in proc.stdout
