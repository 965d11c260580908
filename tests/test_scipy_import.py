"""Which processes load scipy.

``scipy.special`` serves only the analytic trace model, and
:mod:`repro.traces.analytic` imports it the first time the model is
evaluated, which a generated trace does on the first read of its
per-rate columns.  A process that reads none (the bit-exact PHY
figures, ``thresholds``, ``list``, ``video`` on either PHY backend)
therefore never loads scipy, which saves ~0.3 s and ~26 MB at
start-up.  The test process already holds scipy (other tests import
it), so every check runs in a fresh interpreter.
"""

import os
import subprocess
import sys

import pytest

_SRC = os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src")


def _loads_scipy(code, cwd):
    """Whether a fresh interpreter holds scipy after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (_SRC, os.environ.get("PYTHONPATH")) if p))
    probe = code + "\nimport sys\nprint('scipy' in sys.modules)\n"
    proc = subprocess.run([sys.executable, "-c", probe],
                          capture_output=True, text=True, timeout=300,
                          env=env, cwd=cwd)
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


def test_the_analytic_model_loads_scipy_on_first_use(tmp_path):
    code = ("import sys\n"
            "from repro.phy.rates import RATE_TABLE\n"
            "from repro.traces.analytic import coded_ber\n"
            "assert 'scipy' not in sys.modules\n"
            "coded_ber(RATE_TABLE[0], 10.0)")
    assert _loads_scipy(code, str(tmp_path))


def test_a_cell_reads_trace_columns_and_loads_scipy(tmp_path):
    """The cell's rate-selection accuracy reads its first uplink's
    per-rate columns."""
    code = ("from repro.experiments import api\n"
            "api.run('cell', duration=0.05)")
    assert _loads_scipy(code, str(tmp_path))
