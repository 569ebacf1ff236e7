"""SciPy is a test extra: the service and the CLI must run without it."""

import subprocess
import sys

BLOCK_SCIPY = "import sys\nsys.modules['scipy'] = None\n"


def _run(code):
    return subprocess.run(
        [sys.executable, "-c", BLOCK_SCIPY + code],
        capture_output=True,
        text=True,
    )


def test_service_imports_without_scipy_or_the_experiments():
    result = _run(
        "import repro.service\n"
        "assert 'repro.experiments' not in sys.modules\n"
    )
    assert result.returncode == 0, result.stderr


def test_cli_help_runs_without_scipy():
    result = _run(
        "import runpy\n"
        "sys.argv = ['repro', '--help']\n"
        "runpy.run_module('repro', run_name='__main__')\n"
    )
    assert result.returncode == 0, result.stderr
    assert "fleet" in result.stdout


def test_scipy_block_is_effective():
    # the guard itself: with the block, SciPy's t quantile cannot load
    result = _run(
        "from repro.experiments.stats import summarize\n"
        "summarize([1.0, 2.0])\n"
    )
    assert result.returncode != 0
    assert "ModuleNotFoundError" in result.stderr
