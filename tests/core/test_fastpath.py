"""The retired ``REPRO_FASTPATH`` setting is rejected at import time."""

import os
import subprocess
import sys

import pytest

SRC = os.path.join(
    os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__)))), "src"
)


#: Imports the package, then exits 1 unless ``enabled()`` reports True.
IMPORT_AND_CHECK = (
    "import repro\n"
    "from repro.core.fastpath import enabled\n"
    "raise SystemExit(0 if enabled() is True else 1)\n"
)


def _import_repro(setting):
    env = dict(os.environ, PYTHONPATH=SRC)
    env.pop("REPRO_FASTPATH", None)
    if setting is not None:
        env["REPRO_FASTPATH"] = setting
    return subprocess.run(
        [sys.executable, "-c", IMPORT_AND_CHECK],
        env=env, capture_output=True, text=True, timeout=60,
    )


@pytest.mark.parametrize("setting", ["0", "false", "no"])
def test_reference_lane_setting_fails_the_import(setting):
    child = _import_repro(setting)
    assert child.returncode != 0
    assert "ConfigurationError" in child.stderr
    assert "REPRO_FASTPATH=%s" % setting in child.stderr


@pytest.mark.parametrize("setting", [None, "1"])
def test_other_settings_import_with_enabled_true(setting):
    child = _import_repro(setting)
    assert child.returncode == 0, child.stderr
