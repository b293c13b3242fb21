"""Importing gcim defaults the BLAS thread count to 1 and leaves a user's
own setting alone."""

import os
import subprocess
import sys
from pathlib import Path

import gcim

VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SRC = str(Path(gcim.__file__).resolve().parent.parent)


def _thread_settings(**overrides) -> list[str]:
    env = {k: v for k, v in os.environ.items() if k not in VARS}
    env.update(overrides, PYTHONPATH=SRC)
    code = ("import os, gcim, numpy; "
            f"print(' '.join(os.environ[v] for v in {VARS!r}))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    return out.split()


def test_one_blas_thread_by_default():
    assert _thread_settings() == ["1", "1", "1"]


def test_user_thread_setting_wins():
    assert _thread_settings(OPENBLAS_NUM_THREADS="2") == ["2", "1", "1"]
