"""The pinned board amplitudes under OpenBLAS's AVX2 kernel.

OpenBLAS picks its kernel from the CPU at load time: SkylakeX on hosts
with AVX-512, Haswell on AVX2-only x86 hosts such as AMD Zen 3.  The two
round a product's sums in different orders, so the block runner's outputs
may differ between hosts in the last digit.  OPENBLAS_CORETYPE=Haswell
forces the AVX2 kernel on any AVX2 host, so a run under it shows here what
an AVX2-only host would print."""

import os
import platform
import subprocess
import sys

import numpy as np
import pytest

import sbtkit

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sbtkit.__file__)))


def _cpu_flags() -> set:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("flags"):
                    return set(line.split(":", 1)[1].split())
    except OSError:
        pass
    return set()


def _numpy_blas() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy without show_config(mode=...), or another layout
        return ""


AVX2_OPENBLAS = (
    platform.system() == "Linux"
    and platform.machine() == "x86_64"
    and {"avx2", "fma"} <= _cpu_flags()
    and "openblas" in _numpy_blas().lower()
)


@pytest.mark.skipif(not AVX2_OPENBLAS, reason="needs x86-64 Linux with AVX2 and FMA, and numpy on OpenBLAS")
def test_board_not_settled_prints_the_pinned_amplitudes_under_the_haswell_kernel():
    env = dict(os.environ, OPENBLAS_CORETYPE="Haswell",
               PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-m", "sbtkit", "simulate", "board", "--methods", "euler,sbt",
         "--settle-cycles", "2"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 3 and proc.stdout == ""
    assert proc.stderr == ("error: method euler: window amplitudes 1.1657680117987348 and "
                           "1.1686168705855131 differ by more than 0.1%; increase settle_cycles\n")
