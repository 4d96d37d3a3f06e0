"""FrequencyGrid.merged_with sorts and drops equal neighbours: np.unique's
points bit for bit, without the numpy.ma import that np.unique makes."""

import os
import subprocess
import sys

import numpy as np
import pytest

import sbtkit
from sbtkit import FrequencyGrid, cli, default_bode_grid

SRC = os.path.dirname(os.path.dirname(os.path.abspath(sbtkit.__file__)))


def bits(points) -> np.ndarray:
    return np.asarray(points, dtype=float).view(np.uint64)


@pytest.mark.parametrize("seed", range(6))
def test_merge_equals_unique_of_the_concatenation(seed):
    rng = np.random.default_rng(seed)
    a = np.unique(rng.uniform(1.0, 1e4, rng.integers(1, 300)))
    shared = rng.choice(a, rng.integers(0, len(a) + 1), replace=False)
    b = np.unique(np.concatenate([shared, rng.uniform(1.0, 1e4, rng.integers(0, 300))]))
    merged = FrequencyGrid.explicit(a).merged_with(FrequencyGrid.explicit(b))
    expected = np.unique(np.concatenate([a, b]))
    assert merged.spacing == "explicit"
    assert np.array_equal(bits(merged.points), bits(expected))


def test_default_bode_grid_equals_unique_of_its_parts():
    wide = FrequencyGrid.logarithmic(10.0, 9500.0, 2000)
    zoom = FrequencyGrid.linear(900.0, 1000.0, 200)
    expected = np.unique(np.concatenate([wide.as_array(), zoom.as_array()]))
    assert np.array_equal(bits(default_bode_grid().points), bits(expected))


def test_bode_path_does_not_import_numpy_ma(tmp_path):
    code = (
        "import sys\n"
        "from sbtkit import analysis, cli\n"
        "analysis.default_bode_grid()\n"
        "analysis.alternative_rmse_grids()\n"
        "assert cli.main(['bode', '--format', 'json', '--output', sys.argv[1]]) == 0\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop(cli.GRID_ENV, None)  # bode on the default grid, the one whose merge is checked
    proc = subprocess.run([sys.executable, "-c", code, str(tmp_path / "bode.json")],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    assert (tmp_path / "bode.json").stat().st_size > 200_000
