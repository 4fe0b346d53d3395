"""The benchmark's oracles read a problem's tables as plain arrays and
index kernels at their full history shape.  Stored kernels keep only the
axes they depend on, so their ``table`` views must still serve those
readers; this loads ``bench/oracles.py`` by file path and holds
``expected_cost`` to it on compact kernels."""

import importlib.util
import pathlib
import sys

import numpy as np
import pytest

from teamdec.gallery import signaling, witsenhausen
from teamdec.model import DeterministicProfile, _compact, expected_cost
from teamdec.quadrature import QuadratureSpec
from teamdec.solvers import seeded_profiles

ORACLES = pathlib.Path(__file__).resolve().parents[1] / "bench" / "oracles.py"


@pytest.fixture(scope="module")
def oracles():
    spec = importlib.util.spec_from_file_location("bench_oracles", ORACLES)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses resolve their module
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def problems():
    _, _, reduced = witsenhausen().materialized_reduction()
    return {"signaling": signaling(spec=QuadratureSpec(y1_nodes=8)).problem, "reduced": reduced}


def test_signaling_and_reduced_kernels_are_stored_compact(problems):
    sig = problems["signaling"]
    n_u1, n_y2 = len(sig.u_spaces[0]), len(sig.y_spaces[1])
    assert _compact(sig.kernels[1].table).shape == (1, n_u1, n_y2)
    red = problems["reduced"]
    for t, kern in enumerate(red.kernels, start=1):
        want = (len(red.omega0),) + (1,) * (t - 1) + (len(red.y_spaces[t - 1]),)
        assert _compact(kern.table).shape == want
        assert kern.table.shape == red.kernel_shape(t)


@pytest.mark.parametrize("name", ["signaling", "reduced"])
def test_oracle_costs_match_expected_cost_on_compact_kernels(oracles, problems, name):
    problem = problems[name]
    arrays = oracles.arrays_of(problem)
    zero = DeterministicProfile([np.zeros(len(y), dtype=int) for y in problem.y_spaces])
    for profile in [zero] + seeded_profiles(problem, 0, 3):
        maps = [np.asarray(a) for a in profile.actions]
        want = oracles.evaluate(arrays, maps)
        assert expected_cost(problem, profile) == pytest.approx(want, rel=1e-10, abs=0.0)
