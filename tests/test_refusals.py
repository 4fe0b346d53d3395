"""Each refusal of a malformed argument, by the exception it raises and
a fragment of its message: one row per ``raise`` of model, strategic,
infostruct and convexity that no end-to-end test reaches."""

import numpy as np
import pytest

from teamdec.convexity import grid_convexity_test
from teamdec.errors import DimensionMismatch, MalformedAnnotation, ValidationError
from teamdec.gallery import decoupled_example
from teamdec.infostruct import (
    SubsystemAnnotation,
    affects,
    information_nested,
    sigma_field_of,
)
from teamdec.infostruct import test_conditional_independence as check_ci
from teamdec.model import (
    DeterministicProfile,
    FiniteSpace,
    MeasurementKernel,
    Pmf,
    RandomizedProfile,
    TeamProblem,
    expected_cost,
)
from teamdec.strategic import StrategicMeasure, mix, realize_kernel_as_function

from conftest import random_team

TEAM = random_team(0)  # 3 exogenous points, two DMs with 2 measurements and 2 actions
SMALL = random_team(1, n_omega=2)
DECOUPLED = decoupled_example().problem  # 8 exogenous points, two DMs


def _measure(team):
    return StrategicMeasure(team, np.ones(team.joint_shape()) / np.prod(team.joint_shape()))


def _annotate(sizes, groups, shared=(2,)):
    SubsystemAnnotation(sizes, groups, shared).validate_against(DECOUPLED)


def _team(y_spaces, u_spaces, kernels):
    TeamProblem(TEAM.omega0, TEAM.prior, y_spaces, u_spaces, kernels, TEAM.cost)


REFUSALS = [
    # model
    (lambda: FiniteSpace("s", ["a", "b"]).index("z"), ValidationError,
     "'z' is not a point of space 's'"),
    (lambda: Pmf(FiniteSpace("s", ["a", "b"]), [0.5, 0.25, 0.25]), DimensionMismatch,
     "pmf on 's': got shape (3,), expected (2,)"),
    (lambda: MeasurementKernel(0, [[1.0]]), ValidationError, "dm index must be >= 1, got 0"),
    (lambda: _team(TEAM.y_spaces, TEAM.u_spaces[:1], TEAM.kernels), DimensionMismatch,
     "2 measurement spaces vs 1 action spaces"),
    (lambda: _team(TEAM.y_spaces, TEAM.u_spaces, TEAM.kernels[:1]), DimensionMismatch,
     "1 kernels vs 2 DMs"),
    (lambda: DeterministicProfile([[[0, 1]], [0, 1]]), ValidationError,
     "each policy map must be a 1-D index array"),
    (lambda: DeterministicProfile([[10**30]]), ValidationError,
     "each policy map must hold action indices that fit intp"),
    (lambda: DeterministicProfile([[1.5]]), ValidationError,
     "each policy map must hold integer action indices"),
    (lambda: DeterministicProfile([["1"]]), ValidationError,
     "each policy map must hold integer action indices"),
    (lambda: RandomizedProfile([[0.5, 0.5]]), ValidationError,
     "each policy kernel must be a 2-D array"),
    (lambda: RandomizedProfile([[[0.5, 0.5]], [[0.5, 0.5]] * 2]).matrices(TEAM),
     DimensionMismatch, "DM 1 policy kernel shape (1, 2) != (2, 2)"),
    (lambda: expected_cost(TEAM, [[0, 1], [0, 1]]), ValidationError,
     "unsupported profile type list"),
    # strategic
    (lambda: StrategicMeasure(TEAM, np.ones(3)), ValidationError,
     "joint shape (3,) != (3, 2, 2, 2, 2)"),
    (lambda: mix([_measure(TEAM)], [0.5, 0.5]), ValidationError, "1 measures vs weights (2,)"),
    (lambda: mix([_measure(TEAM), _measure(SMALL)], [0.5, 0.5]), ValidationError,
     "measures live on different problems"),
    (lambda: realize_kernel_as_function([0.5, 0.5]), ValidationError,
     "kernel must be a (|Y|, |U|) array"),
    # infostruct
    (lambda: affects(TEAM, 2, 1), ValidationError, "need 1 <= k < i <= 2, got k=2, i=1"),
    (lambda: information_nested(TEAM, 1, 3), ValidationError,
     "need 1 <= k < i <= 2, got k=1, i=3"),
    (lambda: sigma_field_of(TEAM, 3), ValidationError, "dm index 3 out of range 1..2"),
    (lambda: check_ci(-np.ones((2, 2, 2))), ValidationError,
     "joint table must be nonnegative and finite"),
    (lambda: check_ci(np.full((2, 2, 2), np.nan)), ValidationError,
     "joint table must be nonnegative and finite"),
    (lambda: _annotate((0, 8), ((0,), (1,)), ()), MalformedAnnotation, "factor size 0 < 1"),
    (lambda: _annotate((2, 2), ((0,), (1,)), ()), MalformedAnnotation,
     "factor sizes multiply to 4, exogenous space has 8 points"),
    (lambda: _annotate((2, 2, 2), ((0,),)), MalformedAnnotation,
     "1 state-factor groups for 2 DMs"),
    (lambda: _annotate((2, 2, 2), ((0,), (3,))), MalformedAnnotation,
     "factor index 3 out of range"),
    (lambda: _annotate((2, 2, 2), ((0,), (0,))), MalformedAnnotation, "factor groups overlap"),
    # convexity
    (lambda: grid_convexity_test(np.zeros(2), [[]]), ValidationError,
     "each lattice axis must be a nonempty 1-D array"),
    (lambda: grid_convexity_test(np.zeros(2), [[[0.0, 1.0]]]), ValidationError,
     "each lattice axis must be a nonempty 1-D array"),
]


@pytest.mark.parametrize("call, error, fragment", REFUSALS)
def test_each_refusal_raises_its_error_and_names_the_fault(call, error, fragment):
    with pytest.raises(error) as err:
        call()
    assert type(err.value) is error
    assert fragment in str(err.value)
