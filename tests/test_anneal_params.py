import math
from fractions import Fraction

import numpy as np
import pytest

from rollstock.anneal import AnnealParams


@pytest.mark.parametrize("kwargs", [
    dict(beta_min=float("nan")),
    dict(beta_max=float("nan")),
    dict(beta_min=float("nan"), beta_max=float("nan")),
    dict(beta_max=math.inf),
    dict(beta_min=math.inf, beta_max=math.inf),
    dict(beta_min=-math.inf),
    dict(beta_min=True),
    dict(beta_max="10"),
    dict(num_reads=10.0),
    dict(num_reads=2.5),
    dict(num_reads="5"),
    dict(num_reads=True),
    dict(sweeps=100.0),
    dict(sweeps=None),
    dict(sweeps=False),
    dict(seed=-1),
    dict(seed=1.5),
    dict(seed=None),
    dict(seed=True),
    dict(seed="3"),
], ids=repr)
def test_params_reject_non_finite_betas_and_non_int_counts(kwargs):
    with pytest.raises(ValueError, match=next(iter(kwargs))):
        AnnealParams(**kwargs)


def test_params_accept_integral_and_rational_values():
    params = AnnealParams(num_reads=np.int64(3), sweeps=np.int32(0),
                          beta_min=Fraction(1, 2), beta_max=np.float64(2.0))
    assert params.num_reads == 3
    AnnealParams(beta_min=1, beta_max=1)
