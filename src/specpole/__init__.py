"""specpole: simulation and estimation for processes with a spectral pole.

The package simulates stationary Gaussian processes whose spectral
density blows up at a nonzero frequency pair ``(-s0, s0)`` and estimates
``(s0, alpha)`` from filter-transform statistics through a closed-form
Lambert W inversion, with a Monte Carlo harness for validation.
"""

from . import estimator, mc, model, simulate, specfun, transform
from .estimator import *
from .mc import *
from .model import *
from .simulate import *
from .specfun import *
from .transform import *

__version__ = "0.1.0"

__all__ = [
    *estimator.__all__,
    *mc.__all__,
    *model.__all__,
    *simulate.__all__,
    *specfun.__all__,
    *transform.__all__,
    "__version__",
]
