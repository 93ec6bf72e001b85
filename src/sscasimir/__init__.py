"""Casimir-type energies of self-similar systems at desk scale.

Three computational layers plus a CLI:

  * series   -- continued-fraction regularization of divergent power series,
  * plates   -- closed-form and truncated Casimir energies of geometric
                Dirichlet plate stacks,
  * gaussian -- Landau-Ginzburg shell quadrature, RG coefficient rescaling,
                and discrete Fourier identities.

The package exports each layer's __all__ (quadrature's too), exceptions
included; the CLI, sscasimir.cli, is not imported with it.
"""

from . import gaussian, plates, quadrature, series
from .series import *
from .plates import *
from .gaussian import *
from .quadrature import *

__all__ = list(dict.fromkeys(series.__all__ + plates.__all__ + gaussian.__all__
                             + quadrature.__all__))
__version__ = "0.1.0"
