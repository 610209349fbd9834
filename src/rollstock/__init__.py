"""Daily railway rolling-stock circulation planning toolkit.

Pipeline: instance -> trip hypergraph -> exact ILP, and independently
-> penalty-method QUBO -> simulated annealing -> post-filtered portfolio.

The package exports every module's ``__all__``, in pipeline order, and
``__version__``.
"""

import sys

from .model import *
from .generate import *
from .netbuild import *
from .ilp import *
from .exact import *
from .qubo import *
from .anneal import *
from .diagram import *

__version__ = "0.1.0"

# the modules are read from sys.modules: the import above rebinds
# ``rollstock.anneal`` to the function
__all__ = [name for module in ("model", "generate", "netbuild", "ilp", "exact", "qubo",
                               "anneal", "diagram")
           for name in sys.modules[f"{__name__}.{module}"].__all__] + ["__version__"]
