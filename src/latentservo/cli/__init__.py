import os
import sys
import types

# One BLAS thread unless the caller says otherwise: the matrices here are
# small, and a second thread on a busy core slows a fit several-fold. Set
# before ``.config`` loads numpy, which reads them once.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")

from .config import ExperimentConfig, load_config
from .manifest import ManifestError, RunManifest, run_stage

__all__ = ["ExperimentConfig", "ManifestError", "RunManifest", "load_config",
           "main", "run_stage"]


class _Package(types.ModuleType):
    # ``main`` is imported on first use, so that ``python -m latentservo.cli.main``
    # does not find its own module already imported by this package. A property
    # rather than a module ``__getattr__``: importing the ``main`` submodule
    # binds it to this attribute, and the setter keeps the function in its place.
    @property
    def main(self):
        from .main import main
        return main

    @main.setter
    def main(self, submodule):
        pass


sys.modules[__name__].__class__ = _Package
