import sys
import types

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
