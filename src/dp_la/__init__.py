"""Differentially private tabular learning pipelines with a privacy audit.

Public surface: every name in the ``__all__`` of each module (DP mechanisms,
data handling, the logistic baseline, the three DP pipelines with their noise
draws, the membership-inference audit, and the sweep runner with its report
writer ``emit_report(results, output_dir, force=False)``), re-exported here.
"""

from . import audit, data, experiment, mechanisms, model, pipelines
from .audit import *
from .data import *
from .experiment import *
from .mechanisms import *
from .model import *
from .pipelines import *

__all__ = (audit.__all__ + data.__all__ + experiment.__all__ + mechanisms.__all__
           + model.__all__ + pipelines.__all__)

__version__ = "0.1.0"
