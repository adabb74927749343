"""Stronger random baselines for classification results that reuse a validation set.

When the best of ``t`` prompts or classifiers is reported on the same
``n``-example validation set, the fair chance bar is the expected best
accuracy of ``t`` random classifiers, not the usual ``1/m``.  This
package computes that baseline exactly, with p-values, threshold
solvers, simulation oracles, and an auditing pipeline for published
results.  Each module's ``__all__`` declares its public names, and the
package exports them all.
"""

from .audit import *
from .dist import *
from .errors import *
from .oracle import *
from .orderstat import *

__version__ = "0.1.0"

__all__ = audit.__all__ + dist.__all__ + errors.__all__ + oracle.__all__ + orderstat.__all__
