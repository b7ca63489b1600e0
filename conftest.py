"""Load qwick before any test module imports numpy.

qwick loads numpy with one OpenBLAS thread (see `qwick/__init__.py`), but
only when it is the first to import numpy.  Test modules import numpy at
their top, so without this file the test process runs OpenBLAS threaded, and
an in-process report can round differently from the CLI's.
"""

import qwick  # noqa: F401
