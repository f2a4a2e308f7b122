"""Suite-wide settings.

The goldens in ``golden/`` record every bit, and the LAPACK results in them
(eigenvalues, kernel basis, and through ``inv`` the scalar curvature and dual
flatness) round as the OpenBLAS kernel does.  The suite pins the kernel they
were made with before anything imports numpy.  Hypothesis draws the same
examples on every run, and a failing one prints the ``@reproduce_failure``
line that replays it."""

import os

os.environ.setdefault("OPENBLAS_CORETYPE", "Haswell")

from hypothesis import settings  # noqa: E402

settings.register_profile("suite", print_blob=True, derandomize=True)
settings.load_profile("suite")
