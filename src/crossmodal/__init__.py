"""Bidirectional image/sentence retrieval with siamese embedding networks.

The API is the submodules: ``corpus``, ``text``, ``nets``, ``ranker``,
``checkpoint``, ``metrics`` and ``cli``.
"""

import os

# One BLAS thread: a product split over more threads rounds differently, so the thread
# count would change a run's bits. Set before any submodule imports numpy; a process
# that imported numpy before this package keeps the BLAS threads it started with.
os.environ.update(dict.fromkeys(("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

__version__ = "0.1.0"
