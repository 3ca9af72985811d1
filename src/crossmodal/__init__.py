"""Bidirectional image/sentence retrieval with siamese embedding networks.

The API is the submodules: ``corpus``, ``text``, ``nets``, ``ranker``,
``checkpoint``, ``metrics`` and ``cli``.
"""

__version__ = "0.1.0"
