"""pappuslab: marked-box dynamics of the Pappus iteration.

A small laboratory for the projective geometry of marked boxes, the
modular-group symmetries acting on them, their two-parameter
deformations, and numerical diagnostics (Hilbert-metric contraction,
loxodromy scans, limit curves, representation-variety Jacobians).
"""

from . import errors  # noqa: F401

__version__ = "0.1.0"
