"""Hypothesis settings of the suite.

Local runs draw fresh examples.  Under CI (GitHub Actions sets ``CI``) the
``ci`` profile derandomizes every property test and keeps no example
database, so a CI failure reproduces locally with ``CI=1``.
"""

import os

from hypothesis import settings

settings.register_profile("ci", derandomize=True, database=None)
if os.environ.get("CI"):
    settings.load_profile("ci")
