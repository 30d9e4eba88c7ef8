"""Suite-wide settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every process runs the same examples. Its remaining files
(a cache of constants found in the source) go to a temporary directory
removed at exit, so a test run writes nothing into the tree.
"""

import tempfile

from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)
