"""Suite-wide settings.

Hypothesis draws its examples from a fixed seed and keeps no example
database, so every process runs the same examples. Its remaining files
(a cache of constants found in the source) go to a temporary directory
removed at exit, so a test run writes nothing into the tree.

A RuntimeWarning (overflow, invalid value, division by zero) fails the
test that raises it: every input gives a finite answer or an error, never
a warning on the way to one. A test's own warning filters still apply.
"""

import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis.configuration import set_hypothesis_home_dir

settings.register_profile("reproducible", derandomize=True, database=None)
settings.load_profile("reproducible")

_HYPOTHESIS_HOME = tempfile.TemporaryDirectory(prefix="hypothesis-")
set_hypothesis_home_dir(_HYPOTHESIS_HOME.name)

_HERE = Path(__file__).parent


def pytest_collection_modifyitems(items):
    for item in items:
        if _HERE in item.path.parents:
            # prepended, so a test's own filterwarnings marks take precedence
            item.add_marker(pytest.mark.filterwarnings("error::RuntimeWarning"),
                            append=False)
