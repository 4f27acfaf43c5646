"""Every test starts with empty `verify` caches.

`verify` keeps each fixture evaluator and each Hopf family for the life of
the process, so a test that counts the eliminations of a criterion, or patches
what it builds, would otherwise see what an earlier test left.  The caches are
cleared only when `splicesig.verify` is already loaded: importing it here would
change what the cold-start tests find in `sys.modules`.
"""

import sys

import pytest


@pytest.fixture(autouse=True)
def _empty_verify_caches():
    verify = sys.modules.get("splicesig.verify")
    if verify is not None:
        verify._fixture.cache_clear()
        verify._family.cache_clear()
