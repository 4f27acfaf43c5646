"""Every test starts with empty `verify` caches; `inertia` is the tests' exact
inertia of a HermitianMatrix.

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


def inertia(h):
    """(positive, negative, zero) of a HermitianMatrix h, exact: `_inertia` on
    its canonical rows, its pivots signed by their level."""
    # imported on call, so that loading this file loads no splicesig module
    from splicesig.cyclotomic import _inertia, _level

    lv = _level(h.level)
    return lv.inertia(*_inertia([[h[i, j].reduced() for j in range(h.size)]
                                 for i in range(h.size)], lv))
