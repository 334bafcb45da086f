"""The package's public surface: every name in powercg.__all__ resolves."""

import powercg


def test_star_import_resolves_every_export():
    # a stale entry in __all__, a name its module no longer defines, makes
    # the star import raise AttributeError
    namespace = {}
    exec("from powercg import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(powercg.__all__)
    assert len(set(powercg.__all__)) == len(powercg.__all__)
    assert all(getattr(powercg, name) is namespace[name]
               for name in powercg.__all__)
