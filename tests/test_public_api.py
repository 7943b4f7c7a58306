"""The package's public names: every name in ``__all__`` exists, once."""

import varbounds


def test_every_exported_name_resolves():
    missing = [name for name in varbounds.__all__
               if not hasattr(varbounds, name)]
    assert missing == []


def test_no_duplicate_exports():
    assert len(varbounds.__all__) == len(set(varbounds.__all__))


def test_star_import():
    namespace = {}
    exec("from varbounds import *", namespace)
    assert set(varbounds.__all__) <= set(namespace)
