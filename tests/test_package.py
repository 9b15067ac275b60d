"""The package's public names."""

import leadindex


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from leadindex import *", namespace)
    for name in leadindex.__all__:
        assert namespace[name] is getattr(leadindex, name)
