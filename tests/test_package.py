"""The package's export table."""

import inloop


def test_star_import_binds_every_export():
    namespace = {}
    exec("from inloop import *", namespace)
    for name in inloop.__all__:
        assert name in namespace, name
        assert getattr(inloop, name) is namespace[name], name
