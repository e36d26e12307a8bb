"""The package's export list matches what the package holds."""

import envgain


def test_every_exported_name_resolves():
    assert [name for name in envgain.__all__ if not hasattr(envgain, name)] == []
    assert len(set(envgain.__all__)) == len(envgain.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from envgain import *", namespace)
    assert set(envgain.__all__) <= namespace.keys()
