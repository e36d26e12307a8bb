"""The package's export list matches what the package holds."""

import envgain


def test_every_exported_name_resolves():
    assert [name for name in envgain.__all__ if not hasattr(envgain, name)] == []
    assert len(set(envgain.__all__)) == len(envgain.__all__)


def test_star_import_binds_the_export_list():
    namespace = {}
    exec("from envgain import *", namespace)
    assert set(envgain.__all__) <= namespace.keys()


def test_folded_names_stay_gone():
    # one door loads every model-directory kind, and the ELC score has one name
    from envgain import baseline, cli, pipeline

    gone = {envgain: ["score_approx_stoi"], pipeline: ["score_approx_stoi", "system_of"],
            baseline: ["classical_of", "load_classical"], cli: ["_load_any_system"]}
    assert [(module.__name__, name) for module, names in gone.items() for name in names
            if hasattr(module, name)] == []
