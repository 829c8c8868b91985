"""The package's public names: every exported name exists, once."""

import inspect

import photonlink


def test_every_exported_name_resolves():
    missing = [name for name in photonlink.__all__ if not hasattr(photonlink, name)]
    assert missing == []


def test_no_name_is_exported_twice():
    assert len(set(photonlink.__all__)) == len(photonlink.__all__)


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from photonlink import *", namespace)
    assert set(photonlink.__all__) <= namespace.keys()


def test_the_link_budget_constants_are_not_a_choice():
    # one set of constants: no preset is exported and no function takes one
    assert not {"Constants", "DEFAULT_CONSTANTS", "CODATA_CONSTANTS"} & set(dir(photonlink))
    takes_constants = [
        name
        for name in photonlink.__all__
        if callable(obj := getattr(photonlink, name))
        and not isinstance(obj, type)
        and "constants" in inspect.signature(obj).parameters
    ]
    assert takes_constants == []
