"""The package's public names: every exported name exists, once."""

import importlib
import inspect
import pkgutil

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


def test_capacities_take_plain_photon_numbers():
    # no record wraps (n_a, n_b): both capacities take the two floats
    assert "PhotonNumbers" not in dir(photonlink)
    assert "PhotonNumbers" not in dir(photonlink.capacity)
    for function in (photonlink.shannon_capacity, photonlink.holevo_capacity):
        assert list(inspect.signature(function).parameters) == ["n_a", "n_b"]


def test_the_receiver_has_no_field_wrapper():
    # a field is a complex (2, 2**k) array: no record wraps it, and the
    # one-module step and the click pattern are no public functions
    removed = {"FieldPattern", "apply_module", "detect_pattern"}
    assert not removed & set(photonlink.__all__)
    names = [info.name for info in pkgutil.iter_modules(photonlink.__path__, "photonlink.")]
    assert "photonlink.receiver" in names
    for module in [photonlink, *map(importlib.import_module, names)]:
        assert not removed & set(dir(module)), module.__name__
