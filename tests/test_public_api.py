"""The package's public names: every exported name exists, once."""

import importlib
import inspect
import pkgutil

import pytest

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


# names a refactor retired, each with what replaced it
RETIRED = {
    "Constants": "one set of link-budget constants in linkbudget",
    "DEFAULT_CONSTANTS": "one set of link-budget constants in linkbudget",
    "CODATA_CONSTANTS": "one set of link-budget constants in linkbudget",
    "PhotonNumbers": "the capacities take the two floats n_a and n_b",
    "FieldPattern": "a field is a complex (2, 2**k) array",
    "apply_module": "apply_receiver runs every module on the array",
    "detect_pattern": "the CLI forms the click column from the bin energies",
    "MutualInfoResult": "the MI functions return a float; capacity.pie gives bits per photon",
    "ClickProbabilities": "click_probs returns the pair (p_b, p_p)",
}
MODULES = [photonlink] + [
    importlib.import_module(info.name)
    for info in pkgutil.iter_modules(photonlink.__path__, "photonlink.")
]


def test_every_module_is_walked():
    assert {module.__name__ for module in MODULES} >= {
        "photonlink.capacity", "photonlink.linkbudget", "photonlink.modulation",
        "photonlink.noise", "photonlink.receiver",
    }


@pytest.mark.parametrize("name", sorted(RETIRED))
def test_retired_name_is_gone(name):
    assert name not in photonlink.__all__
    for module in MODULES:
        assert name not in dir(module), (module.__name__, RETIRED[name])


def test_no_function_takes_link_budget_constants():
    takes_constants = [
        name
        for name in photonlink.__all__
        if callable(obj := getattr(photonlink, name))
        and not isinstance(obj, type)
        and "constants" in inspect.signature(obj).parameters
    ]
    assert takes_constants == []


def test_capacities_take_plain_photon_numbers():
    for function in (photonlink.shannon_capacity, photonlink.holevo_capacity):
        assert list(inspect.signature(function).parameters) == ["n_a", "n_b"]
