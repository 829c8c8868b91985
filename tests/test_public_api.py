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
    "ReceiverConfig": "the receiver functions take k, loss, sigma and seed as numbers",
    "_sweep": "sweep_pie takes a sequence of noise kinds",
    "_click_probs": "click_probs takes a float or an array of pulse energies",
    "ppm_mi_enumeration_oracle": "a test oracle, in tests/enumeration_oracle.py",
    "_one": "the MI functions take floats or arrays",
    "_at_point": "the MI functions take floats or arrays",
    "_check_n_a": "noise._checked checks every array input",
    "_check_photon_numbers": "noise._checked checks every number",
    "_checked_sigma": "noise._checked checks every number",
    "format_ints": "the CSV writer casts a range column's integers to bytes with numpy",
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


def test_receiver_functions_take_plain_numbers():
    signatures = {
        photonlink.apply_receiver: ["field", "per_module_loss", "phase_error_sigma", "rng_seed"],
        photonlink.concentration_efficiency: ["k", "phase_error_sigma"],
    }
    for function, parameters in signatures.items():
        assert list(inspect.signature(function).parameters) == parameters


def test_sweep_and_click_functions_take_the_grid_and_the_array():
    signatures = {
        photonlink.sweep_pie: ["n_a_grid", "n_b_list", "model_kinds", "scheme", "m_max"],
        photonlink.click_probs: ["model", "pulse_energy"],
    }
    for function, parameters in signatures.items():
        assert list(inspect.signature(function).parameters) == parameters


def test_mi_functions_take_the_point_or_the_grid():
    for function in (photonlink.ppm_mi_per_bin, photonlink.ook_mi_per_bin):
        assert list(inspect.signature(function).parameters) == ["m", "n_a", "model"]
