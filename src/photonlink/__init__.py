"""Efficiency limits and receiver modelling for photon-starved optical links."""

from .capacity import (
    g,
    holevo_capacity,
    holevo_pie_asymptote,
    pie,
    shannon_capacity,
    shannon_pie_asymptote,
)
from .linkbudget import (
    AU_M,
    LinkConfigError,
    LinkParams,
    channel_transmission,
    load_link_params,
    noise_power_watts,
    rate_vs_distance,
    received_photon_number,
    transmitter_peak_power,
)
from .modulation import (
    ook_mi_per_bin,
    ppm_mi_enumeration_oracle,
    ppm_mi_per_bin,
)
from .noise import NoiseModel, click_probs, gaussian, poissonian
from .optimize import ModulationOptimum, optimize_M, sweep_pie
from .receiver import (
    apply_receiver,
    concentration_efficiency,
    load_pattern,
    make_pattern,
    save_pattern,
)

__version__ = "0.1.0"

__all__ = [
    "g",
    "shannon_capacity",
    "holevo_capacity",
    "pie",
    "holevo_pie_asymptote",
    "shannon_pie_asymptote",
    "NoiseModel",
    "click_probs",
    "poissonian",
    "gaussian",
    "ppm_mi_per_bin",
    "ppm_mi_enumeration_oracle",
    "ook_mi_per_bin",
    "ModulationOptimum",
    "optimize_M",
    "sweep_pie",
    "AU_M",
    "LinkParams",
    "LinkConfigError",
    "load_link_params",
    "channel_transmission",
    "received_photon_number",
    "noise_power_watts",
    "transmitter_peak_power",
    "rate_vs_distance",
    "apply_receiver",
    "make_pattern",
    "concentration_efficiency",
    "save_pattern",
    "load_pattern",
    "__version__",
]
