"""Error model of a single-board-computer PMU acquisition chain.

Forward simulation of the four error blocks (anti-aliasing filter, ADC
static transfer, PWM time base, software-PLL synchronization delay), a
sliding one-cycle phasor estimator, compensation, analytic uncertainty
propagation, seeded Monte Carlo validation, and the offline
characterization procedures that produce the model parameters.
"""

__version__ = "0.1.0"

import importlib

# The public names, by the submodule that defines them.  Nothing below is
# imported until first use (PEP 562), so ``import sbcpmu`` loads no numpy and
# a command that needs one submodule pays for that one alone.
_EXPORTS = {
    "blocks": (
        "AafModel", "BlockResponse", "ChainModel", "GaussianTerm",
        "PllDelayModel", "TimebaseModel", "aaf_response", "expected_response",
        "identity_chain", "load_profile", "paper_profile", "pll_response", "save_profile",
        "timebase_response",
    ),
    "characterize": (
        "delay_statistics", "ols_fit", "one_counter_estimate", "sweep_plan",
        "variance_decomposition",
    ),
    "errors": (
        "ConfigError", "EstimationError", "ModelParameterError", "SbcPmuError",
        "ScheduleGuardError",
    ),
    "estimate": ("EstimationWindow", "compensate", "fe", "tve"),
    "mc": ("McScenario", "budget", "model_curve", "monte_carlo", "write_run"),
    "signals": ("Phasor", "wrap_phase"),
}
_SUBMODULE = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_SUBMODULE)


def __getattr__(name):
    if name not in _SUBMODULE:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_SUBMODULE[name]}"), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__():
    return sorted({*globals(), *__all__})
