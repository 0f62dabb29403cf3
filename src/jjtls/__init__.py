"""TLS detection and density inference for JJ-array resonators.

Public names load lazily (PEP 562): ``jjtls.X`` imports the module defining X
on first use, so ``import jjtls`` loads neither numpy nor scipy.
"""

import importlib

__version__ = "0.1.0"

_MODULE_OF = {name: module for module, names in {
    "detector": "DetectionEvent DetectorCalibration Exclusion ResidualSeries SweepDataset "
                "apply_exclusions build_threshold calibrate_noise critical_tls count_sweep "
                "curve_follow find_peaks fit_next normalize_axis",
    "errors": "CalibrationError ConvergenceError DegenerateDataError InvalidParameterError "
              "JJTLSError NoResonanceError NumericalError SchemaError ValidationError",
    "fitting": "BackgroundSplit FitResult FluxParabola background_split fit_flux_parabola "
               "fit_hanger residual_metric",
    "inference": "DensityEstimate DetectorRates DeviceSummary InferenceInput PosteriorDensity "
                 "aggregate_device density mle_lambda posterior true_rates",
    "physics": "FluxConfig ResonatorParams Scenario TLSDefect Trace flux_to_freq hanger_s21 "
               "scenario_instrument synth_trace thermal_population tls_s21 virtual_measure",
}.items() for name in names.split()}


def __getattr__(name):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    return sorted({*globals(), *_MODULE_OF})
