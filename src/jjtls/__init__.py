"""TLS detection and density inference for JJ-array resonators."""

__version__ = "0.1.0"

from .detector import (DetectionEvent, DetectorCalibration, Exclusion,
                       ResidualSeries, SweepDataset, apply_exclusions,
                       build_threshold, calibrate_noise, critical_tls,
                       count_sweep, curve_follow, find_peaks, fit_next,
                       normalize_axis)
from .errors import (CalibrationError, ConvergenceError, DegenerateDataError,
                     InvalidParameterError, JJTLSError, NoResonanceError,
                     NumericalError, SchemaError, ValidationError)
from .fitting import (BackgroundSplit, FitResult, FluxParabola, background_split,
                      estimate_snr, fit_flux_parabola, fit_hanger, residual_metric)
from .inference import (DensityEstimate, DetectorRates, DeviceSummary,
                        InferenceInput, PosteriorDensity, aggregate_device,
                        density, marginal_likelihood, mle_lambda, posterior,
                        true_rates)
from .physics import (FluxConfig, ResonatorParams, Scenario, TLSDefect, Trace,
                      flux_to_freq, hanger_s21, scenario_instrument, synth_trace,
                      thermal_population, tls_s21, virtual_measure)
