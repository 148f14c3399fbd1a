"""The four process families, with their built-in models and alternatives by name.

`FAMILIES` holds one `Family` record per family: how a config builds its
model and alternative, draws replicate samples, reads recorded data and
runs the test.  The harness, ``sfgof test`` and the study script all go
through it, so a study replicate and a single test at the same seed and
stream are the same computation.  The records reach the family modules'
functions through the modules at call time, never by a reference taken
earlier, so a function rebound on its module is the one that runs.

Configuration files refer to models and alternatives by short names; a
plug-in escape hatch accepts a ``module:callable`` path whose callable
returns the model (or alternative function) given the remaining parameters.
"""

from __future__ import annotations

import importlib
import inspect
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from . import ar, ergodic, poisson, small_noise
from .errors import ConfigError
from .inference_kit import TimeGrid


def read_config(path: str | Path) -> dict:
    """The JSON object in a config file, with read and parse failures as ConfigError."""
    try:
        return json.loads(Path(path).read_text())
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc.strerror or exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc


def require(cfg: dict, key: str, path: str | Path) -> Any:
    """cfg[key], or ConfigError naming the key the config at path lacks."""
    if key not in cfg:
        raise ConfigError(f"config {path} has no {key!r}")
    return cfg[key]


def load_rows(path: str | Path, **kwargs) -> np.ndarray:
    """Numeric rows of a recorded-data file, with read and parse failures as ConfigError."""
    try:
        return np.loadtxt(path, **kwargs)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror or exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}") from exc


def _load_plugin(spec: str) -> Callable:
    mod_name, _, attr = spec.partition(":")
    if not mod_name or not attr:
        raise ConfigError(f"plugin spec must look like 'module:callable', got {spec!r}")
    module = importlib.import_module(mod_name)
    return getattr(module, attr)


def _call(builder: Callable, what: str, params: dict, **fixed) -> Any:
    """builder(**fixed, **params); a parameter it does not take, or lacks, is a ConfigError."""
    try:
        inspect.signature(builder).bind(**fixed, **params)
    except TypeError as exc:
        raise ConfigError(f"{what}: {exc}") from None
    return builder(**fixed, **params)


def _model_builder(family: str, default: str, builtins: dict[str, Callable]) -> Callable:
    def build(params: dict[str, Any]):
        params = dict(params)
        params.pop("theta0", None)
        if "plugin" in params:
            return _load_plugin(params.pop("plugin"))(**params)
        name = params.pop("name", default)
        if name not in builtins:
            raise ConfigError(f"unknown {family} model {name!r}")
        return _call(builtins[name], f"{family} model {name!r}", params)

    return build


def _alternative_builder(
    family: str, builtins: dict[str, Callable], wrap: Callable, model_args: Callable = lambda model: {}
) -> Callable:
    """(model, name, params) -> wrap(model, alternative); built-ins also get model_args(model)."""

    def alternative(model, name: str, params: dict[str, Any]):
        params = dict(params)
        if name == "plugin":
            alt = _load_plugin(params.pop("plugin"))(**params)
        elif name in builtins:
            alt = _call(builtins[name], f"{family} alternative {name!r}", params, **model_args(model))
        else:
            raise ConfigError(f"unknown {family} alternative {name!r}")
        return wrap(model, alt)

    return alternative


def _linear_h_model(
    period: float = 1.0, profile_amplitude: float = 0.5, lam0: float = 1.0, theta_lo: float = 0.5, theta_hi: float = 5.0
) -> poisson.LinearPoissonModel:
    profile = poisson.sin_profile(period, amplitude=profile_amplitude)
    return poisson.linear_intensity_model(profile, lam0=lam0, period=period, theta_lo=theta_lo, theta_hi=theta_hi)


build_small_noise_model = _model_builder(
    "small-noise", "linear", {"linear": small_noise.linear_model, "gated-linear": small_noise.gated_linear_model}
)
small_noise_alternative = _alternative_builder(
    "small-noise",
    {"sin-perturbed": small_noise.sin_perturbed_drift, "gated-early": small_noise.gated_early_drift},
    small_noise.with_alternative_drift,
    lambda model: {"horizon": model.horizon},
)
build_ergodic_model = _model_builder("ergodic", "ou", {"ou": ergodic.ou_model})
ergodic_alternative = _alternative_builder(
    "ergodic", {"tanh-perturbed": ergodic.tanh_perturbed_drift}, ergodic.with_alternative_drift
)
build_poisson_model = _model_builder("poisson", "linear-h", {"linear-h": _linear_h_model})
# A Poisson alternative is the intensity function that replicates are simulated with.
poisson_alternative = _alternative_builder(
    "poisson",
    {"step-bump": poisson.step_bump_intensity},
    lambda model, intensity: intensity,
    lambda model: {"model": model},
)
build_ar_model = _model_builder("autoregression", "linear-gaussian", {"linear-gaussian": ar.linear_gaussian_ar})
ar_alternative = _alternative_builder(
    "autoregression", {"cosine-perturbed": ar.cosine_perturbed_regression}, ar.with_alternative_regression
)


@dataclass(frozen=True)
class Family:
    """One process family, as configs, the harness and ``sfgof test`` use it.

    knob is the config key of the family's asymptotic parameter and
    parse_knob its type; theta0 is what a study simulates at when its model
    section names no theta0.  build(params) is the model; alternative(model,
    name, params) is what replicates are simulated from instead of the model
    in a power study.  draw(model, alt, theta0, knob, sim, streams) simulates
    one replicate per stream, from alt or, where alt is None, from model;
    sample(drawn, j) is replicate j of that draw, or raises NumericalError or
    ModelError for a replicate that must be excluded.  test(model, sample,
    alpha, approach, kind, sim) runs the family's run_test.  sim holds the
    simulation and construction settings (num_steps, step, d_T, N).  A family
    that reads recorded data names the ``sfgof test`` option for its file in
    data_flag, and load(model, knob, path) returns the sample, whose length n
    is then the knob.
    """

    knob: str
    parse_knob: Callable
    theta0: float
    build: Callable
    alternative: Callable
    draw: Callable
    sample: Callable
    test: Callable
    load: Callable | None = None
    data_flag: str | None = None


def _draw_small_noise(model, alt, theta0, epsilon, sim, streams):
    grid = TimeGrid(0.0, model.horizon, int(sim.get("num_steps", small_noise.DEFAULT_NUM_STEPS)))
    return small_noise.simulate_sde_batch(alt or model, theta0, epsilon, grid, streams), grid, epsilon


def _draw_ergodic(model, alt, theta0, horizon, sim, streams):
    step = float(sim.get("step", 0.01))
    paths = ergodic.simulate_ergodic_batch(alt or model, theta0, horizon, step, streams)
    return paths, ergodic.excursion_mask(alt or model, paths), step


def _sample_poisson(drawn, j):
    # Each replicate is simulated in its sample step, so that a failed
    # simulation excludes that replicate only.
    model, alt, theta0, n, streams = drawn
    return poisson.simulate_periodic_poisson(model, theta0, n, streams[j], intensity_fn=alt)


def _load_events(model, n, path):
    if n is None:
        raise ConfigError("reading recorded events needs the number of periods n in the config")
    return poisson.events_from_rows(model.period, int(n), load_rows(path, delimiter=",", ndmin=2))


FAMILIES: dict[str, Family] = {
    "small-noise": Family(
        knob="epsilon",
        parse_knob=float,
        theta0=0.5,
        build=build_small_noise_model,
        alternative=small_noise_alternative,
        draw=_draw_small_noise,
        sample=lambda drawn, j: small_noise.trajectory_at(*drawn, j),
        test=lambda model, sample, alpha, approach, kind, sim: small_noise.run_test_small_noise(
            model, sample, alpha, approach=approach, kind=kind
        ),
    ),
    "ergodic": Family(
        knob="T",
        parse_knob=float,
        theta0=1.0,
        build=build_ergodic_model,
        alternative=ergodic_alternative,
        draw=_draw_ergodic,
        sample=lambda drawn, j: ergodic.trajectory_at(*drawn, j),
        test=lambda model, sample, alpha, approach, kind, sim: ergodic.run_test_ergodic(
            model, sample, alpha, approach=approach, kind=kind, d_T=sim.get("d_T")
        ),
    ),
    "poisson": Family(
        knob="n",
        parse_knob=int,
        theta0=2.0,
        build=build_poisson_model,
        alternative=poisson_alternative,
        draw=lambda model, alt, theta0, n, sim, streams: (model, alt, theta0, n, streams),
        sample=_sample_poisson,
        test=lambda model, sample, alpha, approach, kind, sim: poisson.run_test_poisson(
            model, sample, alpha, kind=kind, N=sim.get("N")
        ),
        load=_load_events,
        data_flag="events",
    ),
    "ar": Family(
        knob="n",
        parse_knob=int,
        theta0=0.5,
        build=build_ar_model,
        alternative=ar_alternative,
        draw=lambda model, alt, theta0, n, sim, streams: ar.simulate_ar_batch(alt or model, theta0, n, streams),
        sample=lambda drawn, j: ar.sample_at(drawn, j),
        test=lambda model, sample, alpha, approach, kind, sim: ar.run_test_ar(model, sample, alpha, kind=kind),
        load=lambda model, n, path: ar.SeriesSample(values=np.asarray(load_rows(path, ndmin=1), dtype=float)),
        data_flag="data",
    ),
}


def family(name: str) -> Family:
    """The registered family called name."""
    if name not in FAMILIES:
        raise ConfigError(f"unknown family {name!r}")
    return FAMILIES[name]
