"""The family registry's config front end: model and alternative parameters by name."""

import pytest

from sfgof import catalog
from sfgof.cli import main
from sfgof.errors import ConfigError

# family: (model builder, model params with one misspelt key, the key)
MODEL_TYPOS = {
    "small-noise": (catalog.build_small_noise_model, {"name": "linear", "sigmaa": 2.0}, "sigmaa"),
    "ergodic": (catalog.build_ergodic_model, {"name": "ou", "x_low": -5.0}, "x_low"),
    "poisson": (catalog.build_poisson_model, {"name": "linear-h", "lamda0": 3.0}, "lamda0"),
    "ar": (catalog.build_ar_model, {"name": "linear-gaussian", "sigmaa": 2.0}, "sigmaa"),
}
# family: (alternative builder, name, params with one misspelt key, the key)
ALTERNATIVE_TYPOS = {
    "small-noise": (catalog.small_noise_alternative, "sin-perturbed", {"theta0": 0.5, "amplitud": 1.0}, "amplitud"),
    "ergodic": (catalog.ergodic_alternative, "tanh-perturbed", {"base": 1.0}, "base"),
    "poisson": (catalog.poisson_alternative, "step-bump", {"theta0": 2.0, "bumpp": 0.5}, "bumpp"),
    "ar": (catalog.ar_alternative, "cosine-perturbed", {"base_theta": 0.5, "amp": 0.3}, "amp"),
}


def plugin_params(**params):
    return params


@pytest.mark.parametrize("family", list(MODEL_TYPOS))
def test_unknown_model_parameter(family):
    build, params, key = MODEL_TYPOS[family]
    with pytest.raises(ConfigError, match=repr(key)):
        build(params)


@pytest.mark.parametrize("family", list(ALTERNATIVE_TYPOS))
def test_unknown_alternative_parameter(family):
    alternative, name, params, key = ALTERNATIVE_TYPOS[family]
    model = catalog.FAMILIES[family].build({})
    with pytest.raises(ConfigError, match=repr(key)):
        alternative(model, name, params)


def test_missing_alternative_parameter():
    model = catalog.build_small_noise_model({})
    with pytest.raises(ConfigError, match="'theta0'"):
        catalog.small_noise_alternative(model, "sin-perturbed", {})


def test_known_parameters_reach_the_model():
    model = catalog.build_poisson_model({"name": "linear-h", "theta0": 2.0, "lam0": 3.0, "period": 2.0})
    assert (model.lam0, model.period) == (3.0, 2.0)


def test_plugins_get_their_parameters_unchanged():
    params = {"plugin": "test_catalog:plugin_params", "theta0": 0.5, "anything": [1, 2]}
    assert catalog.build_ar_model(params) == {"anything": [1, 2]}
    assert catalog.poisson_alternative(None, "plugin", params) == {"theta0": 0.5, "anything": [1, 2]}


def test_unknown_family():
    with pytest.raises(ConfigError, match="'garch'"):
        catalog.family("garch")


def test_cli_reports_unknown_model_parameter(tmp_path, capsys):
    cfg = tmp_path / "ar.json"
    cfg.write_text('{"model": {"name": "linear-gaussian", "sigmaa": 2.0}, "theta0": 0.5, "n": 200}')
    assert main(["test", "ar", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sigmaa" in err
