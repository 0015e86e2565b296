"""Model validation, derived rates and JSON schema handling."""

import ast
import dataclasses
import json
import math
import pathlib

import pytest

from zoo import example1, example2
import priopoll
from priopoll import (DISCIPLINES, GATED, Distribution, Erlang, Exponential, Hyperexponential,
                      NonpositiveParameter, PollingModel, QueueSpec, Uniform,
                      UnstableSystem, ZeroSwitchover, Deterministic,
                      load_model, model_from_config, model_to_config, validate)


def test_example1_derived_rates():
    d = validate(example1())
    assert d.rho_total == pytest.approx(0.8, rel=1e-14)
    assert d.mean_cycle == pytest.approx(10.0, rel=1e-12)
    assert d.rho_queue[0] == pytest.approx(0.6)
    assert d.mean_intervisit[0] == pytest.approx(4.0, rel=1e-12)
    assert d.mean_visit[0] == pytest.approx(6.0, rel=1e-12)


def test_example2_derived_rates():
    d = validate(example2())
    assert d.rho_total == pytest.approx(0.9, rel=1e-14)
    assert d.mean_cycle == pytest.approx(200.0, rel=1e-10)


def test_rate_identities_exact():
    for model in (example1(), example2()):
        d = validate(model)
        s_mean = sum(s.mean for s in model.switchovers)
        assert d.mean_cycle * (1.0 - d.rho_total) == pytest.approx(s_mean, rel=1e-14)
        for i in range(model.n):
            assert d.mean_intervisit[i] + d.mean_visit[i] == pytest.approx(
                d.mean_cycle, rel=1e-14)


def test_unstable_model_rejected():
    m = PollingModel(
        queues=(QueueSpec(0.5, 0.5, Exponential(1.0), Exponential(1.0)),),
        switchovers=(Exponential(1.0),),
    )
    with pytest.raises(UnstableSystem):
        validate(m)


def test_zero_switchover_rejected():
    m = PollingModel(
        queues=(QueueSpec(0.1, 0.1, Exponential(1.0), Exponential(1.0)),),
        switchovers=(Deterministic(0.0),),
    )
    with pytest.raises(ZeroSwitchover):
        validate(m)


def test_queue_needs_positive_rate():
    with pytest.raises(NonpositiveParameter):
        QueueSpec(0.0, 0.0, None, None)
    with pytest.raises(NonpositiveParameter):
        QueueSpec(-0.1, 0.2, Exponential(1.0), Exponential(1.0))
    with pytest.raises(NonpositiveParameter):
        QueueSpec(0.1, 0.0, None, None)  # missing service_high
    with pytest.raises(NonpositiveParameter):
        QueueSpec(0.0, 0.1, None, None)  # missing service_low


def test_unknown_discipline_rejected():
    with pytest.raises(ValueError, match="unknown discipline"):
        QueueSpec(0.1, 0.1, Exponential(1.0), Exponential(1.0), "fifo")


def test_model_needs_one_switchover_per_queue():
    q = QueueSpec(0.1, 0.1, Exponential(1.0), Exponential(1.0))
    with pytest.raises(NonpositiveParameter, match="at least one queue"):
        PollingModel(queues=(), switchovers=())
    with pytest.raises(NonpositiveParameter, match="one switch-over time per queue"):
        PollingModel(queues=(q,), switchovers=(Exponential(1.0),) * 2)


def test_zero_mean_service_with_arrivals_rejected():
    with pytest.raises(NonpositiveParameter, match="class H .* zero-mean service"):
        QueueSpec(0.1, 0.2, Deterministic(0.0), Exponential(1.0))
    with pytest.raises(NonpositiveParameter, match="class L .* zero-mean service"):
        QueueSpec(0.0, 0.2, None, Deterministic(0.0), GATED)
    # a class without arrivals may carry a zero-length service, and a
    # zero-length switch-over stays legal beside a positive one
    q = QueueSpec(0.0, 0.2, Deterministic(0.0), Exponential(1.0))
    assert [c[0] for c in q.classes] == [1]
    validate(PollingModel(queues=(q, q), switchovers=(Deterministic(0.0), Exponential(1.0))))


def test_classes_list_the_classes_with_arrivals():
    q = QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)
    assert q.service_high is None
    assert q.rho_high == 0.0
    assert q.classes == ((1, "L", 0.2, q.service_low),)
    # a given service does not make a class without arrivals present
    q = QueueSpec(0.3, 0.0, Exponential(1.0), Exponential(2.0))
    assert q.classes == ((0, "H", 0.3, q.service_high),)
    assert q.rho_low == 0.0
    q = QueueSpec(0.3, 0.1, Exponential(1.0), Exponential(2.0))
    assert [c[:3] for c in q.classes] == [(0, "H", 0.3), (1, "L", 0.1)]


def test_rate_for_an_omitted_service_rejected():
    q = QueueSpec(0.0, 0.2, None, Exponential(1.0), GATED)
    with pytest.raises(NonpositiveParameter, match="service_high"):
        dataclasses.replace(q, lambda_high=0.1)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_nonfinite_rates_rejected(bad):
    with pytest.raises(NonpositiveParameter):
        QueueSpec(bad, 0.2, Exponential(1.0), Exponential(1.0))
    with pytest.raises(NonpositiveParameter):
        QueueSpec(0.2, bad, Exponential(1.0), Exponential(1.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_nonfinite_distribution_parameters_rejected(bad):
    for make in (lambda: Deterministic(bad), lambda: Exponential(bad),
                 lambda: Erlang(2, bad), lambda: Hyperexponential((1.0,), (bad,)),
                 lambda: Uniform(0.0, bad), lambda: Uniform(bad, 1.0)):
        with pytest.raises(NonpositiveParameter):
            make()


def test_nan_load_is_unstable():
    class NanMean(Distribution):
        def moment(self, k):
            return math.nan

    m = PollingModel(queues=(QueueSpec(0.1, 0.0, NanMean(), None),),
                     switchovers=(Exponential(1.0),))
    with pytest.raises(UnstableSystem):
        validate(m)


def test_config_roundtrip():
    for model in (example1(), example2()):
        clone = model_from_config(model_to_config(model))
        assert clone == model


def test_load_model_file(tmp_path):
    path = tmp_path / "m.json"
    path.write_text(json.dumps(model_to_config(example1())))
    assert load_model(path) == example1()


def test_unknown_keys_rejected():
    cfg = model_to_config(example1())
    cfg["comment"] = "nope"
    with pytest.raises(ValueError):
        model_from_config(cfg)
    cfg = model_to_config(example1())
    cfg["queues"][0]["priority"] = 3
    with pytest.raises(ValueError):
        model_from_config(cfg)


_EXP = {"family": "exponential", "params": {"mean": 1.0}}
_QUEUE = {"lambda_low": 0.2, "service_low": _EXP}


@pytest.mark.parametrize("cfg", [
    [_QUEUE],
    {"switchovers": [_EXP]},
    {"queues": [], "switchovers": []},
    {"queues": [_QUEUE], "switchovers": _EXP},
    {"queues": [0.2], "switchovers": [_EXP]},
], ids=["not-an-object", "no-queues-key", "empty-queues", "switchovers-object",
        "queue-number"])
def test_malformed_model_config_rejected(cfg):
    with pytest.raises(ValueError):
        model_from_config(cfg)


@pytest.mark.parametrize("rate", [[0.2], "0.2", True, None])
def test_non_numeric_rates_rejected(rate):
    cfg = model_to_config(example1())
    cfg["queues"][0]["lambda_high"] = rate
    with pytest.raises(ValueError):
        model_from_config(cfg)


def test_replace_discipline():
    m = example1("gated").replace_discipline(0, "exhaustive")
    assert m.queues[0].discipline == "exhaustive"
    assert m.queues[1].discipline == "gated"


@pytest.mark.parametrize("module", ["analytic", "gf", "transforms", "sim", "busyperiod",
                                    "moments"])
def test_engine_modules_mention_no_discipline(module):
    # model.py's claim: every discipline-specific rule of the analysis and
    # the simulator reads CLEARED, so these modules name no discipline and
    # hold no discipline string (cli prints the names, and vacation keeps one
    # closed form per discipline)
    names = {"GATED", "EXHAUSTIVE", "MIXED", "DISCIPLINES"}
    path = pathlib.Path(priopoll.__file__).parent / f"{module}.py"
    found = [(node.lineno, ast.unparse(node))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Name) and node.id in names
             or isinstance(node, ast.Attribute) and node.attr in names
             or isinstance(node, ast.alias) and node.name in names
             or isinstance(node, ast.Constant) and node.value in DISCIPLINES]
    assert found == []
