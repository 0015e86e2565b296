"""Fuzzing the input surface: mutated bundled models fail only with typed errors."""

import copy
import dataclasses
import json
import math
import pathlib
import random

import pytest

from priopoll import (Analyzer, OutOfRange, PriopollError, cli, model_from_config,
                      pcl_check)

DATA = pathlib.Path(__file__).resolve().parents[1] / "src" / "priopoll" / "data"
_BUNDLED = [json.loads(p.read_text()) for p in sorted(DATA.glob("*.json"))]
_OTHERS = ("text", [1.0], {"mean": 1.0}, True, None, math.inf, math.nan)


def _fields(node):
    """Every field of a JSON document as (its container, its key), depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield node, key
        if isinstance(value, (dict, list)):
            yield from _fields(value)


def _mutate(rng):
    """A bundled model with 1 to 3 fields changed: most set a number to
    10^U(-320, 308), some set any field to another JSON type, inf or NaN, and
    some delete a field."""
    cfg = copy.deepcopy(rng.choice(_BUNDLED))
    for _ in range(rng.randint(1, 3)):
        fields = list(_fields(cfg))
        numbers = [(node, key) for node, key in fields if type(node[key]) in (int, float)]
        kind = rng.random()
        if kind < 0.8 and numbers:
            node, key = rng.choice(numbers)
            node[key] = 10.0 ** rng.uniform(-320.0, 308.0)
        elif fields:
            node, key = rng.choice(fields)
            if kind < 0.95:
                node[key] = copy.deepcopy(rng.choice(_OTHERS))
            else:
                del node[key]
    return cfg


def _valid(report):
    """Every number of the report is finite, every mean wait positive and
    every variance nonnegative; the pcl residual is not held to a bound."""
    numbers = [report.pcl_lhs, report.pcl_rhs, report.pcl_residual]
    numbers += [x for r in report.classes for x in (r.mean_wait, r.var_wait, r.mean_qlen)]
    numbers += [x for p in report.periods for x in dataclasses.astuple(p) if x is not None]
    return (all(map(math.isfinite, numbers))
            and all(r.mean_wait > 0.0 and r.var_wait >= 0.0 for r in report.classes))


# seed 3 drew a -0.0 mean wait and seed 8 an infinite queue length, both
# answered before the engine checked them
@pytest.mark.parametrize("seed", [1, 2, 3, 8])
def test_mutated_models_raise_only_typed_errors(seed):
    rng = random.Random(seed)
    for _ in range(5000):
        cfg = _mutate(rng)
        try:
            report = Analyzer(model_from_config(cfg)).report()
        except (ValueError, PriopollError):
            continue
        except Exception as exc:  # name the model that raised it
            pytest.fail(f"{type(exc).__name__}: {exc} on {json.dumps(cfg)}")
        assert _valid(report), json.dumps(cfg)


def test_cli_on_mutated_models_exits_with_a_code(tmp_path, capsys):
    rng = random.Random(3)
    path = tmp_path / "mutated.json"
    codes = set()
    for _ in range(300):
        path.write_text(json.dumps(_mutate(rng)))
        code = cli.main(["analyze", "--model", str(path)])
        err = capsys.readouterr().err
        assert code in range(5), path.read_text()
        assert code == 0 or err.startswith("error:"), path.read_text()
        codes.add(code)
    assert {0, 1} <= codes


def _underflowing_vacation():
    """vacation.json with every time and rate so small that the conservation
    sum's right-hand side underflows to 0, while the means (about 1.3e-63)
    are still in range."""
    cfg = json.loads((DATA / "vacation.json").read_text())
    cfg["queues"][0]["lambda_high"] = 1.1e-229
    cfg["queues"][0]["service_low"]["params"]["mean"] = 1e-276
    cfg["switchovers"][0]["params"]["value"] = 2.6e-63
    return cfg


def test_underflowing_conservation_sum_is_a_typed_error():
    model = model_from_config(_underflowing_vacation())
    assert Analyzer(model).mean_wait(0, "L") == pytest.approx(1.3e-63, rel=1e-12)
    with pytest.raises(OutOfRange, match="conservation sum"):
        Analyzer(model).report()
    with pytest.raises(OutOfRange, match="conservation sum"):
        pcl_check(model)


@pytest.mark.parametrize("command", ["analyze", "check"])
def test_underflowing_conservation_sum_exit_code(command, tmp_path, capsys):
    path = tmp_path / "underflow.json"
    path.write_text(json.dumps(_underflowing_vacation()))
    assert cli.main([command, "--model", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: conservation sum")


def test_subnormal_switchover_is_a_typed_error():
    # vacation.json with a Deterministic(7.6e-311) switch-over: queue 1 L's
    # mean wait, about 1e-134, read -0.0 with a 0 variance and pcl residual
    cfg = json.loads((DATA / "vacation.json").read_text())
    cfg["queues"][0]["lambda_high"] = 2.2e-134
    cfg["queues"][0]["service_low"]["params"]["mean"] = 3.7e-201
    cfg["switchovers"][0]["params"]["value"] = 7.6e-311
    model = model_from_config(cfg)
    with pytest.raises(OutOfRange, match="no positive mean"):
        Analyzer(model).mean_wait(0, "L")
    with pytest.raises(OutOfRange, match="no positive mean"):
        Analyzer(model).report()
