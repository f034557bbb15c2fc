"""Seeded fuzz of the CLI contract, and malformed values at library entry points.

Whatever the arguments, ``main`` returns an exit code in {0, 1, 2, 3},
raises nothing, records no warning, and on success writes strict JSON.
A library entry point given a malformed value raises a ``ValueError`` that
names the input, or returns a finite result, and records no warning; one
whose documented overflow rule applies may raise ``FloatingPointError`` on
a huge finite value instead.
"""

import contextlib
import dataclasses
import io
import json
import random
import re
import warnings

import numpy as np
import pytest

from tensorstable.cli import main
from tensorstable.criteria import (
    depolarizing_pair_positive,
    mu_bound,
    ntsp_sufficient_ball,
    squared_map_choi,
    squared_map_choi_eigs,
)
from tensorstable.linalg import HermitianOperator, symmetric_linspace
from tensorstable.maps import PauliMap, lambda_to_q, max_entangled_projector, tensor_apply
from tensorstable.oracles import REGION_SCAN_CONFIG, ex2_family, min_output_eig, region_criteria, region_scan
from tensorstable.witness import build_state, depth_witness, threshold_search

# Ordinary values and the edges of the float range, subnormals among them.
NUMBERS = [
    "0", "-0", "0.5", "-0.5", "1", "-1", "0.3", "-0.7", "0.9", "-0.9", "1.5", "2",
    "1e308", "-1e308", "1e154", "-1e154", "1e200", "5e-324", "-1e-310",
]
# Text that is no finite number.
JUNK = ["nan", "inf", "-inf", "", "x", "1,2"]
JUNK_MAPS = [
    "", "{", "[]", "null", "1", '"lambda"', '{"lambda": "0.5,0.5,0.5"}', '{"lambda": [true, 0, 0]}',
    '{"lambda": [0.5, 0.5]}', '{"lambda": [0.5, 0.5, 0.5], "t": "x"}', '{"lambda": [0.5, 0.5, 0.5], "q": 1}',
    '{"lambda": [0.5, 0.5, 0.5], "t": [0, 0]}', '{"lambda": [NaN, 0, 0]}', '{"lambda": [1e999, 0, 0]}',
    '{"lambda": [2, 0.5, 0.5, 0.5], "t": 0.1}',
]
CASES = 2000


def _value(rng: random.Random) -> str:
    return rng.choice(JUNK) if rng.random() < 0.05 else rng.choice(NUMBERS)


def _lambda(rng: random.Random) -> str:
    # Three or four values mostly, sometimes a wrong count; l0 <= 0 comes up among the four.
    # "=" keeps a leading minus sign from reading as an option, here and below.
    count = rng.choice([3, 3, 3, 4, 4, 4, 4, 2, 5])
    return "--lambda=" + ",".join(_value(rng) for _ in range(count))


def _map_text(rng: random.Random) -> str:
    if rng.random() < 0.3:
        return rng.choice(JUNK_MAPS)
    lam = [_float(rng) if rng.random() < 0.95 else _value(rng) for _ in range(rng.choice([3, 4]))]
    payload = {"lambda": lam}
    if rng.random() < 0.5:
        payload["t"] = [0.0, 0.0, _float(rng)] if rng.random() < 0.8 else _float(rng)
    return json.dumps(payload)


def _float(rng: random.Random) -> float:
    try:
        return float(_value(rng))  # nan and inf go into the file as NaN and Infinity
    except ValueError:
        return 0.0


def _argv(rng: random.Random, tmp_path, index: int) -> list[str]:
    kind = rng.choice(["classify", "classify", "classify-t", "classify-map", "lift", "reduce", "witness", "verify"])
    if kind == "classify":
        return ["classify", _lambda(rng)]
    if kind == "classify-t":
        return ["classify", _lambda(rng), "--t=" + _value(rng)]
    if kind == "classify-map":
        path = tmp_path / f"map{index}.json"
        path.write_text(_map_text(rng))
        return ["classify", "--map", str(path)]
    if kind == "lift":
        return ["lift", _lambda(rng), "--n", rng.choice(["1", "2", "3", "0", "-1", "1.5", "x", "40"])]
    if kind == "reduce":
        return ["reduce", _lambda(rng), "--t=" + _value(rng)]
    if kind == "witness":
        return [
            "witness",
            "--family", rng.choice(["ghz", "w", "x"]),
            "--n", rng.choice(["1", "2", "3", "x"]),
        ]
    argv = ["verify", "--criterion", rng.choice([*region_criteria(), "x"]), "--grid", "3"]
    if rng.random() < 0.5:
        argv += ["--t=" + _value(rng)]
    if rng.random() < 0.3:
        argv += ["--seed", rng.choice(["0", "7", "-1", "x"])]
    return argv


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-strict JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_every_argv_keeps_the_exit_contract(tmp_path):
    rng = random.Random(20261020)
    codes = {}
    for index in range(CASES):
        argv = _argv(rng, tmp_path, index)
        out, err = io.StringIO(), io.StringIO()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as exc:
                    pytest.fail(f"{argv} raised {exc!r}")
        assert code in (0, 1, 2, 3), argv
        assert "Traceback" not in err.getvalue(), argv
        assert not caught, (argv, [str(w.message) for w in caught])
        if code == 0:
            _strict_json(out.getvalue())
        else:
            assert out.getvalue() == "" and err.getvalue().count("\n") >= 1, argv
        codes[code] = codes.get(code, 0) + 1
    # The generator reaches success, malformed input and domain errors alike.
    assert codes.get(0, 0) and codes.get(1, 0) and codes.get(2, 0), codes


# A non-finite, a huge, a float where an integer belongs, a bool and a string.
MALFORMED = [float("nan"), float("inf"), 1e308, 2.0, True, "x"]
_STATE = build_state("ghz", 0.5)


def _at(call, args, index):
    """``call`` with ``args[index]`` replaced by the value it is given."""
    return lambda value: call(*args[:index], value, *args[index + 1 :])


# (entry point with one argument left open, pattern its ValueError must name)
LIBRARY_INPUTS = {
    "build_state-kind": (_at(build_state, ("ghz", 0.5, 3), 0), "kind"),
    "build_state-q": (_at(build_state, ("ghz", 0.5, 3), 1), r"\bq\b"),
    "build_state-n": (_at(build_state, ("ghz", 0.5, 3), 2), "qubits"),
    "depth_witness-state": (_at(depth_witness, (_STATE, (0.4, 0.4, -0.4), 2), 0), "state"),
    "depth_witness-lam": (_at(depth_witness, (_STATE, (0.4, 0.4, -0.4), 2), 1), "lambda"),
    "depth_witness-lam-entry": (lambda v: depth_witness(_STATE, (v, 0.4, -0.4), 2), "lambda|witness map"),
    "depth_witness-n": (_at(depth_witness, (_STATE, (0.4, 0.4, -0.4), 2), 2), r"\bn\b"),
    "threshold_search-family": (_at(threshold_search, ("ghz", 1), 0), "family"),
    "threshold_search-n": (_at(threshold_search, ("ghz", 1), 1), r"\bn\b"),
    "mu_bound-phi": (_at(mu_bound, (-0.5, 0.2, 2), 0), "eigenvalues"),
    "mu_bound-eb": (_at(mu_bound, (-0.5, 0.2, 2), 1), "eigenvalues"),
    "mu_bound-n": (_at(mu_bound, (-0.5, 0.2, 2), 2), r"\bn\b"),
    "max_entangled_projector-d": (max_entangled_projector, r"\bd\b"),
    "HermitianOperator-matrix": (HermitianOperator, "matrix"),
    "HermitianOperator-entry": (lambda v: HermitianOperator([[v, 0], [0, 1]]), "matrix|operator entries"),
    "region_scan-param": (lambda v: region_scan("nonunital-2tsp", steps=2, params={"t": v}), r"\bt\b"),
    "symmetric_linspace-lo": (_at(symmetric_linspace, (-1.0, 1.0, 3), 0), "grid bounds"),
    "symmetric_linspace-hi": (_at(symmetric_linspace, (-1.0, 1.0, 3), 1), "grid bounds"),
    "depolarizing_pair_positive-q1": (_at(depolarizing_pair_positive, (0.5, 0.5), 0), r"\bq1\b"),
    "depolarizing_pair_positive-q2": (_at(depolarizing_pair_positive, (0.5, 0.5), 1), r"\bq2\b"),
    "ex2_family-mu": (ex2_family, r"\bmu\b"),
    "lambda_to_q-entry": (lambda v: lambda_to_q((1.0, v, 0.0, 0.0)), "lambda"),
    "ntsp_sufficient_ball-entry": (lambda v: ntsp_sufficient_ball((v, 0.1, 0.1), 3), "lambda"),
    "squared_map_choi-entry": (lambda v: squared_map_choi((v, 0.1, 0.1)), "lambda|operator entries"),
    "squared_map_choi_eigs-entry": (lambda v: squared_map_choi_eigs((v, 0.1, 0.1)), "lambda"),
    "tensor_apply-map-entry": (
        lambda v: tensor_apply([PauliMap((1.0, v, 0.1, 0.1))] * 2, max_entangled_projector(2)),
        "lambda",
    ),
    "min_output_eig-map-entry": (
        lambda v: min_output_eig([PauliMap((1.0, v, 0.1, 0.1))] * 2, REGION_SCAN_CONFIG),
        "lambda",
    ),
}
# The entries whose documented overflow rule raises FloatingPointError on 1e308, as is_2tsp does.
OVERFLOW_RAISES = {
    "squared_map_choi_eigs-entry",
    "tensor_apply-map-entry",
    "min_output_eig-map-entry",
}


def _numbers(result) -> list:
    """Every number a library result holds."""
    if isinstance(result, HermitianOperator):
        return _numbers(result.matrix)
    if dataclasses.is_dataclass(result):
        return [x for f in dataclasses.fields(result) for x in _numbers(getattr(result, f.name))]
    if result is None:
        return []
    return np.ravel(np.asarray(result, dtype=np.complex128)).tolist()


@pytest.mark.parametrize("entry", list(LIBRARY_INPUTS))
def test_library_entry_points_name_malformed_inputs(entry):
    call, name = LIBRARY_INPUTS[entry]
    for value in MALFORMED:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                result = call(value)
            except ValueError as exc:
                assert re.search(name, str(exc)), (value, str(exc))
            except FloatingPointError:
                assert entry in OVERFLOW_RAISES and value == 1e308, value
            else:
                assert np.isfinite(_numbers(result)).all(), (value, result)
        assert not caught, (value, [str(w.message) for w in caught])
