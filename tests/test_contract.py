"""Seeded fuzz of the CLI contract.

Whatever the arguments, ``main`` returns an exit code in {0, 1, 2, 3},
raises nothing, records no warning, and on success writes strict JSON.
"""

import contextlib
import io
import json
import random
import warnings

import pytest

from tensorstable.cli import main
from tensorstable.oracles import region_criteria

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
        argv = ["lift", _lambda(rng), "--n", rng.choice(["1", "2", "3", "0", "-1", "1.5", "x", "40"])]
        return argv + (["--x=" + _value(rng)] if rng.random() < 0.4 else [])
    if kind == "reduce":
        return ["reduce", _lambda(rng), "--t=" + _value(rng)]
    if kind == "witness":
        return [
            "witness",
            "--family", rng.choice(["ghz", "w", "x"]),
            "--n", rng.choice(["1", "2", "3", "x"]),
            "--steps", rng.choice(["2", "3", "5", "1", "0", "x"]),
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
