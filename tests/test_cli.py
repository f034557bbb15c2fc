import argparse
import json

import numpy as np
import pytest

from tensorstable.cli import _build_parser, main
from tensorstable.oracles import region_criteria


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestClassify:
    def test_boundary_map(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--lambda", "1,0.707107,0,0.707107"
        )
        assert code == 0
        data = json.loads(out)
        assert data["report"]["positive"] is True
        assert data["report"]["cp"] is False
        # the rounded input sits within 1e-6 of the stability boundary
        assert abs(data["criteria"]["2tsp"]["worst_slack"]) < 1e-5
        assert data["criteria"]["3tsp"]["satisfied"] is False

    def test_three_component_lambda(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "0.5,0.5,0.5")
        data = json.loads(out)
        assert code == 0
        assert data["map"]["lambda"] == [1.0, 0.5, 0.5, 0.5]
        assert data["report"]["cp"] is True

    def test_translated_family(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "0,0,0", "--t", "0.8")
        data = json.loads(out)
        assert code == 0
        assert data["map"]["t"] == [0.0, 0.0, 0.8]
        assert data["criteria"]["positive_family"]["satisfied"] is True
        assert data["criteria"]["2tsp"]["satisfied"] is True
        assert data["criteria"]["ghz_output"]["satisfied"] is True

    def test_map_file(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"lambda": [1.0, 0.2, 0.2, 0.2]}')
        code, out, _ = run(capsys, "classify", "--map", str(path))
        assert code == 0
        assert json.loads(out)["report"]["eb"] is True

    def test_map_file_with_translation(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"lambda": [1.0, 0.1, 0.1, 0.1], "t": [0.0, 0.0, 0.5]}')
        code, out, _ = run(capsys, "classify", "--map", str(path))
        assert code == 0
        data = json.loads(out)
        assert data["map"]["t"] == [0.0, 0.0, 0.5]
        assert data["criteria"]["positive_family"]["satisfied"] is True
        assert data["report"]["positivity_method"] == "nonunital-closed-form"

    def test_map_file_general_translation_skips_family_criteria(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"lambda": [1.0, 0.1, 0.1, 0.1], "t": [0.2, 0.0, 0.1]}')
        code, out, _ = run(capsys, "classify", "--map", str(path))
        assert code == 0
        data = json.loads(out)
        assert "positive_family" not in data["criteria"]
        assert data["report"]["positivity_method"] == "numeric-block-positivity"

    def test_missing_input_is_usage_error(self, capsys):
        code, out, err = run(capsys, "classify")
        assert code == 1 and out == ""
        assert "--lambda" in err and "--map" in err

    PAULI_KEYS = {"2tsp", "3tsp", "necessary", "ball"}
    FAMILY_KEYS = {"positive_family", "ghz_output", "2tsp"}

    @pytest.mark.parametrize(
        "argv,keys,has_t",
        [
            (["--lambda", "1,0.707107,0,0.707107"], PAULI_KEYS, False),
            (["--lambda", "0.9,0.5,-0.2,0.1"], PAULI_KEYS, False),
            (["--lambda", "0.5,0.5,0.5", "--t", "0"], PAULI_KEYS, False),
            (["--lambda", "0.3,0.2,0.1", "--t", "0.5"], FAMILY_KEYS, True),  # interior
            (["--lambda", "0.2,0.3,0.5", "--t", "0.5"], FAMILY_KEYS - {"2tsp"}, True),  # boundary
            (["--lambda", "0.1,0.1,0.5", "--t", "0.8"], FAMILY_KEYS - {"2tsp"}, True),  # exterior
            # The closed forms hold up to a positive scale only: Phi x Phi of 0,0.5,0.5,0.5
            # is negative on the Bell state, and the threefold power of -1,0.5,0.5,0.5 on |000>.
            (["--lambda=2,0.5,0.5,0.5"], PAULI_KEYS, False),
            (["--lambda=0,0.5,0.5,0.5"], set(), False),
            (["--lambda=-1,0.5,0.5,0.5"], set(), False),
            (["--lambda=0,0,0,0"], set(), False),
        ],
    )
    def test_criteria_follow_the_map_family(self, capsys, argv, keys, has_t):
        code, out, _ = run(capsys, "classify", *argv)
        assert code == 0
        data = json.loads(out)
        assert set(data["criteria"]) == keys
        assert ("t" in data["map"]) == has_t

    @pytest.mark.parametrize(
        "text,keys,has_t",
        [
            ('{"lambda": [0.5, 0.5, 0.5]}', PAULI_KEYS, False),
            ('{"lambda": [0.9, 0.5, -0.2, 0.1]}', PAULI_KEYS, False),
            ('{"lambda": [1.0, 0.3, 0.1, 0.1], "t": [0.0, 0.0, 0.0]}', PAULI_KEYS, False),
            ('{"lambda": [1.0, 0.1, 0.1, 0.1], "t": [0.0, 0.0, 0.5]}', FAMILY_KEYS, True),
            ('{"lambda": [0.2, 0.3, 0.5], "t": 0.5}', FAMILY_KEYS - {"2tsp"}, True),
            ('{"lambda": [1.0, 0.1, 0.1, 0.1], "t": [0.2, 0.0, 0.1]}', set(), True),
        ],
    )
    def test_map_file_criteria_follow_the_map_family(self, capsys, tmp_path, text, keys, has_t):
        path = tmp_path / "map.json"
        path.write_text(text)
        code, out, _ = run(capsys, "classify", "--map", str(path))
        assert code == 0
        data = json.loads(out)
        assert set(data["criteria"]) == keys
        assert ("t" in data["map"]) == has_t

    def test_malformed_lambda(self, capsys):
        code, _, err = run(capsys, "classify", "--lambda", "1,2")
        assert code == 1

    @pytest.mark.parametrize("lam", ["2,0,1,nan", "inf,0,0"])
    def test_non_finite_lambda(self, capsys, lam):
        code, out, err = run(capsys, "classify", "--lambda", lam)
        assert code == 1 and out == ""
        assert "finite" in err

    def test_non_finite_translation(self, capsys):
        code, out, _ = run(capsys, "classify", "--lambda", "0,0,0", "--t", "nan")
        assert code == 1 and out == ""

    def test_translation_that_is_not_a_number(self, capsys):
        code, out, err = run(capsys, "classify", "--lambda", "0.1,0.1,0.1", "--t", "abc")
        assert code == 1 and out == ""
        assert "not a number: 'abc'" in err

    def test_missing_map_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "classify", "--map", str(tmp_path / "missing.json"))
        assert code == 1
        assert "Traceback" not in err

    def test_map_file_with_a_string_for_lambda(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"lambda": "123"}')
        code, out, err = run(capsys, "classify", "--map", str(path))
        assert code == 1 and out == ""
        assert "lambda" in err

    def test_map_file_with_an_unknown_key(self, capsys, tmp_path):
        # A misspelt "t" must not silently classify the untranslated map.
        path = tmp_path / "map.json"
        path.write_text('{"lambda": [0.1, 0.1, 0.1], "T": 0.5}')
        code, out, err = run(capsys, "classify", "--map", str(path))
        assert code == 1 and out == ""
        assert "'T'" in err and err.count("\n") == 1

    def test_l0_other_than_one_with_t_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "classify", "--lambda", "2,0.5,0.5,0.5", "--t", "0.2")
        assert code == 2 and out == ""
        assert "l0 = 1" in err

    def test_map_file_without_lambda(self, capsys, tmp_path):
        path = tmp_path / "map.json"
        path.write_text('{"t": [0.0, 0.0, 0.5]}')
        code, _, err = run(capsys, "classify", "--map", str(path))
        assert code == 1
        assert "lambda" in err

    def test_unwritable_output_path(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        code, out, _ = run(capsys, "classify", "--lambda", "0.5,0.5,0.5", "--out", str(target))
        assert code == 1 and out == ""

    def test_overflow_is_not_written_as_json(self, capsys):
        # Finite input whose slacks overflow to nan: an error exit, not "NaN" on stdout.
        code, out, _ = run(capsys, "classify", "--lambda", "1e300,1e300,1e300")
        assert code in (1, 2) and out == ""

    @pytest.mark.parametrize("lam", ["1e300,1e300,1e300", "1e-310,1,1,1", "1e308,1e308,1e308", "0,0,0 --t 1e308"])
    def test_overflow_is_a_domain_error_naming_the_input(self, capsys, recwarn, lam):
        # t = 1e308 overflows t*t, so --t must be named with --lambda.
        code, out, err = run(capsys, "classify", "--lambda", *lam.split())
        named = "--lambda and --t" if "--t" in lam else "--lambda"
        assert code == 2 and out == ""
        assert err.startswith(f"domain error: {named} values") and err.count("\n") == 1
        # pytest captures warnings before they reach stderr; recwarn sees them.
        assert "Warning" not in err and not recwarn.list

    def test_pauli_weights_that_overflow_are_a_domain_error(self, capsys, recwarn):
        # "=" keeps argparse from reading the leading minus as an option.
        code, out, err = run(capsys, "classify", "--lambda=-1e308,1e308,0,0")
        assert code == 2 and out == ""
        assert err.startswith("domain error: --lambda values overflow") and err.count("\n") == 1
        assert not recwarn.list

    @pytest.mark.parametrize("source", ["--lambda", "--map"])
    def test_translated_map_whose_ghz_root_overflows_is_a_domain_error(self, capsys, recwarn, tmp_path, source):
        # (l1^2 + l2^2)^2 overflows in Python's float power, which raises OverflowError.
        if source == "--map":
            path = tmp_path / "map.json"
            path.write_text('{"lambda": [1, 0.5, 1e154, -1e308], "t": [0, 0, -0.5]}')
            argv = ["--map", str(path)]
        else:
            argv = ["--lambda", "0.5,1e154,-1e308", "--t", "-0.5"]
        code, out, err = run(capsys, "classify", *argv)
        named = "--map" if source == "--map" else "--lambda and --t"
        assert code == 2 and out == ""
        assert err.startswith(f"domain error: {named} values overflow") and err.count("\n") == 1
        assert not recwarn.list

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(
            capsys, "classify", "--lambda", "0.5,0.5,0.5", "--out", str(target)
        )
        assert code == 0 and out == ""
        assert json.loads(target.read_text())["report"]["cp"] is True


class TestRegion:
    def test_csv_output(self, capsys, tmp_path):
        target = tmp_path / "region.csv"
        code, _, _ = run(
            capsys,
            "region",
            "--criterion",
            "depolarizing",
            "--grid",
            "9",
            "--format",
            "csv",
            "--out",
            str(target),
        )
        assert code == 0
        lines = target.read_text().strip().split("\n")
        assert lines[0] == "q1,q2,analytic,oracle,flag"
        assert len(lines) == 82
        for line in lines[1:]:
            q1, q2, analytic, _, _ = line.split(",")
            assert (float(q1) * float(q2) >= -1 / 3) == (analytic == "1")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["region", "--criterion", "depolarizing", "--grid", "7",
                "--format", "csv", "--seed", "5"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        capsys.readouterr()
        assert out1.read_bytes() == out2.read_bytes()

    def test_unknown_criterion_is_usage_error(self, capsys):
        code, _, err = run(capsys, "region", "--criterion", "nope")
        assert code == 1

    @pytest.mark.parametrize("command", ["region", "verify"])
    @pytest.mark.parametrize("criterion", ["depolarizing", "2tsp", "3tsp"])
    def test_t_without_a_family_parameter_is_usage_error(self, capsys, command, criterion):
        code, out, err = run(capsys, command, "--criterion", criterion, "--grid", "3", "--t", "0.5")
        assert code == 1 and out == ""
        assert "--t" in err

    @pytest.mark.parametrize("command", ["region", "verify"])
    @pytest.mark.parametrize(
        "option,value",
        [("--grid", "1"), ("--grid", "0"), ("--grid", "-3"), ("--seed", "-1")],
        ids=["1", "0", "-3", "seed-1"],
    )
    def test_grid_below_two_is_usage_error(self, capsys, command, option, value):
        """Integer options below their floor, --grid below two and --seed below zero."""
        options = {"--grid": "2", option: value}
        code, out, err = run(capsys, command, "--criterion", "2tsp", *[a for kv in options.items() for a in kv])
        assert code == 1 and out == ""
        assert f"error: argument {option}: " in err

    @pytest.mark.parametrize("t", ["1", "-1.5"])
    def test_nonunital_2tsp_outside_the_cone_is_a_domain_error(self, capsys, t):
        code, out, err = run(capsys, "verify", "--criterion", "nonunital-2tsp", "--grid", "3", "--t", t)
        assert code == 2 and out == ""
        assert err.startswith("domain error: nonunital-2tsp needs |t| < 1") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["region", "verify"])
    @pytest.mark.parametrize("t", ["1.4e154", "1e200"])
    def test_t_that_overflows_the_scan_is_a_domain_error_naming_t(self, capsys, recwarn, command, t):
        code, out, err = run(capsys, command, "--criterion", "nonunital-ghz", "--grid", "2", "--t", t)
        assert code == 2 and out == ""
        assert err.startswith(f"domain error: --t {float(t)!r} overflows") and err.count("\n") == 1
        assert not recwarn.list

    def test_huge_t_that_does_not_overflow_still_scans(self, capsys):
        code, out, _ = run(capsys, "verify", "--criterion", "nonunital-positive", "--grid", "2", "--t", "1e200")
        assert code == 0
        assert json.loads(out)["summary"] == {"agree": 8, "disagree": 0, "marginal": 0}

    def test_see_saw_that_does_not_converge_is_a_numeric_error(self, capsys, monkeypatch):
        monkeypatch.setattr("tensorstable.linalg.MAX_ITERS", 1)
        code, out, err = run(capsys, "verify", "--criterion", "2tsp", "--grid", "2")
        assert code == 3 and out == ""
        assert err == "numeric error: see-saw did not converge in 1 iterations\n"

    def test_grid_too_large_for_memory_is_usage_error(self, capsys):
        # 3 axes of 1e5 steps: 1e15 points, which no host can allocate.
        code, out, err = run(capsys, "verify", "--criterion", "2tsp", "--grid", "100000")
        assert code == 1 and out == ""
        assert "--grid" in err and err.count("\n") == 1
        assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["classify", "--lambda", "1,0,1", "--format", "csv"],
        ["witness", "--family", "ghz", "--n", "1", "--seed", "3"],
        ["region", "--criterion", "depolarizing", "--grid", "3", "--threads", "2"],
        ["verify", "--criterion", "depolarizing", "--grid", "3", "--format", "csv"],
    ],
)
def test_options_nothing_reads_are_rejected(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert "unrecognized arguments" in err


class TestVerify:
    def test_summary(self, capsys):
        code, out, _ = run(capsys, "verify", "--criterion", "depolarizing", "--grid", "9")
        assert code == 0
        data = json.loads(out)
        assert data["summary"]["disagree"] == 0
        assert sum(data["summary"].values()) == 81


class TestLift:
    def test_known_constant(self, capsys):
        code, out, _ = run(capsys, "lift", "--lambda", "1,0,1", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["lambda_tilde"][0] == pytest.approx(0.63, abs=0.005)
        assert data["x_max"] == pytest.approx(0.35355, abs=1e-4)

    def test_domain_error_exit(self, capsys):
        code, _, err = run(capsys, "lift", "--lambda", "0.1,0.1,0.1", "--n", "1")
        assert code == 2
        assert "domain error" in err

    @pytest.mark.parametrize("lam", ["1e300,1e300,1e300", "1.5,0,0", "0.5,-2,0.5"])
    def test_points_outside_the_cube_are_domain_errors(self, capsys, lam):
        code, out, err = run(capsys, "lift", "--lambda=" + lam, "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("domain error: lift requires a positive map")

    def test_non_finite_lambda(self, capsys):
        code, out, err = run(capsys, "lift", "--lambda", "nan,0,1", "--n", "1")
        assert code == 1 and out == ""
        assert "finite" in err

    def test_l0_other_than_one_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "lift", "--lambda", "0.5,0.5,0.5,0.5", "--n", "1")
        assert code == 2 and out == ""
        assert err.startswith("domain error: --lambda takes l0 = 1")

    def test_x_is_no_option(self, capsys):
        # The lift always uses x_max, whose output dominates every smaller x.
        code, out, err = run(capsys, "lift", "--lambda", "1,0,1", "--n", "1", "--x", "0.1")
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --x 0.1"
        ]


class TestReduce:
    def test_unital_ratios(self, capsys):
        code, out, _ = run(capsys, "reduce", "--lambda", "0.3,-0.5,0.7", "--t", "0")
        assert code == 0
        data = json.loads(out)
        assert data["tilde_ratio"] == pytest.approx([0.3, -0.5, 0.7], abs=1e-12)

    def test_exterior_is_domain_error(self, capsys):
        code, _, err = run(capsys, "reduce", "--lambda", "0,0,0.5", "--t", "0.9")
        assert code == 2

    def test_l0_other_than_one_is_a_domain_error(self, capsys):
        code, out, err = run(capsys, "reduce", "--lambda", "2,0.3,0.2,0.1", "--t", "0.5")
        assert code == 2 and out == ""
        assert err.startswith("domain error: --lambda takes l0 = 1")


class TestWitness:
    def test_ghz_depth_two(self, capsys):
        code, out, _ = run(capsys, "witness", "--family", "ghz", "--n", "1")
        assert code == 0
        data = json.loads(out)
        assert data["q_star"] == pytest.approx(0.25, abs=0.02)
        assert data["witness"] is not None

    def test_usage_error(self, capsys):
        code, _, _ = run(capsys, "witness", "--family", "ghz", "--n", "5")
        assert code == 1

    def test_steps_is_no_option(self, capsys):
        # The search is exact; it has no resolution to set.
        code, out, err = run(capsys, "witness", "--family", "ghz", "--n", "2", "--steps", "5")
        assert code == 1 and out == ""
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: unrecognized arguments: --steps 5"
        ]


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


class TestFuzz:
    """Seeded malformed command lines: the exit-code contract and strict JSON hold."""

    BAD_NUMBERS = ["nan", "inf", "-inf", "abc", "", "1e400"]
    BAD_LAMBDAS = ["nan,0,1", "inf,0,0", "2,0,1,nan", "1,2", "1,,2", ",", "abc", "", "-1", "0", "1e400,0,0"]
    BAD_INTS = ["-1", "0", "abc", "", "nan", "inf"]

    def options(self, maps):
        lam = ["0.5,0.5,0.5", "1,0.7,0,0.7", "0.3,-0.5,0.7", "0,0,0", "1e300,1e300,1e300", "1e-310,1,1,1"]
        scan = {
            "--criterion": (list(region_criteria()), ["nope", ""]),
            "--grid": (["1", "2", "3"], self.BAD_INTS),
            "--t": (["0.8", "0", "0.4", "-1", "5"], self.BAD_NUMBERS),
            "--seed": (["0", "3"], self.BAD_INTS),
        }
        return {
            "classify": {
                "--lambda": (lam, self.BAD_LAMBDAS),
                "--t": (["0.8", "0", "2"], self.BAD_NUMBERS),
                "--map": (maps[:1], maps[1:]),
            },
            "region": {**scan, "--format": (["json", "csv"], ["xml", ""])},
            "verify": scan,
            "lift": {
                "--lambda": (["1,0,1", "0.5,0.5,0.5", "0.1,0.1,0.1"], self.BAD_LAMBDAS),
                "--n": (["1", "2", "5"], self.BAD_INTS),
            },
            "reduce": {
                "--lambda": (["0.3,-0.5,0.7", "0,0,0.5"], self.BAD_LAMBDAS),
                "--t": (["0", "0.5", "0.9"], self.BAD_NUMBERS),
            },
            "witness": {
                "--family": (["ghz", "w"], ["cluster", ""]),
                "--n": (["1", "2"], self.BAD_INTS),
            },
        }

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--t", "0.5"],
            ["--lambda", "0.5,0.5,0.5", "--map", "MAP"],
            ["--map", "MAP", "--lambda", "0.5,0.5,0.5", "--t", "0"],
            ["--map", "MAP", "--t", "0.5"],
            ["--map", "MAP", "--t", "0"],
            ["--map", ""],
        ],
    )
    def test_classify_takes_one_input(self, capsys, tmp_path, argv):
        """--lambda or --map, never both and never neither; --t only with --lambda."""
        path = tmp_path / "map.json"
        path.write_text('{"lambda": [0.5, 0.5, 0.5]}')
        code, out, err = run(capsys, "classify", *[str(path) if a == "MAP" else a for a in argv])
        assert code == 1 and out == ""
        assert "Traceback" not in err

    def test_exit_codes_and_strict_json(self, capsys, tmp_path):
        maps = []
        for name, text in [
            ("good", '{"lambda": [0.5, 0.5, 0.5]}'),
            ("no_lambda", "{}"),
            ("nan", '{"lambda": [NaN, 0, 0]}'),
            ("broken", '{"lambda": '),
        ]:
            (tmp_path / name).write_text(text)
            maps.append(str(tmp_path / name))
        maps.append(str(tmp_path / "missing"))
        options = self.options(maps)
        rng = np.random.default_rng(20241018)
        codes = set()
        for _ in range(200):
            command = str(rng.choice(sorted(options)))
            argv = [command]
            for opt, (good, bad) in options[command].items():
                # --grid is always given: the default grids take seconds per scan.
                if opt != "--grid" and rng.random() < 0.2:
                    continue
                argv += [opt, str(rng.choice(good if rng.random() < 0.9 else bad))]
            if rng.random() < 0.1:
                argv += [str(rng.choice(["--threads", "--seed", "--format"])), "2"]
            code, out, err = run(capsys, *argv)
            assert code in (0, 1, 2, 3), argv
            assert "Traceback" not in err, argv
            if out and not (command == "region" and "csv" in argv):
                json.loads(out, parse_constant=_reject_constant)
            codes.add(code)
        assert {0, 1, 2} <= codes

    def test_options_cover_every_command_option(self):
        """Each command's options, less --out and help, are the ones the fuzz draws from,
        so a new option fails here until it is declared on purpose."""
        (commands,) = [a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
        declared = self.options(["map.json"])
        assert sorted(commands.choices) == sorted(declared)
        for name, parser in commands.choices.items():
            options = {o for a in parser._actions for o in a.option_strings} - {"-h", "--help", "--out"}
            assert options == set(declared[name]), name
