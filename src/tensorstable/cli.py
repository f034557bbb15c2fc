"""Command-line front end: classification, region scans, lifting, witnessing.

Exit codes: 0 success, 1 malformed input, 2 domain error, 3 numeric error.
Output is deterministic for a fixed command line; ``region`` and ``verify``
pass ``--seed`` to ``region_scan(..., seed=)``.  ``witness`` prints
``threshold_search(family, n)``: the exact detection onset and its witness map.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import json
import sys

import numpy as np

from .criteria import (
    is_2tsp,
    is_3tsp,
    lift_ntsp,
    lift_x_max,
    ntsp_necessary,
    ntsp_sufficient_ball,
)
from .linalg import ConvergenceError
from .maps import PauliMap, classify, map_from_json, map_to_json
from .nonunital import (
    NonUnitalFamilyMap,
    classify_nonunital_positive,
    ghz_output_conditions,
    is_2tsp_nonunital,
    reduce_to_unital,
)
from .oracles import region_criteria, region_params, region_scan
from .witness import threshold_search

__all__ = ["main"]


class _UsageError(Exception):
    """Malformed command-line input (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # malformed input -> usage + exit 1
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(1)


def _write(text: str, args) -> None:
    if args.out:
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as exc:
            raise _UsageError(f"cannot write --out: {exc}") from None
    else:
        sys.stdout.write(text)


def _json_default(obj):
    # np.float64 subclasses float and encodes as one; verdicts are Python bools.
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    # Reports and criterion verdicts encode as their fields; the encoder recurses.
    if dataclasses.is_dataclass(obj):
        return {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not np.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _int_at_least(floor: int):
    """Argparse type for integers of at least ``floor``."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < floor:
            raise argparse.ArgumentTypeError(f"must be at least {floor}, got {value}")
        return value

    return parse


def _parse_lambda(text: str) -> tuple[float, ...]:
    try:
        vals = tuple(float(v) for v in text.split(","))
    except ValueError:
        raise _UsageError(f"bad --lambda value {text!r}") from None
    if not np.all(np.isfinite(vals)):
        raise _UsageError(f"--lambda values must be finite, got {text!r}")
    if len(vals) == 3:
        vals = (1.0, *vals)
    if len(vals) != 4:
        raise _UsageError("--lambda takes 3 or 4 comma-separated values")
    return vals


def _bloch_scalings(text: str) -> tuple[float, float, float]:
    """``(l1, l2, l3)`` of ``--lambda``; an explicit ``l0`` other than 1 is a domain error."""
    lam = _parse_lambda(text)
    if lam[0] != 1.0:
        raise ValueError(f"--lambda takes l0 = 1 only here, got l0 = {lam[0]!r}")
    return lam[1:]


def _cmd_classify(args) -> dict:
    if args.map is not None:
        if args.t is not None:
            raise _UsageError("--t applies to --lambda only; a --map file gives its own translation")
        try:
            with open(args.map) as fh:
                m = map_from_json(fh.read())
        except (OSError, ValueError) as exc:
            raise _UsageError(f"bad --map file: {exc}") from None
    elif args.t is not None:
        m = NonUnitalFamilyMap(t=args.t, lam3=_bloch_scalings(args.lam))
    else:
        m = PauliMap(_parse_lambda(args.lam))

    # Finite inputs can still overflow classify's and the criteria's arithmetic to inf/nan.
    # The float paths raise FloatingPointError themselves, numpy does under this errstate,
    # and Python's float ** raises OverflowError.
    try:
        with np.errstate(over="raise", invalid="raise"):
            rep = classify(m)
            payload = {"map": json.loads(map_to_json(m)), "report": rep, "criteria": {}}
            # The closed forms that apply follow from the family classify recognised.
            e = np.asarray(m.matrix)
            if rep.positivity_method == "nonunital-closed-form":
                fam = NonUnitalFamilyMap(t=float(e[3, 0]), lam3=tuple(np.diag(e)[1:]))
                payload["criteria"]["positive_family"] = classify_nonunital_positive(fam)
                payload["criteria"]["ghz_output"] = ghz_output_conditions(fam)
                if fam.is_interior():
                    payload["criteria"]["2tsp"] = is_2tsp_nonunital(fam)
            elif rep.positivity_method == "pauli-closed-form" and e[0, 0] > 0:
                # Only a positive scale keeps n-fold positivity; l0 <= 0 fits no closed form.
                lam3 = np.diag(e)[1:] / e[0, 0]
                payload["criteria"]["2tsp"] = is_2tsp(lam3)
                payload["criteria"]["3tsp"] = is_3tsp(lam3)
                payload["criteria"]["necessary"] = {str(n): ntsp_necessary(lam3, n) for n in (4, 5)}
                payload["criteria"]["ball"] = {str(n): ntsp_sufficient_ball(lam3, n) for n in (2, 3, 4)}
    except (FloatingPointError, OverflowError) as exc:
        source = "--map" if args.map else "--lambda" if args.t is None else "--lambda and --t"
        # args[-1]: Python's OverflowError carries (errno, message).
        raise ValueError(f"{source} values overflow the closed-form criteria ({exc.args[-1]})") from None
    return payload


def _scan(args):
    params = {"t": args.t} if args.t is not None else None
    if params and "t" not in region_params(args.criterion):
        raise _UsageError(f"--t does not apply to --criterion {args.criterion}")
    # A finite but huge --t can still overflow the family maps' arithmetic to inf/nan.
    guard = np.errstate(over="raise", invalid="raise") if params else contextlib.nullcontext()
    try:
        with guard:
            return region_scan(args.criterion, steps=args.grid, params=params, seed=args.seed)
    except (FloatingPointError, OverflowError) as exc:
        raise ValueError(f"--t {args.t!r} overflows the {args.criterion} scan ({exc.args[-1]})") from None


def _cmd_region(args) -> str:
    rep = _scan(args)
    return rep.to_csv() if args.format == "csv" else rep.to_json() + "\n"


def _cmd_verify(args) -> dict:
    rep = _scan(args)
    return {"criterion": rep.criterion, "params": rep.params, "summary": rep.summary}


def _cmd_lift(args) -> dict:
    lam = _bloch_scalings(args.lam)
    xm = lift_x_max(lam, args.n)
    lifted = lift_ntsp(lam, args.n)
    return {"lambda": lam, "n": args.n, "x_max": xm, "lambda_tilde": lifted}


def _cmd_reduce(args) -> dict:
    lam = _bloch_scalings(args.lam)
    rr = reduce_to_unital(NonUnitalFamilyMap(t=args.t, lam3=lam))
    return {
        "t": args.t,
        "lambda": lam,
        "tilde_lambda": rr.tilde_lam,
        "tilde_ratio": rr.tilde_ratio,
        "a_inv": rr.a_inv,
        "b_inv": rr.b_inv,
    }


def _cmd_witness(args) -> dict:
    return {"family": args.family, "n": args.n, **dataclasses.asdict(threshold_search(args.family, args.n))}


@functools.cache
def _build_parser() -> _Parser:
    parser = _Parser(prog="tensorstable", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, run):
        p.add_argument("--out", help="write the result to this path instead of stdout")
        p.set_defaults(run=run)

    def scan(p, run):
        p.add_argument("--criterion", required=True, choices=region_criteria())
        p.add_argument("--grid", type=_int_at_least(2), default=None, help="steps per axis (at least 2)")
        p.add_argument("--t", type=_finite_float, default=None, help="family translation parameter")
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="oracle seed (at least 0)")
        common(p, run)

    p = sub.add_parser("classify", help="classify a qubit map and run all criteria")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--lambda", dest="lam", help="l0,l1,l2,l3 or l1,l2,l3 (l0=1 assumed)")
    source.add_argument("--map", help="path to a map JSON file")
    p.add_argument("--t", type=_finite_float, help="translation along the third axis (with --lambda)")
    common(p, _cmd_classify)

    p = sub.add_parser("region", help="grid scan of a criterion against its oracle")
    scan(p, _cmd_region)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    # Not an option: the benchmark harness (bench/run.py) records this value.
    p.set_defaults(threads=1)

    p = sub.add_parser("verify", help="like region, but print the agreement summary only")
    scan(p, _cmd_verify)

    p = sub.add_parser("lift", help="shrink an n-stable map into an (n+1)-stable one")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--n", type=int, required=True)
    common(p, _cmd_lift)

    p = sub.add_parser("reduce", help="reduce a translated family map to unital form")
    p.add_argument("--lambda", dest="lam", required=True)
    p.add_argument("--t", type=_finite_float, required=True)
    common(p, _cmd_reduce)

    p = sub.add_parser("witness", help="entanglement-depth detection threshold search")
    p.add_argument("--family", required=True, choices=("ghz", "w"))
    p.add_argument("--n", type=int, required=True, choices=(1, 2))
    common(p, _cmd_witness)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        out = args.run(args)
        if not isinstance(out, str):
            out = json.dumps(out, sort_keys=True, indent=2, allow_nan=False, default=_json_default) + "\n"
        _write(out, args)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except MemoryError:
        # Only the scans allocate by an input's size: --grid per axis.
        if "grid" not in vars(args):
            raise
        sys.stderr.write(f"error: --grid {args.grid} is too fine: its points do not fit in memory\n")
        return 1
    except ConvergenceError as exc:
        sys.stderr.write(f"numeric error: {exc}\n")
        return 3
    except ValueError as exc:
        sys.stderr.write(f"domain error: {exc}\n")
        return 2
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
