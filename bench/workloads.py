"""The benchmark's workloads: inputs made from a seed, the ops, and their checks.

An op is one public call as a user makes it.  A workload is a fixed cycle of
ops generated from the seed.  The benchmark repeats whole cycles, so every
run does the same mix of ops, and every cycle must reproduce the outputs of
the first one.  The ops look functions up on the tensorstable modules at
call time, so the tracer's wrappers are seen when they are installed.

Each check compares the program against closed forms computed here, not by
the package, and returns an :class:`Outcome`.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import itertools
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from tensorstable import cli, criteria, maps, nonunital, witness

# Verdict thresholds of the package's oracles (tensorstable.linalg); a value
# between them is marginal.
CONFIRM_TOL = 1e-9
REFUTE_TOL = 1e-6
# Generated inputs keep every closed-form slack this far from zero, so no
# verdict the checks compare depends on the last bits of a float.
EDGE = 1e-7

# The paper's printed GHZ/W detection thresholds q* for threshold_search.
WITNESS_Q = {("ghz", 1): 0.26, ("ghz", 2): 0.71, ("w", 1): 0.31, ("w", 2): 0.86}
WITNESS_Q_TOL = 0.02


@dataclass
class Outcome:
    """What the check of one op found."""

    error: str | None  # why the op failed its check, or None
    marginal: int  # verdicts inside a tolerance band
    digest: str  # booleans, signs and flags of the result, no magnitudes


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    verdicts: int
    check: Callable[[Any], Outcome]


@dataclass
class Workload:
    name: str
    ops: list[Op]
    warmup: Op  # one op of the cycle, of the same cost in every seed


# ---------------------------------------------------------------- closed forms


def hyperboloid_slacks(lam) -> np.ndarray:
    """The three 2-tensor-stability slacks ``1 + l_i^2 - l_j^2 - l_k^2``."""
    a, b, c = np.asarray(lam, dtype=float) ** 2
    return np.array([(1.0 + a) - (b + c), (1.0 + b) - (a + c), (1.0 + c) - (a + b)])


def cubic_slacks(lam) -> np.ndarray:
    """The twelve 3-tensor-stability slacks ``1 -+ (l_i^3 + 3 l_i l_j^2) + 3 l_k^2``."""
    out = []
    for i, j, k in itertools.permutations(range(3)):
        core = lam[i] ** 3 + 3.0 * lam[i] * lam[j] ** 2
        out += [1.0 - core + 3.0 * lam[k] ** 2, 1.0 + core + 3.0 * lam[k] ** 2]
    return np.array(out)


def pauli_q(lam) -> np.ndarray:
    """Choi weights of the trace-preserving Pauli map; CP iff all are >= 0."""
    l1, l2, l3 = lam
    return np.array([1 + l1 + l2 + l3, 1 + l1 - l2 - l3, 1 - l1 + l2 - l3, 1 - l1 - l2 + l3]) / 4.0


def ghz_output_min(lam, q: float, nq: int) -> float:
    """Smallest eigenvalue of ``Lambda^{x nq}`` applied to noisy ``nq``-qubit GHZ.

    The output splits into 2x2 blocks on each pair ``x, not x``; with ``w``
    the weight of ``x``, the block has diagonal ``d_w`` and off-diagonal
    ``o_w``, and its eigenvalues are ``d_w +- o_w``.
    """
    l1, l2, l3 = lam
    a, b = (l1 + l2) / 2.0, (l1 - l2) / 2.0
    up, dn = (1.0 + l3) / 2.0, (1.0 - l3) / 2.0
    best = np.inf
    for w in range(nq + 1):
        d = 0.5 * (up ** (nq - w) * dn**w + dn ** (nq - w) * up**w)
        o = 0.5 * (a ** (nq - w) * b**w + a**w * b ** (nq - w))
        best = min(best, d - abs(o))
    return q * best + (1.0 - q) / 2**nq


def _certified(lam, n: int) -> bool:
    if n == 1:
        return bool(np.abs(lam).max() <= 1.0 - EDGE)
    slacks = hyperboloid_slacks(lam) if n == 2 else cubic_slacks(lam)
    return bool(slacks.min() >= EDGE)


def _clear_of_edges(lam) -> bool:
    slacks = np.concatenate([hyperboloid_slacks(lam), cubic_slacks(lam), pauli_q(lam)])
    return bool(np.abs(slacks).min() > EDGE)


def _point(rng) -> np.ndarray:
    while True:
        lam = rng.uniform(-1.0, 1.0, 3)
        if _clear_of_edges(lam):
            return lam


def _sign(v: float) -> str:
    if not np.isfinite(v):
        return "nan"
    return "+" if v >= -CONFIRM_TOL else ("-" if v < -REFUTE_TOL else "0")


def _in_band(v: float) -> bool:
    return -REFUTE_TOL <= v < -CONFIRM_TOL


def _hash(*parts) -> str:
    return hashlib.sha256(repr(parts).encode()).hexdigest()[:16]


def fingerprint(result) -> str:
    """Hash of a result's full content, magnitudes included, for repeat checks."""
    h = hashlib.sha256()

    def feed(obj):
        if dataclasses.is_dataclass(obj):
            h.update(type(obj).__name__.encode())
            for f in dataclasses.fields(obj):
                feed(getattr(obj, f.name))
        elif isinstance(obj, np.ndarray):
            h.update(f"{obj.dtype}{obj.shape}".encode())
            h.update(np.ascontiguousarray(obj).tobytes())
        elif isinstance(obj, dict):
            for key in sorted(obj, key=repr):
                feed(key)
                feed(obj[key])
        elif isinstance(obj, (list, tuple)):
            h.update(f"[{len(obj)}".encode())
            for item in obj:
                feed(item)
        else:
            h.update(repr(obj).encode())

    feed(result)
    return h.hexdigest()[:16]


def digest_of(records) -> str:
    """One digest for a cycle: the per-op digests in order."""
    return _hash([r.digest for r in records])


def _fail_if(problems: list[str]) -> str | None:
    return "; ".join(problems) if problems else None


# ----------------------------------------------------------------- cli-region


def run_cli(argv):
    """``tensorstable.cli.main(argv)`` in process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def _strict_json(text: str):
    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def _cli_op(kind, argv, verdicts, check) -> Op:
    def checked(result) -> Outcome:
        code, out, err = result
        if code != 0:
            return Outcome(f"exit code {code}: {err.strip()[:200]}", 0, f"exit {code}")
        return check(out)

    return Op(kind, lambda: run_cli(argv), verdicts, checked)


def _check_region_csv(text: str, steps: int) -> Outcome:
    lines = text.splitlines()
    problems = []
    if lines[0] != "q1,q2,analytic,oracle,flag":
        problems.append(f"header {lines[0]!r}")
    rows = [line.split(",") for line in lines[1:]]
    if len(rows) != steps * steps:
        problems.append(f"{len(rows)} rows, expected {steps * steps}")
    flags = [r[4] for r in rows]
    if "disagree" in flags:
        problems.append(f"{flags.count('disagree')} disagree flags")
    expect = [str(int(float(r[0]) * float(r[1]) >= -1.0 / 3.0)) for r in rows]
    wrong = sum(e != r[2] for e, r in zip(expect, rows))
    if wrong:
        problems.append(f"{wrong} analytic verdicts differ from q1 q2 >= -1/3")
    digest = _hash([(r[2], r[4]) for r in rows])
    return Outcome(_fail_if(problems), flags.count("marginal"), digest)


def _check_verify(text: str, npoints: int) -> Outcome:
    summary = _strict_json(text)["summary"]
    problems = []
    if summary["disagree"]:
        problems.append(f"{summary['disagree']} disagree flags")
    if sum(summary.values()) != npoints:
        problems.append(f"summary covers {sum(summary.values())} points, expected {npoints}")
    return Outcome(_fail_if(problems), summary["marginal"], _hash(sorted(summary.items())))


def _check_witness_cli(text: str, family: str, n: int) -> Outcome:
    payload = _strict_json(text)
    return _check_threshold(payload["q_star"], payload["witness"], family, n)


def _check_threshold(q_star, witness_map, family, n) -> Outcome:
    expected = WITNESS_Q[(family, n)]
    error = None
    if abs(q_star - expected) > WITNESS_Q_TOL:
        error = f"q* {q_star} is not within {WITNESS_Q_TOL} of {expected}"
    return Outcome(error, 0, _hash(witness_map is None))


def _check_classify_cli(text: str, lam) -> Outcome:
    payload = _strict_json(text)
    report, found = payload["report"], payload["criteria"]
    problems = []
    if not report["positive"]:
        problems.append("a map in the Bloch cube classified not positive")
    if report["cp"] != bool(pauli_q(lam).min() >= 0):
        problems.append("cp differs from the Choi weights")
    if found["2tsp"]["satisfied"] != bool(hyperboloid_slacks(lam).min() >= 0):
        problems.append("2tsp differs from the hyperboloid")
    if found["3tsp"]["satisfied"] != bool(cubic_slacks(lam).min() >= 0):
        problems.append("3tsp differs from the cubic inequalities")
    flags = sorted((k, v) for k, v in report.items() if isinstance(v, (bool, str)))
    return Outcome(_fail_if(problems), 0, _hash(flags, list(_verdict_bits(found))))


def _verdict_bits(found):
    """Booleans and binding constraints of a CLI criteria block, no slacks."""
    for key, value in sorted(found.items()):
        if isinstance(value, dict) and "satisfied" in value:
            yield [key, value["satisfied"], value["binding_constraint"]]
        elif isinstance(value, dict):
            yield from ([key, *bits] for bits in _verdict_bits(value))
        else:
            yield [key, value]


def cli_region(seed: int) -> Workload:
    """``cli.main`` in process with ``--threads`` left at its default.

    One cycle, in a seeded order: the depolarizing region scan as CSV, eight
    3tsp verifies, the four witness searches and 30 classify calls on Pauli
    maps.  A cycle takes about 20 s, so a 50 s run is two or three cycles;
    op_tail_ms then falls among the verifies and op_p50_ms inside the
    classify calls, not on the edge between two kinds of op.
    """
    rng = np.random.default_rng(seed)
    region_seed = str(int(rng.integers(2**31)))
    ops = [
        _cli_op(
            "region",
            ["region", "--criterion", "depolarizing", "--grid", "41", "--format", "csv", "--seed", region_seed],
            41 * 41,
            lambda out: _check_region_csv(out, 41),
        )
    ]
    for verify_seed in rng.integers(2**31, size=8):
        argv = ["verify", "--criterion", "3tsp", "--grid", "7", "--seed", str(int(verify_seed))]
        ops.append(_cli_op("verify", argv, 7**3, lambda out: _check_verify(out, 7**3)))
    for family, n in WITNESS_Q:
        check = lambda out, family=family, n=n: _check_witness_cli(out, family, n)
        ops.append(_cli_op("witness", ["witness", "--family", family, "--n", str(n)], 1, check))
    for _ in range(30):
        lam = _point(rng)
        # "=" keeps a leading minus sign from reading as an option.
        argv = ["classify", "--lambda=" + ",".join(repr(float(v)) for v in lam)]
        ops.append(_cli_op("classify", argv, 1, lambda out, lam=lam: _check_classify_cli(out, lam)))
    order = rng.permutation(len(ops))
    return Workload("cli-region", [ops[i] for i in order], ops[-1])


# -------------------------------------------------------------------- per-map


def _battery(lam):
    """The closed-form criteria a user runs on one Bloch point."""
    out = {
        "2tsp": criteria.is_2tsp(lam),
        "3tsp": criteria.is_3tsp(lam),
        "nec4": criteria.ntsp_necessary(lam, 4),
        "nec5": criteria.ntsp_necessary(lam, 5),
        "ball": [criteria.ntsp_sufficient_ball(lam, n) for n in (2, 3, 4)],
    }
    if np.abs(lam).sum() >= 1.0:
        out["lift"] = criteria.lift_ntsp(lam, 2)
    return out


def _battery_problems(lam, found) -> list[str]:
    problems = []
    if found["2tsp"].satisfied != bool(hyperboloid_slacks(lam).min() >= 0):
        problems.append("is_2tsp differs from the hyperboloid")
    if found["3tsp"].satisfied != bool(cubic_slacks(lam).min() >= 0):
        problems.append("is_3tsp differs from the cubic inequalities")
    if "lift" in found and found["2tsp"].satisfied and cubic_slacks(found["lift"]).min() < -1e-12:
        problems.append("lift of a 2-stable point is not 3-stable")
    return problems


def _battery_bits(found):
    bits = []
    for key, v in sorted(found.items()):
        if isinstance(v, criteria.CriterionVerdict):
            bits.append((key, v.satisfied, v.binding_constraint))
        elif key == "lift":
            bits.append((key, tuple(_sign(x) for x in v)))
        else:
            bits.append((key, v))
    return bits


def _report_bits(rep):
    signs = tuple((k, _sign(v)) for k, v in sorted(rep.margins.items()))
    return (rep.unital, rep.trace_preserving, rep.positive, rep.cp, rep.ccp, rep.eb, rep.positivity_method, signs)


def _pauli_request(lam):
    def call():
        return maps.classify(maps.PauliMap.unital(lam)), _battery(lam)

    def check(result) -> Outcome:
        rep, found = result
        problems = _battery_problems(lam, found)
        if not rep.positive or rep.cp != bool(pauli_q(lam).min() >= 0):
            problems.append("classify differs from the Pauli closed form")
        return Outcome(_fail_if(problems), 0, _hash(_report_bits(rep), _battery_bits(found)))

    return Op("classify-pauli", call, 1, check)


def _translated_request(t, lam):
    def call():
        rep = maps.classify(maps.GeneralQubitMap.from_translation((0.0, 0.0, t), lam))
        fam = nonunital.NonUnitalFamilyMap(t=t, lam3=tuple(lam))
        fam_found = {
            "positive": nonunital.classify_nonunital_positive(fam),
            "ghz": nonunital.ghz_output_conditions(fam),
            "2tsp-nonunital": nonunital.is_2tsp_nonunital(fam),
        }
        return rep, _battery(lam), fam_found

    def check(result) -> Outcome:
        rep, found, fam_found = result
        problems = _battery_problems(lam, found)
        if rep.positivity_method != "nonunital-closed-form":
            problems.append(f"method {rep.positivity_method}")
        if rep.positive != fam_found["positive"].satisfied:
            problems.append("classify and classify_nonunital_positive disagree")
        bits = (_report_bits(rep), _battery_bits(found), _battery_bits(fam_found))
        return Outcome(_fail_if(problems), 0, _hash(bits))

    return Op("classify-translated", call, 1, check)


def _general_request(matrix):
    def call():
        return maps.classify(maps.GeneralQubitMap(matrix))

    def check(rep) -> Outcome:
        value = rep.margins["positivity"]
        problems = []
        if rep.positivity_method != "numeric-block-positivity":
            problems.append(f"method {rep.positivity_method}")
        if not np.isfinite(value):
            problems.append("positivity margin is not finite")
        return Outcome(_fail_if(problems), int(_in_band(value)), _hash(_report_bits(rep)))

    return Op("classify-general", call, 1, check)


def _depth_request(lam, q, nq, n):
    expected_min = ghz_output_min(lam, q, nq)
    expected_bound = n + 1 if expected_min < -witness.NEGATIVITY_TOL else 1

    def call():
        return witness.depth_witness(witness.build_state("ghz", q, nq), lam, n)

    def check(verdict) -> Outcome:
        problems = []
        if verdict.lower_bound != expected_bound:
            problems.append(f"lower bound {verdict.lower_bound}, expected {expected_bound}")
        if abs(verdict.neg_eig - expected_min) > 1e-9:
            problems.append(f"min eigenvalue {verdict.neg_eig}, closed form {expected_min}")
        return Outcome(_fail_if(problems), int(_in_band(verdict.neg_eig)), _hash(verdict.lower_bound, _sign(verdict.neg_eig)))

    return Op("depth-witness", call, 1, check)


def _threshold_request(family, n):
    def check(res) -> Outcome:
        return _check_threshold(res.q_star, res.witness, family, n)

    return Op("threshold", lambda: witness.threshold_search(family, n), 1, check)


def _depth_inputs(rng, nq):
    """A certified witness map and a noise weight whose verdict is not on a knife edge."""
    while True:
        n = int(rng.integers(1, 4))
        lam = rng.uniform(-1.0, 1.0, 3)
        q = float(rng.uniform(0.3, 1.0))
        if _certified(lam, n) and abs(ghz_output_min(lam, q, nq) + witness.NEGATIVITY_TOL) > EDGE:
            return lam, q, n


def per_map(seed: int) -> Workload:
    """A stream of one-map library requests, mostly cheap closed forms.

    Per cycle: 100 Pauli and 20 translated-family classifications, each with
    the criteria battery; 10 GHZ depth witnesses on 2 to 6 qubits; the four
    threshold searches; and 4 generic maps, whose classification falls back
    on the 2x2-block see-saw.  Pauli requests are most of the cycle, so
    op_p50_ms falls inside their latencies, not on the edge between them and
    the depth witnesses or translated maps.
    """
    rng = np.random.default_rng(seed)
    ops = [_pauli_request(_point(rng)) for _ in range(100)]
    warmup = ops[0]
    for _ in range(20):
        lam = _point(rng)
        t = float(rng.uniform(-0.9, 0.9) * (1.0 - abs(lam[2])))
        ops.append(_translated_request(t, lam))
    for nq in (2, 3, 4, 5, 6) * 2:
        lam, q, n = _depth_inputs(rng, nq)
        ops.append(_depth_request(lam, q, nq, n))
    ops += [_threshold_request(family, n) for family, n in WITNESS_Q]
    for _ in range(4):
        e = np.zeros((4, 4))
        e[0, 0] = 1.0
        e[1:, 0] = rng.uniform(-0.2, 0.2, 3)
        e[1:, 1:] = np.diag(rng.uniform(-0.8, 0.8, 3)) + rng.uniform(-0.15, 0.15, (3, 3))
        ops.append(_general_request(e))
    order = rng.permutation(len(ops))
    return Workload("per-map", [ops[i] for i in order], warmup)


# There is no workload of library region_scan("2tsp") grids at threads=1:
# on a shared 2-vCPU host its run-to-run spread reached the 25% bound at
# 30 s runs, and a third workload would cut every run from 50 s to about
# 30 s within the benchmark's time limit.  The see-saw is still measured on
# per-map's generic maps, and region_scan on cli-region.
WORKLOADS = {"cli-region": cli_region, "per-map": per_map}
