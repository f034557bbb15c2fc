"""Tests of the benchmark itself: span self times, patching, closed forms, output.

Run from the repository root with ``python3 -m pytest bench``.
"""

import json
import shutil
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def _span(name, start, end, parent=None, thread=1):
    s = tracing.Span(name, start, parent, thread)
    s.end = end
    return s


def test_self_time_of_nested_spans_on_two_threads():
    root = _span("root", 0.0, 10.0)
    a = _span("a", 1.0, 4.0, root, thread=1)
    b = _span("b", 3.0, 6.0, root, thread=2)  # overlaps a on another thread
    leaf = _span("leaf", 1.5, 2.0, a, thread=1)
    late = _span("late", 9.0, 12.0, root, thread=2)  # runs past its parent's end
    own = tracing.self_times([root, a, b, leaf, late])
    assert own[id(root)] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[id(a)] == pytest.approx(2.5)
    assert own[id(b)] == pytest.approx(3.0)
    assert own[id(leaf)] == pytest.approx(0.5)
    stats = tracing.layer_stats([root, a, b, leaf, late])
    assert stats["root"]["calls"] == 1 and stats["root"]["self_s"] == pytest.approx(4.0)


def test_pool_threads_take_the_open_span_of_the_creating_thread_as_parent():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: threading.get_ident())

    def outer():
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(inner, range(4)))

    tracer.wrap("outer", outer)()
    spans = tracer.take()
    top = next(s for s in spans if s.name == "outer")
    inners = [s for s in spans if s.name == "inner"]
    assert len(inners) == 4 and all(s.parent is top for s in inners)
    assert tracer.spans == []


def _bindings():
    import numpy as np
    from tensorstable import linalg

    found = {}
    for name, module in list(sys.modules.items()):
        if name.startswith("tensorstable") and module is not None:
            found.update({(name, k): v for k, v in vars(module).items()})
    for attr in ("eigh", "eigvalsh"):
        found[("numpy.linalg", attr)] = getattr(np.linalg, attr)
    for attr in ("__init__", "min_eig"):
        found[("HermitianOperator", attr)] = vars(linalg.HermitianOperator)[attr]
    return found


def test_install_patches_every_binding_and_restore_puts_originals_back():
    from tensorstable import maps, oracles

    before = _bindings()
    tracer = tracing.Tracer()
    run.install(tracer)
    try:
        assert oracles.choi is maps.choi is not before[("tensorstable.maps", "choi")]
        oracles.region_scan("2tsp", steps=2)
        names = {s.name for s in tracer.spans}
        assert {"oracles.region_scan", "maps.choi", "numpy.eigh", "criteria.is_2tsp"} <= names
    finally:
        tracer.restore()
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def _ghz_output_min_direct(lam, q, nq):
    e = np.diag([1.0, *lam])
    sigma = [np.eye(2), np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    basis = np.array([s.reshape(-1) for s in sigma])  # rows vec(sigma_i)
    superop = basis.T @ e @ basis.conj() / 2.0  # vec(Lambda(X)) = S vec(X)
    big = np.eye(1)
    for _ in range(nq):
        big = np.kron(big, superop)
    psi = np.zeros(2**nq)
    psi[0] = psi[-1] = 2**-0.5
    rho = q * np.outer(psi, psi) + (1 - q) * np.eye(2**nq) / 2**nq
    # Reorder the Kronecker product of superoperators to act on vec(rho).
    d = 2**nq
    t = rho.reshape([2] * (2 * nq))
    t = t.transpose([i for k in range(nq) for i in (k, nq + k)]).reshape(-1)
    out = (big @ t).reshape([2] * (2 * nq))
    out = out.transpose([2 * k for k in range(nq)] + [2 * k + 1 for k in range(nq)]).reshape(d, d)
    return np.linalg.eigvalsh((out + out.conj().T) / 2)[0]


@pytest.mark.parametrize("nq", [2, 3, 4])
def test_ghz_closed_form_matches_direct_computation(nq):
    rng = np.random.default_rng(nq)
    for _ in range(5):
        lam, q = rng.uniform(-1, 1, 3), rng.uniform(0, 1)
        assert workloads.ghz_output_min(lam, q, nq) == pytest.approx(_ghz_output_min_direct(lam, q, nq), abs=1e-12)


def _bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric(workload, trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = _bench("--workload", workload, "--seed", "5", "--seconds", "0", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {k: v["unit"] for k, v in result["metrics"].items()}


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench("--workload", "per-map", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
