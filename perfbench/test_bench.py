"""Tests of the benchmark's own machinery: the ISE oracle, the tracer and
the launcher's output contract."""

import json
import math
import os
import shutil
import subprocess
import sys
import types

import pytest

from oracle import error_tf, exact_ise
from pidga import PlantFolpd, closed_loop, dfr_delay, pid_tf, ziegler_nichols
from tracing import Tracer

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


@pytest.mark.parametrize("k", [0.5, 2.0, 7.0])
def test_exact_ise_matches_closed_form(k):
    # plant 1/(s+1) under k/s: E(s) = (s+1)/(s^2+s+k), ISE = (k+1)/(2k)
    loop = closed_loop(pid_tf((0.0, 0.0, k)), PlantFolpd().lag_tf())
    assert exact_ise(loop.num, loop.den) == pytest.approx((k + 1) / (2 * k),
                                                          rel=1e-12)


def test_exact_ise_of_zn_at_small_delay():
    # the continuous Z-N ISE at tau = 0.01 is 0.0168, where dt = 0.01 RK4
    # reports 0.0089
    plant = PlantFolpd(delay=0.01)
    loop = closed_loop(pid_tf(ziegler_nichols(plant)), plant.lag_tf(),
                       dfr_delay(0.01).tf)
    assert exact_ise(loop.num, loop.den) == pytest.approx(0.016818, abs=1e-6)


def test_error_tf_needs_an_integrator():
    # 1/(s+2): the error settles at 1/2, so its integral diverges
    with pytest.raises(ValueError):
        error_tf([1.0], [1.0, 2.0])


def test_tracer_self_time_and_restore():
    mod = types.SimpleNamespace()
    mod.inner = lambda x: sum(range(x))
    mod.outer = lambda x: mod.inner(x) + mod.inner(x)
    original = mod.outer
    tracer = Tracer()
    tracer.wrap(mod, "outer", "m.outer")
    tracer.wrap(mod, "inner", "m.inner",
                lambda counts, args, kwargs, result: counts.update(n=args[0]))
    mod.outer(20000)
    tracer.restore()
    assert mod.outer is original
    s = tracer.summary()
    assert s["m.outer"]["calls"] == 1 and s["m.inner"]["calls"] == 2
    assert s["m.inner"]["n"] == 40000
    assert tracer.child_calls("m.inner", "m.outer") == 2
    assert s["m.outer"]["self_s"] == pytest.approx(
        s["m.outer"]["s"] - s["m.inner"]["s"], abs=1e-12)
    assert all(math.isfinite(v["self_s"]) and v["self_s"] >= 0
               for v in s.values())


def run_bench(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def copy_bench(dest):
    shutil.copytree(BENCH, dest / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))


def test_run_fails_without_program_sources(tmp_path):
    copy_bench(tmp_path)
    res = run_bench(tmp_path, "--workload", "row-report", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert "correct" not in res.stdout


def test_run_prints_the_declared_metrics(tmp_path):
    copy_bench(tmp_path)
    shutil.copytree(os.path.join(ROOT, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    res = run_bench(tmp_path, "--workload", "tune-wide", "--seed", "1",
                    "--seconds", "1", "--trace", "0")
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.splitlines()[-1])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"]: m["unit"]
                    for m in json.load(fh)["end_to_end"]}
    assert out["correct"] is True and out["failed"] == 0
    assert out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in out["metrics"].values())
