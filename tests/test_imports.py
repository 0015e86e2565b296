"""Import on use: the analytic path loads neither numpy nor the simulator.

Each check runs in a fresh interpreter, because this test process has
already imported numpy and the simulator.
"""

import os
import pathlib
import subprocess
import sys
import textwrap

ROOT = pathlib.Path(__file__).resolve().parents[1]
DATA = ROOT / "src" / "priopoll" / "data"
SIM_STACK = ("numpy", "priopoll.sim", "concurrent.futures", "multiprocessing")


def _python(code, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    preamble = f"import sys\nSIM_STACK = {SIM_STACK!r}\nDATA = {str(DATA)!r}\n"
    proc = subprocess.run([sys.executable, "-c", preamble + textwrap.dedent(code)],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_analytic_library_path_loads_no_simulator(tmp_path):
    out = _python("""
        import priopoll
        model = priopoll.load_model(DATA + "/example1.json")
        priopoll.Analyzer(model).report()
        priopoll.pcl_check(model)
        print(sorted(m for m in SIM_STACK if m in sys.modules))
    """, tmp_path)
    assert out == "[]\n"


def test_analytic_cli_loads_no_simulator_and_simulate_still_runs(tmp_path):
    out = _python("""
        from priopoll import cli
        model = DATA + "/example1.json"
        for argv in (["analyze", "--model", model],
                     ["compare", "--model", model],
                     ["check", "--model", model],
                     ["sweep", "--model", model, "--sweep", "lambda_high:Q1:0:0.3:3"],
                     ["vacation", "--rho", "0.8", "--s", "10", "--points", "3"]):
            assert cli.main(argv + ["--out", argv[0] + ".csv"]) == 0, argv
        print(sorted(m for m in SIM_STACK if m in sys.modules))
        code = cli.main(["simulate", "--model", model, "--cycles", "2000",
                         "--reps", "2", "--out", "simulate.csv"])
        print(code, "priopoll.sim" in sys.modules)
    """, tmp_path)
    assert out == "[]\n0 True\n"
    assert (tmp_path / "simulate.csv").read_text().startswith("queue,class,")


def test_simulator_names_resolve_on_first_use(tmp_path):
    out = _python("""
        import priopoll
        assert set(priopoll.__all__) <= set(dir(priopoll))
        try:
            priopoll.no_such_name
        except AttributeError:
            pass
        else:
            raise AssertionError("no AttributeError")
        print(sorted(m for m in SIM_STACK if m in sys.modules))
        namespace = {}
        exec("from priopoll import *", namespace)
        assert set(priopoll.__all__) <= set(namespace)
        import priopoll.sim
        assert priopoll.replicate is priopoll.sim.replicate
        assert namespace["run"] is priopoll.sim.run
        assert namespace["SimStats"] is priopoll.sim.SimStats
        print("ok")
    """, tmp_path)
    assert out == "[]\nok\n"
