"""Fast checks of the benchmark's own declarations and tools; no solver
runs.  ``python3 -m pytest perfbench/test_perfbench.py``"""

import json
import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, ROOT)

from perfbench import compare  # noqa: E402
from perfbench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, RUN_SECONDS, WORKLOADS, benchmark_json,
)
from perfbench.spans import Tracer  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def test_names_units_and_limits():
    names = ([w["name"] for w in WORKLOADS]
             + [m["name"] for m in END_TO_END]
             + [m.name for m in PER_LAYER])
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    units = [m["unit"] for m in END_TO_END] + [m.unit for m in PER_LAYER]
    assert all(UNIT.fullmatch(u) for u in units)
    assert 2 <= len(WORKLOADS) <= 8
    assert 1 <= len(END_TO_END) <= 16
    assert 1 <= len(PER_LAYER) <= 128
    assert 1 <= RUN_SECONDS <= 60
    for w in WORKLOADS:
        assert set(w) == {"name", "why"}
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in END_TO_END:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert m["better"] in ("lower", "higher")
        assert 0 < m["bound"] <= 0.25
    assert all(m.better in ("lower", "higher") for m in PER_LAYER)


def test_setup_s_has_the_largest_bound():
    setup = next(m for m in END_TO_END if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in END_TO_END)


def test_benchmark_json_is_what_the_code_declares():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        on_disk = json.load(f)
    assert on_disk == benchmark_json()
    assert os.path.getsize(os.path.join(ROOT, "BENCHMARK.json")) < 64 << 10
    for path in on_disk["paths"]:
        assert os.path.isdir(os.path.join(ROOT, path))
    for word in on_disk["command"]:
        assert not word.startswith("/") and ".." not in word


def test_every_layer_metric_names_an_end_to_end_metric_and_workloads():
    workloads = {w["name"] for w in WORKLOADS}
    end_to_end = {m["name"] for m in END_TO_END}
    for m in PER_LAYER:
        assert m.moves in end_to_end, m.name
        assert m.on and set(m.on) <= workloads, m.name
        assert m.moves_on and set(m.moves_on) <= workloads, m.name


def test_every_workload_has_a_reference():
    for w in WORKLOADS:
        assert os.path.exists(
            os.path.join(ROOT, "perfbench", "reference", w["name"] + ".npz")
        )


def test_verdicts_on_synthetic_runs():
    base = [1.00, 1.01, 0.99, 1.00]
    v = compare.verdict(base, [1.05, 1.06, 1.04, 1.05], "lower", 0.10)
    assert v["verdict"] == "no worse" and abs(v["ratio"] - 1.05) < 1e-9
    assert compare.verdict(base, [1.2, 1.21, 1.19, 1.2], "lower",
                           0.10)["verdict"] == "worse"
    # higher is better: a drop is the worsening
    assert compare.verdict(base, [0.8, 0.81, 0.79, 0.8], "higher",
                           0.10)["verdict"] == "worse"
    assert compare.verdict(base, [1.2, 1.21, 1.19, 1.2], "higher",
                           0.10)["verdict"] == "no worse"


def test_unresolved_when_the_spread_is_wider_than_the_bound():
    noisy = [0.8, 1.0, 1.2, 1.4, 0.9, 1.1]
    v = compare.verdict(noisy, [0.9, 1.1, 1.3, 1.5, 1.0, 1.2], "lower", 0.10)
    assert v["spread"] > 0.10 and v["verdict"] == "unresolved"
    # ... unless every run of the change reads better than every base run
    assert compare.verdict(noisy, [0.5, 0.6, 0.7, 0.55], "lower",
                           0.10)["verdict"] == "no worse"
    # ... or worse than every base run, by more than the bound
    assert compare.verdict(noisy, [2.0, 2.4, 2.8, 2.2], "lower",
                           0.10)["verdict"] == "worse"


def test_compare_reads_run_files_and_flags_worse(tmp_path):
    def run(workload, value):
        return {"workload": workload, "trace": False,
                "metrics": {"solve_s": {"value": value, "unit": "s"}}}

    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps({"runs": [run("basin_forward", v)
                                      for v in (2.0, 2.02, 1.98)]}))
    b.write_text(json.dumps({"runs": [run("basin_forward", v)
                                      for v in (3.0, 3.02, 2.98)]}))
    rows = compare.compare(compare.load(str(a)), compare.load(str(b)))
    assert [(r["workload"], r["metric"], r["verdict"]) for r in rows] == [
        ("basin_forward", "solve_s", "worse")
    ]
    assert compare.main([str(a), str(b)]) == 1
    assert compare.main([str(a), str(a)]) == 0


def test_self_time_is_duration_minus_children():
    tr = Tracer("w", True)
    parent = tr.add("request", 0.0, 10.0, op="r1")
    tr.add("cli.submit", 1.0, 3.0, parent=parent, op="r1")
    tr.add("serve", 3.0, 9.0, parent=parent, op="r1")
    by_name = tr.self_time_by_name()
    assert by_name == {"request": 2.0, "cli.submit": 2.0, "serve": 6.0}
    with tr.span("outer"):
        with tr.span("inner"):
            pass
    outer, inner = tr.spans[-2], tr.spans[-1]
    assert inner["parent"] == outer["id"] and outer["parent"] is None
    assert Tracer("w", False).add("x", 0.0, 1.0) is None
