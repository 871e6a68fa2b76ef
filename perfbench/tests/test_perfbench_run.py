import json
import threading
import types
from pathlib import Path

import run
from tracer import TRACED_NAMES, Tracer, covered

BENCHMARK = Path(run.ROOT) / "BENCHMARK.json"


def test_benchmark_json_names_what_the_runner_prints():
    spec = json.loads(BENCHMARK.read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == run.PER_LAYER


def test_failed_pages_from_exit_code_and_error_lines(tmp_path):
    out = tmp_path / "pred"
    out.mkdir()
    assert run.failed_pages(0, "", out, 7) == 7  # no manifest: wrote nothing
    (out / "run_manifest.json").write_text("{}")
    assert run.failed_pages(0, "", out, 7) == 0
    two = "error: a_page01.json: bad box\nerror: b_page01.json: bad\nerror: a_page01.json: again\n"
    assert run.failed_pages(2, two, out, 7) == 2
    assert run.failed_pages(1, two, out, 7) == 7
    assert run.failed_pages(2, "error: unpaired page x_page01\n", out, 7) == 7
    assert run.failed_pages(0, "", tmp_path / "report.json", 7) == 7


def test_digest_ignores_the_run_manifest(tmp_path):
    (tmp_path / "a.json").write_text("1")
    before = run.digest(tmp_path)
    (tmp_path / "run_manifest.json").write_text("{}")
    assert run.digest(tmp_path) == before
    (tmp_path / "b.json").write_text("2")
    assert run.digest(tmp_path) != before
    assert run.digest(tmp_path / "none") == "missing"


def test_tracer_wraps_every_binding_and_restores_it():
    import tabgrid.cli
    from tabgrid import booktabs, model, separator

    original = model.assign_words_to_cells
    tracer = Tracer()
    assert tracer.install() == []
    try:
        assert booktabs.assign_words_to_cells is not original
        assert separator.assign_words_to_cells is not original
        assert hasattr(tabgrid.cli.recognize_page, "__wrapped__")
    finally:
        tracer.uninstall()
    assert booktabs.assign_words_to_cells is original
    assert separator.assign_words_to_cells is original


def test_self_times_add_up_per_thread(tmp_path):
    from tabgrid import cli
    from tabgrid.corpusio import dump_json

    spec = tmp_path / "spec.json"
    dump_json(spec, {"seed": 2, "random": {"bordered": {"count": 6}, "booktabs": {"count": 6}}})
    assert cli.main(["gen-fixtures", str(spec), str(tmp_path / "c")]) == 0
    tracer = Tracer()
    tracer.install()
    try:
        tracer.start_command("recognize", True)
        rc = cli.main(["recognize", str(tmp_path / "c" / "layouts"), str(tmp_path / "p")])
    finally:
        tracer.uninstall()
    assert rc == 0
    calls = {name: f[0] for name, f in tracer.functions().items()}
    assert set(calls) == set(TRACED_NAMES)
    assert calls["pipeline.recognize_page"] == 12
    assert tracer.self_time_gap() < 1e-6
    ids = {s["id"] for s in tracer.spans() if s["name"] == "pipeline.recognize_page"}
    assert len(ids) == 12 and all(i.endswith("_page01.json") for i in ids)
    assert tracer.counts()["corpusio.bytes_read"] > 0


def test_threads_keep_their_own_span_stacks():
    tracer = Tracer()

    mod = types.ModuleType("tabgrid.fake")
    mod.leaf = tracer._wrap("fake.leaf", "tabgrid.fake", lambda: 1)
    outer_traced = tracer._wrap("fake.outer", "tabgrid.fake", lambda: mod.leaf() + mod.leaf())
    def work():
        for _ in range(200):
            outer_traced()

    threads = [threading.Thread(target=work) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=30)
    assert not any(t.is_alive() for t in threads)
    funcs = tracer.functions()
    assert funcs["fake.outer"][0] == 800 and funcs["fake.leaf"][0] == 1600
    assert all(s["parent"] >= 0 for s in tracer.spans() if s["name"] == "fake.leaf")
    assert tracer.self_time_gap() < 1e-6
    assert tracer.threads() == 4


def test_covered_is_the_union_of_intervals():
    assert covered([(0, 2), (1, 3), (5, 6), (5.5, 5.7)]) == 4
    assert covered([]) == 0
