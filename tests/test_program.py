"""tabgrid as a program: what its import loads, and how a run ends.

``python -m tabgrid`` and the ``tabgrid`` script end through ``cli.run``,
which flushes the standard streams and skips the interpreter's teardown.
These tests run the program in a new interpreter and hold it to what
``main(argv)`` gives in this one, and to the ordinary ``sys.exit(main())``.
"""

from __future__ import annotations

import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

import tabgrid
from tabgrid.cli import main
from tabgrid.corpusio import dump_json

SRC = str(Path(tabgrid.__file__).resolve().parents[1])
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
# the reference for run(): main() ended through the interpreter's ordinary exit
PLAIN_EXIT = "import sys; from tabgrid.cli import main; sys.exit(main())"


def _python(*args, buffered=True, stdout=subprocess.PIPE, shell=None):
    """A new interpreter on this checkout's sources, started through the
    ``sh`` script ``shell`` if one is given.  ``buffered`` drops
    PYTHONUNBUFFERED, so that stdout to a pipe waits in its 8 KB buffer."""
    env = {**os.environ, "PYTHONPATH": SRC}
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    argv = [sys.executable, *args]
    if shell is not None:
        argv = ["sh", "-c", shell, *argv]
    return subprocess.run(argv, env=env, stdout=stdout, stderr=subprocess.PIPE, timeout=60)


def _traced_modules() -> list[str]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return sorted(f"tabgrid.{module}" for module in tracer.TRACED)


def test_cli_import_loads_every_traced_module_and_nothing_unused():
    """``import tabgrid.cli`` loads what the benchmark's tracer wraps, and
    leaves out what only ``gen-fixtures``, the manifests and ``d_page`` use.
    ``-S`` keeps ``.pth`` files from loading anything first."""
    traced = _traced_modules()
    unused = ["tabgrid.fixtures", "hashlib", "datetime", "statistics"]
    check = "import sys, tabgrid.cli; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
    proc = _python("-S", "-c", check, *traced, *unused)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.decode() == f"{traced}\n"


# for each module, the modules above it in the layering, which it must not load
_LAYERS = {
    "tabgrid.corpusio": ["pipeline", "booktabs", "separator", "interpret", "matching", "evaluate"],
    "tabgrid.evaluate": ["pipeline", "booktabs", "separator", "interpret"],
    "tabgrid.fixtures": ["pipeline", "booktabs", "separator", "evaluate"],
    "tabgrid.interpret": ["pipeline", "booktabs", "separator", "evaluate"],
    "tabgrid.pipeline": ["interpret", "matching", "evaluate", "corpusio"],
}


def test_each_module_loads_no_module_above_it():
    """Reading a corpus loads no recognizer, interpreter or scorer; scoring
    loads no recognizer or interpreter; generating fixtures loads no
    recognizer or scorer; recognizing and interpreting load neither each
    other nor the scorer.  Each import runs in a new interpreter."""
    loaded = {}
    for module, above in _LAYERS.items():
        check = f"import sys, {module}; print(sorted(set(sys.argv[1:]) & set(sys.modules)))"
        proc = _python("-S", "-c", check, *(f"tabgrid.{m}" for m in above))
        assert proc.returncode == 0, proc.stderr
        loaded[module] = proc.stdout.decode().strip()
    assert loaded == dict.fromkeys(_LAYERS, "[]")


def _tables_dir(tmp_path, pages):
    """``pages`` page tables files of one empty page each, a document apiece."""
    directory = tmp_path / "tables"
    directory.mkdir()
    for i in range(pages):
        fid = f"document{i:04d}"
        dump_json(directory / f"{fid}_page01.json", {"file_id": fid, "page_nr": 1, "tables": []})
    return directory


def test_stdout_beyond_the_buffer_arrives_complete(tmp_path, capsys):
    tables = _tables_dir(tmp_path, 200)
    argv = ["eval", "recognition", str(tables), str(tables)]
    assert main(argv) == 0
    expected = capsys.readouterr().out.encode()
    assert len(expected) > 8192
    proc = _python("-m", "tabgrid", *argv)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, expected, b"")


@pytest.mark.parametrize("buffered", [True, False], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize("valid", [True, False], ids=["exit-0", "exit-2"])
def test_program_gives_what_main_returns(tmp_path, capsys, valid, buffered):
    tables = _tables_dir(tmp_path, 3)
    argv = ["eval", "recognition", str(tables), str(tables if valid else tmp_path / "absent")]
    code = main(argv)
    assert code == (0 if valid else 2)
    captured = capsys.readouterr()
    proc = _python("-m", "tabgrid", *argv, buffered=buffered)
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (
        code, captured.out, captured.err
    )


@pytest.mark.parametrize(
    "stdout, buffered",
    [("closed pipe", True), ("closed pipe", False), ("closed descriptor", True)],
    ids=["closed-pipe-buffered", "closed-pipe-unbuffered", "closed-descriptor"],
)
def test_unwritable_stdout_ends_as_the_plain_exit_does(tmp_path, stdout, buffered):
    tables = _tables_dir(tmp_path, 3)
    argv = ["eval", "recognition", str(tables), str(tables)]
    ends = []
    for program in (["-m", "tabgrid"], ["-c", PLAIN_EXIT]):
        if stdout == "closed descriptor":  # sys.stdout is then None
            closed = 'exec "$0" "$@" >&-'
            proc = _python(*program, *argv, buffered=buffered, shell=closed)
        else:
            read_end, write_end = os.pipe()
            os.close(read_end)  # no reader: every write fails with EPIPE
            try:
                proc = _python(*program, *argv, buffered=buffered, stdout=write_end)
            finally:
                os.close(write_end)
        assert b"Traceback" not in proc.stderr
        ends.append((proc.returncode, proc.stderr))
    assert ends[0] == ends[1]
    assert ends[0][0] == {"closed descriptor": 0, "closed pipe": 120 if buffered else 2}[stdout]


def test_no_module_imports_a_name_it_never_uses():
    """Every name a ``tabgrid`` module imports is read somewhere in it, so a
    name whose last use moved elsewhere does not stay behind as an import."""
    unused = []
    for path in sorted(Path(tabgrid.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{ln} {name}" for name, ln in imported.items() if name not in read]
    assert unused == []
