"""A fresh ``python -m tvdist.cli`` process: reports, exit codes and imports.

Each command is run in a new interpreter that imports the package under
test, as a user's shell would start it. ``-X importtime`` lists every module
the process loads, so the tests can require that a command loads only what
it runs: ``info`` and ``exact`` no numpy, no sampling kernel and no
``dataclasses``, ``info`` no oracle either. The package's sampling and
estimation names (all in ``tvdist.coupling``) and oracle names resolve on
first access, and in-process ``main`` must not touch the collector, which
only the process entry ``cli.run`` turns off and freezes.
"""

from __future__ import annotations

import ast
import gc
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest

import tvdist as tv

from conftest import run_cli

#: The directory the package under test is imported from.
PACKAGE_ROOT = str(Path(tv.__file__).resolve().parents[1])

#: Modules only some commands need.
ON_DEMAND = ("numpy.random", "tvdist.oracle", "fractions", "decimal", "secrets")

#: Modules only the commands that draw need.
SAMPLING = ("numpy", "tvdist.coupling")

#: What ``dataclasses`` loads; nothing before the first draw needs it.
RECORD_MACHINERY = ("dataclasses", "inspect")


def fresh_python(args: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
    """Run a new interpreter on ``args``; returns it and the modules it imported."""
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [PACKAGE_ROOT, path]))}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    modules = {
        line.rsplit("|", 1)[1].strip()
        for line in proc.stderr.splitlines()
        if line.startswith("import time:") and "|" in line
    }
    return proc, modules


def fresh_cli(argv: list[str]) -> tuple[subprocess.CompletedProcess, set[str]]:
    return fresh_python(["-m", "tvdist.cli", *argv])


@pytest.fixture(scope="module")
def pre_sampling_forbidden() -> set[str]:
    """Modules a process that draws nothing must not load: the sampling ones,
    and the record machinery unless a bare interpreter's site loads it too."""
    proc, bare = fresh_python(["-c", "pass"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    return set(SAMPLING) | (set(RECORD_MACHINERY) - bare)


def without_timing(report: dict) -> dict:
    result = {k: v for k, v in report["result"].items() if k != "elapsed_seconds"}
    return {**report, "result": result, "timing": None}


@pytest.mark.parametrize(
    "argv",
    [["info"], ["estimate", "--seed", "7"]],
    ids=["info", "estimate_seeded"],
)
def test_fresh_process_matches_in_process_main(capsys, schema, bernoulli_file, argv):
    argv = [argv[0], bernoulli_file, *argv[1:]]
    proc, _ = fresh_cli(argv)
    assert proc.returncode == 0, proc.stderr[-2000:]
    report = json.loads(proc.stdout)
    jsonschema.Draft202012Validator(schema).validate(report)
    code, expected, _ = run_cli(capsys, argv)
    assert code == 0
    assert without_timing(report) == without_timing(expected)


def test_fresh_process_flushes_a_validation_error(tmp_path):
    path = tmp_path / "overflow.json"
    path.write_text(json.dumps({"p": [[1e308, 1e308]], "q": [[0.5, 0.5]]}))
    proc, _ = fresh_cli(["info", str(path)])
    assert proc.returncode == 2, proc.stderr[-2000:]
    error = json.loads(proc.stdout)["error"]
    assert error["type"] == "MarginalNotNormalized"
    assert error["coordinate"] == 1


def test_info_imports_nothing_on_demand(bernoulli_file):
    proc, modules = fresh_cli(["info", bernoulli_file])
    assert proc.returncode == 0
    assert "tvdist.distributions" in modules  # the parse sees the package's imports
    assert modules.isdisjoint(ON_DEMAND), sorted(modules.intersection(ON_DEMAND))


@pytest.mark.parametrize("command", ["info", "exact"])
def test_commands_that_draw_nothing_load_no_numpy(
    bernoulli_file, pre_sampling_forbidden, command
):
    proc, modules = fresh_cli([command, bernoulli_file])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert "tvdist.distributions" in modules
    assert modules.isdisjoint(pre_sampling_forbidden), sorted(
        modules.intersection(pre_sampling_forbidden)
    )


def test_seeded_estimate_imports_the_generator_not_the_oracle(bernoulli_file):
    proc, modules = fresh_cli(["estimate", bernoulli_file, "--seed", "7"])
    assert proc.returncode == 0
    assert "numpy.random" in modules
    assert modules.isdisjoint({"tvdist.oracle", "fractions", "decimal"})


def test_unseeded_estimate_imports_secrets_and_prints_the_seed(bernoulli_file):
    proc, modules = fresh_cli(["estimate", bernoulli_file])
    assert proc.returncode == 0
    assert "secrets" in modules
    seed = json.loads(proc.stdout)["config"]["seed"]
    assert f"generated seed: {seed}" in proc.stderr


def test_exact_imports_the_oracle(bernoulli_file):
    proc, modules = fresh_cli(["exact", bernoulli_file])
    assert proc.returncode == 0
    assert {"tvdist.oracle", "fractions"} <= modules
    assert "numpy" not in modules


def test_in_process_main_freezes_nothing(capsys, bernoulli_file):
    before, enabled = gc.get_freeze_count(), gc.isenabled()
    for argv in (["info", bernoulli_file], ["estimate", bernoulli_file, "--seed", "3"]):
        assert run_cli(capsys, argv)[0] == 0
    assert gc.get_freeze_count() == before
    assert gc.isenabled() == enabled


def test_process_entry_runs_main_with_the_collector_off(bernoulli_file):
    probe = (
        "import gc, sys; from tvdist import cli; main = cli.main; states = []\n"
        "def recorded(argv=None):\n"
        "    states.append(gc.isenabled()); return main(argv)\n"
        "cli.main = recorded; sys.argv[1:] = ['info', sys.argv[1]]\n"
        "assert gc.isenabled() and cli.run() == 0 and states == [False], states"
    )
    proc, _ = fresh_python(["-c", probe, bernoulli_file])
    assert proc.returncode == 0, proc.stderr[-2000:]


# --- the package's lazily resolved names ---------------------------------------


def test_every_public_name_resolves():
    for name in tv.__all__:
        assert getattr(tv, name) is not None, name
    from tvdist import oracle

    assert tv.exact_tv is oracle.exact_tv


def test_every_error_class_is_public():
    from tvdist import errors

    classes = {
        name
        for name, obj in vars(errors).items()
        if isinstance(obj, type) and issubclass(obj, Exception)
    }
    assert "SlackOnlyDifference" in classes
    assert classes <= set(tv.__all__)


def test_readme_lists_exactly_the_public_names():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    listing = readme.split("Public names (`tvdist.__all__`):", 1)[1]
    names = re.findall(r"`(\w+)`", listing.strip().split("\n\n", 1)[0])
    assert len(names) == len(set(names))
    assert set(names) == set(tv.__all__)


def test_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from tvdist import *", namespace)
    assert set(tv.__all__) <= namespace.keys()


def test_unknown_attribute_raises_naming_it():
    with pytest.raises(AttributeError, match="no_such_name"):
        tv.no_such_name
    assert not hasattr(tv, "no_such_name")


def test_oracle_loads_on_first_access():
    probe = (
        "import sys, tvdist; assert 'tvdist.oracle' not in sys.modules; "
        "tvdist.exact_tv; assert 'tvdist.oracle' in sys.modules"
    )
    proc, _ = fresh_python(["-c", probe])
    assert proc.returncode == 0, proc.stderr[-2000:]


def test_modules_import_no_private_names_from_each_other():
    """A module's underscore names are its own: no package module imports
    one from another (tests are exempt)."""
    crossings = [
        f"{path.name}: {node.module}.{alias.name}"
        for path in sorted(Path(tv.__file__).parent.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "tvdist")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert crossings == []


def test_bare_import_loads_no_numpy(pre_sampling_forbidden):
    proc, modules = fresh_python(["-c", "import tvdist"])
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert modules.isdisjoint(pre_sampling_forbidden), sorted(
        modules.intersection(pre_sampling_forbidden)
    )


def test_kernel_names_and_submodules_load_on_first_access():
    probe = (
        "import sys, tvdist; assert 'numpy' not in sys.modules; "
        "sizes = tvdist.coupling.block_sizes(4097); assert sizes == [4096, 1], sizes; "
        "assert tvdist.coupling.estimate_tv is tvdist.estimate_tv; "
        "assert tvdist.sample_pi_batch is tvdist.coupling.sample_pi_batch"
    )
    proc, _ = fresh_python(["-c", probe])
    assert proc.returncode == 0, proc.stderr[-2000:]
