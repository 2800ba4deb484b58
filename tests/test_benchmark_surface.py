"""The benchmark's view of the program: perfbench's workloads drive hyfermi
through its public names, CLI output and metadata line, and its checks
read them. A few ops of each warm workload and five cli-quick draws must
run and pass their checks, so a renamed function, row key or metadata
field fails here rather than in every benchmark op.

perfbench/workloads.py and perfbench/checks.py are imported read-only
from the perfbench directory; sys.path and sys.modules are restored
afterwards.
"""

import contextlib
import io
import itertools
import pathlib
import sys

import pytest

from hyfermi import cli

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture(scope="module")
def bench():
    saved_path, saved_modules = list(sys.path), set(sys.modules)
    sys.path.insert(0, str(PERFBENCH))
    try:
        import checks
        import workloads
        yield workloads, checks
    finally:
        sys.path[:] = saved_path
        for name in ("checks", "workloads"):
            if name not in saved_modules:
                sys.modules.pop(name, None)


@pytest.mark.parametrize("name, ops", [("oracle-warm", 10), ("fock-build", 3),
                                       ("fock-scan", 5)])
def test_warm_workload_ops_pass_their_checks(bench, name, ops):
    workloads, _ = bench
    wl = workloads.WORKLOADS[name]()
    wl.setup(0)
    for spec in itertools.islice(wl.specs(0), ops):
        problems, _ = wl.check(spec, wl.run(spec))
        assert problems == [], (spec, problems)


def test_cli_quick_draws_pass_their_checks(bench):
    workloads, checks = bench
    for spec in itertools.islice(workloads.CliQuick().specs(0), 5):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(spec["argv"])
        problems, _ = checks.check_cli(spec["cmd"], spec["params"], code,
                                       out.getvalue(), err.getvalue())
        assert problems == [], (spec["argv"], problems)
