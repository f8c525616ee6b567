"""The benchmark's own correctness checks, run once inside the suite.

`perfbench/` times seeded catalog and spectral passes and cold CLI questions,
and checks every answer against its frozen references.  Here one seeded pass
of each workload and one round of questions run in-process and untimed, so
that those checks also run at every dependency version the suite runs under.
"""

import contextlib
import io
import random
import sys
from pathlib import Path

import pytest

from flickerfloor import cli

ROOT = Path(__file__).resolve().parents[1]
SEED = 11


@pytest.fixture
def harness(monkeypatch):
    """The benchmark's passes and questions modules, imported from perfbench/."""
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    try:
        import passes
        import questions
    except ModuleNotFoundError as err:
        if err.name not in ("passes", "questions"):
            raise
        pytest.skip(f"no benchmark harness: {err}")
    missing = [name for module, name in ((passes, "WORKS"), (passes, "Tracer"),
                                         (questions, "Asker"))
               if not hasattr(module, name)]
    if missing:
        pytest.skip(f"the benchmark harness has no {', '.join(missing)}")
    return passes, questions


def test_catalog_pass_meets_the_benchmark_checks(harness):
    passes, _ = harness
    work = passes.CatalogWork(SEED)
    work.warm_up()
    assert work.run_pass(passes.Tracer()) == []


def test_spectral_pass_meets_the_benchmark_checks(harness):
    passes, _ = harness
    work = passes.SpectralWork(SEED)
    work.compute_references()
    work.warm_up()
    assert work.run_pass(passes.Tracer()) == []


def test_cli_questions_meet_the_benchmark_checks(harness):
    _, questions = harness
    failures = []
    for q in questions.Asker(random.Random(SEED), ROOT).round():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(q.argv)
        failures += [f"{' '.join(q.argv)}: {bad}"
                     for bad in q.check(code, out.getvalue(), err.getvalue())]
    assert failures == []
