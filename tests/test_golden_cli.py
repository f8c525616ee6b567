"""Byte-for-byte check of the CLI's printed outputs against frozen ones.

`golden_cli.json` holds the argv, exit code and stdout of the `report`,
`factor`, `kappa`, `delta` and default `spectrum` runs over the bundled
catalogs, of a wide `spectrum` grid for every sample in both modes and of
`spectrum` at 0, 1 and 2 points, and of three `estimate` runs: the defaults,
one record (every stderr cell equal to S) and gamma 2 at a millisecond step
over two records, and of `verify-wk`. A refactor that claims identical outputs must leave every
one of them unchanged. After a deliberate change of output, regenerate the
file with

    PYTHONPATH=src python tests/test_golden_cli.py
"""

import json
import pathlib
import sys
from importlib import resources

import pytest

from flickerfloor import cli, workbench

GOLDEN = pathlib.Path(__file__).with_name("golden_cli.json")
CATALOGS = ("ingaas", "ybco", "gaas_piezo")
MODES = ("longitudinal", "transverse")


def _with_bundled_config(argv):
    """argv with a bundled catalog name after --config replaced by its path."""
    argv = list(argv)
    if "--config" in argv:
        i = argv.index("--config") + 1
        argv[i] = str(resources.files("flickerfloor.configs").joinpath(f"{argv[i]}.cfg"))
    return argv


def _cases():
    cases = [["delta", "--config", name] for name in CATALOGS]
    cases += [["spectrum", "--sample", "V1"]]
    cases += [["spectrum", "--sample", "V1", "--points", str(n)] for n in (0, 1, 2)]
    cases += [["estimate"], ["estimate", "--records", "1", "--n", "1024"],
              ["estimate", "--gamma", "2", "--dt", "0.001", "--seed", "5", "--records", "2"]]
    for name in CATALOGS:
        entries, _ = workbench.load_catalog(workbench.bundled_config_text(name))
        for mode in MODES:
            cases += [["report", "--config", name, "--mode", mode, "--g-source", source]
                      for source in ("computed", "table")]
            for entry in entries:
                common = ["--config", name, "--mode", mode, "--sample", entry.sample_id]
                cases += [["factor", *common, "--method", method]
                          for method in ("closed_form", "quadrature")]
                cases += [["kappa", *common]]
                # the V samples cross fmax near 1.1e6 Hz; ybco's bulk-B has gamma 1.06
                cases += [["spectrum", *common, "--u0", "250 mV", "--fmin", "0.001",
                           "--fmax", "1e7", "--points", "50"]]
                table_g = entry.g_override if mode == "longitudinal" else entry.g_tr_override
                if table_g is not None:
                    cases += [["kappa", *common, "--g-source", "table"]]
    cases += [["verify-wk"]]
    return cases


@pytest.mark.parametrize("case", json.loads(GOLDEN.read_text()),
                         ids=lambda case: " ".join(case["argv"]))
def test_cli_output_matches_golden(case, capsys):
    assert cli.main(_with_bundled_config(case["argv"])) == case["exit"]
    assert capsys.readouterr().out == case["stdout"]


def test_golden_file_holds_every_case():
    # the frozen argv lists are the ones _cases() would regenerate, in order
    assert [case["argv"] for case in json.loads(GOLDEN.read_text())] == _cases()


def _regenerate():
    import contextlib
    import io

    golden = []
    for argv in _cases():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(_with_bundled_config(argv))
        golden.append({"argv": argv, "exit": code, "stdout": out.getvalue()})
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
    print(f"wrote {len(golden)} cases to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    _regenerate()
