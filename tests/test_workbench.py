"""Catalog loading, table reproduction, verification suite, and the CLI."""

import csv
import io
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import flickerfloor
from flickerfloor import cli, geometry, noise_floor, spectral, units, workbench
from flickerfloor.noise_floor import build_model
from flickerfloor.units import DimensionError, InputError
from flickerfloor.workbench import (
    ConfigError,
    bundled_config_text,
    load_catalog,
    reproduce_tables,
    run_verification_suite,
)

KAPPA_TH_LONGITUDINAL = {  # published reference column
    "V1": 3.5e-10, "V1.5": 2.3e-10, "V2": 1.9e-10, "V5": 4.6e-11, "V80": 1.9e-12,
}
KAPPA_TH_TRANSVERSE = {
    "V1": 7.2e-11, "V1.5": 4.8e-11, "V2": 4.8e-11, "V5": 2.9e-12, "V80": 1.4e-13,
}

MINIMAL_CFG = """
[material:demo]
carriers = n:0.06
rho0 = 5.3 g/cm^3
u = 2.5e5 cm/s
d = 5e-8 cm
dos = 1e22 1/(eV*cm^3)
acoustic_match = reflecting

[sample:S]
material = demo
width = 1 um
length = 2 um
thickness = 10 nm
"""


# ---------------------------------------------------------------------------
# load_catalog
# ---------------------------------------------------------------------------

def test_bundled_ingaas_has_five_samples():
    entries, materials = load_catalog(bundled_config_text("ingaas"))
    assert [e.sample_id for e in entries] == ["V1", "V1.5", "V2", "V5", "V80"]
    assert "ingaas" in materials
    v1 = entries[0]
    assert v1.geom.w == pytest.approx(1e-4)
    assert v1.geom.l == pytest.approx(2.2e-4)
    assert v1.geom.a == pytest.approx(1e-6)
    assert v1.kappa_exp == pytest.approx(1.75e-9)


def test_empty_config_gives_empty_catalog():
    entries, materials = load_catalog("")
    assert entries == [] and materials == {}


def test_bare_percent_in_a_value_is_literal():
    entries, _ = load_catalog(MINIMAL_CFG + "annotation = 50% above the floor\n")
    assert entries[0].annotation == "50% above the floor"


def test_negative_thickness_rejected_naming_field():
    bad = MINIMAL_CFG.replace("thickness = 10 nm", "thickness = -1 nm")
    with pytest.raises(ConfigError) as err:
        load_catalog(bad)
    assert "thickness" in str(err.value) and "sample:S" in str(err.value)


def test_unknown_unit_rejected():
    bad = MINIMAL_CFG.replace("10 nm", "10 furlong")
    with pytest.raises(ConfigError) as err:
        load_catalog(bad)
    assert "thickness" in str(err.value)


def test_overflowing_length_rejected_naming_section_and_key():
    # 1e308 m is 1e310 cm, which once parsed to inf without an error
    bad = MINIMAL_CFG.replace("length = 2 um", "length = 1e308 m")
    with pytest.raises(ConfigError) as err:
        load_catalog(bad)
    assert "[sample:S] length = '1e308 m'" in str(err.value)


def test_wrong_dimension_rejected():
    bad = MINIMAL_CFG.replace("width = 1 um", "width = 1 eV")
    with pytest.raises(ConfigError):
        load_catalog(bad)


def test_missing_field_rejected():
    bad = MINIMAL_CFG.replace("u = 2.5e5 cm/s\n", "")
    with pytest.raises(ConfigError) as err:
        load_catalog(bad)
    assert "'u'" in str(err.value)


def test_unknown_material_reference_rejected():
    bad = MINIMAL_CFG.replace("material = demo", "material = nothere")
    with pytest.raises(ConfigError) as err:
        load_catalog(bad)
    assert "nothere" in str(err.value)


def test_unknown_section_rejected():
    with pytest.raises(ConfigError):
        load_catalog(MINIMAL_CFG + "\n[garbage]\nx = 1\n")


def test_si_inputs_converted_to_cgs():
    cfg = MINIMAL_CFG.replace("rho0 = 5.3 g/cm^3", "rho0 = 5300 kg/m^3")
    entries, materials = load_catalog(cfg)
    assert materials["demo"].rho0.to("g/cm^3") == pytest.approx(5.3)


# ---------------------------------------------------------------------------
# reproduce_tables
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ingaas_catalog():
    entries, _ = load_catalog(bundled_config_text("ingaas"))
    return entries


def annotated_off_law(report):
    return {r["sample"] for r in report.rows if "kappa/g" in r["annotations"]}


# V80, the one row off the linear kappa(g) law, is checked against the law's
# value (see conftest.py); every other row against its published entry.
def test_longitudinal_table_with_supplied_g(ingaas_catalog, kappa_column_failures):
    report = reproduce_tables(ingaas_catalog, mode="longitudinal", g_source="table")
    g_ref = {e.sample_id: e.g_override for e in ingaas_catalog}
    computed = {r["sample"]: r["kappa_th"] for r in report.rows}
    assert kappa_column_failures(computed, g_ref, KAPPA_TH_LONGITUDINAL,
                                 annotated_off_law(report), rel=0.03) == []


def test_transverse_table_with_supplied_g(ingaas_catalog, kappa_column_failures):
    report = reproduce_tables(ingaas_catalog, mode="transverse", g_source="table")
    g_ref = {e.sample_id: e.g_tr_override for e in ingaas_catalog}
    # 5% tolerance: the published column is rounded to two significant
    # figures, which alone shifts V2 by 3%
    computed = {r["sample"]: r["kappa_th"] for r in report.rows}
    assert kappa_column_failures(computed, g_ref, KAPPA_TH_TRANSVERSE,
                                 annotated_off_law(report), rel=0.05) == []


def test_longitudinal_table_with_computed_g(ingaas_catalog, kappa_column_failures):
    report = reproduce_tables(ingaas_catalog, mode="longitudinal", g_source="computed")
    g_ref = {e.sample_id: e.g_override for e in ingaas_catalog}
    computed = {r["sample"]: r["kappa_th"] for r in report.rows}
    assert kappa_column_failures(computed, g_ref, KAPPA_TH_LONGITUDINAL,
                                 annotated_off_law(report), rel=0.20) == []


def test_ratio_column(ingaas_catalog):
    report = reproduce_tables(ingaas_catalog, mode="longitudinal", g_source="table")
    for row in report.rows:
        assert row["ratio_exp_th"] == pytest.approx(
            row["kappa_exp"] / row["kappa_th"], rel=1e-12)


def test_ybco_film_row():
    entries, _ = load_catalog(bundled_config_text("ybco"))
    report = reproduce_tables(entries, g_source="computed")
    rows = {r["sample"]: r for r in report.rows}
    assert rows["film"]["g_cm^-1"] == pytest.approx(6.0, rel=0.25)
    assert rows["film"]["kappa_th"] == pytest.approx(2.3e-15, rel=0.20)
    assert rows["film"]["gamma"] == 1.0


def test_ybco_bulk_row_uses_measured_exponent():
    entries, _ = load_catalog(bundled_config_text("ybco"))
    report = reproduce_tables(entries, g_source="computed")
    rows = {r["sample"]: r for r in report.rows}
    assert rows["bulk-B"]["gamma"] == pytest.approx(1.06)
    assert rows["bulk-B"]["kappa_th"] == pytest.approx(2.2e-14, rel=0.25)


def test_model_caveats_follow_delta_source():
    entries = (load_catalog(bundled_config_text("ybco"))[0]
               + load_catalog(bundled_config_text("gaas_piezo"))[0])
    caveats = {e.sample_id: build_model(e.geom, e.probes_longitudinal, e.material,
                                        delta_override=e.delta_override).caveats
               for e in entries}
    # a measured delta is not also the empty-band piezoelectric value
    assert caveats["bulk-B"] == ("delta from measured exponent",)
    assert caveats["bar"] == ("state filling smears the effective delta; empty-band value used",)


def test_report_annotations_carry_model_caveats():
    entries, _ = load_catalog(bundled_config_text("gaas_piezo"))
    for mode in ("longitudinal", "transverse"):
        rows = {r["sample"]: r for r in reproduce_tables(entries, mode=mode).rows}
        assert rows["bar"]["annotations"] == (
            "state filling smears the effective delta; empty-band value used")


def test_gaas_piezo_delta():
    _, materials = load_catalog(bundled_config_text("gaas_piezo"))
    from flickerfloor.noise_floor import phonon_delta
    assert phonon_delta(materials["gaas"]) == pytest.approx(0.14, rel=0.05)


def test_reproduce_tables_input_validation(ingaas_catalog):
    with pytest.raises(ConfigError):
        reproduce_tables([], mode="longitudinal")
    with pytest.raises(ConfigError):
        reproduce_tables(ingaas_catalog, mode="diagonal")
    with pytest.raises(ConfigError):
        reproduce_tables(ingaas_catalog, g_source="guess")


def test_report_is_deterministic(ingaas_catalog):
    a = reproduce_tables(ingaas_catalog, mode="longitudinal", g_source="computed")
    b = reproduce_tables(ingaas_catalog, mode="longitudinal", g_source="computed")
    assert a.to_csv() == b.to_csv()
    assert a.to_csv().splitlines()[0] == (
        "sample,g_cm^-1,g_tr_cm^-1,kappa_th,kappa_exp,ratio_exp_th,gamma,"
        "fmax_Hz,annotations")


def test_verification_suite_passes():
    report = run_verification_suite()
    assert report.rows and not report.failures


def test_verification_suite_computes_each_wk_case_once(monkeypatch):
    # t_m = 1e4 was once computed twice, for the first row and the trend rows
    calls = []
    real = spectral.wk_identity_check
    monkeypatch.setattr(spectral, "wk_identity_check",
                        lambda omega, t_m: calls.append(t_m) or real(omega, t_m))
    run_verification_suite()
    assert sorted(calls) == [1e3, 1e4, 1e5]


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def test_cli_factor(capsys):
    assert cli.main(["factor", "--sample", "V1"]) == 0
    out = capsys.readouterr().out
    assert "g = " in out and "longitudinal" in out


def test_cli_factor_quadrature_matches(capsys):
    assert cli.main(["factor", "--sample", "V2", "--method", "quadrature"]) == 0
    quad = float(capsys.readouterr().out.split()[2])
    assert cli.main(["factor", "--sample", "V2"]) == 0
    closed = float(capsys.readouterr().out.split()[2])
    assert quad == pytest.approx(closed, rel=1e-6)


def test_cli_kappa_with_table_g(capsys):
    assert cli.main(["kappa", "--sample", "V1", "--g-source", "table"]) == 0
    out = capsys.readouterr().out
    kappa_th = float(out.split()[2])
    assert kappa_th == pytest.approx(3.5e-10, rel=0.01)


def test_cli_delta(capsys, tmp_path):
    cfg = tmp_path / "gaas.cfg"
    cfg.write_text(bundled_config_text("gaas_piezo"))
    assert cli.main(["delta", "--config", str(cfg)]) == 0
    out = capsys.readouterr().out
    assert "delta = 0.14" in out


def test_cli_report_csv(tmp_path):
    out = tmp_path / "report.csv"
    assert cli.main(["report", "--output", str(out), "--g-source", "table"]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("sample,")
    assert len(lines) == 6


def test_cli_spectrum(tmp_path):
    out = tmp_path / "spec.csv"
    assert cli.main(["spectrum", "--sample", "V1", "--u0", "1 V",
                     "--fmin", "1", "--fmax", "100", "--points", "5",
                     "--output", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "f,S,stderr,beyond_validity,excess_factor"
    assert len(lines) == 6


def test_cli_spectrum_marks_points_beyond_validity(capsys):
    entries, _ = load_catalog(bundled_config_text("ingaas"))
    v80 = next(e for e in entries if e.sample_id == "V80")
    fmax = build_model(v80.geom, v80.probes_longitudinal, v80.material).fmax.to("Hz")
    assert 50.0 < fmax < 51.0
    assert cli.main(["spectrum", "--sample", "V80", "--fmax", "1000"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    beyond = [float(r["f"]) > fmax for r in rows]
    assert any(beyond) and not all(beyond)
    for row, out_of_range in zip(rows, beyond):
        assert row["beyond_validity"] == ("1" if out_of_range else "0")
        excess = float(row["excess_factor"])
        assert excess > 1.0 if out_of_range else excess == 1.0


def test_cli_estimate_deterministic(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["estimate", "--gamma", "1.0", "--n", "512", "--records", "4",
            "--seed", "7"]
    assert cli.main(args + ["--output", str(a)]) == 0
    assert cli.main(args + ["--output", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("argv", [
    ["spectrum", "--sample", "V80", "--fmax", "1000", "--points", "9"],
    ["estimate", "--n", "256", "--records", "3", "--seed", "2"],
    ["verify-wk"],
    ["report", "--mode", "transverse"],
], ids=lambda argv: argv[0])
def test_cli_output_file_holds_the_printed_bytes(argv, capsys, tmp_path):
    assert cli.main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out.csv"
    assert cli.main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert printed and out.read_bytes() == printed.encode()


def test_cli_verify_wk(capsys):
    assert cli.main(["verify-wk"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out


def test_cli_delta_without_materials_exits_1(capsys, tmp_path):
    empty = tmp_path / "empty.cfg"
    empty.write_text("")
    assert cli.main(["delta", "--config", str(empty)]) == 1
    assert "error: catalog defines no material" in capsys.readouterr().err


def test_cli_input_errors_exit_1(capsys, tmp_path):
    assert cli.main(["factor", "--sample", "NOPE"]) == 1
    assert "unknown sample" in capsys.readouterr().err
    assert cli.main(["factor", "--sample", "V1",
                     "--config", str(tmp_path / "missing.cfg")]) == 1
    bad = tmp_path / "bad.cfg"
    bad.write_text("[sample:X]\nmaterial = none\n")
    assert cli.main(["report", "--config", str(bad)]) == 1


def test_cli_bad_points_and_undecodable_config_exit_1(capsys, tmp_path):
    assert cli.main(["spectrum", "--sample", "V1", "--points", "-1"]) == 1
    assert "error:" in capsys.readouterr().err
    binary = tmp_path / "binary.cfg"
    binary.write_bytes(b"\xff\xfe\x00[sample:\x9c]\n")
    assert cli.main(["report", "--config", str(binary)]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, name", [
    (["spectrum", "--sample", "V1", "--fmin", "nan"], "--fmin nan"),
    (["spectrum", "--sample", "V1", "--fmax", "inf"], "--fmax inf"),
    (["spectrum", "--sample", "V1", "--fmin=-inf"], "--fmin -inf"),
    (["estimate", "--dt", "inf"], "dt must be finite"),
    (["estimate", "--dt", "nan"], "dt must be finite"),
    (["spectrum", "--sample", "V1", "--u0", "nan mV"], "--u0 'nan mV'"),
    (["spectrum", "--sample", "V1", "--u0", "inf V"], "--u0 'inf V'"),
    (["spectrum", "--sample", "V1", "--u0", "1 V^-400"], "--u0 '1 V^-400'"),
    (["spectrum", "--sample", "V1", "--u0", "1 cm^1e400"], "--u0 '1 cm^1e400'"),
    (["spectrum", "--sample", "V1", "--u0", "1e200 V"], "U0 = 1e+200 V"),
])
def test_cli_non_finite_inputs_exit_1_by_name(argv, name, capsys):
    # these once ended in "spectrum values must be finite" or "signal samples
    # must be finite", inf after a numpy RuntimeWarning (an error here); the
    # overflowing unit powers and the overflowing floor ended in an
    # OverflowError traceback
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("error", [ValueError, DimensionError])
def test_cli_internal_value_error_propagates(error, monkeypatch):
    # every user path wraps a DimensionError, so one that escapes is a bug
    def broken(args):
        raise error("internal bug")
    monkeypatch.setitem(cli._COMMANDS, "factor", broken)
    with pytest.raises(error, match="internal bug"):
        cli.main(["factor", "--sample", "V1"])


def test_every_layer_error_is_an_input_error():
    # cli.main reports only InputError (and OSError) as an input error
    errors = [obj for layer in (units, geometry, noise_floor, spectral, workbench)
              for obj in vars(layer).values()
              if isinstance(obj, type) and issubclass(obj, Exception)
              and obj.__module__ == layer.__name__]
    assert {e.__name__ for e in errors if not issubclass(e, InputError)} == {"DimensionError"}
    assert len(errors) >= 8


@pytest.mark.parametrize("argv", [
    ["factor", "--sample", "V1", "--seed", "1"],
    ["kappa", "--sample", "V1", "--output", "k.csv"],
    ["delta", "--mode", "transverse"],
    ["estimate", "--config", "x.cfg"],
    ["verify-wk", "--mode", "transverse"],
    ["report", "--seed", "1"],
])
def test_cli_rejects_flags_a_subcommand_ignores(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def run_python(code, *args):
    """stdout of a fresh interpreter that imports flickerfloor from this tree."""
    src = str(Path(flickerfloor.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, check=True,
                          capture_output=True, text=True).stdout


def test_import_cli_loads_no_scipy():
    # importing the package itself loads no layer
    code = ("import sys, flickerfloor; "
            "print(sorted(m for m in sys.modules if m.startswith('flickerfloor.'))); "
            "import flickerfloor.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert run_python(code).splitlines() == ["[]", "[]"]


CONFIGS = Path(flickerfloor.__file__).parent / "configs"
# the questions whose answers need no array work, with their exit codes
SCALAR_QUESTIONS = [
    (["factor", "--sample", "V2", "--mode", "transverse", "--method", "closed_form"], 0),
    (["kappa", "--sample", "V5", "--g-source", "computed", "--single-species"], 0),
    (["kappa", "--sample", "V1", "--mode", "transverse", "--g-source", "table"], 0),
    (["delta", "--config", str(CONFIGS / "ybco.cfg")], 0),
    (["report", "--config", str(CONFIGS / "gaas_piezo.cfg"), "--g-source", "computed"], 0),
    (["report", "--mode", "transverse", "--g-source", "table"], 0),
    (["spectrum", "--config", str(CONFIGS / "ybco.cfg"), "--sample", "X7"], 1),
    (["spectrum", "--sample", "V80", "--u0", "2 m"], 1),
]


def test_scalar_questions_import_no_numpy():
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import flickerfloor, flickerfloor.cli
        answers = []
        for argv in json.loads(sys.argv[1]):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = flickerfloor.cli.main(argv)
            loaded = [m for m in ("numpy", "flickerfloor.spectral") if m in sys.modules]
            answers.append([code, bool(out.getvalue()), loaded])
        print(json.dumps(answers))
    """)
    answers = json.loads(run_python(code, json.dumps([argv for argv, _ in SCALAR_QUESTIONS])))
    for (argv, want_code), (code, printed, loaded) in zip(SCALAR_QUESTIONS, answers, strict=True):
        assert (code, printed, loaded) == (want_code, want_code == 0, []), argv
