"""Catalog loading, table reproduction, verification suite, and the CLI."""

import argparse
import csv
import io
import json
import os
import re
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


def test_h14_keeps_its_sign_and_changes_no_bit_of_delta():
    # h14 enters only as (e*h14)^2
    _, materials = load_catalog(bundled_config_text("gaas_piezo"))
    gaas = materials["gaas"]
    assert gaas.h14.to("V/m") == pytest.approx(-1.4e9)
    flipped = gaas.h14 * -1.0
    assert noise_floor.phonon_delta(gaas) == noise_floor.phonon_delta(
        noise_floor.Material(gaas.name, gaas.carriers, gaas.rho0, gaas.u, gaas.d, gaas.dos,
                             h14=flipped))


EVERY_NUMBER_CFG = """
[material:demo]
carriers = n:0.06
rho0 = 5.3 g/cm^3
u = 2.5e5 cm/s
d = 5e-8 cm
dos = 1e22 1/(eV*cm^3)
h14 = -1.4e9 V/m
m2_lambda = 1e-30 erg^2/cm^2

[sample:S]
material = demo
length = 2 um
width = 1 um
thickness = 10 nm
g = 9630 cm^-1
g_transverse = 1990 cm^-1
kappa_exp = 1.75e-9
kappa_exp_transverse = 2.4e-10
gamma_exp = 1.06
delta = 0.06
"""
EVERY_NUMBER = [(section, line.split(" = ")[0], line) for section, body in
                re.findall(r"\[(.*)\]\n((?:.+\n)+)", EVERY_NUMBER_CFG)
                for line in body.splitlines() if not line.startswith("material =")]


def test_every_number_config_answers(capsys, tmp_path):
    assert len(EVERY_NUMBER) == 7 + 9
    cfg = tmp_path / "every.cfg"
    cfg.write_text(EVERY_NUMBER_CFG)
    assert cli.main(["report", "--config", str(cfg), "--g-source", "table"]) == 0
    assert capsys.readouterr().out.count("\n") == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "many", "1 s"])
@pytest.mark.parametrize("section, key, line", EVERY_NUMBER, ids=[k for _, k, _ in EVERY_NUMBER])
def test_cli_refuses_a_bad_catalog_number_naming_section_and_key(section, key, line, bad,
                                                                 capsys, tmp_path):
    # each catalog number is read as <number> [unit]; a mass is in m0
    value = f"n:{bad}" if key == "carriers" else bad
    cfg = tmp_path / "every.cfg"
    cfg.write_text(EVERY_NUMBER_CFG.replace(line, f"{key} = {value}"))
    assert cli.main(["report", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: [{section}] {key} ")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, edits, message", [
    # delta printed 0.14593 for the intended reflecting boundary's 0
    (["delta"], {"acoustic_match = matched": "acoustic_macth = reflecting"},
     "[material:gaas] unknown field 'acoustic_macth'"),
    # report printed an empty kappa_exp and the computed g_tr
    (["report", "--g-source", "table"], {"20 nm": "20 nm\nkapa_exp = 1e-9"},
     "[sample:bar] unknown field 'kapa_exp'"),
    (["report", "--g-source", "table", "--mode", "transverse"],
     {"20 nm": "20 nm\ng_tranverse = 3 cm^-1"}, "[sample:bar] unknown field 'g_tranverse'"),
    # a [DEFAULT] field went into every section: delta printed 0, and bar had a kappa_exp
    (["delta"], {"[material:gaas]": "[DEFAULT]\nacoustic_match = reflecting\n[material:gaas]"},
     "unknown section [DEFAULT]"),
    (["report"], {"[material:gaas]": "[DEFAULT]\nkappa_exp = 1e-9\n[material:gaas]"},
     "unknown section [DEFAULT]"),
], ids=["acoustic_macth", "kapa_exp", "g_tranverse", "default-match", "default-kappa_exp"])
def test_cli_refuses_a_field_no_parser_reads(argv, edits, message, capsys, tmp_path):
    text = bundled_config_text("gaas_piezo")
    for old, new in edits.items():
        assert text.count(old) == 1
        text = text.replace(old, new)
    cfg = tmp_path / "gaas_piezo.cfg"
    cfg.write_text(text)
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}" + (
        "; expected material: or sample:\n" if "DEFAULT" in message else "\n")


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


def test_entry_probes_refuses_an_unknown_mode(ingaas_catalog):
    # it returned the transverse pair for any mode but "longitudinal"
    with pytest.raises(ConfigError, match=r"^unknown mode 'diagonal'$"):
        ingaas_catalog[0].probes("diagonal")


def test_reproduce_tables_refuses_an_unknown_mode_before_any_row(ingaas_catalog):
    # it was refused by the first row's model, which blamed that sample:
    # "unknown configuration 'diagonal' in [sample:V1]"
    with pytest.raises(ConfigError, match=r"^unknown mode 'diagonal'$"):
        reproduce_tables(ingaas_catalog, mode="diagonal")


def test_reproduce_tables_input_validation(ingaas_catalog):
    with pytest.raises(ConfigError):
        reproduce_tables([], mode="longitudinal")
    with pytest.raises(ConfigError):
        reproduce_tables(ingaas_catalog, mode="diagonal")
    with pytest.raises(ConfigError):
        reproduce_tables(ingaas_catalog, g_source="guess")


@pytest.mark.parametrize("mode, g_source", [("diagonal", "computed"), ("longitudinal", "guess"),
                                            ("diagonal", "table")])
def test_entry_g_refuses_an_unknown_mode_or_source(ingaas_catalog, mode, g_source):
    with pytest.raises(ConfigError, match="unknown"):
        ingaas_catalog[0].g(mode, g_source)


def test_entry_g_is_the_table_or_the_computed_factor(ingaas_catalog):
    v1 = ingaas_catalog[0]
    assert v1.g("transverse", "table").value.to("cm^-1") == v1.g_tr_override == 1990.0
    for mode, factor, probes in (
            ("longitudinal", geometry.geometric_factor, v1.probes_longitudinal),
            ("transverse", geometry.geometric_factor_transverse, v1.probes_transverse)):
        for method in ("closed_form", "quadrature"):
            assert v1.g(mode, method=method) == factor(v1.geom, probes, method=method)
    film = next(e for e in load_catalog(bundled_config_text("ybco"))[0] if e.sample_id == "film")
    assert film.g("longitudinal", "table") is None


@pytest.mark.parametrize("g_source, computed", [("computed", 10), ("table", 0)])
def test_report_computes_each_g_once_and_none_the_table_gives(ingaas_catalog, g_source,
                                                              computed, monkeypatch):
    # every ingaas sample tabulates both of its g
    calls = []
    for name in ("geometric_factor", "geometric_factor_transverse"):
        real = getattr(geometry, name)
        monkeypatch.setattr(geometry, name,
                            lambda *a, real=real, **k: calls.append(real) or real(*a, **k))
    for mode in ("longitudinal", "transverse"):
        calls.clear()
        reproduce_tables(ingaas_catalog, mode=mode, g_source=g_source)
        assert len(calls) == computed


def test_report_is_deterministic(capsys):
    argv = ["report", "--mode", "longitudinal", "--g-source", "computed"]
    assert cli.main(argv) == 0
    a = capsys.readouterr().out
    assert cli.main(argv) == 0
    assert capsys.readouterr().out == a
    assert a.splitlines()[0] == (
        "sample,g_cm^-1,g_tr_cm^-1,kappa_th,kappa_exp,ratio_exp_th,gamma,"
        "fmax_Hz,annotations")
    # a header and the five samples, each line ended by a newline
    assert len(a.splitlines()) == 6 and a.endswith("\n") and not a.endswith("\n\n")


def test_verification_suite_passes():
    report = run_verification_suite()
    assert report.rows and not report.failures


def test_verification_suite_case_names_are_unique():
    # "t_m=1e4" and "t_m=10000" once named the same case: compare the wk rows
    # by the value of t_m, not by its spelling
    cases = [row["case"] for row in run_verification_suite().rows]
    assert len(set(cases)) == len(cases)
    wk_tm = [float(case.split("t_m=")[1].rstrip(")")) for case in cases
             if case.startswith("wk_identity(")]
    assert sorted(wk_tm) == [1e3, 1e4, 1e5]


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
    # the catalog's one material, by name
    assert cli.main(["delta", "--config", str(cfg), "--material", "gaas"]) == 0
    assert capsys.readouterr().out == out


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


def test_cli_spectrum_overflowing_excess_factor_is_input_error(capsys):
    # the excess factor at 1e308 Hz overflows: exit 1 naming f, not inf in the CSV
    assert cli.main(["spectrum", "--sample", "V1", "--fmax", "1e308", "--points", "3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: f = 1e+308 Hz")
    assert "Warning" not in captured.err


@pytest.mark.parametrize("argv", [["report"], ["kappa", "--sample", "bulk-B"],
                                  ["spectrum", "--sample", "bulk-B"]])
def test_cli_refused_catalog_model_names_its_sample(argv, capsys, tmp_path):
    # kappa carries (f*)^delta, which overflows at delta = 100; the error
    # named only the material, which the film shares
    cfg = tmp_path / "ybco.cfg"
    cfg.write_text(bundled_config_text("ybco").replace("delta = 0.06", "delta = 100"))
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and "bulk-B" in captured.err
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


FSTAR_OVERFLOW = {"d = 5e-8 cm": "d = 1e-320 cm",
                  "acoustic_match = matched": "acoustic_match = reflecting"}
HBAR_D_OMEGA_OVERFLOW = {"dos = 1e22 1/(eV*cm^3)": "dos = 1e296 1/(eV*cm^3)",
                         "width = 5 um": "width = 1e10 cm", "length = 20 um": "length = 1e10 cm",
                         "thickness = 20 nm": "thickness = 1e10 cm"}


@pytest.mark.parametrize("argv, edits, message", [
    (["kappa", "--sample", "film", "--g-source", "table"], ("ybco", {}),
     "sample 'film' has no tabulated g for mode 'longitudinal'"),
    (["delta"], ("gaas_piezo", {"h14 = -1.4e9 V/m": "h14 = -1.4e12 V/m"}),
     "material 'gaas': (f*)^delta overflows at delta = 145930"),
    (["kappa", "--sample", "bar"], ("gaas_piezo", {"h14 = -1.4e9 V/m": "h14 = -1.4e12 V/m"}),
     "material 'gaas': (f*)^delta overflows at delta = 145930 in [sample:bar]"),
    (["spectrum", "--sample", "bar"], ("gaas_piezo", {"20 nm": "1e-22 cm"}),
     "g = 0 cm^-1 is not finite and positive: the sample is too large, or too far "
     "from a cube, for the floats in [sample:bar]"),
    # u/d overflows at delta = 0: delta printed f* = inf Hz
    (["delta"], ("gaas_piezo", FSTAR_OVERFLOW), "material 'gaas': f* = u/d is out of "
     "floating-point range"),
    # hbar*D*Omega overflows: kappa and report printed fmax = 0 Hz, and
    # spectrum refused naming the frequency
    *((argv, ("gaas_piezo", HBAR_D_OMEGA_OVERFLOW),
       "material 'gaas': hbar D Omega is out of floating-point range in [sample:bar]")
      for argv in (["kappa", "--sample", "bar"], ["report"], ["spectrum", "--sample", "bar"])),
    # kappa_exp / kappa_th overflowed: report printed ratio_exp_th = inf
    (["report"], ("gaas_piezo", {"20 nm": "20 nm\nkappa_exp = 1e307"}),
     "kappa_exp / kappa_th = 1e+307 / 3.25945e-09 overflows in [sample:bar]"),
    # an empty id: report printed a row with an empty sample cell, and delta
    # answered for a material named ''
    (["report"], ("gaas_piezo", {"[sample:bar]": "[sample:]"}), "[sample:] has an empty sample id"),
    (["delta"], ("gaas_piezo", {"[material:gaas]": "[material:]", "material = gaas": "material ="}),
     "[material:] has an empty material id"),
    (["delta", "--material", "nope"], ("gaas_piezo", {}),
     "unknown material 'nope' (catalog has: gaas)"),
    # "computed" once read as an absent g
    (["report"], ("gaas_piezo", {"20 nm": "20 nm\ng = computed"}),
     "[sample:bar] g = 'computed': bad numeric value in 'computed'"),
    (["delta"], ("gaas_piezo", {"acoustic_match = matched": "acoustic_match = sideways"}),
     "[material:gaas]: material 'gaas': acoustic_match must be 'matched' or 'reflecting'"),
    (["delta"], ("gaas_piezo", {"carriers = n:0.06, p:0.09\n": ""}),
     "[material:gaas] missing required field 'carriers'"),
    (["report"], ("gaas_piezo", {"material = gaas\n": ""}),
     "[sample:bar] missing required field 'material'"),
    (["report"], ("gaas_piezo", {"20 nm": "20 nm\ndelta = -0.1"}),
     "[sample:bar] delta must be >= 0"),
    # configparser's message spans three lines
    (["report"], ("gaas_piezo", {"# GaAs": "junk line\n# GaAs"}),
     "config parse failure: File contains no section headers. file: '<string>', line: 1"),
], ids=["kappa-no-table-g", "delta-overflow", "kappa-overflow", "sliver-sample",
        "delta-fstar-overflow", "kappa-hbar-d-omega-overflow", "report-hbar-d-omega-overflow",
        "spectrum-hbar-d-omega-overflow", "report-ratio-overflow", "empty-sample-id",
        "empty-material-id", "unknown-material", "g-computed", "acoustic-match-sideways",
        "no-carriers", "no-material", "negative-delta", "unparsable"])
def test_cli_refuses_a_catalog_choice_in_one_error_line(argv, edits, message, capsys, tmp_path):
    # delta raised (f*)^delta by hand and ended in an OverflowError traceback;
    # the sliver, whose closed-form g cancels to 0, ended in "kappa = 0"
    name, replace = edits
    text = bundled_config_text(name)
    for old, new in replace.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / f"{name}.cfg"
    cfg.write_text(text)
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {message}")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


@pytest.mark.parametrize("argv", [["delta"], ["kappa", "--sample", "bar"], ["report"]])
@pytest.mark.parametrize("old, new", [("h14 = -1.4e9 V/m", "h14 = 1e200 V/m"),
                                      ("u = 2.5e5 cm/s", "u = 1e300 cm/s"),
                                      ("u = 2.5e5 cm/s", "u = 1e-300 cm/s")],
                         ids=["h14-overflow", "u-overflow", "u-underflow"])
def test_cli_delta_out_of_float_range_is_one_error_line(argv, old, new, capsys, tmp_path):
    # (e*h14)^2 and u^3 overflowed, and u^3 underflowed to a ZeroDivisionError,
    # in tracebacks
    text = bundled_config_text("gaas_piezo")
    assert old in text
    cfg = tmp_path / "gaas_piezo.cfg"
    cfg.write_text(text.replace(old, new))
    assert cli.main([*argv, "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: material 'gaas': delta = ")
    assert "out of floating-point range" in captured.err
    assert (argv == ["delta"]) != captured.err.endswith("in [sample:bar]\n")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_cli_kappa_of_an_overflowing_f_star_at_delta_0_answers(capsys, tmp_path):
    # (f*)^0 is 1 for any f*, so kappa needs no f* and keeps its answer
    text = bundled_config_text("gaas_piezo")
    for old, new in FSTAR_OVERFLOW.items():
        text = text.replace(old, new)
    cfg = tmp_path / "gaas_piezo.cfg"
    cfg.write_text(text)
    assert cli.main(["kappa", "--sample", "bar", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "kappa = 4.57068e-11  gamma = 1  fmax = 12089.9 Hz\n"


SWEEP_CALLS = [["kappa", "--sample", "bar"], ["kappa", "--sample", "bar", "--mode", "transverse"],
               ["report"], ["report", "--g-source", "table", "--mode", "transverse"],
               ["spectrum", "--sample", "bar", "--points", "5"], ["delta"],
               ["factor", "--sample", "bar"], ["factor", "--sample", "bar", "--method", "quadrature"]]
# (the bundled line's value, or None for a sample field that bar leaves out; the swept value)
SWEEP_FIELDS = {"carriers": ("n:0.06, p:0.09", "n:{}"), "rho0": ("5.3 g/cm^3", "{} g/cm^3"),
                "u": ("2.5e5 cm/s", "{} cm/s"), "d": ("5e-8 cm", "{} cm"),
                "dos": ("1e22 1/(eV*cm^3)", "{} 1/(eV*cm^3)"), "h14": ("-1.4e9 V/m", "{} V/m"),
                "length": ("20 um", "{} cm"), "width": ("5 um", "{} cm"),
                "thickness": ("20 nm", "{} cm"), "g": (None, "{} cm^-1"),
                "g_transverse": (None, "{} cm^-1"), "kappa_exp": (None, "{}"),
                "kappa_exp_transverse": (None, "{}"), "gamma_exp": (None, "{}"),
                "delta": (None, "{}")}


@pytest.mark.parametrize("field, value", [
    *((field, value) for field in SWEEP_FIELDS for value in ("1e-320", "1e307")),
    ("carriers", "1e-280"), ("dos", "1e-300"), ("dos", "1e-290"), ("h14", "1e-200"),
    ("h14", "1e100"),
], ids=lambda v: v)
def test_cli_answers_or_refuses_each_catalog_number_in_one_line(field, value, capsys, tmp_path):
    # a carrier mass at or below about 1e-280 m0 underflowed kappa's denominator,
    # and a dos of 1e-300 1/(eV*cm^3) hbar*D*Omega, to 0: ZeroDivisionError
    # tracebacks; a dos of 1e-290 printed fmax = inf Hz with exit 0
    old, new = SWEEP_FIELDS[field]
    line, text = f"{field} = {old}", bundled_config_text("gaas_piezo")
    assert (line in text) == (old is not None) and text.endswith("thickness = 20 nm\n")
    swept = f"{field} = {new.format(value)}"
    cfg = tmp_path / "gaas_piezo.cfg"
    cfg.write_text(text + swept + "\n" if old is None else text.replace(line, swept))
    for argv in SWEEP_CALLS:
        code = cli.main([*argv, "--config", str(cfg)])
        captured = capsys.readouterr()
        if code == 0:
            assert captured.err == "" and not re.search(r"\b(inf|nan)\b", captured.out)
        else:
            assert code == 1 and captured.out == "" and captured.err.startswith("error: ")
            assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_cli_delta_of_an_underflowing_coupling_is_gamma_1(capsys, tmp_path):
    # (e*h14)^2 underflows to 0 at h14 = 1e-200 V/m: delta = 0 is an answer
    cfg = tmp_path / "gaas_piezo.cfg"
    cfg.write_text(bundled_config_text("gaas_piezo").replace("-1.4e9 V/m", "1e-200 V/m"))
    assert cli.main(["delta", "--config", str(cfg)]) == 0
    assert capsys.readouterr().out == "delta = 0  gamma = 1  f* = 5e+12 Hz  (f*)^delta = 1\n"


def estimate_rows(argv, capsys):
    assert cli.main(["estimate", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    header, *rows = csv.reader(io.StringIO(captured.out))
    assert header == ["f", "S", "stderr"]
    return [[float(cell) for cell in row] for row in rows]


@pytest.mark.parametrize("dt", [1e300, 1e-170])
def test_cli_estimate_answers_a_finite_spectrum_at_extreme_steps(dt, capsys):
    # Us^2 = (dt A)^2 overflows or underflows here, while S = dt |A|^2/(n - 1)
    # does not: these were refused, and before that 1e-170 printed S = 0
    rows, unit_step = estimate_rows(["--dt", repr(dt)], capsys), estimate_rows([], capsys)
    assert len(rows) == 60
    # the unit-step sums scaled by dt; the CSV keeps 6 digits
    for (f, value, stderr), (f1, value1, stderr1) in zip(rows, unit_step):
        assert [f * dt, value / dt, stderr / dt] == pytest.approx([f1, value1, stderr1], rel=1e-5)


@pytest.mark.parametrize("dt", ["1e305", "5e-324"])
def test_cli_estimate_rejects_a_step_whose_grid_leaves_the_float_range(dt, capsys):
    # t_m or 0.25/dt overflows: this once printed three numpy RuntimeWarnings
    # and then "frequencies must be finite"
    assert cli.main(["estimate", "--dt", dt]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --dt ")
    assert "Warning" not in captured.err


def test_cli_estimate_rejects_a_negative_seed(capsys):
    # numpy's generators refused it with a ValueError traceback
    assert cli.main(["estimate", "--seed", "-1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: --seed -1")
    assert len(captured.err.splitlines()) == 1


@pytest.mark.parametrize("records", ["0", "-3"])
def test_cli_estimate_rejects_an_empty_ensemble(records, capsys):
    # the spectral layer refused it with a message that named no flag
    assert cli.main(["estimate", "--records", records]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: --records {records}")
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err


def test_cli_estimate_rejects_a_record_too_short_for_its_grid(capsys):
    # at n <= 41 the grid 10/t_m .. 0.25/dt runs backwards
    assert cli.main(["estimate", "--n", "32", "--records", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: --n 32")
    assert cli.main(["estimate", "--n", "64", "--records", "2"]) == 0
    assert capsys.readouterr().out.startswith("f,S,stderr")


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


@pytest.mark.parametrize("argv, header, lines", [
    (["estimate", "--n", "64", "--records", "1"], "f,S,stderr", 61),
    (["spectrum", "--sample", "V1", "--points", "0"], "f,S,stderr,beyond_validity,excess_factor", 1),
], ids=["estimate", "spectrum-no-points"])
def test_cli_spectrum_table_format(argv, header, lines, capsys):
    # the header, one line per frequency, and a newline ending every line
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == header
    assert len(out.splitlines()) == lines
    assert out.endswith("\n") and not out.endswith("\n\n")


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
    # one line per suite row after the header, each ending in its row's status
    suite = run_verification_suite()
    header, *lines = out.splitlines()
    assert header == ",".join(suite.columns)
    assert len(lines) == len(suite.rows)
    for line, row in zip(lines, suite.rows):
        assert line.endswith("," + row["status"])


@pytest.mark.parametrize("kernel, value, cases", [
    ("sign_function_transform", 0j, ["sign_kernel(omega=1, t_m=10)"]),
    ("sigma_spectrum", 0.0, ["loglaw_sigma(f=0.001)", "loglaw_sigma(f=0.01)",
                             "loglaw_sigma(f=0.01, a=1) vs exact", "exponential_sigma(f=0.05)"]),
])
def test_cli_verify_wk_failure_exits_2_with_one_line_per_failing_row(kernel, value, cases,
                                                                     capsys, monkeypatch):
    monkeypatch.setattr(spectral, kernel, lambda *args, **kwargs: value)
    assert cli.main(["verify-wk"]) == 2
    captured = capsys.readouterr()
    assert all(f"{case},0," in captured.out for case in cases)
    assert captured.err == "".join(f"FAIL: {case} rel_error=1\n" for case in cases)


@pytest.mark.parametrize("edits, name", [
    ({"delta = 0.06": "delta = nan"}, "[sample:bulk-B] delta = 'nan': non-finite value in 'nan'"),
    ({"delta = 0.06": "delta = inf", "kappa_exp = 3e-14": "kappa_exp = inf"},
     "[sample:bulk-B] kappa_exp = 'inf': non-finite value in 'inf'"),
    ({"carriers = p:3.0": "carriers = p:inf"}, "[material:ybco] carriers entry 'p:inf'"),
    ({"carriers = p:3.0": "carriers = p:1e308", "width = 0.2 cm": "width = 100 cm",
      "length = 0.2 cm": "length = 100 cm", "thickness = 0.01 cm": "thickness = 100 cm"},
     "material 'ybco': kappa = 0 is not finite"),
    ({"delta = 0.06": "delta = 100"}, "material 'ybco': (f*)^delta overflows at delta = 100"),
    ({"length = 0.2 cm": "length = 1e-170 cm", "width = 0.2 cm": "width = 1e-170 cm",
      "thickness = 0.01 cm": "thickness = 1e-170 cm"},
     "[sample:bulk-B]: sample dimensions 1e-170 x 1e-170 x 1e-170 cm leave the float range"),
], ids=["nan-delta", "inf-delta-and-kappa_exp", "inf-mass", "kappa-underflow", "kappa-overflow",
        "tiny-sample"])
def test_cli_report_refuses_non_finite_catalog_numbers(edits, name, capsys, tmp_path):
    # these once printed gamma nan, or kappa_th inf and a nan ratio, with exit
    # 0, or ended in a ZeroDivisionError or OverflowError traceback; the tiny
    # sample ended in a math domain error
    text = bundled_config_text("ybco")
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "ybco.cfg"
    cfg.write_text(text)
    assert cli.main(["report", "--config", str(cfg)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: {name}")
    assert len(captured.err.splitlines()) == 1


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
    (["estimate", "--dt", "inf"], "--dt inf"),
    (["estimate", "--dt", "nan"], "--dt nan"),
    (["estimate", "--dt", "0"], "--dt 0"),
    (["estimate", "--dt", "-1"], "--dt -1"),
    (["estimate", "--gamma", "3"], "--gamma 3"),
    (["estimate", "--gamma", "nan"], "--gamma nan"),
    (["spectrum", "--sample", "V1", "--fmax", "1.7976931348623157e308"], "--fmax 1.79769"),
    (["spectrum", "--sample", "V1", "--u0", "nan mV"], "--u0 'nan mV'"),
    (["spectrum", "--sample", "V1", "--u0", "inf V"], "--u0 'inf V'"),
    (["spectrum", "--sample", "V1", "--u0", "1 V^-400"], "--u0 '1 V^-400'"),
    (["spectrum", "--sample", "V1", "--u0", "1 cm^1e400"], "--u0 '1 cm^1e400'"),
    (["spectrum", "--sample", "V1", "--u0", "1e200 V"], "U0 = 1e+200 V"),
    (["spectrum", "--sample", "V1", "--points", "1000001"], "--points 1000001"),
    (["estimate", "--n", str(2 ** 27), "--records", "32"], "--n 134217728 --records 32"),
    (["estimate", "--n", "1000"], "--n 1000: must be a power of two"),
    (["spectrum", "--sample", "V1", "--fmin", "10", "--fmax", "1"], "need 0 < fmin < fmax"),
    (["spectrum", "--sample", "V1", "--points", "3", "--fmin", "1",
      "--fmax", "1.0000000000000002"], "--points 3 --fmin 1.0 --fmax 1.0000000000000002"),
    (["spectrum", "--sample", "V1", "--u0", "1e-160 V"],
     "U0 = 1e-160 V: the floor kappa*U0^2/|f|^gamma leaves the float range"),
])
def test_cli_non_finite_inputs_exit_1_by_name(argv, name, capsys):
    # these once ended in "spectrum values must be finite" or "signal samples
    # must be finite", inf after a numpy RuntimeWarning (an error here), and
    # the --gamma and --dt ranges in the synthesizer's messages, which named
    # no flag; a grid point past the largest float once ended in a warning; the
    # overflowing unit powers and the overflowing floor ended in an
    # OverflowError traceback; --points had no ceiling, and at 2e9 points its
    # grid alone would take 16 GB, nor had estimate's records, which at
    # --n 2^27 --records 32 would take 32 GiB; an --n that is not a power of
    # two was refused by the synthesizer, after numpy loaded, by no flag; a
    # grid whose points round together was refused by the series, by no flag,
    # and a floor that underflows was printed as 0
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and name in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("error", [ValueError, DimensionError])
def test_cli_internal_value_error_propagates(error, monkeypatch):
    # every user path wraps a DimensionError, so one that escapes is a bug
    def broken(args):
        raise error("internal bug")
    monkeypatch.setattr(cli, "cmd_factor", broken)
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


def test_each_subcommand_takes_the_flags_readme_lists():
    # README's CLI table against the parser: neither may drop or add a flag
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    table = {m[1]: set(re.findall(r"`(--[\w-]+)", m[2]))
             for m in re.finditer(r"^\| `([\w-]+)` +\|(.*)\|$", section, re.M)}
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    assert set(table) == set(subparsers) and len(table) == 7
    for name, parser in subparsers.items():
        flags = {flag for action in parser._actions for flag in action.option_strings
                 if flag.startswith("--")}
        assert flags - {"--help"} == table[name], name


def fresh_interpreter(*argv, **env):
    """The finished run of a fresh interpreter, with env added to its
    environment, that imports flickerfloor from this tree."""
    src = str(Path(flickerfloor.__file__).resolve().parents[1])
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def run_python(code, *args, flags=()):
    """stdout of a fresh interpreter, started with flags, that runs code."""
    done = fresh_interpreter(*flags, "-c", code, *args)
    assert done.returncode == 0, done.stderr
    return done.stdout


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
    (["estimate", "--seed", "-1"], 1),
    (["estimate", "--records", "0"], 1),
    (["spectrum", "--sample", "V1", "--points", "1000001"], 1),
    (["estimate", "--n", str(2 ** 27), "--records", "32"], 1),
    (["estimate", "--n", "1000"], 1),
    (["estimate", "--gamma", "3"], 1),
    (["estimate", "--gamma", "nan"], 1),
    (["estimate", "--dt", "0"], 1),
    (["estimate", "--dt", "-1"], 1),
    (["spectrum", "--sample", "V80"], 0),
    (["spectrum", "--config", str(CONFIGS / "ybco.cfg"), "--sample", "bulk-B",
      "--mode", "transverse"], 0),
]


WATCHED = ["numpy", "flickerfloor.spectral", "numpy.polynomial", "numpy.ma", "fractions",
           "decimal", "dataclasses"]


def ask_in_process(argvs, watched=WATCHED, flags=()):
    """[exit code, whether stdout got text, which watched modules are loaded]
    after each argv, asked in turn in one fresh interpreter started with flags."""
    code = textwrap.dedent("""
        import contextlib, io, json, sys
        import flickerfloor, flickerfloor.cli
        argvs, watched = map(json.loads, sys.argv[1:])
        answers = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = flickerfloor.cli.main(argv)
            answers.append([code, bool(out.getvalue()), [m for m in watched if m in sys.modules]])
        print(json.dumps(answers))
    """)
    return json.loads(run_python(code, json.dumps(argvs), json.dumps(watched), flags=flags))


def test_scalar_questions_import_no_numpy():
    # fractions (and decimal, which it imports) would add 3-5 ms to each cold
    # process, dataclasses about 12 ms, and typing with importlib.resources
    # (and pathlib and tempfile, which it imports) 16-25 ms.  Asked under
    # -S, since a site .pth hook may load any of them first; none of these
    # questions needs site-packages.  The baseline is what the stdlib modules
    # the program and this probe import load by themselves.
    watched = [*WATCHED, "typing", "importlib.resources", "pathlib", "tempfile"]
    eager = json.loads(run_python(
        "import argparse, configparser, contextlib, json, sys; "
        "print(json.dumps([m for m in json.loads(sys.argv[1]) if m in sys.modules]))",
        json.dumps(watched), flags=["-S"]))
    answers = ask_in_process([argv for argv, _ in SCALAR_QUESTIONS], watched, flags=["-S"])
    for (argv, want_code), (code, printed, loaded) in zip(SCALAR_QUESTIONS, answers, strict=True):
        assert (code, printed, loaded) == (want_code, want_code == 0, eager), argv


def test_array_questions_import_no_fractions():
    # the spectral kernels reduced their phases with Fraction arithmetic; the
    # Gauss rules are frozen tables and the head edges a sorted set, so no
    # question loads numpy.polynomial (6 ms) or numpy.ma (15 ms), unless
    # importing numpy itself does (numpy 1.x)
    eager = json.loads(run_python(
        "import json, sys, numpy; "
        "print(json.dumps([m for m in ('numpy.polynomial', 'numpy.ma') if m in sys.modules]))"))
    answers = ask_in_process([["factor", "--sample", "V2", "--method", "quadrature"],
                              ["verify-wk"], ["estimate", "--n", "256", "--records", "2"]])
    assert answers == [[0, True, ["numpy", *eager]],
                       [0, True, ["numpy", "flickerfloor.spectral", *eager]],
                       [0, True, ["numpy", "flickerfloor.spectral", *eager]]]


# a catalog that needs UTF-8: units defines µm
MICRO_CFG = "\n".join([
    "[material:gaas]", "carriers = n:0.06", "rho0 = 5.3 g/cm^3", "u = 2.5e5 cm/s",
    "d = 5e-8 cm", "dos = 1e22 1/(eV*cm^3)", "h14 = -1.4e9 V/m", "[sample:bar]",
    "material = gaas", "width = 5 µm", "length = 20 um", "thickness = 20 nm"])
ASCII_LOCALE = dict(LC_ALL="C", PYTHONCOERCECLOCALE="0", PYTHONUTF8="0")


def test_cli_reads_a_catalog_as_utf8_under_an_ascii_locale(capsys, tmp_path):
    # a catalog is read as UTF-8, as the bundled ones are, whatever the
    # locale; a file that is not UTF-8 is still refused
    (tmp_path / "micro.cfg").write_text(MICRO_CFG, encoding="utf-8")
    (tmp_path / "latin.cfg").write_text(MICRO_CFG, encoding="latin-1")
    argv = ["kappa", "--config", str(tmp_path / "micro.cfg"), "--sample", "bar"]
    assert cli.main(argv) == 0
    done = fresh_interpreter("-m", "flickerfloor.cli", *argv, **ASCII_LOCALE)
    assert (done.returncode, done.stdout, done.stderr) == (0, capsys.readouterr().out, "")
    argv[2] = str(tmp_path / "latin.cfg")
    done = fresh_interpreter("-m", "flickerfloor.cli", *argv, **ASCII_LOCALE)
    assert (done.returncode, done.stdout, done.stderr) == (
        1, "", f"error: {argv[2]}: not a text config (invalid start byte)\n")


def annotated_report(capsys, tmp_path):
    """The report argv of a catalog whose annotation holds a µ, and its
    stdout in this process (UTF-8)."""
    config = tmp_path / "micro.cfg"
    config.write_text(MICRO_CFG + "\nannotation = 5 µm wide bar", encoding="utf-8")
    argv = ["report", "--config", str(config)]
    assert cli.main(argv) == 0
    out = capsys.readouterr().out
    assert "5 µm wide bar" in out
    return argv, out


def test_cli_writes_output_files_as_utf8_under_an_ascii_locale(capsys, tmp_path):
    # the file took the locale's encoding, and the µ ended the run in a
    # UnicodeEncodeError traceback
    argv, out = annotated_report(capsys, tmp_path)
    csv_path = tmp_path / "micro.csv"
    done = fresh_interpreter("-m", "flickerfloor.cli", *argv, "--output", str(csv_path),
                             **ASCII_LOCALE)
    assert (done.returncode, done.stdout, done.stderr) == (0, "", "")
    assert csv_path.read_bytes() == out.encode("utf-8")


def test_cli_escapes_on_stdout_what_its_encoding_lacks(capsys, tmp_path):
    # as Python's stderr does; the µ ended the run in a UnicodeEncodeError traceback
    argv, out = annotated_report(capsys, tmp_path)
    done = fresh_interpreter("-m", "flickerfloor.cli", *argv, **ASCII_LOCALE)
    assert (done.returncode, done.stdout, done.stderr) == (0, out.replace("µ", "\\xb5"), "")


def test_bundled_config_text_is_the_packaged_file():
    for name in ("ingaas", "ybco", "gaas_piezo"):
        text = (CONFIGS / f"{name}.cfg").read_bytes().decode("utf-8")
        assert bundled_config_text(name) == text
    for name in ("nope", "ingaas.cfg"):  # a name, not a file name
        with pytest.raises(FileNotFoundError):
            bundled_config_text(name)
