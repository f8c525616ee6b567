"""Command-line front end.

Subcommands: factor, kappa, delta, spectrum, estimate, verify-wk, report.
Exit codes: 0 success, 1 input error (InputError, OSError), 2 verification failure.
numpy is imported only for array work: by spectrum, estimate and verify-wk,
which also import the spectral layer, and by factor --method quadrature.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import geometry, noise_floor, workbench
from .units import DimensionError, InputError, UnitsError, parse_quantity, quantity
from .workbench import ConfigError


_COMMON = {
    "--config": dict(help="catalog config path (default: bundled ingaas.cfg)"),
    "--output": dict(help="write CSV to this path instead of stdout"),
    "--mode": dict(choices=["longitudinal", "transverse"], default="longitudinal",
                   help="probe configuration"),
}


def _add_common(p: argparse.ArgumentParser, *flags: str) -> None:
    for flag in flags:
        p.add_argument(flag, **_COMMON[flag])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flickerfloor",
        description="Lower bound on 1/f voltage noise from sample geometry "
                    "and material data.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="geometric factor g for a catalog sample")
    _add_common(p, "--config", "--mode")
    p.add_argument("--sample", required=True, help="sample id from the catalog")
    p.add_argument("--method", choices=["closed_form", "quadrature"],
                   default="closed_form")

    p = sub.add_parser("kappa", help="noise magnitude kappa for a catalog sample")
    _add_common(p, "--config", "--mode")
    p.add_argument("--sample", required=True)
    p.add_argument("--g-source", choices=["computed", "table"], default="computed")
    p.add_argument("--single-species", action="store_true",
                   help="use only the lightest carrier species")

    p = sub.add_parser("delta", help="phonon-dressing exponent delta for a material")
    _add_common(p, "--config")
    p.add_argument("--material", help="material name (default: first in catalog)")

    p = sub.add_parser("spectrum", help="evaluate S(f) for a catalog sample")
    _add_common(p, "--config", "--output", "--mode")
    p.add_argument("--sample", required=True)
    p.add_argument("--u0", default="1 mV", help="bias voltage, e.g. '1 mV'")
    p.add_argument("--fmin", type=float, default=1e-2, help="Hz")
    p.add_argument("--fmax", type=float, default=1e4, help="Hz")
    p.add_argument("--points", type=int, default=200)

    p = sub.add_parser("estimate", help="estimate the spectrum of synthetic power-law noise")
    _add_common(p, "--output")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=4096, help="samples per record (power of two)")
    p.add_argument("--dt", type=float, default=1.0, help="sample step, s")
    p.add_argument("--records", type=int, default=32, help="ensemble size")

    p = sub.add_parser("verify-wk", help="run the spectral-identity verification suite")
    _add_common(p, "--output")

    p = sub.add_parser("report", help="full catalog comparison table")
    _add_common(p, "--config", "--output", "--mode")
    p.add_argument("--g-source", choices=["computed", "table"], default="computed")

    return parser


def _load_catalog(args):
    if args.config:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{args.config}: not a text config ({err.reason})") from err
    else:
        text = workbench.bundled_config_text("ingaas")
    return workbench.load_catalog(text)


def _find_sample(entries, sample_id: str) -> workbench.CatalogEntry:
    for entry in entries:
        if entry.sample_id == sample_id:
            return entry
    known = ", ".join(e.sample_id for e in entries)
    raise ConfigError(f"unknown sample '{sample_id}' (catalog has: {known})")


def _emit(text: str, output) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _entry_model(entry, mode: str, single_species: bool = False, g=None):
    probes = (entry.probes_longitudinal if mode == "longitudinal"
              else entry.probes_transverse)
    return noise_floor.build_model(
        entry.geom, probes, entry.material, configuration=mode,
        single_species=single_species, delta_override=entry.delta_override, g=g)


def cmd_factor(args) -> int:
    entries, _ = _load_catalog(args)
    entry = _find_sample(entries, args.sample)
    if args.mode == "longitudinal":
        gf = geometry.geometric_factor(entry.geom, entry.probes_longitudinal,
                                       method=args.method)
    else:
        gf = geometry.geometric_factor_transverse(entry.geom, entry.probes_transverse,
                                                  method=args.method)
    print(f"g = {gf.value.to('cm^-1'):.6g} cm^-1 ({args.mode}, {args.method})")
    return 0


def cmd_kappa(args) -> int:
    entries, _ = _load_catalog(args)
    entry = _find_sample(entries, args.sample)
    g = None
    if args.g_source == "table":
        override = (entry.g_override if args.mode == "longitudinal"
                    else entry.g_tr_override)
        if override is None:
            raise ConfigError(f"sample '{args.sample}' has no tabulated g for "
                              f"mode '{args.mode}'")
        g = geometry.GeometricFactor(quantity(override, "cm^-1"), args.mode)
    model = _entry_model(entry, args.mode, args.single_species, g)
    print(f"kappa = {model.kappa:.6g}  gamma = {model.gamma:.6g}  "
          f"fmax = {model.fmax.to('Hz'):.6g} Hz")
    return 0


def cmd_delta(args) -> int:
    _, materials = _load_catalog(args)
    if args.material:
        if args.material not in materials:
            raise ConfigError(f"unknown material '{args.material}'")
        mat = materials[args.material]
    elif materials:
        mat = next(iter(materials.values()))
    else:
        raise ConfigError("catalog defines no material")
    delta = noise_floor.phonon_delta(mat)
    fstar = noise_floor.corner_frequency(mat).to("Hz")
    mag = fstar ** delta
    print(f"delta = {delta:.6g}  gamma = {1.0 + delta:.6g}  "
          f"f* = {fstar:.6g} Hz  (f*)^delta = {mag:.6g}")
    return 0


def cmd_spectrum(args) -> int:
    entries, _ = _load_catalog(args)
    entry = _find_sample(entries, args.sample)
    model = _entry_model(entry, args.mode)
    try:
        u0 = parse_quantity(args.u0)
        u0.to("V")  # dimension check up front
    except (UnitsError, DimensionError) as err:
        raise ConfigError(f"--u0 {args.u0!r}: {err}") from err
    for flag, value in (("--fmin", args.fmin), ("--fmax", args.fmax)):
        if not math.isfinite(value):
            raise ConfigError(f"{flag} {value}: must be finite")
    if args.fmin <= 0 or args.fmax <= args.fmin:
        raise ConfigError("need 0 < fmin < fmax")
    if args.points < 0:
        raise ConfigError(f"--points {args.points}: must be >= 0")
    import numpy as np

    from . import spectral

    f = np.logspace(np.log10(args.fmin), np.log10(args.fmax), args.points)
    series = noise_floor.evaluate_spectrum(model, u0, f)
    _emit(spectral.spectrum_csv_text(series), args.output)
    return 0


def cmd_estimate(args) -> int:
    import numpy as np

    from . import spectral

    records = [spectral.synthesize_power_law_noise(args.gamma, args.n, args.dt,
                                                   seed=args.seed + i)
               for i in range(args.records)]
    t_m = args.dt * (args.n - 1)
    f = np.logspace(np.log10(10.0 / t_m), np.log10(0.25 / args.dt), 60)
    series = spectral.power_spectrum_estimate(records, f)
    _emit(spectral.spectrum_csv_text(series), args.output)
    return 0


def cmd_verify_wk(args) -> int:
    report = workbench.run_verification_suite()
    _emit(report.to_csv(), args.output)
    if report.failures:
        for row in report.failures:
            print(f"FAIL: {row['case']} rel_error={row['rel_error']:.3g}",
                  file=sys.stderr)
        return 2
    return 0


def cmd_report(args) -> int:
    entries, _ = _load_catalog(args)
    report = workbench.reproduce_tables(entries, mode=args.mode,
                                        g_source=args.g_source)
    _emit(report.to_csv(), args.output)
    return 0


_COMMANDS = {
    "factor": cmd_factor,
    "kappa": cmd_kappa,
    "delta": cmd_delta,
    "spectrum": cmd_spectrum,
    "estimate": cmd_estimate,
    "verify-wk": cmd_verify_wk,
    "report": cmd_report,
}

def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
