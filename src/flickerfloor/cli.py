"""Command-line front end.

Subcommands: factor, kappa, delta, spectrum, estimate, verify-wk, report.
Exit codes: 0 success, 1 input error (InputError, OSError), 2 verification failure.
numpy is imported only for array work: by estimate and verify-wk, which also
import the spectral layer, and by factor --method quadrature.  spectrum is
plain arithmetic on its grid; no path imports dataclasses, typing or importlib.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys

from . import noise_floor, workbench
from .units import DimensionError, InputError, UnitsError, parse_quantity
from .workbench import ConfigError


_MAX_POINTS = 1_000_000  # spectrum points; each takes about 115 bytes of float lists
# estimate samples, --n times --records, all held at once as float64: 512 MiB
# at the ceiling, next to which the FFT and estimator transients are small
_MAX_SAMPLES = 2 ** 26

# the flags two or more subcommands take, each declared once
_COMMON = {
    "--config": dict(help="catalog config path (default: bundled ingaas.cfg)"),
    "--output": dict(help="write CSV to this path instead of stdout"),
    "--mode": dict(choices=["longitudinal", "transverse"], default="longitudinal",
                   help="probe configuration"),
    "--sample": dict(required=True, help="sample id from the catalog"),
    "--g-source": dict(choices=["computed", "table"], default="computed"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flickerfloor",
        description="Lower bound on 1/f voltage noise from sample geometry "
                    "and material data.")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, *common):
        """The subparser of name, which runs run(args), with the common flags."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        for flag in common:
            p.add_argument(flag, **_COMMON[flag])
        return p

    p = command("factor", cmd_factor, "geometric factor g for a catalog sample",
                "--config", "--mode", "--sample")
    p.add_argument("--method", choices=["closed_form", "quadrature"],
                   default="closed_form")

    p = command("kappa", cmd_kappa, "noise magnitude kappa for a catalog sample",
                "--config", "--mode", "--sample", "--g-source")
    p.add_argument("--single-species", action="store_true",
                   help="use only the lightest carrier species")

    p = command("delta", cmd_delta, "phonon-dressing exponent delta for a material",
                "--config")
    p.add_argument("--material", help="material name (default: first in catalog)")

    p = command("spectrum", cmd_spectrum, "evaluate S(f) for a catalog sample",
                "--config", "--output", "--mode", "--sample")
    p.add_argument("--u0", default="1 mV", help="bias voltage, e.g. '1 mV'")
    p.add_argument("--fmin", type=float, default=1e-2, help="Hz")
    p.add_argument("--fmax", type=float, default=1e4, help="Hz")
    p.add_argument("--points", type=int, default=200)

    p = command("estimate", cmd_estimate,
                "estimate the spectrum of synthetic power-law noise", "--output")
    p.add_argument("--seed", type=int, default=0, help="RNG seed")
    p.add_argument("--gamma", type=float, default=1.0)
    p.add_argument("--n", type=int, default=4096, help="samples per record (power of two)")
    p.add_argument("--dt", type=float, default=1.0, help="sample step, s")
    p.add_argument("--records", type=int, default=32, help="ensemble size")

    command("verify-wk", cmd_verify_wk, "run the spectral-identity verification suite",
            "--output")
    command("report", cmd_report, "full catalog comparison table",
            "--config", "--output", "--mode", "--g-source")
    return parser


def _load_catalog(args):
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                text = fh.read()
        except UnicodeDecodeError as err:
            raise ConfigError(f"{args.config}: not a text config ({err.reason})") from err
    else:
        text = workbench.bundled_config_text("ingaas")
    return workbench.load_catalog(text)


def _entry(args) -> workbench.CatalogEntry:
    entries, _ = _load_catalog(args)
    for entry in entries:
        if entry.sample_id == args.sample:
            return entry
    known = ", ".join(e.sample_id for e in entries)
    raise ConfigError(f"unknown sample '{args.sample}' (catalog has: {known})")


def _write_table(table, output) -> None:
    """Write a Report, or a SpectrumSeries as f,S,stderr and one column per
    annotation (flags as 0/1), as CSV to output (UTF-8), or to stdout without one.
    Floats (numpy's too) get 6 significant digits and None an empty cell.
    Cells are not quoted: a comma in a verify-wk case name, or in a catalog
    annotation (a report's annotations cell), adds a field."""
    if isinstance(table, workbench.Report):
        header, rows = table.columns, ([row.get(c) for c in table.columns] for row in table.rows)
    else:
        header = ["f", "S", "stderr", *table.annotations]
        rows = zip(table.f, table.value, table.stderr,
                   *(map(float, column) for column in table.annotations.values()))

    def cell(v):
        return "" if v is None else f"{v:.6g}" if isinstance(v, float) else str(v)

    # written as formatted: a million-point spectrum is never held as text
    lines = (",".join(map(cell, row)) + "\n" for row in itertools.chain([header], rows))
    if output:  # in the catalog's own encoding, whatever the locale's
        with open(output, "w", encoding="utf-8") as fh:
            fh.writelines(lines)
    else:  # a character the stream's encoding lacks is escaped, as on stderr
        if hasattr(sys.stdout, "reconfigure"):  # an io.StringIO has none and needs none
            sys.stdout.reconfigure(errors="backslashreplace")
        sys.stdout.writelines(lines)


def cmd_factor(args) -> int:
    gf = _entry(args).g(args.mode, method=args.method)
    print(f"g = {gf.value.to('cm^-1'):.6g} cm^-1 ({args.mode}, {args.method})")
    return 0


def cmd_kappa(args) -> int:
    entry = _entry(args)
    g = entry.g(args.mode, args.g_source)
    if g is None:  # unlike report, kappa does not fall back to the computed g
        raise ConfigError(f"sample '{args.sample}' has no tabulated g for mode '{args.mode}'")
    model = entry.model(args.mode, args.single_species, g)
    print(f"kappa = {model.kappa:.6g}  gamma = {model.gamma:.6g}  "
          f"fmax = {model.fmax.to('Hz'):.6g} Hz")
    return 0


def cmd_delta(args) -> int:
    _, materials = _load_catalog(args)
    if args.material:
        if args.material not in materials:
            raise ConfigError(f"unknown material '{args.material}' "
                              f"(catalog has: {', '.join(materials)})")
        mat = materials[args.material]
    elif materials:
        mat = next(iter(materials.values()))
    else:
        raise ConfigError("catalog defines no material")
    delta = noise_floor.phonon_delta(mat)
    fstar = noise_floor.corner_frequency(mat).to("Hz")
    print(f"delta = {delta:.6g}  gamma = {1.0 + delta:.6g}  f* = {fstar:.6g} Hz  "
          f"(f*)^delta = {noise_floor.corner_power(mat, delta):.6g}")
    return 0


def cmd_spectrum(args) -> int:
    model = _entry(args).model(args.mode)
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
    if args.points > _MAX_POINTS:
        raise ConfigError(f"--points {args.points}: must be at most {_MAX_POINTS:,}")
    # np.logspace's exponents, start + i*step, the last of two or more exactly
    # log10(fmax); Python's ** may round a point one ulp from numpy's power
    start, stop = math.log10(args.fmin), math.log10(args.fmax)
    last = max(args.points - 1, 1)
    step = (stop - start) / last
    try:
        f = [10.0 ** (start + i * step if i < last else stop) for i in range(args.points)]
    except OverflowError as err:  # 10^log10(fmax) may round past the largest float
        raise ConfigError(f"--fmax {args.fmax}: the grid leaves the float range") from err
    if any(b <= a for a, b in zip(f, f[1:])):  # fmax within a few ulps of fmin
        raise ConfigError(f"--points {args.points} --fmin {args.fmin} --fmax {args.fmax}: "
                          "the grid points are not strictly increasing")
    _write_table(noise_floor.evaluate_spectrum(model, u0, f), args.output)
    return 0


def cmd_estimate(args) -> int:
    if args.seed < 0:
        raise ConfigError(f"--seed {args.seed}: must be nonnegative")
    # the grid runs from 10/t_m up to 0.25/dt, with t_m = (n - 1) dt
    if args.n <= 41:
        raise ConfigError(f"--n {args.n}: must exceed 41, or the frequency grid "
                          "from 10/t_m to 0.25/dt runs backwards")
    if args.n & (args.n - 1):
        raise ConfigError(f"--n {args.n}: must be a power of two")
    if args.records < 1:
        raise ConfigError(f"--records {args.records}: must be at least 1")
    if args.n * args.records > _MAX_SAMPLES:
        raise ConfigError(f"--n {args.n} --records {args.records}: the records would hold "
                          f"more than {_MAX_SAMPLES:,} samples at once")
    if not 0.0 <= args.gamma <= 2.0:
        raise ConfigError(f"--gamma {args.gamma:g}: must be in [0, 2]")
    if not 0.0 < args.dt < math.inf:
        raise ConfigError(f"--dt {args.dt:g}: must be finite and positive")
    t_m = args.dt * (args.n - 1)
    if not all(0 < end < math.inf for end in (10.0 / t_m, 0.25 / args.dt)):
        raise ConfigError(f"--dt {args.dt:g}: the frequency grid from 10/t_m to 0.25/dt "
                          f"leaves the float range at --n {args.n}")
    import numpy as np

    from . import spectral

    records = [spectral.synthesize_power_law_noise(args.gamma, args.n, args.dt,
                                                   seed=args.seed + i)
               for i in range(args.records)]
    f = np.logspace(np.log10(10.0 / t_m), np.log10(0.25 / args.dt), 60)
    _write_table(spectral.power_spectrum_estimate(records, f), args.output)
    return 0


def cmd_verify_wk(args) -> int:
    report = workbench.run_verification_suite()
    _write_table(report, args.output)
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
    _write_table(report, args.output)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except (InputError, OSError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
