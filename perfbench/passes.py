"""The in-process workloads: one catalog pass and one spectral pass.

Each pass calls the program's public functions only, through ``Tracer.call``,
which is where the per-layer spans are recorded, and checks every result
against ``expect``.  A pass returns the list of checks that failed; an empty
list means the pass (one op) succeeded.
"""

from __future__ import annotations

import random
import time
import tracemalloc
from collections import defaultdict

import numpy as np

import expect
import refdata
from flickerfloor import geometry, noise_floor, spectral, units, workbench

SIGMA_FT = (1e3, 1e4, 1e5)
WK_TM = (1e3, 1e4, 1e5)
PSD_SIZES = (1024, 4096, 16384, 65536)
PSD_RECORDS = 32
PSD_FREQUENCIES = 60
EXP_TM = 2000.0
U0_CHOICES = ("1 mV", "250 mV", "0.5 V")
POINTS_PER_CATEGORY = 3   # of each box's 2 to 10 pool points per category, per pass


class Tracer:
    """Spans around calls into the program's layers.

    mode None calls straight through; "time" records (pass id, layer, start,
    end) per call, the pass being the span that caused it; "memory" records the
    tracemalloc peak of each call.
    """

    def __init__(self, mode=None):
        self.mode = mode
        self.pass_id = 0
        self.spans = []
        self.peak_bytes = defaultdict(int)

    def call(self, layer, fn, *args, **kwargs):
        if self.mode is None:
            return fn(*args, **kwargs)
        if self.mode == "memory":
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            out = fn(*args, **kwargs)
            peak = tracemalloc.get_traced_memory()[1] - base
            self.peak_bytes[layer] = max(self.peak_bytes[layer], peak)
            return out
        start = time.perf_counter()
        out = fn(*args, **kwargs)
        self.spans.append((self.pass_id, layer, start, time.perf_counter()))
        return out

    def layer_stats(self) -> dict[str, dict]:
        """Per layer: calls per pass and the median over passes of busy ms per pass."""
        per_pass = defaultdict(lambda: defaultdict(lambda: [0, 0.0]))
        for pid, layer, start, end in self.spans:
            slot = per_pass[layer][pid]
            slot[0] += 1
            slot[1] += (end - start) * 1e3
        passes = {pid for pid, *_ in self.spans}
        stats = {}
        for layer, by_pass in per_pass.items():
            calls = [by_pass[p][0] if p in by_pass else 0 for p in passes]
            busy = [by_pass[p][1] if p in by_pass else 0.0 for p in passes]
            stats[layer] = {"calls": float(np.median(calls)), "busy_ms": float(np.median(busy))}
        for layer, peak in self.peak_bytes.items():
            stats.setdefault(layer, {})["peak_mb"] = peak / 2 ** 20
        return stats


def _check(bad: list, label: str, got, want, tol: float) -> None:
    """Record a failure unless every |got - want| <= tol * |want| (NaN fails)."""
    err = expect.max_rel_err(got, want)
    if not err <= tol:
        bad.append(f"{label}: rel err {err:.3g} > {tol:.3g}")


# ---------------------------------------------------------------------------
# catalog pass
# ---------------------------------------------------------------------------

class CatalogWork:
    """Inputs of the catalog workload, fixed once per run from the seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.texts = {name: workbench.bundled_config_text(name) for name in expect.CATALOGS}
        by_box = defaultdict(list)
        for row in refdata.POINTS:
            category = "far" if row[0].startswith("far") else row[0]
            by_box[(row[1], category)].append(row)
        self.point_groups = list(by_box.values())
        self.boxes = {dims: geometry.SampleGeometry(*dims) for dims, _ in by_box}

    def warm_up(self) -> None:
        entries, _ = workbench.load_catalog(self.texts["ingaas"])
        e = entries[0]
        geometry.geometric_factor(e.geom, e.probes_longitudinal)
        geometry.geometric_factor(e.geom, e.probes_longitudinal, method="quadrature")
        workbench.reproduce_tables(entries)

    def run_pass(self, tr: Tracer) -> list[str]:
        rng, bad = self.rng, []
        for text, unit, want in rng.sample(refdata.SI_STRINGS, len(refdata.SI_STRINGS)):
            q = tr.call("units.parse_quantity", units.parse_quantity, text)
            _check(bad, f"parse {text!r}", q.to(unit), want, 4 * expect.EPS)
        catalogs = {}
        for name in rng.sample(expect.CATALOGS, len(expect.CATALOGS)):
            catalogs[name], _ = tr.call("workbench.load_catalog", workbench.load_catalog,
                                        self.texts[name])
        rows = [(name, e) for name, entries in catalogs.items() for e in entries]
        for name, e in rng.sample(rows, len(rows)):
            self._sample(tr, rng, bad, name, e)
        for group in self.point_groups:
            picked = rng.sample(group, min(POINTS_PER_CATEGORY, len(group)))
            for category, dims, point, want, cond in picked:
                got = tr.call("geometry.closed_form", geometry.coulomb_box_integral,
                              self.boxes[dims], point).to("cm^2")
                tol = expect.point_tol(category, dims, cond)
                if tol is not None:
                    _check(bad, f"I{point} in box {dims}", got, want, tol)
        combos = [(n, m, s) for n in expect.CATALOGS for m in expect.MODES
                  for s in ("computed", "table")]
        for name, mode, g_source in rng.sample(combos, len(combos)):
            report = tr.call("workbench.reproduce_tables", workbench.reproduce_tables,
                             catalogs[name], mode=mode, g_source=g_source)
            want_rows = expect.report_rows(name, mode, g_source)
            for row in report.rows:
                for col, want in want_rows[row["sample"]].items():
                    _check(bad, f"report {name}/{mode}/{g_source} {row['sample']} {col}",
                           row[col], want, expect.PHYSICS_TOL)
        return bad

    def _sample(self, tr, rng, bad, name, e) -> None:
        sid, geom, mat = e.sample_id, e.geom, e.material
        label = f"{name}/{sid}"
        for got, want in zip((geom.l, geom.w, geom.a), expect.sample_dims(name, sid)):
            _check(bad, f"{label} dimensions", got, want, 4 * expect.EPS)
        g_long = tr.call("geometry.closed_form", geometry.geometric_factor,
                         geom, e.probes_longitudinal)
        g_tr = tr.call("geometry.closed_form", geometry.geometric_factor_transverse,
                       geom, e.probes_transverse)
        g_quad = tr.call("geometry.quadrature", geometry.geometric_factor,
                         geom, e.probes_longitudinal, method="quadrature")
        for mode, gf in (("longitudinal", g_long), ("transverse", g_tr), ("longitudinal", g_quad)):
            want, tol = expect.ref_g(name, sid, mode)
            _check(bad, f"{label} g {mode}", gf.value.to("cm^-1"), want, tol)
        delta = tr.call("noise_floor.phonon_delta", noise_floor.phonon_delta, mat)
        want_delta = expect.material_delta(expect.CATALOG_MATERIAL[name])
        if want_delta == 0.0:
            if delta != 0.0:
                bad.append(f"{label} delta: got {delta!r}, want 0")
        else:
            _check(bad, f"{label} delta", delta, want_delta, expect.PHYSICS_TOL)
        k = tr.call("noise_floor.kappa", noise_floor.kappa, g_long, mat)
        _check(bad, f"{label} kappa", k,
               expect.kappa_bare(expect.ref_g(name, sid, "longitudinal")[0], name),
               expect.PHYSICS_TOL)
        u0_text = rng.choice(U0_CHOICES)
        u0 = tr.call("units.parse_quantity", units.parse_quantity, u0_text)
        f = np.logspace(rng.choice((-3, -2)), rng.choice((3, 4)), 64)
        for mode in expect.MODES:
            probes = e.probes_longitudinal if mode == "longitudinal" else e.probes_transverse
            model = tr.call("noise_floor.build_model", noise_floor.build_model, geom, probes,
                            mat, configuration=mode, delta_override=e.delta_override)
            want_k = expect.kappa_model(expect.ref_g(name, sid, mode)[0], name, sid)
            want_gamma = 1.0 + expect.sample_delta(name, sid)
            _check(bad, f"{label} {mode} model kappa", model.kappa, want_k, expect.PHYSICS_TOL)
            _check(bad, f"{label} {mode} gamma", model.gamma, want_gamma, expect.PHYSICS_TOL)
            _check(bad, f"{label} fmax", model.fmax.to("Hz"), expect.fmax_hz(name, sid),
                   expect.PHYSICS_TOL)
            series = tr.call("noise_floor.evaluate_spectrum", noise_floor.evaluate_spectrum,
                             model, u0, f)
            want_s = expect.floor_spectrum(want_k, want_gamma, u0.to("V"), f)
            _check(bad, f"{label} {mode} S(f) at {u0_text}", series.value, want_s,
                   expect.PHYSICS_TOL)


# ---------------------------------------------------------------------------
# spectral pass
# ---------------------------------------------------------------------------

class SpectralWork:
    """Inputs of the spectral workload, fixed once per run from the seed.

    The seed picks the covariance frequencies, the sign-transform omega, the
    noise exponent and the record seeds.  What sets the work stays fixed: f t_m
    for Sigma, omega t_m for the wk identity (omega = 1), and n.
    """

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.loglaw = spectral.CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
        self.expcov = spectral.CovarianceModel(kind="exponential", tau0=1.0)
        self.f_loglaw = [rng.choice(sorted(refdata.SIGMA_LOGLAW)) for _ in SIGMA_FT]
        self.f_exp = rng.choice(sorted(refdata.SIGMA_EXP))
        self.omega_sign = rng.choice(sorted(refdata.SIGN_TARGET))
        self.gamma = rng.choice((0.5, 1.0, 1.5))
        base = rng.randrange(1_000_000)
        self.record_seeds = [base + i for i in range(PSD_RECORDS)]
        self.grids = {n: expect.estimate_grid(n, 1.0, PSD_FREQUENCIES) for n in PSD_SIZES}
        self.psd_ref = None

    def synthesize(self, tr: Tracer, n: int) -> list:
        return [tr.call("spectral.synthesize_power_law_noise", spectral.synthesize_power_law_noise,
                        self.gamma, n, 1.0, seed=s) for s in self.record_seeds]

    def compute_references(self) -> None:
        """Direct trapezoid sums for this run's ensembles, outside the timed ops."""
        self.psd_ref = {}
        for n in PSD_SIZES:
            samples = np.stack([r.samples for r in self.synthesize(Tracer(), n)])
            self.psd_ref[n] = expect.direct_psd(samples, 1.0, self.grids[n])

    def warm_up(self) -> None:
        spectral.sigma_spectrum(self.loglaw, 0.01, 1e5)
        spectral.wk_identity_check(1.0, 1e3)
        recs = [spectral.synthesize_power_law_noise(1.0, 1024, 1.0, seed=s) for s in range(2)]
        spectral.power_spectrum_estimate(recs, self.grids[1024])

    def run_pass(self, tr: Tracer) -> list[str]:
        bad = []
        for ft, f in zip(SIGMA_FT, self.f_loglaw):
            got = tr.call(f"spectral.sigma_spectrum.ft{ft:.0e}".replace("e+0", "e"),
                          spectral.sigma_spectrum, self.loglaw, f, ft / f)
            _check(bad, f"Sigma log-law f={f} f*t_m={ft:g}", got, refdata.SIGMA_LOGLAW[f],
                   expect.sigma_tol(ft))
        got = tr.call("spectral.sigma_spectrum.exp", spectral.sigma_spectrum,
                      self.expcov, self.f_exp, EXP_TM)
        _check(bad, f"Sigma exponential f={self.f_exp}", got, refdata.SIGMA_EXP[self.f_exp],
               expect.SIGMA_EXP_TOL)
        for t_m in WK_TM:
            res = tr.call(f"spectral.wk_identity_check.tm{t_m:.0e}".replace("e+0", "e"),
                          spectral.wk_identity_check, 1.0, t_m)
            _check(bad, f"wk t_m={t_m:g}", res.difference, refdata.WK_TARGET[1.0],
                   expect.wk_tol(1.0, t_m))
        sk = tr.call("spectral.sign_function_transform", spectral.sign_function_transform,
                     self.omega_sign, 10.0)
        want = refdata.SIGN_TARGET[self.omega_sign]
        _check(bad, f"sign kernel omega={self.omega_sign}", sk, 1j * want, expect.SIGN_TOL)
        suite = tr.call("workbench.run_verification_suite", workbench.run_verification_suite)
        bad += [f"verification suite: {row['case']} {row['status']}" for row in suite.failures]
        for n in PSD_SIZES:
            records = self.synthesize(tr, n)
            series = tr.call(f"spectral.power_spectrum_estimate.n{n}",
                             spectral.power_spectrum_estimate, records, self.grids[n])
            _check(bad, f"power spectrum n={n}", series.value, self.psd_ref[n], expect.PSD_TOL)
        return bad


def psd_phase_bytes(n: int) -> float:
    """Bytes of the dense sin and cos phase matrices at this size (computed, not measured)."""
    return float(2 * PSD_FREQUENCIES * n * 8)


WORKS = {"catalog": CatalogWork, "spectral": SpectralWork}
