"""Accuracy of the program's numerical kernels on fixed inputs.

    PYTHONPATH=src python3 perfbench/accuracy.py

The inputs do not depend on the workload or the seed, so each figure is the
same on every run of the same code and moves only when the code does.  run.py
starts this in its own process, after the timed window, so it adds nothing to
any workload's timings or peak RSS.  The last stdout line is a JSON object of
maximum relative errors and whether each value stayed within its tolerance:

- g_max_rel_err: g at every catalog probe pair (both modes, closed form and
  quadrature) and the Coulomb integral at the near pool points (interior,
  face, edge, corner), against the 60-digit references;
- g_far1e1_max_rel_err to g_far1e5_max_rel_err: the Coulomb integral at the
  exterior pool points 10, 100, ... 1e5 box diagonals away, one metric per
  decade, where the closed form's corner sum cancels; a point of
  expect.KNOWN_POINT_MISSES counts in its metric but not in within_tolerance;
- sigma_max_rel_err: Sigma(f) of the log-law covariance at f = 0.01 and
  f t_m = 1e3, 1e4, 1e5, and of the exponential one at f = 0.05, against the
  exact transforms;
- wk_max_rel_err: the log-kernel difference at omega = 1, t_m = 1e3, 1e4,
  1e5, against -pi/|omega|;
- psd_max_rel_err: power_spectrum_estimate on 32 records (gamma = 1, record
  seeds 0..31) at every workload size, against direct trapezoid sums.
"""

import json

import numpy as np

import expect
import passes
import refdata
from flickerfloor import geometry, spectral, workbench


def g_errors():
    """(error, tolerance) pairs by metric; tolerance None where not checked."""
    near = []
    for name in expect.CATALOGS:
        entries, _ = workbench.load_catalog(workbench.bundled_config_text(name))
        for e in entries:
            for method in ("closed_form", "quadrature"):
                for mode, fn, probes in (
                        ("longitudinal", geometry.geometric_factor, e.probes_longitudinal),
                        ("transverse", geometry.geometric_factor_transverse, e.probes_transverse)):
                    want, tol = expect.ref_g(name, e.sample_id, mode)
                    got = fn(e.geom, probes, method=method).value.to("cm^-1")
                    near.append((expect.max_rel_err(got, want), tol))
    groups = {"g_max_rel_err": near}
    for category, dims, point, want, cond in refdata.POINTS:
        got = geometry.coulomb_box_integral(geometry.SampleGeometry(*dims), point).to("cm^2")
        name = far_metric(category) if category.startswith("far") else "g_max_rel_err"
        groups.setdefault(name, []).append(
            (expect.max_rel_err(got, want), expect.point_tol(category, dims, cond)))
    return groups


def far_metric(category: str) -> str:
    """'far1e+03' -> 'g_far1e3_max_rel_err'."""
    return f"g_{category.replace('e+0', 'e')}_max_rel_err"


def sigma_errors():
    loglaw = spectral.CovarianceModel(kind="log-law", tau0=1.0, a_cov=1.0)
    expcov = spectral.CovarianceModel(kind="exponential", tau0=1.0)
    out = [(expect.max_rel_err(spectral.sigma_spectrum(loglaw, 0.01, ft / 0.01),
                               refdata.SIGMA_LOGLAW[0.01]), expect.sigma_tol(ft))
           for ft in passes.SIGMA_FT]
    out.append((expect.max_rel_err(spectral.sigma_spectrum(expcov, 0.05, passes.EXP_TM),
                                   refdata.SIGMA_EXP[0.05]), expect.SIGMA_EXP_TOL))
    return out


def wk_errors():
    return [(expect.max_rel_err(spectral.wk_identity_check(1.0, t_m).difference,
                                refdata.WK_TARGET[1.0]), expect.wk_tol(1.0, t_m))
            for t_m in passes.WK_TM]


def psd_errors():
    out = []
    for n in passes.PSD_SIZES:
        records = [spectral.synthesize_power_law_noise(1.0, n, 1.0, seed=s)
                   for s in range(passes.PSD_RECORDS)]
        f = expect.estimate_grid(n, 1.0, passes.PSD_FREQUENCIES)
        got = spectral.power_spectrum_estimate(records, f).value
        want = expect.direct_psd(np.stack([r.samples for r in records]), 1.0, f)
        out.append((expect.max_rel_err(got, want), expect.PSD_TOL))
    return out


def main() -> None:
    groups = {**g_errors(), "sigma_max_rel_err": sigma_errors(),
              "wk_max_rel_err": wk_errors(), "psd_max_rel_err": psd_errors()}
    out = {name: max(err for err, _ in pairs) for name, pairs in groups.items()}
    out["within_tolerance"] = {name: all(tol is None or err <= tol for err, tol in pairs)
                               for name, pairs in groups.items()}
    print(json.dumps(out))


if __name__ == "__main__":
    main()
