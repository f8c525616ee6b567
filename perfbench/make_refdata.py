"""Regenerate ``refdata.py``, the frozen reference values of the benchmark.

Run from the repository root:

    PYTHONPATH=src python3 perfbench/make_refdata.py > perfbench/refdata.py

Needs mpmath (1.3.0 was used).  The benchmark itself never imports mpmath; it
reads the literals this script prints.  How each value is made:

- Coulomb box integrals I(x) = int_box d^3r / |r - x| (cm^2) and the
  geometric factors g (cm^-1) built from them: the box is split at the point
  into corner boxes, and each corner box is the signed sum of the arctan/log
  corner primitive at its eight vertices, all evaluated in mpmath at 60
  significant digits from the exact binary value of every float input.  The
  far points lose about 2*log10(distance/size) digits to cancellation in that
  sum, which leaves more than 40 correct digits.  Each value also carries the
  condition number of that corner sum, sum(|terms|)/|sum|: the closed form's
  rounding error in double precision stays below eps times it.
- Sample dimensions are the floats the bundled catalogs parse to; the
  library's catalog loader is used only to read them.
- The point pool is drawn once from numpy's PCG64 with seed POOL_SEED, in
  five categories per box: interior, face, edge, corner and exterior at 10 to
  1e5 box diagonals from the box centre.
- SI quantity strings get their CGS value from exact decimal conversion
  factors written below (1 statvolt = 299.792458 V), not from the library.
- Sigma(f) targets are the exact transforms -exp(-2 pi f tau0 sqrt(a))/f of
  the log-law covariance ln(a + (tau/tau0)^2) and 2 tau0/(1 + (w tau0)^2) of
  exp(-|tau|/tau0); wk targets are -pi/|w|; the sign-function transform
  target is 2i (1 - cos(w t_m))/w.
"""

from __future__ import annotations

import mpmath as mp
import numpy as np

from flickerfloor import workbench

mp.mp.dps = 60
POOL_SEED = 20200727

CATALOGS = ("ingaas", "ybco", "gaas_piezo")
POOL_BOXES = ((1.0, 1.0, 1.0), (2.2e-4, 1e-4, 1e-6), (0.5, 0.07, 8.5e-6))
FAR_DISTANCES = (1e1, 1e2, 1e3, 1e4, 1e5)

SIGMA_LOGLAW_F = (0.005, 0.01, 0.02, 0.05)   # Hz, tau0 = 1 s, a = 1
SIGMA_EXP_F = (0.02, 0.05, 0.1)              # Hz, tau0 = 1 s
WK_OMEGA = (0.5, 1.0, 2.0)                   # rad/s
SIGN_TM = 10.0                               # s

# SI string -> (CGS unit tag, exact factor from the SI value to that unit)
_V_TO_STATVOLT = mp.mpf(1) / mp.mpf("299.792458")
SI_STRINGS = (
    ("1 um", "cm", mp.mpf("1e-4")),
    ("2.2 um", "cm", mp.mpf("2.2e-4")),
    ("3.3 um", "cm", mp.mpf("3.3e-4")),
    ("80 um", "cm", mp.mpf("80e-4")),
    ("300 um", "cm", mp.mpf("300e-4")),
    ("10 nm", "cm", mp.mpf("10e-7")),
    ("20 nm", "cm", mp.mpf("20e-7")),
    ("8.5e-6 cm", "cm", mp.mpf("8.5e-6")),
    ("0.2 cm", "cm", mp.mpf("0.2")),
    ("5.3 g/cm^3", "g/cm^3", mp.mpf("5.3")),
    ("6.3 g/cm^3", "g/cm^3", mp.mpf("6.3")),
    ("2.5e5 cm/s", "cm/s", mp.mpf("2.5e5")),
    ("2500 m/s", "cm/s", mp.mpf("2.5e5")),
    ("5e-8 cm", "cm", mp.mpf("5e-8")),
    ("1e22 1/(eV*cm^3)", "1/(erg*cm^3)", mp.mpf("1e22") / mp.mpf("1.602176634e-12")),
    ("-1.4e9 V/m", "statvolt/cm", mp.mpf("-1.4e9") / 100 * _V_TO_STATVOLT),
    ("1 mV", "statvolt", mp.mpf("1e-3") * _V_TO_STATVOLT),
    ("250 mV", "statvolt", mp.mpf("0.25") * _V_TO_STATVOLT),
    ("0.5 V", "statvolt", mp.mpf("0.5") * _V_TO_STATVOLT),
    ("9630 cm^-1", "1/cm", mp.mpf("9630")),
    ("10 kHz", "1/s", mp.mpf("1e4")),
    ("3 ms", "s", mp.mpf("3e-3")),
    ("1 J", "erg", mp.mpf("1e7")),
    ("2 kg", "g", mp.mpf("2000")),
    ("1.5 eV", "erg", mp.mpf("1.5") * mp.mpf("1.602176634e-12")),
    ("0.06", "", mp.mpf("0.06")),
)


def corner_terms(x, y, z):
    """The terms of the corner primitive of 1/r, as in geometry._corner_primitive."""
    r = mp.sqrt(x * x + y * y + z * z)
    terms = []
    if x > 0 and y > 0:
        terms.append(x * y * mp.log(z + r))
        if z > 0:
            terms.append(-z * z / 2 * mp.atan(x * y / (z * r)))
    if y > 0 and z > 0:
        terms.append(y * z * mp.log(x + r))
        if x > 0:
            terms.append(-x * x / 2 * mp.atan(y * z / (x * r)))
    if x > 0 and z > 0:
        terms.append(x * z * mp.log(y + r))
        if y > 0:
            terms.append(-y * y / 2 * mp.atan(x * z / (y * r)))
    return terms


def box_integral(dims, point):
    """(int over [0,dims] of 1/|r - point|, sum of |terms| of the corner sum)."""
    segs = []
    for extent, xi in zip(dims, point):
        lo, hi = -mp.mpf(xi), mp.mpf(extent) - mp.mpf(xi)
        if lo < 0 < hi:
            segs.append(((mp.mpf(0), -lo), (mp.mpf(0), hi)))
        elif hi <= 0:
            segs.append(((-hi, -lo),))
        else:
            segs.append(((lo, hi),))
    total, magnitude = mp.mpf(0), mp.mpf(0)
    for sx in segs[0]:
        for sy in segs[1]:
            for sz in segs[2]:
                u, v = (sx[0], sy[0], sz[0]), (sx[1], sy[1], sz[1])
                if any(b - a <= 0 for a, b in zip(u, v)):
                    continue
                for i in (0, 1):
                    for j in (0, 1):
                        for k in (0, 1):
                            sign = 1 if (i + j + k) % 2 else -1
                            for term in corner_terms(v[0] if i else u[0],
                                                     v[1] if j else u[1],
                                                     v[2] if k else u[2]):
                                total += sign * term
                                magnitude += abs(term)
    return total, magnitude


def probe_pair(dims, probes):
    """(I(x1) + I(x2), its condition number sum|terms| / |sum|)."""
    (i1, m1), (i2, m2) = box_integral(dims, probes.x1), box_integral(dims, probes.x2)
    return i1 + i2, (m1 + m2) / abs(i1 + i2)


def catalog_refs():
    rows = []
    for name in CATALOGS:
        entries, _ = workbench.load_catalog(workbench.bundled_config_text(name))
        for e in entries:
            dims = (e.geom.l, e.geom.w, e.geom.a)
            vol = mp.mpf(dims[0]) * mp.mpf(dims[1]) * mp.mpf(dims[2])
            s_long, c_long = probe_pair(dims, e.probes_longitudinal)
            s_tr, c_tr = probe_pair(dims, e.probes_transverse)
            g_long = s_long / (3 * vol)
            g_tr = s_tr / (3 * vol) * (mp.mpf(dims[1]) / mp.mpf(dims[0])) ** 2
            rows.append((name, e.sample_id, dims, float(g_long), float(c_long),
                         float(g_tr), float(c_tr)))
    return rows


def point_pool():
    rng = np.random.default_rng(POOL_SEED)
    pool = []
    for dims in POOL_BOXES:
        d = np.array(dims)
        for _ in range(8):
            pool.append(("interior", dims, tuple(rng.uniform(0.05, 0.95, 3) * d)))
        for axis in range(3):
            for side in (0.0, 1.0):
                p = rng.uniform(0.05, 0.95, 3) * d
                p[axis] = side * d[axis]
                pool.append(("face", dims, tuple(p)))
        for _ in range(4):
            p = rng.uniform(0.05, 0.95, 3) * d
            free = rng.integers(3)
            for axis in range(3):
                if axis != free:
                    p[axis] = rng.integers(2) * d[axis]
            pool.append(("edge", dims, tuple(p)))
        for _ in range(2):
            pool.append(("corner", dims, tuple(rng.integers(0, 2, 3) * d)))
        diag = float(np.linalg.norm(d))
        for dist in FAR_DISTANCES:
            for _ in range(2):
                u = rng.normal(size=3)
                u /= np.linalg.norm(u)
                pool.append((f"far{dist:.0e}", dims, tuple(0.5 * d + dist * diag * u)))
    rows = []
    for cat, dims, p in pool:
        value, magnitude = box_integral(dims, p)
        rows.append((cat, dims, tuple(float(c) for c in p), float(value),
                     float(magnitude / abs(value))))
    return rows


def main():
    print('"""Frozen reference values; generated by make_refdata.py (see there for how)."""')
    print()
    print("# (catalog, sample, (l, w, a) cm, g_longitudinal cm^-1, its condition number,")
    print("#  g_transverse cm^-1, its condition number)")
    print("CATALOG_G = (")
    for row in catalog_refs():
        print(f"    {row!r},")
    print(")")
    print()
    print("# (category, box dims cm, point cm, int_box d^3r/|r - x| in cm^2, condition number)")
    print("POINTS = (")
    for row in point_pool():
        print(f"    {row!r},")
    print(")")
    print()
    print("# (SI string, CGS unit tag, value in that unit)")
    print("SI_STRINGS = (")
    for text, unit, value in SI_STRINGS:
        print(f"    ({text!r}, {unit!r}, {float(value)!r}),")
    print(")")
    print()
    print("# Sigma(f) of ln(1 + tau^2) (tau0 = 1 s, a = 1): f Hz -> -exp(-2 pi f)/f")
    print("SIGMA_LOGLAW = {")
    for f in SIGMA_LOGLAW_F:
        fm = mp.mpf(f)
        print(f"    {f!r}: {float(-mp.exp(-2 * mp.pi * fm) / fm)!r},")
    print("}")
    print("# Sigma(f) of exp(-|tau|) (tau0 = 1 s): f Hz -> 2/(1 + (2 pi f)^2)")
    print("SIGMA_EXP = {")
    for f in SIGMA_EXP_F:
        w = 2 * mp.pi * mp.mpf(f)
        print(f"    {f!r}: {float(2 / (1 + w * w))!r},")
    print("}")
    print("# wk identity limit: omega rad/s -> -pi/|omega|")
    print("WK_TARGET = {")
    for w in WK_OMEGA:
        print(f"    {w!r}: {float(-mp.pi / mp.mpf(w))!r},")
    print("}")
    print(f"# sign-function transform at t_m = {SIGN_TM:g} s: omega -> Im 2i(1 - cos(w t_m))/w")
    print("SIGN_TARGET = {")
    for w in WK_OMEGA:
        wm = mp.mpf(w)
        print(f"    {w!r}: {float(2 * (1 - mp.cos(wm * SIGN_TM)) / wm)!r},")
    print("}")


if __name__ == "__main__":
    main()
