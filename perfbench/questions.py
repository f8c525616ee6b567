"""The cli workload's questions and the checks of their answers.

A round holds one question of each kind below, in seeded order with seeded
samples, modes and arguments.  Together the kinds cover all seven
subcommands over the three bundled catalogs, both modes, both --g-source
values, both --method values, and two expected input errors.  Printed numbers
are compared at PRINTED_TOL, since the CLI prints 6 significant digits;
tables are read by column name, so added columns do not break the checks.
"""

from __future__ import annotations

import csv
import io
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import expect
import refdata
from flickerfloor import spectral   # makes the estimate's input records; the estimator is checked

U0_VOLTS = {"1 mV": 1e-3, "250 mV": 0.25, "0.5 V": 0.5}
BAD_U0 = ("1 furlong", "2 m")   # unknown unit; a length where a voltage belongs


@dataclass
class Question:
    subcommand: str
    argv: list[str]
    check: Callable[[int, str, str], list[str]]   # (exit code, stdout, stderr) -> failures


def _close(bad: list, label: str, got: float, want: float, tol: float = expect.PRINTED_TOL) -> None:
    err = abs(got - want) / abs(want)
    if not err <= tol:
        bad.append(f"{label}: got {got:.6g}, want {want:.6g}")


def _fields(text: str) -> dict[str, float]:
    """'name = number' pairs of a one-line answer."""
    return {k: float(v) for k, v in re.findall(r"([\w*()^]+) = (\S+)", text)}


def _table(text: str) -> list[dict]:
    return list(csv.DictReader(io.StringIO(text)))


def _suite_table(text: str) -> list[dict]:
    """verify-wk rows; the case names hold unquoted commas, the other cells do not."""
    lines = text.splitlines()
    header = lines[0].split(",")
    return [dict(zip(header, line.rsplit(",", len(header) - 1))) for line in lines[1:] if line]


def _ok(check):
    """Wrap a check of a successful answer: exit code 0 first."""
    def run(code, out, err):
        if code != 0:
            return [f"exit {code}: {err.strip()[-200:]}"]
        return check(out)
    return run


def _expect_input_error(code, out, err):
    if code == 1 and "error:" in err:
        return []
    return [f"expected exit 1 with 'error:', got exit {code}: {err.strip()[-200:]}"]


class Asker:
    """Draws rounds of questions from a seeded generator."""

    def __init__(self, rng, root: Path):
        self.rng = rng
        self.config_dir = root / "src" / "flickerfloor" / "configs"
        self.samples = {c: [s for (cat, s) in expect.SAMPLES if cat == c] for c in expect.CATALOGS}

    def _catalog(self, catalog=None):
        catalog = catalog or self.rng.choice(expect.CATALOGS)
        if catalog == "ingaas" and self.rng.random() < 0.5:
            return catalog, []   # the bundled default
        return catalog, ["--config", str(self.config_dir / f"{catalog}.cfg")]

    def _sample(self, catalog=None):
        catalog, cfg = self._catalog(catalog)
        return catalog, self.rng.choice(self.samples[catalog]), cfg

    def _mode(self):
        return self.rng.choice(expect.MODES)

    def round(self) -> list[Question]:
        kinds = [self.factor("closed_form"), self.factor("quadrature"), self.kappa("computed"),
                 self.kappa("table"), self.delta(), self.spectrum(), self.estimate(),
                 self.verify_wk(), self.report("computed"), self.report("table"),
                 self.unknown_sample(), self.bad_u0()]
        self.rng.shuffle(kinds)
        return kinds

    def factor(self, method):
        cat, sid, cfg = self._sample()
        mode = self._mode()

        def check(out):
            bad = []
            _close(bad, f"factor {sid} {mode} {method} g", _fields(out)["g"],
                   expect.ref_g(cat, sid, mode)[0])
            return bad
        return Question("factor", ["factor", *cfg, "--sample", sid, "--mode", mode,
                                   "--method", method], _ok(check))

    def kappa(self, g_source):
        cat, sid, cfg = self._sample("ingaas" if g_source == "table" else None)
        mode = self._mode()
        single = self.rng.random() < 0.5
        if g_source == "table":
            g = expect.TABLE_G[sid][expect.MODES.index(mode)]
        else:
            g = expect.ref_g(cat, sid, mode)[0]

        def check(out):
            bad, got = [], _fields(out)
            _close(bad, f"kappa {sid} {mode} {g_source}", got["kappa"],
                   expect.kappa_model(g, cat, sid, single))
            _close(bad, f"gamma {sid}", got["gamma"], 1.0 + expect.sample_delta(cat, sid))
            _close(bad, f"fmax {sid}", got["fmax"], expect.fmax_hz(cat, sid))
            return bad
        argv = ["kappa", *cfg, "--sample", sid, "--mode", mode, "--g-source", g_source]
        return Question("kappa", argv + (["--single-species"] if single else []), _ok(check))

    def delta(self):
        cat, cfg = self._catalog()
        material = expect.CATALOG_MATERIAL[cat]
        explicit = self.rng.random() < 0.5
        delta = expect.material_delta(material)

        def check(out):
            bad, got = [], _fields(out)
            _close(bad, f"gamma {material}", got["gamma"], 1.0 + delta)
            _close(bad, f"f* {material}", got["f*"], expect.fstar_hz(cat))
            _close(bad, f"(f*)^delta {material}", got["(f*)^delta"], expect.fstar_hz(cat) ** delta)
            return bad
        argv = ["delta", *cfg] + (["--material", material] if explicit else [])
        return Question("delta", argv, _ok(check))

    def spectrum(self):
        cat, sid, cfg = self._sample()
        mode = self._mode()
        u0 = self.rng.choice(sorted(U0_VOLTS))
        fmin, fmax = self.rng.choice((1e-3, 1e-2, 0.1)), self.rng.choice((1e3, 1e4, 1e5))
        points = self.rng.choice((50, 200))

        def check(out):
            bad, rows = [], _table(out)
            f = np.logspace(np.log10(fmin), np.log10(fmax), points)
            if len(rows) != points:
                return [f"spectrum: {len(rows)} rows, want {points}"]
            want = expect.floor_spectrum(
                expect.kappa_model(expect.ref_g(cat, sid, mode)[0], cat, sid),
                1.0 + expect.sample_delta(cat, sid), U0_VOLTS[u0], f)
            for row, fi, si in zip(rows, f, want):
                _close(bad, f"spectrum {sid} f", float(row["f"]), fi)
                _close(bad, f"spectrum {sid} S({fi:.3g})", float(row["S"]), si)
            return bad[:3]
        argv = ["spectrum", *cfg, "--sample", sid, "--mode", mode, "--u0", u0,
                "--fmin", repr(fmin), "--fmax", repr(fmax), "--points", str(points)]
        return Question("spectrum", argv, _ok(check))

    def estimate(self):
        gamma = self.rng.choice((0.5, 1.0, 1.5))
        n = self.rng.choice((1024, 4096))
        records = self.rng.choice((16, 32))
        seed = self.rng.randrange(100_000)

        def check(out):
            bad, rows = [], _table(out)
            f = expect.estimate_grid(n, 1.0)
            samples = np.stack([
                spectral.synthesize_power_law_noise(gamma, n, 1.0, seed=seed + i).samples
                for i in range(records)])
            want = expect.direct_psd(samples, 1.0, f)
            if len(rows) != len(f):
                return [f"estimate: {len(rows)} rows, want {len(f)}"]
            for row, fi, si in zip(rows, f, want):
                _close(bad, "estimate f", float(row["f"]), fi)
                _close(bad, f"estimate S({fi:.3g})", float(row["S"]), si)
            return bad[:3]
        argv = ["estimate", "--gamma", repr(gamma), "--n", str(n), "--records", str(records),
                "--seed", str(seed)]
        return Question("estimate", argv, _ok(check))

    def verify_wk(self):
        targets = {  # case-name prefix of the suite's rows -> frozen exact value
            "wk_identity(omega=1,": refdata.WK_TARGET[1.0],
            "loglaw_sigma(f=0.01, a=1) vs exact": refdata.SIGMA_LOGLAW[0.01],
            "exponential_sigma(f=0.05)": refdata.SIGMA_EXP[0.05],
            "sign_kernel(omega=1, t_m=10)": refdata.SIGN_TARGET[1.0],
        }

        def check(out):
            bad, rows = [], _suite_table(out)
            if not rows:
                return ["verify-wk printed no rows"]
            for row in rows:
                if row["status"] != "PASS":
                    bad.append(f"verify-wk {row['case']}: {row['status']}")
                for prefix, want in targets.items():
                    if row["case"].startswith(prefix):
                        tol = max(float(row["tolerance"]), expect.PRINTED_TOL)
                        _close(bad, f"verify-wk {row['case']}", float(row["computed"]), want, tol)
            return bad
        return Question("verify-wk", ["verify-wk"], _ok(check))

    def report(self, g_source):
        cat, cfg = self._catalog()
        mode = self._mode()

        def check(out):
            bad, rows = [], _table(out)
            want_rows = expect.report_rows(cat, mode, g_source)
            if sorted(r["sample"] for r in rows) != sorted(want_rows):
                return [f"report {cat}: samples {[r['sample'] for r in rows]}"]
            for row in rows:
                for col, want in want_rows[row["sample"]].items():
                    _close(bad, f"report {cat}/{mode}/{g_source} {row['sample']} {col}",
                           float(row[col]), want)
            return bad
        argv = ["report", *cfg, "--mode", mode, "--g-source", g_source]
        return Question("report", argv, _ok(check))

    def unknown_sample(self):
        _, cfg = self._catalog()
        sub = self.rng.choice(("factor", "kappa", "spectrum"))
        return Question(sub, [sub, *cfg, "--sample", f"X{self.rng.randrange(1000)}"],
                        _expect_input_error)

    def bad_u0(self):
        _, sid, cfg = self._sample()
        return Question("spectrum", ["spectrum", *cfg, "--sample", sid,
                                     "--u0", self.rng.choice(BAD_U0)], _expect_input_error)
