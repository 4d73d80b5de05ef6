"""The benchmark workloads.

Each workload generates its inputs from the seed in its constructor
(together with any frame it caches); ``op(i)`` is one timed operation
through the names the CLI looks up in ``radial_gabor.cli``, ``capture``
keeps what the correctness gates need (untimed), and ``check`` runs the
gates against the references in ``oracles`` after the timed loop.
"""

from __future__ import annotations

import math

import numpy as np

import oracles
from radial_gabor import cli
from radial_gabor.embeddings import EmbeddingQuery
from radial_gabor.lattice import LatticeSpec, lattice_table
from radial_gabor.profiles import GaussianSpec, make_profile, profile_from_csv, profile_to_csv

THETA_MAX = 8.0
N_POINTS = 1024
STEP = 0.5
MAX_ITER = 2000
# |atom - reference| <= ATOM_TOL sqrt(mu) ||g||; the spline window's own
# phi-quadrature error reaches 1.3e-9 at J = 8 (its C^2 samples limit
# Gauss-Legendre convergence), Gaussian atoms agree to 1e-13
ATOM_TOL = 5e-9
REL_SLACK = 1e-6  # on recomputed errors, which round differently


def cli_target(name: str, d: int) -> GaussianSpec:
    """The CLI's named windows/targets (see ``radial_gabor.cli.WINDOWS``)."""
    return {
        "gauss": GaussianSpec(1.0),
        "gauss2": GaussianSpec(2.0 * math.pi),
        "normalized": GaussianSpec(math.pi, 2.0 ** (d / 4.0)),
    }[name]


class Workload:
    work_unit = ""
    # scale end-to-end times by the reference kernel (see run.Calibration);
    # only right for ops that run on the load thread, which the kernel shares
    calibrate = True
    count_ops = 1  # leading traced ops whose counts must repeat exactly
    trace_block = 1  # a traced run alternates blocks of traced and untraced ops

    def op(self, i: int):
        raise NotImplementedError

    def capture(self, i: int, raw):
        return raw

    def work(self, rec) -> int:
        return 1

    def setup_checks(self) -> list[str | None]:
        """One entry per gated setup item: a failure message or None."""
        return []

    def check(self, records: dict) -> tuple[int, dict[int, str]]:
        """(ops checked, failure message by op index), from the subclass's
        ``check_one(i, rec) -> message or None``."""
        failures = {}
        for i, rec in records.items():
            msg = self.check_one(i, rec)
            if msg:
                failures[i] = msg
        return len(records), failures


# ----------------------------------------------------------------------
# frame pipelines: build_frame -> reconstruct -> coeffs_to_csv
# ----------------------------------------------------------------------

class FramePipeline(Workload):
    work_unit = "atoms"
    # atoms are built on the library's ring pool across all cores, which a
    # one-thread kernel does not track: calibrated times spread 13-27% over
    # seeds against 3-7% in wall time, so these report wall time
    calibrate = False
    d = 2
    J = 16
    tol = 1e-4
    rows_checked = 8

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.workdir = workdir
        rng = np.random.default_rng(seed)
        self.target_name = str(rng.choice(["gauss", "gauss2", "normalized"]))
        target = cli_target(self.target_name, self.d)
        self.target = make_profile(self.d, THETA_MAX, N_POINTS, target)
        self.radii, self.weights = oracles.grid(THETA_MAX, N_POINTS, self.d)
        self.target_ref = target.amp * np.exp(-target.alpha * self.radii**2)
        self.window = self.make_window()
        self.spec = LatticeSpec(a=STEP, b=STEP, d=self.d, jk_max=self.J)
        self.table = lattice_table(self.spec)
        self.csv_index = [[str(j), str(k), str(e)] for j, k, e in zip(self.table.j, self.table.k, self.table.ell)]
        self.out_path = workdir / "frame_coeffs.csv"

    def make_window(self):
        raise NotImplementedError

    def reference_atom(self, i: int) -> np.ndarray:
        raise NotImplementedError

    def op(self, i: int):
        fr = cli.build_frame(self.window, self.spec, normalized=True)
        res = cli.reconstruct(self.target, fr, tol=self.tol, max_iter=MAX_ITER)
        cli.coeffs_to_csv(res.coefficients, self.out_path)
        return fr, res

    def capture(self, i: int, raw):
        fr, res = raw
        header, *lines = self.out_path.read_text().splitlines()
        fields = [line.split(",") for line in lines]
        index_ok = header == "j,k,ell,re,im" and [f[:3] for f in fields] == self.csv_index
        coeffs = np.array([complex(float(f[3]), float(f[4])) for f in fields])
        rows = np.random.default_rng([self.seed, i]).choice(len(fr), self.rows_checked, replace=False)
        return {
            "atoms": len(fr),
            "converged": res.converged,
            "relative_error": res.relative_error,
            "index_ok": index_ok,
            "grid_ok": np.allclose(fr.window.radii, self.radii, rtol=0.0, atol=1e-12),
            "synthesis": fr.atom_matrix.T @ coeffs if index_ok else None,
            "rows": rows,
            "row_values": fr.atom_matrix[rows].copy(),
        }

    def work(self, rec) -> int:
        return rec["atoms"]

    def check_one(self, i: int, rec) -> str | None:
        if not rec["grid_ok"]:
            return "frame grid differs from the composite Gauss-Legendre grid"
        if not (rec["converged"] and rec["relative_error"] <= self.tol):
            return f"reconstruction not converged to tol: {rec['relative_error']:.3e}"
        if not rec["index_ok"]:
            return "coefficient CSV rows do not follow the lattice order"
        f_norm = oracles.l2_norm(self.target_ref, self.weights)
        rel = oracles.l2_norm(rec["synthesis"] - self.target_ref, self.weights) / f_norm
        if not rel <= self.tol * (1.0 + REL_SLACK):
            return f"CSV coefficients reconstruct to {rel:.3e} > tol"
        for row, values in zip(rec["rows"], rec["row_values"]):
            err = float(np.max(np.abs(values - self.reference_atom(int(row)))))
            limit = ATOM_TOL * math.sqrt(self.table.mu[row]) * self.window_norm
            if not err <= limit:
                return f"atom row {row}: |error| {err:.3e} > {limit:.3e}"
        return None

    def sizes(self) -> dict:
        return {"d": self.d, "J": self.J, "a": STEP, "b": STEP, "atoms": len(self.table),
                "grid_points": N_POINTS, "theta_max": THETA_MAX, "tol": self.tol,
                "target": self.target_name, "atom_rows_checked_per_op": self.rows_checked}


class FrameGaussD2(FramePipeline):
    """d = 2, J = 16, the CLI's `normalized` Gaussian window."""

    def make_window(self):
        self.g = cli_target("normalized", self.d)
        self.window_norm = oracles.gaussian_norm(self.g.amp, self.g.alpha, self.d)
        return make_profile(self.d, THETA_MAX, N_POINTS, self.g)

    def reference_atom(self, i: int) -> np.ndarray:
        t = self.table
        return oracles.gaussian_atom(self.radii, self.g.amp, self.g.alpha, self.d,
                                     t.r[i], t.s[i], t.c[i], t.mu[i])


def csv_window_shape(theta: np.ndarray) -> np.ndarray:
    return (1.0 + theta**2) ** -4 * np.cos(theta)


class FrameCsvD3(FramePipeline):
    """d = 3, J = 8, a non-Gaussian window known only by its CSV samples."""

    d = 3
    J = 8
    rows_checked = 4

    def make_window(self):
        shape = make_profile(self.d, THETA_MAX, N_POINTS, csv_window_shape)
        path = self.workdir / "window.csv"
        profile_to_csv(shape.with_values(shape.values / oracles.l2_norm(shape.values, self.weights)), path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        samples = data[:, 1] + 1j * data[:, 2]
        self.window_ref = oracles.spline_window(data[:, 0], samples, THETA_MAX)
        self.window_norm = oracles.l2_norm(samples, self.weights)
        return profile_from_csv(path, self.d)

    def reference_atom(self, i: int) -> np.ndarray:
        t = self.table
        return oracles.quadrature_atom(self.window_ref, self.radii, self.d,
                                       t.r[i], t.s[i], t.c[i], t.mu[i], THETA_MAX)


# ----------------------------------------------------------------------
# approximation queries against one cached frame
# ----------------------------------------------------------------------

class ApproxQueries(Workload):
    work_unit = "queries"
    count_ops = 8
    trace_block = 4  # one query of each mode per block
    J = 12
    tol = 1e-8
    modes = ("nterm", "refit", "linear", "baseline")
    n_list = (0, 1, 2, 4, 8, 16, 32, 64)
    # pooled Gaussian exponents: the seed jitters each by up to 3% and draws
    # the amplitudes, so every seed mixes wide and narrow targets alike and
    # the baseline's lattice truncation (17, 13, 13, 17 steps) stays fixed
    alphas = (1.5, 2.4, 4.0, 6.5)

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        rng = np.random.default_rng(seed)
        self.pool = [
            GaussianSpec(alpha * math.exp(rng.uniform(-0.03, 0.03)), float(rng.uniform(0.5, 2.0)))
            for alpha in self.alphas
        ]
        self.targets = [make_profile(2, THETA_MAX, N_POINTS, g) for g in self.pool]
        self.norms = [oracles.gaussian_norm(g.amp, g.alpha, 2) for g in self.pool]
        self.g = cli_target("normalized", 2)
        window = make_profile(2, THETA_MAX, N_POINTS, self.g)
        self.spec = LatticeSpec(a=STEP, b=STEP, d=2, jk_max=self.J)
        self.frame = cli.build_frame(window, self.spec, normalized=True)
        self.query = EmbeddingQuery(p=1.0, q=2.0, s=0.0, t=0.0, d=2)
        self._blocks: dict[int, list[tuple[int, str, int]]] = {}

    def schedule(self, i: int) -> tuple[int, str, int]:
        """(target, mode, n) of query i.  Modes rotate; within each block of
        32 queries every mode meets every n once and every target twice."""
        block, pos = divmod(i, 32)
        if block not in self._blocks:
            rng = np.random.default_rng([self.seed, block])
            per_mode = [
                (rng.permutation(len(self.n_list)), rng.permutation(np.repeat(np.arange(4), 2)))
                for _ in self.modes
            ]
            self._blocks[block] = [
                (int(per_mode[p % 4][1][p // 4]), self.modes[p % 4], self.n_list[per_mode[p % 4][0][p // 4]])
                for p in range(32)
            ]
        return self._blocks[block][pos]

    def op(self, i: int) -> float:
        t, mode, n = self.schedule(i)
        f = self.targets[t]
        if mode == "nterm":
            return cli.nterm_greedy(f, self.frame, n, 2.0, 0.0, tol=self.tol, max_iter=MAX_ITER)[1]
        if mode == "refit":
            return cli.nterm_greedy(f, self.frame, n, 2.0, 0.0, tol=self.tol, max_iter=MAX_ITER, refit=True)[1]
        if mode == "linear":
            return cli.linear_approx(f, self.frame, self.query, [n], tol=self.tol, max_iter=MAX_ITER).errors[0]
        return cli.gabor_baseline_2d(self.pool[t], self.g, STEP, STEP, [n]).errors[0]

    def capture(self, i: int, raw: float):
        return self.schedule(i), raw

    def check_one(self, i: int, rec) -> str | None:
        (t, mode, n), err = rec
        f_norm = self.norms[t]
        if not (math.isfinite(err) and err >= 0.0):
            return f"{mode} n={n}: error {err!r} is not a finite nonnegative number"
        if n == 0 and abs(err - f_norm) > 1e-9 * f_norm:
            return f"{mode} n=0: error {err!r} differs from ||f|| = {f_norm!r}"
        if mode in ("refit", "baseline") and err > f_norm * (1.0 + 1e-9):
            return f"{mode} n={n}: error {err!r} exceeds ||f|| = {f_norm!r}"
        return None

    def setup_checks(self) -> list[str | None]:
        """Every pooled target reconstructs to tol, also when its
        coefficients are resynthesized and measured on the reference grid."""
        radii, weights = oracles.grid(THETA_MAX, N_POINTS, 2)
        order = list(zip(self.frame.table.j, self.frame.table.k, self.frame.table.ell))
        out = []
        for g, f in zip(self.pool, self.targets):
            res = cli.reconstruct(f, self.frame, tol=self.tol, max_iter=MAX_ITER)
            entries = {(c.j, c.k, c.ell): v for c, v in res.coefficients.entries.items()}
            gamma = np.array([entries[(int(j), int(k), int(e))] for j, k, e in order])
            ref = g.amp * np.exp(-g.alpha * radii**2)
            rel = oracles.l2_norm(self.frame.atom_matrix.T @ gamma - ref, weights) / oracles.l2_norm(ref, weights)
            ok = res.converged and res.relative_error <= self.tol and rel <= self.tol * (1.0 + REL_SLACK)
            out.append(None if ok else f"pooled target alpha={g.alpha:.4g}: reconstruction error {rel:.3e}")
        return out

    def sizes(self) -> dict:
        return {"d": 2, "J": self.J, "a": STEP, "b": STEP, "atoms": len(self.frame),
                "grid_points": N_POINTS, "tol": self.tol, "modes": list(self.modes),
                "n_list": list(self.n_list),
                "pool": [{"alpha": g.alpha, "amp": g.amp} for g in self.pool]}


# ----------------------------------------------------------------------
# d = 2 covering scan
# ----------------------------------------------------------------------

class CoveringScan(Workload):
    work_unit = "points"
    count_ops = 200
    J = 30
    box = 5.0
    n_points = 1 << 16
    checked = 48

    def __init__(self, seed: int, workdir) -> None:
        self.seed = seed
        self.spec = LatticeSpec(a=STEP, b=STEP, d=2, jk_max=self.J)
        self.points = np.random.default_rng(seed).uniform(-self.box, self.box, size=(self.n_points, 4))
        self.undecided = 0

    def op(self, i: int) -> bool:
        p = self.points[i % self.n_points]
        return cli.covered_2d(p[:2], p[2:], self.spec)

    def check(self, records: dict) -> tuple[int, dict[int, str]]:
        """Compare a seeded subsample with the brute-force oracle; points it
        cannot decide within its margin are counted, not compared."""
        table = lattice_table(self.spec)
        oracle = oracles.CoveringOracle(table.j, table.k, table.c, self.spec.a, self.spec.b)
        rng = np.random.default_rng([self.seed, 1])
        picked = rng.choice(sorted(records), min(self.checked, len(records)), replace=False)
        failures = {}
        for i in sorted(int(i) for i in picked):
            p = self.points[i % self.n_points]
            expected = oracle.verdict(p[:2], p[2:])
            if expected is None:
                self.undecided += 1
            elif expected != records[i]:
                failures[i] = f"point {p.tolist()}: covered_2d {records[i]}, oracle {expected}"
        return len(picked) - self.undecided, failures

    def sizes(self) -> dict:
        return {"d": 2, "J": self.J, "a": STEP, "b": STEP, "box": self.box,
                "points_checked": self.checked, "oracle_undecided": self.undecided}


WORKLOADS = {
    "frame-gauss-d2": FrameGaussD2,
    "frame-csv-d3": FrameCsvD3,
    "approx-queries": ApproxQueries,
    "covering-scan": CoveringScan,
}
