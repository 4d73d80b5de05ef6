"""Command-line front end.

Subcommands: lattice, omega, stft, frame, embed, approx, covering.  Every
command writes its outputs atomically (temp file + rename) into --out and
is byte-reproducible for a fixed --seed.  A flat key=value config file can
seed the defaults; command-line flags override it.

Exit codes: 0 success, 1 parameter validation failure (the message names
the offending parameter), 2 numerical non-convergence, 3 an output that
cannot be written (for example --out naming a regular file).
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .approximation import (
    gabor_baseline_2d,
    linear_approx,
    nterm_approx,
    nterm_greedy,  # unused here; looked up on this module by code that drives its functions
)
from .embeddings import EmbeddingQuery, approx_number_exponent, classify_embedding, entropy_exponent
from .frames import NonConvergence, build_frame, coeffs_to_csv, reconstruct
from .lattice import LatticeSpec, covered_2d, index_count, lattice_table, lattice_to_csv
from .profiles import (
    GaussianSpec,
    RadialProfile,
    _write_csv,
    _write_text,
    make_profile,
    normalized_gaussian_window,
    profile_to_csv,
)
from .stft import OrbitPoint, radial_stft, rot_avg_shift

WINDOWS = {
    # plain exp(-theta^2), the window behind the first-figure data
    "gauss": GaussianSpec(1.0),
    # exp(-pi theta^2) scaled to unit L2 norm, set per dimension below
    "normalized": None,
    # dilated exp(-2 pi theta^2)
    "gauss2": GaussianSpec(2.0 * math.pi),
}


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs) -> None:
        # no abbreviated flags: "--conf" would slip past the --config scan
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message: str) -> None:  # argparse default exits 2
        self.exit(1, f"{self.prog}: error: {message}\n")


def _window_profile(name: str, d: int, theta_max: float, n_points: int) -> RadialProfile:
    if name == "normalized":
        return normalized_gaussian_window(d, theta_max, n_points)
    if name not in WINDOWS:
        raise ValueError(f"unknown window {name!r}")
    return make_profile(d, theta_max, n_points, WINDOWS[name])


def _json_text(payload: dict) -> str:
    def fix(v):
        if isinstance(v, float) and math.isinf(v):
            return str(v)  # "inf" or "-inf"
        return v

    return json.dumps({k: fix(v) for k, v in payload.items()}) + "\n"


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _cmd_lattice(args) -> int:
    spec = LatticeSpec(a=args.a, b=args.b, d=args.d, jk_max=args.J)
    table = lattice_table(spec)
    out = Path(args.out) / "lattice.csv"
    lattice_to_csv(table, out)
    print(f"wrote {out} ({len(table)} atoms; index_count({args.J}) = {index_count(args.J)})")
    return 0


def _cmd_omega(args) -> int:
    window = _window_profile(args.window, args.d, args.theta_max, args.n_points)
    point = OrbitPoint(args.r, args.s, args.c)
    out = Path(args.out) / "omega.csv"
    profile_to_csv(rot_avg_shift(window, point), out)
    print(f"wrote {out}")
    return 0


def _cmd_stft(args) -> int:
    for name in ("r", "s", "c"):
        if not getattr(args, name):
            raise ValueError(f"parameter {name}: must name at least one value")
    window = _window_profile(args.window, args.d, args.theta_max, args.n_points)
    target = _window_profile(args.target, args.d, args.theta_max, args.n_points)
    points = [(r, s, c) for r in args.r for s in args.s for c in args.c]
    values = [radial_stft(target, window, OrbitPoint(*pt)) for pt in points]
    # abs() per value: np.abs can differ from it in the last digit
    columns = [*zip(*points), np.real(values), np.imag(values), [abs(v) for v in values]]
    out = Path(args.out) / "stft.csv"
    _write_csv(out, "r,s,c,re,im,abs", columns)
    print(f"wrote {out}")
    return 0


def _cmd_frame(args) -> int:
    window = _window_profile(args.window, args.d, args.theta_max, args.n_points)
    target = _window_profile(args.target, args.d, args.theta_max, args.n_points)
    spec = LatticeSpec(a=args.a, b=args.b, d=args.d, jk_max=args.J)
    fr = build_frame(window, spec, normalized=not args.unnormalized)
    res = reconstruct(target, fr, tol=args.tol, max_iter=args.max_iter)
    out_dir = Path(args.out)
    coeffs_to_csv(res.coefficients, out_dir / "frame_coeffs.csv")
    summary = {
        "atoms": len(fr),
        "relative_error": res.relative_error,
        "converged": res.converged,
        "iterations": res.iterations,
    }
    _write_text(out_dir / "frame_summary.json", _json_text(summary))
    print(f"wrote {out_dir/'frame_coeffs.csv'} and frame_summary.json: {summary}")
    if not res.converged:
        raise NonConvergence(
            f"reconstruction stalled at relative error {res.relative_error:.3e}"
        )
    return 0


def _cmd_embed(args) -> int:
    query = EmbeddingQuery(p=args.p, q=args.q, s=args.s, t=args.t, d=args.d)
    verdict = classify_embedding(query)
    embedded = args.p <= args.q  # no decay exponents without an embedding
    payload = {
        "p": args.p,
        "q": args.q,
        "s": args.s,
        "t": args.t,
        "d": args.d,
        "status": verdict.status.value,
        "alpha": float(verdict.alpha),
        "threshold": float(verdict.threshold),
        "entropy_decay": float(entropy_exponent(args.p, args.q, 3.0 / (args.d - 1))) if embedded else None,
        "approx_decay": float(approx_number_exponent(args.p, args.q, args.d)) if embedded else None,
    }
    text = _json_text(payload)
    _write_text(Path(args.out) / "embed.json", text)
    sys.stdout.write(text)
    return 0


def _cmd_approx(args) -> int:
    n_list = args.n_list
    if not n_list:
        raise ValueError("parameter n_list: must name at least one n")
    if min(n_list) < 0:
        raise ValueError(f"parameter n_list: must be nonnegative, got {min(n_list)}")
    if args.baseline and args.d != 2:
        raise ValueError("parameter baseline: the standard-lattice baseline requires d = 2")
    if args.mode == "linear" and args.p > args.q:
        raise ValueError(f"parameter p: --mode linear requires p <= q, got p = {args.p} > q = {args.q}")
    window = _window_profile(args.window, args.d, args.theta_max, args.n_points)
    target = _window_profile(args.target, args.d, args.theta_max, args.n_points)
    query = EmbeddingQuery(p=args.p, q=args.q, s=args.s, t=args.t, d=args.d)
    spec = LatticeSpec(a=args.a, b=args.b, d=args.d, jk_max=args.J)
    fr = build_frame(window, spec, normalized=True)
    if max(n_list) > len(fr):
        raise ValueError(f"parameter n_list: {max(n_list)} exceeds {len(fr)} atoms")

    approx = linear_approx if args.mode == "linear" else nterm_approx
    report = approx(target, fr, query, n_list, tol=args.tol, max_iter=args.max_iter)
    baseline = [math.nan] * len(n_list)
    if args.baseline:
        baseline = gabor_baseline_2d(target.analytic, window.analytic, args.a, args.b, n_list).errors
    columns = [report.n_values, report.errors, baseline, [report.fitted_slope] * len(n_list)]
    out = Path(args.out) / "approx.csv"
    _write_csv(out, "n,radial_error,baseline_error,slope_fit", columns)
    print(f"wrote {out}")
    return 0


def _cmd_covering(args) -> int:
    if args.num_points < 1:
        raise ValueError(f"parameter num_points: must be positive, got {args.num_points}")
    # the sampling range [-box, box] needs a finite width 2 box
    if not (0 < args.box and math.isfinite(2.0 * args.box)):
        raise ValueError(f"parameter box: must be positive with 2 * box finite, got {args.box}")
    spec = LatticeSpec(a=args.a, b=args.b, d=2, jk_max=args.J)
    rng = np.random.default_rng(args.seed)
    pts = rng.uniform(-args.box, args.box, size=(args.num_points, 4))
    covered = sum(covered_2d(p[:2], p[2:], spec) for p in pts)
    payload = {
        "num_points": args.num_points,
        "covered": int(covered),
        "fraction": covered / args.num_points,
        "a": args.a,
        "b": args.b,
        "J": args.J,
        "box": args.box,
        "seed": args.seed,
    }
    text = _json_text(payload)
    _write_text(Path(args.out) / "covering.json", text)
    sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# parser assembly
# ----------------------------------------------------------------------

def _int_list(text: str) -> list[int]:
    return [int(p) for p in text.split(",") if p != ""]


def _float_list(text: str) -> list[float]:
    return [float(p) for p in text.split(",") if p != ""]


def _add_common(sp, *, d=True):
    sp.add_argument("--out", default=".", help="output directory")
    sp.add_argument("--seed", type=int, default=0, help="seed for randomized commands")
    sp.add_argument("--config", default=None, help="flat key=value defaults file")
    if d:
        sp.add_argument("--d", type=int, default=2)


def _add_grid(sp):
    sp.add_argument("--theta-max", dest="theta_max", type=float, default=8.0)
    sp.add_argument("--n-points", dest="n_points", type=int, default=1024)


def build_parser() -> _Parser:
    parser = _Parser(prog="radial-gabor", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("lattice", help="export the truncated phase-space lattice")
    _add_common(p)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--J", type=int, default=4)
    p.set_defaults(func=_cmd_lattice)

    p = sub.add_parser("omega", help="samples of the rotation-averaged shift of a window")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--r", type=float, default=4.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--c", type=float, default=1.0)
    p.add_argument("--window", default="gauss", choices=sorted(WINDOWS))
    p.set_defaults(func=_cmd_omega)

    p = sub.add_parser("stft", help="radial STFT coefficients on a grid of orbit points")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--r", type=_float_list, default=[0.0, 1.0, 2.0])
    p.add_argument("--s", type=_float_list, default=[0.0, 1.0])
    p.add_argument("--c", type=_float_list, default=[1.0])
    p.add_argument("--window", default="normalized", choices=sorted(WINDOWS))
    p.add_argument("--target", default="normalized", choices=sorted(WINDOWS))
    p.set_defaults(func=_cmd_stft)

    p = sub.add_parser("frame", help="build a frame and reconstruct a target")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--J", type=int, default=8)
    p.add_argument("--tol", type=float, default=1e-4)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p.add_argument("--window", default="normalized", choices=sorted(WINDOWS))
    p.add_argument("--target", default="gauss2", choices=sorted(WINDOWS))
    p.add_argument("--unnormalized", action="store_true")
    p.set_defaults(func=_cmd_frame)

    p = sub.add_parser("embed", help="embedding verdict and decay exponents as JSON")
    _add_common(p)
    p.add_argument("--p", type=float, required=True)
    p.add_argument("--q", type=float, required=True)
    p.add_argument("--s", type=float, required=True)
    p.add_argument("--t", type=float, required=True)
    p.set_defaults(func=_cmd_embed)

    p = sub.add_parser("approx", help="approximation error curves as CSV")
    _add_common(p)
    _add_grid(p)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--J", type=int, default=10)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--q", type=float, default=2.0)
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=0.0)
    p.add_argument("--n-list", dest="n_list", type=_int_list, default=[0, 1, 2, 4, 8, 16, 32, 64])
    p.add_argument("--mode", choices=("nterm", "linear"), default="nterm")
    p.add_argument("--tol", type=float, default=1e-8)
    p.add_argument("--max-iter", dest="max_iter", type=int, default=2000)
    p.add_argument("--window", default="normalized", choices=sorted(WINDOWS))
    p.add_argument("--target", default="gauss2", choices=sorted(WINDOWS))
    p.add_argument("--baseline", action=argparse.BooleanOptionalAction, default=True)
    p.set_defaults(func=_cmd_approx)

    p = sub.add_parser("covering", help="random covering check in d = 2")
    _add_common(p, d=False)
    p.add_argument("--a", type=float, default=0.5)
    p.add_argument("--b", type=float, default=0.5)
    p.add_argument("--J", type=int, default=30)
    p.add_argument("--num-points", dest="num_points", type=int, default=10000)
    p.add_argument("--box", type=float, default=5.0)
    p.set_defaults(func=_cmd_covering)

    return parser


def _apply_config(parser: _Parser, argv: list[str]) -> list[str]:
    """Read a flat key=value file named by --config FILE or --config=FILE
    and turn it into defaults; explicit flags still win."""
    argv = [part for arg in argv for part in (arg.split("=", 1) if arg.startswith("--config=") else [arg])]
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 >= len(argv) or not argv[idx + 1]:
        raise ValueError("parameter config: missing file name")
    path = Path(argv[idx + 1])
    if not path.is_file():
        raise ValueError(f"parameter config: no such file {path}")
    extra: list[str] = []
    for line_no, line in enumerate(path.read_text().splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"parameter config: line {line_no} is not key=value")
        key, value = line.split("=", 1)
        # one --key=value token, so that a value such as -inf is not read as a flag
        extra.append(f"--{key.strip().replace('_', '-')}={value.strip()}")
    # config-derived flags go right after the subcommand so that explicit
    # command-line flags override them
    return argv[:1] + extra + argv[1:]


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config(parser, argv)
        args = parser.parse_args(argv)
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.func(args)
    except NonConvergence as exc:
        print(f"non-convergence: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
