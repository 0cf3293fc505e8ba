"""Command-line front end: evaluate kernels, run scans, determinants, suites.

Subcommands
-----------
eval    evaluate the genus-two kernel at point pairs, CSV or JSON output
det     block determinants of the truncated sewing systems
scan    sweep one axis (epsilon | rho | N | M) and fit the tail decay
verify  run a named verification suite (or "all"), JSON report

Exit codes: 0 success / all checks pass, 1 verification failure,
2 input or domain error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

import numpy as np

from .config import DEFAULT_ORDER, DEFAULT_QUAD_POINTS
from .epsilon import (EpsilonContext, EpsilonModuli, GenusTwoCharacteristicsEps,
                      SurfacePoint, build_q)
from .errors import ConvergenceError, DomainError, SzegosewError
from .numerics import determinant, tail_estimate
from .rho import (HandleTwist, RhoModuliSphere, RhoModuliTorus,
                  RhoSphereContext, RhoTorusContext, det_i_minus_t_sphere)
from .specialfn import TwistPair, p1_series
from .verify import SUITE_NAMES, run_all, run_suite

CSV_VERSION = "szegosew-csv v1"
SCHEMES = ("eps", "rho-sphere", "rho-torus")

_POINT_PAIR = re.compile(
    r"^([12]):([^,]+),([^,]+),([12]):([^,]+),([^,]+)$")


# ----------------------------------------------------------------------
# parsing helpers
# ----------------------------------------------------------------------

def _parse_complex(text: str, flag: str) -> complex:
    """Parse 're,im' (or a bare real) into a complex number."""
    parts = text.split(",")
    try:
        if len(parts) == 1:
            return complex(float(parts[0]), 0.0)
        if len(parts) == 2:
            return complex(float(parts[0]), float(parts[1]))
    except ValueError:
        pass
    raise DomainError(f"{flag}: expected 're,im', got {text!r}")


def _parse_points(text: str):
    """Parse 'which:re,im,which:re,im' pairs separated by semicolons."""
    pairs = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        m = _POINT_PAIR.match(chunk)
        if m is None:
            raise DomainError(
                f"--points: expected 'which:re,im,which:re,im', got {chunk!r}")
        try:
            wx, wy = int(m.group(1)), int(m.group(4))
            x = complex(float(m.group(2)), float(m.group(3)))
            y = complex(float(m.group(5)), float(m.group(6)))
        except ValueError:
            raise DomainError(f"--points: non-numeric coordinate in {chunk!r}")
        pairs.append((wx, x, wy, y))
    if not pairs:
        raise DomainError("--points: no point pairs given")
    return pairs


def _parse_xi(text: str) -> complex:
    if text in ("+i", "i"):
        return 1j
    if text == "-i":
        return -1j
    raise DomainError(f"--xi must be '+i' or '-i', got {text!r}")


def _twist(args, index: int) -> TwistPair:
    """Build one twist pair from --alphaI/--betaI or --thetaI/--phiI."""
    alpha = getattr(args, f"alpha{index}")
    beta = getattr(args, f"beta{index}")
    theta = getattr(args, f"theta{index}")
    phi = getattr(args, f"phi{index}")
    has_ab = alpha is not None or beta is not None
    has_tp = theta is not None or phi is not None
    if has_ab and has_tp:
        raise DomainError(
            f"give either --alpha{index}/--beta{index} or "
            f"--theta{index}/--phi{index}, not both")
    if has_tp:
        if theta is None or phi is None:
            raise DomainError(f"--theta{index} and --phi{index} required together")
        try:
            return TwistPair.from_multipliers(
                _parse_complex(theta, f"--theta{index}"),
                _parse_complex(phi, f"--phi{index}"))
        except DomainError as exc:
            raise DomainError(f"--theta{index}/--phi{index}: {exc}")
    return TwistPair(alpha or 0.0, beta or 0.0)


def _require(args, *flags):
    for flag in flags:
        if getattr(args, flag.lstrip("-").replace("-", "_")) is None:
            raise DomainError(f"{flag} is required for --scheme {args.scheme}")


# ----------------------------------------------------------------------
# scheme assembly
# ----------------------------------------------------------------------

def _plain_point(which: int, z: complex) -> complex:
    """Self-sewn schemes take bare coordinates; the label is unused."""
    return z


class _Evaluator:
    """One parsed scheme: its context, point adapter and determinant routes.

    The scheme is chosen once, here; ``kernel`` and ``determinants`` only
    read what the constructor built.
    """

    def __init__(self, args) -> None:
        n, m = args.order, args.quad
        xi = _parse_xi(args.xi)
        if args.scheme == "eps":
            _require(args, "--tau1", "--tau2", "--eps")
            chars = GenusTwoCharacteristicsEps(_twist(args, 1), _twist(args, 2))
            moduli = EpsilonModuli.create(
                _parse_complex(args.tau1, "--tau1"),
                _parse_complex(args.tau2, "--tau2"),
                _parse_complex(args.eps, "--eps"), xi=xi)
            ctx = EpsilonContext(chars, moduli, n)
            self._point = SurfacePoint

            def det_q_block() -> complex:
                q = build_q(ctx.f_block(1), ctx.f_block(2), moduli.xi)
                return determinant(np.eye(2 * n, dtype=complex) - q)
            self._det_routes = (("det_I_minus_Q", det_q_block),
                                ("det_I_minus_F1F2", ctx.det))
        elif args.scheme == "rho-torus":
            _require(args, "--tau", "--w", "--rho")
            tw2 = _twist(args, 2)
            moduli = RhoModuliTorus.create(
                _parse_complex(args.tau, "--tau"),
                _parse_complex(args.w, "--w"),
                _parse_complex(args.rho, "--rho"), xi=xi)
            ctx = RhoTorusContext(_twist(args, 1),
                                  HandleTwist(tw2.alpha, tw2.beta), moduli,
                                  n, m)
            self._point = _plain_point
            self._det_routes = (("det_I_minus_T", ctx.det),)
        elif args.scheme == "rho-sphere":
            _require(args, "--rho")
            tw = _twist(args, 2)
            handle = HandleTwist(tw.alpha, tw.beta)
            moduli = RhoModuliSphere.create(_parse_complex(args.rho, "--rho"),
                                            xi=xi)
            ctx = RhoSphereContext(handle, moduli, n)
            self._point = _plain_point
            self._det_routes = (
                ("det_I_minus_T_product",
                 lambda: det_i_minus_t_sphere(handle, n, moduli)),
                ("det_I_minus_T_matrix", ctx.det))
        else:
            raise DomainError(f"unknown scheme {args.scheme!r}")
        self.ctx = ctx

    def kernel(self, wx: int, x: complex, wy: int, y: complex) -> complex:
        return self.ctx.kernel(self._point(wx, x), self._point(wy, y))

    def oracle(self, x: complex, y: complex) -> complex:
        """Exact genus-one kernel the sewn sphere must reproduce, mapped
        back to sphere coordinates (principal logarithms)."""
        lx, ly = np.log(complex(x)), np.log(complex(y))
        p1 = p1_series(self.ctx.handle, lx - ly, self.ctx.moduli.tau)
        return complex(p1 * np.exp(-0.5 * (lx + ly)))

    def determinants(self):
        """Named determinant values; dual routes where the theory has two."""
        return [(name, route()) for name, route in self._det_routes]


# ----------------------------------------------------------------------
# output
# ----------------------------------------------------------------------

def _c2l(z: complex):
    return [float(z.real), float(z.imag)]


def _emit(args, csv_lines, json_obj) -> None:
    if args.format == "csv":
        text = "\n".join(csv_lines) + "\n"
    else:
        json_obj["format"] = "szegosew-json v1"
        text = json.dumps(json_obj, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


EVAL_SCHEMA = f"""\
# {CSV_VERSION}
eval columns: x_which,x_re,x_im,y_which,y_re,y_im,s_re,s_im
with --oracle (rho-sphere): ...,oracle_re,oracle_im,abs_diff
JSON: {{"format","command","scheme","rows":[{{"x_which","x":[re,im],
"y_which","y":[re,im],"s":[re,im]}}]}}; complex numbers as [re,im]."""

DET_SCHEMA = f"""\
# {CSV_VERSION}
det columns: quantity,re,im
JSON: {{"format","command","scheme","values":{{name:[re,im]}}}}"""

SCAN_SCHEMA = f"""\
# {CSV_VERSION}
scan columns: axis_value,s_re,s_im
footer comments: # tail_rate = <float|none>, # tail_bound = <float|none>
JSON: {{"format","command","scheme","axis","rows":[{{"value","s":[re,im]}}],
"tail_rate","tail_bound"}}"""


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def cmd_eval(args) -> int:
    if args.schema:
        print(EVAL_SCHEMA)
        return 0
    if args.points is None:
        raise DomainError("--points is required")
    if args.oracle and args.scheme != "rho-sphere":
        raise DomainError("--oracle applies to --scheme rho-sphere only")
    ev = _Evaluator(args)
    pairs = _parse_points(args.points)
    header = "x_which,x_re,x_im,y_which,y_re,y_im,s_re,s_im"
    if args.oracle:
        header += ",oracle_re,oracle_im,abs_diff"
    lines = [f"# {CSV_VERSION}", header]
    rows = []
    for wx, x, wy, y in pairs:
        s = ev.kernel(wx, x, wy, y)
        row = {"x_which": wx, "x": _c2l(x), "y_which": wy, "y": _c2l(y),
               "s": _c2l(s)}
        cells = [str(wx), repr(x.real), repr(x.imag), str(wy),
                 repr(y.real), repr(y.imag), repr(s.real), repr(s.imag)]
        if args.oracle:
            orc = ev.oracle(x, y)
            row["oracle"] = _c2l(orc)
            row["abs_diff"] = abs(s - orc)
            cells += [repr(orc.real), repr(orc.imag), repr(abs(s - orc))]
        rows.append(row)
        lines.append(",".join(cells))
    _emit(args, lines, {"format": CSV_VERSION, "command": "eval",
                        "scheme": args.scheme, "rows": rows})
    return 0


def cmd_det(args) -> int:
    if args.schema:
        print(DET_SCHEMA)
        return 0
    ev = _Evaluator(args)
    values = ev.determinants()
    lines = [f"# {CSV_VERSION}", "quantity,re,im"]
    lines += [f"{name},{repr(v.real)},{repr(v.imag)}" for name, v in values]
    _emit(args, lines, {"format": CSV_VERSION, "command": "det",
                        "scheme": args.scheme,
                        "values": {name: _c2l(v) for name, v in values}})
    return 0


def _scan_values(args):
    if args.values is None:
        raise DomainError("--values is required for scan")
    try:
        if args.axis in ("N", "M"):
            vals = [int(v) for v in args.values.split(",")]
        else:
            vals = [float(v) for v in args.values.split(",")]
    except ValueError:
        raise DomainError(f"--values: could not parse {args.values!r}")
    if len(vals) < 2:
        raise DomainError("--values: need at least two axis values")
    if any(b <= a for a, b in zip(vals, vals[1:])):
        raise DomainError("--values: axis values must be strictly increasing")
    return vals


def _scan_kernel(args, value) -> complex:
    """Evaluate the first point pair with one axis value substituted."""
    sub = argparse.Namespace(**vars(args))
    if args.axis == "epsilon":
        if args.scheme != "eps":
            raise DomainError("axis epsilon requires --scheme eps")
        base = _parse_complex(args.eps, "--eps") * value
        sub.eps = f"{base.real!r},{base.imag!r}"
    elif args.axis == "rho":
        if args.scheme == "eps":
            raise DomainError("axis rho requires a rho-* scheme")
        base = _parse_complex(args.rho, "--rho") * value
        sub.rho = f"{base.real!r},{base.imag!r}"
    elif args.axis == "N":
        sub.order = value
    else:
        if args.scheme != "rho-torus":
            raise DomainError("axis M requires --scheme rho-torus")
        sub.quad = value
    ev = _Evaluator(sub)
    wx, x, wy, y = _parse_points(args.points)[0]
    return ev.kernel(wx, x, wy, y)


def cmd_scan(args) -> int:
    if args.schema:
        print(SCAN_SCHEMA)
        return 0
    if args.points is None:
        raise DomainError("--points is required")
    values = _scan_values(args)
    kernels = [_scan_kernel(args, v) for v in values]
    try:
        rate, bound = tail_estimate(kernels)
        rate, bound = float(rate), float(bound)
    except (ConvergenceError, DomainError):
        rate = bound = None
    lines = [f"# {CSV_VERSION}", "axis_value,s_re,s_im"]
    lines += [f"{v!r},{s.real!r},{s.imag!r}"
              for v, s in zip(values, kernels)]
    lines += [f"# tail_rate = {'none' if rate is None else repr(rate)}",
              f"# tail_bound = {'none' if bound is None else repr(bound)}"]
    _emit(args, lines, {"format": CSV_VERSION, "command": "scan",
                        "scheme": args.scheme, "axis": args.axis,
                        "rows": [{"value": v, "s": _c2l(s)}
                                 for v, s in zip(values, kernels)],
                        "tail_rate": rate, "tail_bound": bound})
    return 0


def cmd_verify(args) -> int:
    report = run_all() if args.suite == "all" else run_suite(args.suite)
    text = json.dumps(report, indent=2) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0 if report["passed"] else 1


# ----------------------------------------------------------------------
# argument parser
# ----------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser, points: bool = True) -> None:
    p.add_argument("--scheme", choices=SCHEMES, required=True)
    p.add_argument("--tau1", help="first torus modulus 're,im' (eps)")
    p.add_argument("--tau2", help="second torus modulus 're,im' (eps)")
    p.add_argument("--tau", help="torus modulus 're,im' (rho-torus)")
    p.add_argument("--w", help="puncture separation 're,im' (rho-torus)")
    p.add_argument("--eps", help="sewing parameter 're,im' (eps); use --eps=-a,b for negatives")
    p.add_argument("--rho", help="sewing parameter 're,im' (rho-torus) or sphere q (rho-sphere)")
    for i in (1, 2):
        p.add_argument(f"--alpha{i}", type=float)
        p.add_argument(f"--beta{i}", type=float)
        p.add_argument(f"--theta{i}", help="multiplier 're,im', unit modulus")
        p.add_argument(f"--phi{i}", help="multiplier 're,im', unit modulus")
    if points:
        p.add_argument("--points",
                       help="semicolon-separated 'which:re,im,which:re,im' pairs")
    p.add_argument("--order", type=int, metavar="N", default=DEFAULT_ORDER,
                   help=f"truncation order (default {DEFAULT_ORDER})")
    p.add_argument("--quad", type=int, metavar="M", default=DEFAULT_QUAD_POINTS,
                   help="nodes of the quadrature oracle per contour "
                   f"(default {DEFAULT_QUAD_POINTS})")
    p.add_argument("--xi", default="+i", help="half-form branch: +i or -i (use --xi=-i)")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", metavar="PATH", help="write output to PATH")
    p.add_argument("--schema", action="store_true",
                   help="print the output schema and exit")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="szegosew",
        description="Szego kernels on genus-two surfaces built by sewing.")
    sub = ap.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("eval", help="evaluate the kernel at point pairs")
    _add_common(pe)
    pe.add_argument("--oracle", action="store_true",
                    help="rho-sphere only: add the exact genus-one column")
    pe.set_defaults(func=cmd_eval)

    pd = sub.add_parser("det", help="sewing-system block determinants")
    _add_common(pd, points=False)
    pd.set_defaults(func=cmd_det)

    ps = sub.add_parser("scan", help="sweep one axis and fit the tail")
    _add_common(ps)
    ps.add_argument("--axis", choices=("epsilon", "rho", "N", "M"),
                    required=True)
    ps.add_argument("--values", help="comma-separated increasing axis values "
                    "(multipliers of the base modulus for epsilon/rho)")
    ps.set_defaults(func=cmd_scan)

    pv = sub.add_parser("verify", help="run a verification suite")
    pv.add_argument("suite", choices=SUITE_NAMES + ("all",))
    pv.add_argument("--out", metavar="PATH")
    pv.set_defaults(func=cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SzegosewError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
