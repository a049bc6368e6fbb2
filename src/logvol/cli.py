"""Command line front end.

Subcommands: check, integrate, integrate-complex, blowup, decay,
decay-complex, stokes, bound-check, probe-fibers.  Exit codes: 0 on
success or a converged/positive verdict, 2 when a checked property fails
(not allowable, diverging ladder, bound violated, ...), 1 on usage or
input errors.  All output is deterministic for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import re as _re
import sys

from .blowup import BlowupError, make_almost_strictly_allowable, make_proper, verify_proper
from .complexint import (
    ComplexIntError,
    ComplexLogForm,
    annulus_slice_decay,
    integrate_admissible,
)
from .integrate import (
    IntegrationError,
    QuadConfig,
    integrate_log_form,
    pushforward_bound_check,
    slice_decay_report,
)
from .polyform import LogForm, Polynomial, PolyError, PolyParseError, parse_poly
from .region import ProbeConfig, Region, RegionError, parse_region
from .stokes import SimplexMap, StokesError, check_stokes


class CliError(ValueError):
    pass


_D_TOKEN = _re.compile(r"^d(r|x)(\d+)(?:/(r)(\d+))?$")
_DZ_TOKEN = _re.compile(r"^dz(\d+)/z(\d+)$")
_DZBAR_TOKEN = _re.compile(r"^dzbar(\d+)$")


def parse_real_form(text: str, region: Region) -> LogForm:
    """Wedge expression with `^` between factors: dr1/r1, dx3, or a
    polynomial coefficient factor in the region's variables."""
    names = region.var_names()
    n, p = region.n, region.p
    coeff = Polynomial.const(n, 1)
    form = None
    for raw in text.split("^"):
        tok = raw.strip()
        m = _D_TOKEN.match(tok)
        if m:
            kind, idx = m.group(1), int(m.group(2))
            if kind == "r":
                if not (m.group(3) == "r" and int(m.group(4)) == idx):
                    raise CliError(f"log factor must look like dr{idx}/r{idx}")
                if not 1 <= idx <= p:
                    raise CliError(f"divisor index {idx} out of range (p={p})")
                factor = LogForm.dlog(n, p, idx - 1)
            else:
                if not p + 1 <= idx <= n:
                    raise CliError(f"smooth index {idx} out of range")
                factor = LogForm.dx(n, p, idx - 1)
            form = factor if form is None else form.wedge(factor)
        else:
            try:
                coeff = coeff * parse_poly(tok, names)
            except PolyParseError as exc:
                raise CliError(f"bad factor {tok!r}: {exc}") from exc
    if form is None:
        form = LogForm.term(n, p, Polynomial.const(n, 1), (), ())
    return form.scale(coeff)


def parse_complex_form(text: str, region: Region) -> ComplexLogForm:
    """dz1/z1 ^ ... ^ dzn/zn ^ dzbar<k> factors with an optional polynomial
    coefficient factor (real part) in the zr/zi variables."""
    names = region.var_names()
    nc = region.n // 2
    coeff = Polynomial.const(region.n, 1)
    seen_dz = []
    bars = []
    for raw in text.split("^"):
        tok = raw.strip()
        m = _DZ_TOKEN.match(tok)
        if m:
            if m.group(1) != m.group(2):
                raise CliError(f"holomorphic factor must look like dz{m.group(1)}/z{m.group(1)}")
            seen_dz.append(int(m.group(1)))
            continue
        m = _DZBAR_TOKEN.match(tok)
        if m:
            bars.append(int(m.group(1)) - 1)
            continue
        try:
            coeff = coeff * parse_poly(tok, names)
        except PolyParseError as exc:
            raise CliError(f"bad factor {tok!r}: {exc}") from exc
    if seen_dz != list(range(1, nc + 1)):
        raise CliError(
            f"a logarithmic (n, m-n)-form must carry dz1/z1 ^ ... ^ dz{nc}/z{nc}"
        )
    return ComplexLogForm(nc, len(bars), [(coeff, Polynomial.zero(region.n), tuple(bars))])


def parse_monomial(text: str, region: Region) -> dict:
    poly = parse_poly(text, region.var_names())
    if len(poly.terms) != 1:
        raise CliError(f"{text!r} is not a monomial")
    (exp, c), = poly.terms.items()
    if c != 1:
        raise CliError("the slice monomial must have coefficient 1")
    return {v: e for v, e in enumerate(exp) if e}


def _axis_index(name: str, region: Region) -> int:
    names = region.var_names()
    if name in names:
        return names.index(name)
    try:
        index = int(name) - 1
    except ValueError:
        raise CliError(f"unknown coordinate {name!r}") from None
    if not 0 <= index < region.n:
        raise CliError(f"--axis {name} is out of range 1..{region.n}")
    return index


def _load_region(path: str) -> Region:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_region(fh.read())
    except FileNotFoundError:
        raise CliError(f"no such region file: {path}") from None


def _quad_config(args) -> QuadConfig:
    kw = {}
    if args.eps0 is not None:
        kw["eps0"] = args.eps0
    if args.ladder is not None:
        kw["ladder_len"] = args.ladder
    if args.seed is not None:
        kw["seed"] = args.seed
    if args.mc_budget is not None:
        kw["mc_budget"] = args.mc_budget
    return QuadConfig(**kw)


def _probe_config(args) -> ProbeConfig:
    if args.seed is not None:
        return ProbeConfig(seed=args.seed)
    return ProbeConfig()


def _write_out(args, text: str):
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)


def _cmd_check(args) -> int:
    region = _load_region(args.region)
    probe = _probe_config(args)
    if region.kind == "complex":
        m = args.m if args.m is not None else region.n
        verdict = region.is_admissible(m, probe)
        print(f"m={m}: {verdict}")
    else:
        verdict = region.is_allowable(cfg=probe)
        print(str(verdict))
    return 0 if verdict.ok else 2


def _cmd_integrate(args) -> int:
    region = _load_region(args.region)
    if args.form is None:
        raise CliError("integrate needs --form")
    form = parse_real_form(args.form, region)
    cfg = _quad_config(args)
    result = integrate_log_form(region, form, cfg)
    print(f"value    {result.value:.9g}")
    print(f"error    {result.error:.3g}")
    print(f"absolute {result.absolute:.9g}")
    print(f"verdict  {result.verdict}")
    for flag in result.flags:
        print(f"note     {flag}")
    _write_out(args, result.ladder.to_csv())
    return 0 if result.verdict == "converged" else 2


def _cmd_integrate_complex(args) -> int:
    region = _load_region(args.region)
    if args.form is None:
        raise CliError("integrate-complex needs --form")
    form = parse_complex_form(args.form, region)
    m = args.m if args.m is not None else form.degree
    cfg = _quad_config(args)
    result = integrate_admissible(region, form, m, cfg, _probe_config(args))
    print(f"value    {result.value.real:.9g} {result.value.imag:+.9g}i")
    print(f"error    {result.error:.3g}")
    print(f"absolute {result.absolute:.9g}")
    print(f"verdict  {result.verdict}")
    for flag in result.flags:
        print(f"note     {flag}")
    return 0 if result.verdict == "converged" else 2


def _cmd_blowup(args) -> int:
    if args.poly:
        if args.p is None:
            raise CliError("--poly needs --p (number of divisor coordinates)")
        if args.n is not None and args.n < args.p:
            raise CliError(f"--n {args.n} is below --p {args.p}")
        names = [f"r{i + 1}" for i in range(args.p)]
        if args.n is not None and args.n > args.p:
            names += [f"x{i + 1}" for i in range(args.p, args.n)]
        f = parse_poly(args.poly, names)
        tower = make_proper(f, args.p, cap=args.cap)
        print(tower.serialize(names))
        ok = not tower.failed and verify_proper(f, tower)
        print(f"proper in every leaf: {'yes' if ok else 'NO'}")
        if args.out:
            _write_out(args, tower.to_dot())
        return 0 if ok else 2
    if not args.region:
        raise CliError("blowup needs a region file or --poly")
    region = _load_region(args.region)
    witnesses = [parse_poly(w, region.var_names()) for w in (args.witness or [])]
    tower = make_almost_strictly_allowable(region, witnesses, cap=args.cap)
    print(tower.serialize(region.var_names()))
    if args.out:
        _write_out(args, tower.to_dot())
    return 0 if not tower.failed else 2


def _cmd_decay(args) -> int:
    region = _load_region(args.region)
    if args.form is None or args.u is None:
        raise CliError("decay needs --form and --u")
    form = parse_real_form(args.form, region)
    u = parse_monomial(args.u, region)
    cfg = _quad_config(args)
    report = slice_decay_report(region, u, form, cfg, probe=_probe_config(args))
    print(str(report))
    for t, v in report.entries:
        print(f"  t={t:.6g} vol={v:.9g}")
    if args.out and report.entries:
        rows = ["param,value,stderr"] + [f"{t!r},{v!r},0.0" for t, v in report.entries]
        rows.append(f"verdict,{report.verdict},,")
        _write_out(args, "\n".join(rows) + "\n")
    return 0 if report.verdict in ("decays to zero", "identically zero") else 2


def _cmd_decay_complex(args) -> int:
    region = _load_region(args.region)
    if args.form is None or args.m is None:
        raise CliError("decay-complex needs --form and --m")
    form = parse_complex_form(args.form, region)
    cfg = _quad_config(args)
    report = annulus_slice_decay(region, form, args.m, cfg=cfg, probe=_probe_config(args))
    print(str(report))
    for t, v in report.entries:
        print(f"  t={t:.6g} vol={v:.9g}")
    for flag in report.flags:
        print(f"note     {flag}")
    return 0 if report.verdict in ("decays to zero", "identically zero") else 2


def _cmd_stokes(args) -> int:
    m = 2 if args.m is None else args.m
    if m < 1:
        raise CliError("stokes needs --m of at least 1")
    if args.map:
        comps = [
            parse_poly(piece.strip(), [f"x{i + 1}" for i in range(m)])
            for piece in args.map.split(",")
        ]
    else:
        comps = [Polynomial.var(m, i) for i in range(m)]
    h = SimplexMap(m, comps)
    target_dim = len(comps)
    target = Region(target_dim, 0, [], "real", None, "target")
    if args.form:
        psi = parse_real_form(args.form, target)
    else:
        psi = LogForm.term(target_dim, 0, Polynomial.var(target_dim, 0), (), (1,))
    cfg = _quad_config(args)
    report = check_stokes(h, psi, cfg)
    print(str(report))
    tol = args.tol if args.tol is not None else 1e-6
    return 0 if report.residual < tol else 2


def _cmd_bound_check(args) -> int:
    region = _load_region(args.region)
    if not args.f:
        raise CliError("bound-check needs --f (comma separated map components)")
    names = region.var_names()
    comps = [parse_poly(piece.strip(), names) for piece in args.f.split(",")]
    a = parse_poly(args.a or "1", names)
    cfg = _quad_config(args)
    report = pushforward_bound_check(region, comps, a, cfg)
    print(str(report))
    return 0 if report.verdict == "pass" else 2


def _cmd_probe_fibers(args) -> int:
    region = _load_region(args.region)
    if args.axis is None:
        raise CliError("probe-fibers needs --axis")
    axis = _axis_index(args.axis, region)
    report = region.fiber_finiteness_probe(
        axis, samples=args.samples, cap=args.cap, seed=args.seed or 0
    )
    print(str(report))
    return 0 if report.verdict == "finite" else 2


def _count(least: int):
    """An argparse type: an integer of at least `least`."""
    def count(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"expected an integer >= {least}, got {text!r}")
        return value
    return count


# every flag's definition; each command below lists the ones its handler reads
_FLAGS = {
    "region": dict(help="region file (JSON)"),
    "--form": dict(help="wedge expression, e.g. 'dr1/r1 ^ dr2/r2'"),
    "--m": dict(type=int, help="total real degree for complex checks"),
    "--u": dict(help="slice monomial, e.g. 'r1' or 'r1*r2^2'"),
    "--eps0": dict(type=float, help="first excision radius, relative to the region's "
                                    "log-coordinate scale"),
    "--ladder": dict(type=int),
    "--seed": dict(type=_count(0)),
    "--mc-budget": dict(type=_count(1), dest="mc_budget"),
    "--out": dict(help="write the ladder CSV / DOT export here"),
    "--cap": dict(type=_count(0), default=64),
    "--tol": dict(type=float),
    "--poly": dict(help="make the polynomial meet the faces properly"),
    "--p": dict(type=_count(0), help="number of divisor coordinates"),
    "--n": dict(type=_count(0), help="ambient dimension (defaults to p)"),
    "--witness": dict(action="append", help="witness polynomial (repeatable)"),
    "--map": dict(help="comma separated polynomial components"),
    "--f": dict(help="comma separated map components"),
    "--a": dict(help="coefficient function (default 1)"),
    "--axis": dict(help="coordinate name, e.g. r2 or x3"),
    "--samples": dict(type=_count(1), default=64),
}

# the QuadConfig flags of _quad_config (--seed also seeds the probe)
_QUAD = ("--eps0", "--ladder", "--seed", "--mc-budget")

_COMMANDS = {
    "check": ("allowability / admissibility verdict", ("region", "--m", "--seed")),
    "integrate": ("integrate a logarithmic form", ("region", "--form", *_QUAD, "--out")),
    "integrate-complex": ("integrate an (n, m-n)-form", ("region", "--form", "--m", *_QUAD)),
    "blowup": ("properness / strictness towers",
               ("--poly", "--p", "--n", "--witness", "--cap", "--out")),
    "decay": ("slice volume decay fit", ("region", "--form", "--u", *_QUAD, "--out")),
    "decay-complex": ("annulus slice decay fit", ("region", "--form", "--m", *_QUAD)),
    "stokes": ("boundary vs differential residual", ("--m", "--map", "--form", *_QUAD, "--tol")),
    "bound-check": ("pushforward volume bound", ("region", "--f", "--a", *_QUAD)),
    "probe-fibers": ("sampled fiber cardinality",
                     ("region", "--axis", "--samples", "--cap", "--seed")),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="logvol",
        description="allowability checks and singular integration on semi-algebraic regions",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_text, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        if command == "blowup":
            p.add_argument("region", nargs="?", help="region file (witness mode)")
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


_HANDLERS = {
    "check": _cmd_check,
    "integrate": _cmd_integrate,
    "integrate-complex": _cmd_integrate_complex,
    "blowup": _cmd_blowup,
    "decay": _cmd_decay,
    "decay-complex": _cmd_decay_complex,
    "stokes": _cmd_stokes,
    "bound-check": _cmd_bound_check,
    "probe-fibers": _cmd_probe_fibers,
}


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 1 if exc.code not in (0, None) else 0
    try:
        return _HANDLERS[args.command](args)
    except (CliError, RegionError, PolyError, IntegrationError, BlowupError,
            ComplexIntError, StokesError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
