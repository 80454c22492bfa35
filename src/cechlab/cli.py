"""Command-line surface.

Spaces are named Z<k> / W<k> (k may be negative, e.g. Z-1), optionally with a
deformation suffix like W2@t1=1 (the standard family of that space with the
given numeric parameters), or defined in a config file via --space-file:

    name = myspace
    forward = z^-1, z^2*u1 + z*u2, u2
    inverse = xi^-1, xi^2*v1 - xi*v2, v2

Reports are byte-deterministic: fixed ordering, sorted JSON keys, and no
timestamps in the canonical body.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from fractions import Fraction
from typing import Dict, List, Optional

from . import cech, claims, deform, moduli
from .bundles import (
    TransitionBundle,
    end_bundle,
    extension_bundle,
    line_bundle,
    restrict_to_line,
    tangent_bundle,
)
from .cech import DegreeBox, make_class
from .exprs import parse_poly
from .ring import InputError, LaurentPoly, RingSig, U_FRAME, UsageError, V_FRAME
from .spaces import ChartMap, TwoChartSpace, make_standard_space


_SPACE_RE = re.compile(r"^([ZW])(-?\d+)(?:@(.*))?$")


def parse_space(text: str, space_file: Optional[str] = None) -> TwoChartSpace:
    if space_file:
        named = load_space_file(space_file)
        if text in named:
            return named[text]
    m = _SPACE_RE.match(text)
    if not m:
        raise UsageError(
            f"unknown space {text!r}; expected Z<k>, W<k> or a name from --space-file"
        )
    family, k, params = m.group(1), int(m.group(2)), m.group(3)
    if not params:
        return make_standard_space(family, k)
    values = _parse_params(params)
    return deform.standard_family(family, k, values, jmax=max(values)).perturbed


def _parse_params(text: str) -> Dict[int, Fraction]:
    out: Dict[int, Fraction] = {}
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        m = re.match(r"^t(\d+)=(-?\d+(?:/\d+)?)$", piece)
        if not m:
            raise UsageError(f"bad parameter assignment {piece!r}")
        try:
            out[int(m.group(1))] = Fraction(m.group(2))
        except ZeroDivisionError:
            raise UsageError(f"zero denominator in parameter assignment {piece!r}") from None
    if not out:
        raise UsageError("empty parameter assignment")
    return out


def load_space_file(path: str) -> Dict[str, TwoChartSpace]:
    """Config format: one assignment per line; sections separated by blank
    lines define multiple spaces.  An optional ``params = t1=...,t2=...``
    line fixes parameter variables appearing in the transition expressions
    to numeric rationals."""
    spaces: Dict[str, TwoChartSpace] = {}
    current: Dict[str, str] = {}

    def flush():
        if not current:
            return
        try:
            name = current["name"]
            fwd_texts = [t.strip() for t in current["forward"].split(",")]
            inv_texts = [t.strip() for t in current["inverse"].split(",")]
        except KeyError as exc:
            raise UsageError(f"space definition missing {exc.args[0]!r}") from None
        values = _parse_params(current["params"]) if "params" in current else {}
        nparams = max(values) if values else 0
        fibers = len(fwd_texts) - 1
        uring = RingSig(fibers, nparams, U_FRAME)
        vring = RingSig(fibers, nparams, V_FRAME)
        forward = [parse_poly(t, uring) for t in fwd_texts]
        inverse = [parse_poly(t, vring) for t in inv_texts]
        if nparams:
            # inline the numeric parameter values
            num_u = RingSig(fibers, 0, U_FRAME)
            num_v = RingSig(fibers, 0, V_FRAME)

            def fix(polys, ring, num):
                images = {i: LaurentPoly.var(num, i) for i in range(1 + fibers)}
                for s in range(nparams):
                    images[1 + fibers + s] = LaurentPoly.const(
                        num, values.get(s + 1, Fraction(0))
                    )
                return [p.substitute(images, num) for p in polys]

            forward = fix(forward, uring, num_u)
            inverse = fix(inverse, vring, num_v)
        spaces[name] = TwoChartSpace(
            name, fibers, ChartMap(tuple(forward), tuple(inverse))
        )
        current.clear()

    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                if not line:
                    flush()
                continue
            if "=" not in line:
                raise UsageError(f"bad config line {line!r}")
            key, _, value = line.partition("=")
            current[key.strip()] = value.strip()
    flush()
    return spaces


_BUNDLE_RE = re.compile(r"^O\((-?\d+)\)$")
_EXT_RE = re.compile(r"^ext\((-?\d+),(-?\d+),(.+)\)$")


def parse_bundle(spec: str, space: TwoChartSpace, exp_cutoff: int) -> TransitionBundle:
    spec = spec.strip()
    m = _BUNDLE_RE.match(spec)
    if m:
        return line_bundle(space, int(m.group(1)))
    if spec == "tangent":
        return tangent_bundle(space)
    if spec == "end-tangent":
        return end_bundle(tangent_bundle(space))
    m = _EXT_RE.match(spec)
    if m:
        p = parse_poly(m.group(3), space.uring, exp_cutoff)
        return extension_bundle(space, int(m.group(1)), int(m.group(2)), p)
    raise UsageError(
        f"unknown bundle {spec!r}; expected O(<m>), tangent, end-tangent or "
        "ext(<b>,<a>,<expr>)"
    )


def parse_class(text: str, bundle: TransitionBundle, exp_cutoff: int) -> cech.CechClass:
    parts = _split_tuple(text)
    ring = bundle.space.uring
    if len(parts) == 1 and bundle.rank > 1:
        raise UsageError(
            f"class needs {bundle.rank} comma-separated components for this bundle"
        )
    if len(parts) != bundle.rank:
        raise UsageError(f"class has {len(parts)} components; bundle rank is {bundle.rank}")
    return make_class(bundle, [parse_poly(t, ring, exp_cutoff) for t in parts])


def _split_tuple(text: str) -> List[str]:
    parts = []
    depth = 0
    buf = ""
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append(buf)
            buf = ""
        else:
            buf += ch
    parts.append(buf)
    return [p.strip() for p in parts if p.strip()]


def _box_from_args(args, space: TwoChartSpace) -> DegreeBox:
    try:
        return DegreeBox.make(
            args.l_lo,
            args.l_hi,
            args.fiber_max,
            space.fiber_count,
            escalation_step=args.escalation_step,
            stability_rounds=args.stability_rounds,
        )
    except ValueError as exc:
        raise UsageError(f"bad degree box: {exc}") from None


def _emit(payload: Dict, args) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True, indent=2))
        return
    _print_table(payload)


def _print_table(payload: Dict, indent: str = "") -> None:
    for key in payload if isinstance(payload, dict) else []:
        value = payload[key]
        if isinstance(value, dict):
            print(f"{indent}{key}:")
            _print_table(value, indent + "  ")
        elif isinstance(value, list):
            print(f"{indent}{key}:")
            for item in value:
                if isinstance(item, dict):
                    line = ", ".join(f"{k}={v}" for k, v in item.items())
                    print(f"{indent}  - {line}")
                else:
                    print(f"{indent}  - {item}")
        else:
            print(f"{indent}{key}: {value}")


def _add_box_args(sub, l_lo=-8, l_hi=4, fiber_max=6):
    sub.add_argument("--l-lo", type=int, default=l_lo)
    sub.add_argument("--l-hi", type=int, default=l_hi)
    sub.add_argument("--fiber-max", type=int, default=fiber_max)
    sub.add_argument("--escalation-step", type=int, default=4)
    sub.add_argument("--stability-rounds", type=int, default=2)


def _add_common(sub):
    sub.add_argument("space", help="Z<k>, W<k>, name@t1=..., or a --space-file name")
    sub.add_argument("--space-file", default=None)
    sub.add_argument("--bundle", default="O(-2)")
    sub.add_argument("--exp-cutoff", type=int, default=8)
    sub.add_argument("--format", choices=["table", "json"], default="table")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cechlab",
        description="Exact Cech H1, bundle moduli data and deformation families "
        "for two-chart total spaces over the projective line",
    )
    sp = ap.add_subparsers(dest="command", required=True)

    s = sp.add_parser("h1", help="generator basis of H1 in a degree box")
    _add_common(s)
    _add_box_args(s)

    s = sp.add_parser("coboundary", help="decide whether a class is a coboundary")
    _add_common(s)
    _add_box_args(s)
    s.add_argument("--cocycle", required=True, help="comma-separated components")

    s = sp.add_parser("reduce", help="canonical representative of a class")
    _add_common(s)
    _add_box_args(s)
    s.add_argument("--cocycle", required=True)

    s = sp.add_parser("split-type", help="splitting type of the restriction to the line")
    s.add_argument("space", nargs="?", default=None)
    s.add_argument("--space-file", default=None)
    s.add_argument("--bundle", default=None)
    s.add_argument("--matrix", default=None, help="rows separated by ';', entries by ','")
    s.add_argument("--exp-cutoff", type=int, default=8)
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("ext-verdict", help="split / polynomial / non-polynomial verdict")
    s.add_argument("space")
    s.add_argument("--space-file", default=None)
    s.add_argument("--sub", type=int, required=True, help="sub-bundle degree b")
    s.add_argument("--quot", type=int, required=True, help="quotient degree a")
    s.add_argument("--cocycle", required=True, help="class representative expression")
    s.add_argument("--cutoff", type=int, default=10)
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("moduli-dim", help="first-neighborhood and generic moduli dims")
    s.add_argument("space")
    s.add_argument("--space-file", default=None)
    s.add_argument("--j", type=int, required=True)
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("deform", help="build and validate a standard deformation family")
    s.add_argument("space", help="W2, W3 or Z<k>")
    s.add_argument("--jmax", type=int, default=4, help="W2 family truncation")
    s.add_argument("--set", dest="assign", default=None, help="numeric values t1=...,t2=...")
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("probe-affine", help="H1(O(n)) obstructions over a window")
    s.add_argument("space")
    s.add_argument("--space-file", default=None)
    s.add_argument("--degrees", required=True, help="comma-separated, e.g. -1,-2,-3")
    _add_box_args(s, l_lo=-6, l_hi=2, fiber_max=6)
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("hirzebruch", help="verify the ruled-surface embedding identities")
    s.add_argument("k", type=int)
    s.add_argument("--format", choices=["table", "json"], default="table")

    s = sp.add_parser("verify-paper", help="run the built-in claim suite")
    s.add_argument("--claims", default=None, help="comma-separated claim ids")
    s.add_argument("--format", choices=["table", "json"], default="table")
    s.add_argument("--out", default=None, help="write the JSON report to this file")

    return ap


def _cmd_h1(args) -> int:
    space = parse_space(args.space, args.space_file)
    bundle = parse_bundle(args.bundle, space, args.exp_cutoff)
    box = _box_from_args(args, space)
    res = cech.h1(bundle, box)
    payload = claims._h1_artifacts(res)
    payload["space"] = space.name
    payload["bundle"] = bundle.name
    _emit(payload, args)
    return 0


def _cmd_coboundary(args) -> int:
    space = parse_space(args.space, args.space_file)
    bundle = parse_bundle(args.bundle, space, args.exp_cutoff)
    box = _box_from_args(args, space)
    cls = parse_class(args.cocycle, bundle, args.exp_cutoff)
    ok, cert = cech.is_coboundary(bundle, cls, box)
    payload = {
        "space": space.name,
        "bundle": bundle.name,
        "class": str(cls),
        "isCoboundary": ok,
        "certification": cert.as_dict(),
    }
    _emit(payload, args)
    return 0


def _cmd_reduce(args) -> int:
    space = parse_space(args.space, args.space_file)
    bundle = parse_bundle(args.bundle, space, args.exp_cutoff)
    box = _box_from_args(args, space)
    cls = parse_class(args.cocycle, bundle, args.exp_cutoff)
    res = cech.reduce_class(bundle, cls, box)
    payload = {
        "space": space.name,
        "bundle": bundle.name,
        "class": str(cls),
        "representative": str(res.representative),
        "witness": res.witness.as_dict(),
        "certification": res.certification.as_dict(),
    }
    _emit(payload, args)
    return 0


def _cmd_split_type(args) -> int:
    if args.matrix:
        ring = RingSig(0, 0, U_FRAME)
        rows = [
            [parse_poly(e, ring) for e in row.split(",")]
            for row in args.matrix.split(";")
        ]
        if any(len(r) != len(rows) for r in rows):
            raise UsageError(f"--matrix must be square; got row lengths {[len(r) for r in rows]}")
        matrix = tuple(tuple(r) for r in rows)
        source = "matrix"
    else:
        if not (args.space and args.bundle):
            raise UsageError("split-type needs either --matrix or a space and --bundle")
        space = parse_space(args.space, args.space_file)
        bundle = parse_bundle(args.bundle, space, args.exp_cutoff)
        matrix = restrict_to_line(bundle)
        source = f"{bundle.name} on {space.name}, restricted to the line"
    st, witness = moduli.splitting_type(matrix, with_witness=True)
    payload = {
        "source": source,
        "splittingType": list(st.degrees),
        "diagPowers": list(witness.diag_powers),
    }
    _emit(payload, args)
    return 0


def _cmd_ext_verdict(args) -> int:
    if args.cutoff < 0:
        raise UsageError("--cutoff must be >= 0")
    space = parse_space(args.space, args.space_file)
    rep = parse_poly(args.cocycle, space.uring, args.cutoff)
    verdict = moduli.extension_verdict(space, args.sub, args.quot, rep, args.cutoff)
    payload = {
        "space": space.name,
        "sub": args.sub,
        "quot": args.quot,
        "verdict": verdict.as_dict(),
    }
    _emit(payload, args)
    return 0


def _cmd_moduli_dim(args) -> int:
    space = parse_space(args.space, args.space_file)
    report = moduli.generic_moduli_dim(space, args.j)
    _emit(report.as_dict(), args)
    return 0


def _cmd_deform(args) -> int:
    m = _SPACE_RE.match(args.space)
    if not m or m.group(3):
        raise UsageError("deform expects a plain standard space name (W2, W3, Z<k>)")
    values = _parse_params(args.assign) if args.assign else None
    fam = deform.standard_family(m.group(1), int(m.group(2)), values, args.jmax)
    payload = {
        "base": str(fam.base_space),
        "parameters": len(fam.cocycles),
        "symbolic": fam.symbolic,
        "perturbed": str(fam.perturbed),
        "validated": True,
    }
    _emit(payload, args)
    return 0


def _cmd_probe_affine(args) -> int:
    space = parse_space(args.space, args.space_file)
    try:
        degrees = [int(d) for d in args.degrees.split(",") if d.strip()]
    except ValueError:
        raise UsageError(f"--degrees must be comma-separated integers: {args.degrees!r}") from None
    box = _box_from_args(args, space)
    report = deform.affineness_probe(space, degrees, box)
    _emit(report.as_dict(), args)
    return 0


def _cmd_hirzebruch(args) -> int:
    from .spaces import hirzebruch_verify

    res = hirzebruch_verify(args.k)
    payload = {
        "k": args.k,
        "ok": res is None,
    }
    if res is not None:
        payload["residual"] = str(res)
    _emit(payload, args)
    return 0 if res is None else 1


def _cmd_verify_paper(args) -> int:
    selection = None
    if args.claims:
        selection = [c.strip() for c in args.claims.split(",") if c.strip()]
        if not selection:
            raise UsageError(f"--claims {args.claims!r} names no claim")
    exit_code, records = claims.run_claim_suite(selection)
    report = {
        "claims": [r.as_dict() for r in records],
        "summary": {
            "verified": sum(r.status == "verified" for r in records),
            "flagged": sum(r.status == "discrepancy-flagged" for r in records),
            "failed": sum(r.status == "failed" for r in records),
        },
    }
    text = json.dumps(report, sort_keys=True, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    if args.format == "json":
        print(text)
    else:
        width = max(len(r.claim_id) for r in records)
        for r in records:
            mark = {"verified": "ok", "discrepancy-flagged": "FLAGGED", "failed": "FAILED"}[
                r.status
            ]
            print(f"{r.claim_id:<{width}}  {mark}")
            for note in r.notes:
                print(f"{'':<{width}}  note: {note}")
        s = report["summary"]
        print(
            f"{s['verified']} verified, {s['flagged']} flagged, {s['failed']} failed"
        )
    return exit_code


_COMMANDS = {
    "h1": _cmd_h1,
    "coboundary": _cmd_coboundary,
    "reduce": _cmd_reduce,
    "split-type": _cmd_split_type,
    "ext-verdict": _cmd_ext_verdict,
    "moduli-dim": _cmd_moduli_dim,
    "deform": _cmd_deform,
    "probe-affine": _cmd_probe_affine,
    "hirzebruch": _cmd_hirzebruch,
    "verify-paper": _cmd_verify_paper,
}


def main(argv: Optional[List[str]] = None) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _COMMANDS[args.command](args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except cech.CechError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
