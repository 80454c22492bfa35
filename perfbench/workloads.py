"""The benchmark's workloads: seeded inputs, the ops that run them, and the
checks on every answer.

A workload is a sequence of rounds.  A round is a fixed multiset of ops whose
order and parameters come from the seed, so every run covers the same op mix
whatever its length, and the timed loop always runs whole rounds.  Checks run
after each round, outside the timed region.  ``check_round`` returns one flag
per op: True when the answer passed every check.

cechlab is imported inside ``setup`` so that its import counts as set-up.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "reference.json"


def round_rng(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# -- paper-suite ----------------------------------------------------------------

CLAIM_IDS = [
    "Affine-Zk-deformed",
    "CY-determinant",
    "Families-glue",
    "Hirzebruch-identities",
    "Moduli-dimensions",
    "NonAffine-W2-deformed",
    "Nonalgebraic-eu",
    "W1-rigidity",
    "W2-End-infinite",
    "W2-tangent-basis",
    "W3-tangent-window",
    "Zminus1-classes",
]
FLAGGED = {"W3-tangent-window", "Zminus1-classes", "W2-End-infinite"}


def record_text(record) -> str:
    return json.dumps(record.as_dict(), sort_keys=True, indent=2)


class PaperSuite:
    """Passes of the 12-claim suite; one op is one claim, one round one pass."""

    name = "paper-suite"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cechlab import claims, cli

        self.claims, self.cli = claims, cli
        self.claim_ids = list(CLAIM_IDS)
        self.reference = json.loads(REFERENCE.read_text())

    def round(self, index: int):
        ids = list(self.claim_ids)
        round_rng(self.seed, index).shuffle(ids)
        return ids

    def op_name(self, op) -> str:
        return "claim"

    def run(self, cid):
        return self.claims.run_claim_suite([cid])

    def report_bytes(self, records, exit_code):
        """The ``verify-paper --format json`` report the CLI prints for these
        records, produced by the CLI's own code path."""
        claims = self.claims
        orig = claims.run_claim_suite
        claims.run_claim_suite = lambda selection=None: (exit_code, list(records))
        out = io.StringIO()
        try:
            with contextlib.redirect_stdout(out):
                rc = self.cli.main(["verify-paper", "--format", "json"])
        finally:
            claims.run_claim_suite = orig
        return rc, out.getvalue()

    def check_round(self, ops, answers):
        ref = self.reference
        flags = []
        records = []
        for cid, ans in zip(ops, answers):
            if isinstance(ans, BaseException):
                flags.append(False)
                continue
            code, recs = ans
            rec = recs[0]
            records.append(rec)
            want = "discrepancy-flagged" if cid in FLAGGED else "verified"
            flags.append(
                code == 0
                and rec.claim_id == cid
                and rec.status == want
                and sha256(record_text(rec)) == ref["claims"][cid]
            )
        if len(records) == len(self.claim_ids):
            records.sort(key=lambda r: r.claim_id)
            exit_code = 1 if any(r.status == "failed" for r in records) else 0
            rc, text = self.report_bytes(records, exit_code)
            if rc != 0 or sha256(text) != ref["report"]:
                flags = [False] * len(flags)
        return flags


# -- exact-sweep ------------------------------------------------------------------

# (label, space family, k, bundle kind, box (l_lo, l_hi, fiber_max), classes)
# Per case and round: one h1 of the case's box, and `classes` seeded classes,
# each asked both as is_coboundary and as reduce.  The class counts place the
# nearest-rank p50 and p90 inside a band of like ops, not on the edge between
# two: at this commit p50 falls among the Z-1 full sweeps (reduce and h1 both
# sweep the whole window) and p90 among the W2 tangent ones.
EXACT_CASES = [
    ("Z-1:O(-2)", "Z", -1, "O(-2)", (-6, 1, 3), 5),
    ("Z2:O(-3)", "Z", 2, "O(-3)", (-6, 1, 3), 3),
    ("W2:O(-4)", "W", 2, "O(-4)", (-5, 1, 2), 3),
    ("W2:T", "W", 2, "tangent", (-4, 1, 3), 8),
    ("W3:T", "W", 3, "tangent", (-5, 1, 2), 3),
    ("W2:End(T)", "W", 2, "end-tangent", (-3, 0, 1), 3),
]
COEFFS = [Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2), Fraction(-3, 2)]

Case = namedtuple("Case", "label bundle box engine classes")


class ExactSweep:
    """Exact-tier h1 / is_coboundary / reduce on monomial-model bundles."""

    name = "exact-sweep"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cechlab import bundles, cech, spaces
        from cechlab.ring import LaurentPoly

        self.cech, self.LaurentPoly = cech, LaurentPoly
        self.cases = []
        for label, family, k, kind, (lo, hi, fm), classes in EXACT_CASES:
            space = spaces.make_standard_space(family, k)
            if kind == "tangent":
                bundle = bundles.tangent_bundle(space)
            elif kind == "end-tangent":
                bundle = bundles.end_bundle(bundles.tangent_bundle(space))
            else:
                bundle = bundles.line_bundle(space, int(kind[2:-1]))
            box = cech.DegreeBox.make(lo, hi, fm, space.fiber_count)
            self.cases.append(Case(label, bundle, box, cech.CechEngine(bundle), classes))
        self.h1_reference = {}

    def _random_class(self, rng, case):
        bundle, box = case.bundle, case.box
        ring = bundle.space.uring
        terms = [{} for _ in range(bundle.rank)]
        for _ in range(1 if rng.random() < 0.5 else rng.randint(2, 3)):
            exp = (rng.randint(box.base_lo, box.base_hi),) + tuple(
                rng.randint(0, fm) for fm in box.fiber_max
            )
            terms[rng.randrange(bundle.rank)][exp] = rng.choice(COEFFS)
        return self.cech.make_class(
            bundle, [self.LaurentPoly(ring, t) for t in terms]
        )

    def round(self, index: int):
        rng = round_rng(self.seed, index)
        ops = []
        for ci, case in enumerate(self.cases):
            ops.append(("h1", ci, None))
            for _ in range(case.classes):
                cls = self._random_class(rng, case)
                ops += [("is_coboundary", ci, cls), ("reduce", ci, cls)]
        rng.shuffle(ops)
        return ops

    def op_name(self, op) -> str:
        return op[0]

    def run(self, op):
        kind, ci, cls = op
        case = self.cases[ci]
        if kind == "h1":
            return case.engine.h1(case.box)
        if kind == "is_coboundary":
            return case.engine.is_coboundary(cls, case.box)
        return case.engine.reduce(cls, case.box)

    def basis(self, ci):
        """The case's h1 basis keys from a fresh engine, computed once."""
        if ci not in self.h1_reference:
            case = self.cases[ci]
            res = self.cech.CechEngine(case.bundle).h1(case.box)
            self.h1_reference[ci] = set(res.generator_keys())
        return self.h1_reference[ci]

    def check_round(self, ops, answers):
        cech = self.cech
        flags = []
        verdicts = {}  # id(class) -> [is_coboundary answer, reduce gives 0]
        for (kind, ci, cls), ans in zip(ops, answers):
            if isinstance(ans, BaseException):
                flags.append(False)
                continue
            bundle = self.cases[ci].bundle
            if kind == "h1":
                ok = (
                    isinstance(ans.certification, cech.Exact)
                    and set(ans.generator_keys()) == self.basis(ci)
                )
            elif kind == "is_coboundary":
                answer, cert = ans
                if answer:
                    ok = isinstance(cert, cech.WitnessFound) and cech.verify_witness(
                        bundle, cls, cert
                    )
                else:
                    ok = isinstance(cert, cech.Exact)
                verdicts.setdefault(id(cls), [None, None])[0] = answer
            else:
                rep = ans.representative
                keys = {
                    (c + 1, exp)
                    for c, poly in enumerate(rep.components)
                    for exp in poly.terms
                }
                diff = cech.make_class(
                    bundle,
                    [a - b for a, b in zip(cls.components, rep.components)],
                )
                ok = (
                    isinstance(ans.certification, cech.Exact)
                    and keys <= self.basis(ci)
                    and cech.verify_witness(bundle, diff, ans.witness)
                )
                verdicts.setdefault(id(cls), [None, None])[1] = rep.is_zero()
            flags.append(bool(ok))
        # is_coboundary is false exactly when reduce gives a nonzero representative
        for i, (kind, ci, cls) in enumerate(ops):
            if kind != "h1":
                answer, rep_zero = verdicts.get(id(cls), (None, None))
                if answer is None or rep_zero is None or answer != rep_zero:
                    flags[i] = False
        return flags


# -- cli-cold ---------------------------------------------------------------------

STABILITY_ROUNDS = 2


def _box(lo, hi, fm):
    return [
        "--l-lo", str(lo), "--l-hi", str(hi), "--fiber-max", str(fm),
        "--stability-rounds", str(STABILITY_ROUNDS),
    ]


def _t(rng):
    return rng.choice(["1", "2", "-1", "1/2"])


# Each template draws one command from the seed.  Boxes are given explicitly
# and always cover the class; only valid settings are generated.
def _h1_exact(rng):
    space, bundle, box = rng.choice([
        ("W2", "tangent", (-4, 1, 3)),
        ("W3", "tangent", (-4, 0, 2)),
        ("W1", "O(-2)", (-3, 1, 2)),
        ("Z3", "O(-4)", (-6, 1, 4)),
        ("Z-1", "O(-2)", (-6, 1, 4)),
    ])
    return ["h1", space, "--bundle", bundle] + _box(*box)


def _h1_deformed(rng):
    space = rng.choice([f"Z2@t1={_t(rng)}", "Z3@t1=1"])
    return ["h1", space, "--bundle", rng.choice(["O(-2)", "O(-3)"])] + _box(-3, 1, 2)


def _coboundary_stable(rng):
    return [
        "coboundary", f"W2@t1={_t(rng)}", "--bundle", "O(-4)",
        "--cocycle", rng.choice(["z^-1", "z^-2"]),
    ] + _box(-4, 2, 3)


def _coboundary_witness(rng):
    space = rng.choice([f"Z2@t1={_t(rng)}", "Z3@t1=1"])
    cocycle = rng.choice(["z^-1", "z^-2*u", "z^-1 + 2*z^-2*u"])
    return ["coboundary", space, "--bundle", "O(-2)", "--cocycle", cocycle] + _box(-4, 2, 3)


def _coboundary_exact(rng):
    if rng.random() < 0.5:
        cmd = ["coboundary", "Z1", "--bundle", "O(-2)", "--cocycle", f"z^-2*u^{rng.randint(1, 4)}"]
    else:
        cmd = ["coboundary", "W2", "--bundle", "O(-4)", "--cocycle", f"z^-{rng.randint(1, 3)}"]
    return cmd + _box(-6, 2, 4)


def _reduce_exact(rng):
    if rng.random() < 0.5:
        n = rng.choice([6, 8, 10])
        return [
            "reduce", "Z-1", "--bundle", "O(-2)", "--cocycle", "z^-2*exp(u)",
            "--exp-cutoff", str(n),
        ] + _box(-8, 2, n)
    return [
        "reduce", "W3", "--bundle", "O(-2)", "--cocycle", f"z^-2*u2^{rng.randint(1, 4)}",
    ] + _box(-6, 2, 4)


def _reduce_deformed(rng):
    return [
        "reduce", f"Z2@t1={_t(rng)}", "--bundle", "O(-2)",
        "--cocycle", rng.choice(["z^-2*u", "z^-1 + z^-2*u"]),
    ] + _box(-4, 2, 3)


def _probe_affine(rng):
    space = rng.choice([f"Z2@t1={_t(rng)}", "Z3@t1=1"])
    return ["probe-affine", space, f"--degrees={rng.choice([-1, -2])}"] + _box(-3, 1, 2)


def _ext_verdict_w3(rng):
    return [
        "ext-verdict", "W3", "--sub", "-1", "--quot", "1",
        "--cocycle", "z^-2*exp(u2)", "--cutoff", str(rng.choice([4, 5, 6])),
    ]


def _ext_verdict_z(rng):
    return [
        "ext-verdict", rng.choice(["Z1", "Z-1"]), "--sub", "-1", "--quot", "1",
        "--cocycle", "z^-2*exp(u)", "--cutoff", str(rng.choice([6, 8, 10])),
    ]


def _moduli_dim(rng):
    if rng.random() < 0.5:
        return ["moduli-dim", f"W{rng.randint(1, 3)}", "--j", str(rng.randint(2, 6))]
    k = rng.randint(1, 3)
    j = rng.randint((k + 3) // 2, 6)  # 2j - k - 2 >= 0
    return ["moduli-dim", f"Z{k}", "--j", str(j)]


def _split_type(rng):
    a, b = rng.randint(-3, 3), rng.randint(-3, 3)
    off = rng.choice(["0", "1", "z", "z^-1 + 3", "2*z^2 - z"])
    return ["split-type", "--matrix", f"z^{a},{off};0,z^{b}"]


def _deform(rng):
    choice = rng.choice(["W2", "W3", "Z3", "Z4"])
    cmd = ["deform", choice]
    if choice == "W2":
        cmd += ["--jmax", str(rng.randint(1, 4))]
    if rng.random() < 0.5:
        cmd += ["--set", f"t1={_t(rng)}"]
    return cmd


def _hirzebruch(rng):
    return ["hirzebruch", str(rng.randint(2, 5))]


CLI_TEMPLATES = [
    _h1_exact,
    _h1_deformed,
    _coboundary_stable,
    _coboundary_witness,
    _coboundary_exact,
    _reduce_exact,
    _reduce_deformed,
    _probe_affine,
    _ext_verdict_w3,
    _ext_verdict_z,
    _moduli_dim,
    _split_type,
    _deform,
    _hirzebruch,
]
CLI_COMMANDS = [
    "h1", "coboundary", "reduce", "probe-affine", "ext-verdict",
    "moduli-dim", "split-type", "deform", "hirzebruch",
]


def _flag(argv, name, default=None):
    return argv[argv.index(name) + 1] if name in argv else default


def _box_flags(argv):
    return tuple(int(_flag(argv, f)) for f in ("--l-lo", "--l-hi", "--fiber-max"))


def stable_certs_ok(payload, argv) -> bool:
    """Every StableInBox certificate in the payload shows the requested
    stability rounds on a window that grew past the requested box."""
    lo, hi, fm = _box_flags(argv) if "--l-lo" in argv else (None, None, None)

    def walk(node):
        if isinstance(node, dict):
            if node.get("kind") == "StableInBox":
                if lo is None or node.get("rounds") != STABILITY_ROUNDS:
                    return False
                b = node["box"]
                if not (b["lLo"] < lo and b["lHi"] > hi and all(f > fm for f in b["fiberMax"])):
                    return False
            return all(walk(v) for v in node.values())
        if isinstance(node, list):
            return all(walk(v) for v in node)
        return True

    return walk(payload)


class CliCold:
    """README-style commands through ``cechlab.cli.main``, sharing nothing."""

    name = "cli-cold"

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self):
        from cechlab import cech, cli, exprs

        self.cech, self.cli, self.exprs = cech, cli, exprs

    def round(self, index: int):
        rng = round_rng(self.seed, index)
        ops = [template(rng) + ["--format", "json"] for template in CLI_TEMPLATES]
        rng.shuffle(ops)
        return ops

    def op_name(self, argv) -> str:
        return argv[0]

    def run(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, out.getvalue()

    # ---- checks through the library ----

    def _witness(self, space, cert):
        parse = self.exprs.parse_poly
        alpha = tuple(parse(s, space.uring) for s in cert["alpha"])
        beta = tuple(parse(s, space.vring) for s in cert["beta"])
        return self.cech.WitnessFound(alpha, beta)

    def _class_and_bundle(self, argv):
        cli = self.cli
        cutoff = int(_flag(argv, "--exp-cutoff", "8"))
        space = cli.parse_space(argv[1])
        bundle = cli.parse_bundle(_flag(argv, "--bundle"), space, cutoff)
        cls = cli.parse_class(_flag(argv, "--cocycle"), bundle, cutoff)
        return space, bundle, cls

    def check_answer(self, argv, payload) -> bool:
        cech = self.cech
        command = argv[0]
        if not stable_certs_ok(payload, argv):
            return False
        if command == "coboundary":
            cert = payload["certification"]
            if not payload["isCoboundary"]:
                return cert["kind"] in ("Exact", "StableInBox")
            space, bundle, cls = self._class_and_bundle(argv)
            return cert["kind"] == "WitnessFound" and cech.verify_witness(
                bundle, cls, self._witness(space, cert)
            )
        if command == "reduce":
            space, bundle, cls = self._class_and_bundle(argv)
            text = payload["representative"]
            rep = [self.exprs.parse_poly(s, space.uring) for s in text[1:-1].split(", ")]
            diff = cech.make_class(bundle, [a - b for a, b in zip(cls.components, rep)])
            return cech.verify_witness(bundle, diff, self._witness(space, payload["witness"]))
        if command == "h1":
            return len(payload["generators"]) == sum(d["dim"] for d in payload["dims"])
        if command == "probe-affine":
            probes = payload["probes"]
            return len(probes) == 1 and all(
                p["verdict"] == "not-affine" or p["coboundaryWitnesses"] > 0 for p in probes
            )
        if command == "ext-verdict":
            # the paper's extension class: split on Z_1, non-polynomial on
            # Z_(-1) and on the pullback to W_3, up to the cutoff
            verdict = payload["verdict"]
            cutoff = int(_flag(argv, "--cutoff"))
            if argv[1] == "Z1":
                return verdict["kind"] == "SplitZero"
            return verdict["kind"] == "NonPolynomialUpTo" and verdict["degree"] == cutoff
        if command == "moduli-dim":
            return payload["agrees"] is True
        if command == "split-type":
            # det = z^(a+b), so the splitting type sums to -(a+b)
            diag = argv[argv.index("--matrix") + 1].split(";")
            a = int(diag[0].split(",")[0][2:])
            b = int(diag[1].split(",")[1][2:])
            return sum(payload["splittingType"]) == -(a + b)
        if command == "deform":
            return payload["validated"] is True
        if command == "hirzebruch":
            return payload["ok"] is True
        return False

    def check_round(self, ops, answers):
        flags = []
        for argv, ans in zip(ops, answers):
            if isinstance(ans, BaseException):
                flags.append(False)
                continue
            rc, text = ans
            try:
                ok = rc == 0 and self.check_answer(argv, json.loads(text))
            except Exception:  # an answer the checks cannot read is a failure
                ok = False
            flags.append(bool(ok))
        return flags


WORKLOADS = {w.name: w for w in (PaperSuite, ExactSweep, CliCold)}

# rounds in the fixed op list of a traced run
TRACE_ROUNDS = {"paper-suite": 1, "exact-sweep": 4, "cli-cold": 2}
