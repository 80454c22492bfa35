import contextlib
import io
import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from cechlab.cli import main, load_space_file, parse_space


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_h1_table(capsys):
    code, out, _ = run(
        capsys, "h1", "W2", "--bundle", "tangent", "--l-lo", "-4", "--l-hi", "1",
        "--fiber-max", "2",
    )
    assert code == 0
    assert "component=2" in out
    assert "kind: Exact" in out


def test_h1_json_deterministic(capsys):
    args = [
        "h1", "W1", "--bundle", "O(-2)", "--l-lo", "-3", "--l-hi", "1",
        "--fiber-max", "2", "--format", "json",
    ]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    json.loads(out1)


def test_coboundary_command(capsys):
    code, out, _ = run(
        capsys, "coboundary", "Z2@t1=1", "--bundle", "O(-2)", "--cocycle", "z^-1",
        "--l-lo", "-6", "--l-hi", "2", "--fiber-max", "4",
    )
    assert code == 0
    assert "isCoboundary: True" in out


def test_reduce_command(capsys):
    code, out, _ = run(
        capsys, "reduce", "Z-1", "--bundle", "O(-2)", "--cocycle", "z^-2*exp(u)",
        "--l-lo", "-8", "--l-hi", "2", "--fiber-max", "6", "--exp-cutoff", "6",
    )
    assert code == 0
    assert "z^-2*u" in out  # the constant part z^-2 reduces away


def test_split_type_matrix(capsys):
    code, out, _ = run(capsys, "split-type", "--matrix", "z,1;0,z^-1")
    assert code == 0 and "- 0" in out
    code, out, _ = run(capsys, "split-type", "W2", "--bundle", "tangent")
    assert code == 0 and "- -2" in out and "- 2" in out


def test_ext_verdict_command(capsys):
    code, out, _ = run(
        capsys, "ext-verdict", "Z1", "--sub", "-1", "--quot", "1",
        "--cocycle", "z^-2*exp(u)", "--cutoff", "8",
    )
    assert code == 0 and "SplitZero" in out


def test_moduli_dim_command(capsys):
    code, out, _ = run(capsys, "moduli-dim", "W3", "--j", "4")
    assert code == 0
    assert "quotientConventionDim: 11" in out
    assert "agrees: True" in out


def test_deform_command(capsys):
    code, out, _ = run(capsys, "deform", "Z3")
    assert code == 0 and "validated: True" in out


def test_probe_affine_command(capsys):
    code, out, _ = run(
        capsys, "probe-affine", "W2", "--degrees=-4", "--l-lo", "-5", "--l-hi", "2",
        "--fiber-max", "3",
    )
    assert code == 0 and "not affine" in out


def test_hirzebruch_command(capsys):
    code, out, _ = run(capsys, "hirzebruch", "3")
    assert code == 0 and "ok: True" in out


def test_verify_paper_selection_and_exit_codes(capsys, tmp_path):
    out_file = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "verify-paper", "--claims", "W1-rigidity,Hirzebruch-identities",
        "--out", str(out_file),
    )
    assert code == 0
    report = json.loads(out_file.read_text())
    assert report["summary"]["verified"] == 2
    # bogus id is a usage error
    code, _, err = run(capsys, "verify-paper", "--claims", "bogus-id")
    assert code == 2 and "unknown claim" in err


def test_verify_paper_report_is_byte_deterministic(capsys, tmp_path):
    f1, f2 = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "verify-paper", "--claims", "W2-tangent-basis", "--out", str(f1))
    run(capsys, "verify-paper", "--claims", "W2-tangent-basis", "--out", str(f2))
    assert f1.read_bytes() == f2.read_bytes()


def test_usage_errors_exit_2(capsys):
    code, _, err = run(capsys, "h1", "Q7")
    assert code == 2 and "unknown space" in err
    code, _, _ = run(capsys, "h1")  # argparse error
    assert code == 2
    # a class escaping the degree box is an input error
    code, _, err = run(
        capsys, "reduce", "Z1", "--bundle", "O(-2)", "--cocycle", "z^-20",
        "--l-lo", "-4", "--l-hi", "2", "--fiber-max", "3",
    )
    assert code == 2 and "outside the degree box" in err


@pytest.mark.parametrize(
    "argv",
    [
        # a box that cannot grow would certify its own window as stable
        'h1 W2@t1=1 --bundle O(-4) --l-lo -3 --l-hi 1 --fiber-max 2 --escalation-step 0',
        'coboundary W2@t1=1 --bundle O(-4) --cocycle z^-1 --stability-rounds 0',
        'h1 W2 --bundle tangent --fiber-max -1',
        'h1 W2 --bundle tangent --l-lo 2 --l-hi 1',
    ],
)
def test_bad_degree_box_is_a_usage_error(capsys, argv):
    code, _, err = run(capsys, *shlex.split(argv))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize(
    "argv, max_cells",
    [
        ("split-type --matrix z,1;1,z", None),  # determinant is not a unit monomial
        ("coboundary Z1 --bundle O(-2) --cocycle exp(z)", None),  # series of a constant
        ("coboundary bad --space-file {cfg} --bundle O(-2) --cocycle z^-1", None),
        ("moduli-dim W2 --j 0", None),
        ("moduli-dim Z2@t1=1 --j 1", None),  # no surface formula off the standard Z_k
        ("hirzebruch 0", None),
        ("coboundary W2@t1=1 --bundle O(-4) --cocycle z^-1", "abc"),
        ("h1 Z2@t1=1/0 --bundle O(-2)", None),  # zero denominator
        ("split-type --matrix z,1;1", None),  # ragged matrix
        ("probe-affine Z2@t1=1 --degrees=x", None),
        ("probe-affine W2 --degrees ''", None),  # probes no degree
        ("probe-affine W2 --degrees ,", None),
        ("deform Z2 --set t5=1", None),  # the Z2 family has only t1
        ("h1 Z2@t5=1", None),
        ("h1 W3@t3=1", None),  # the W3 family has t1 and t2
        ("h1 W3@t0=1", None),
        ("deform W3 --set t0=1", None),
        ("deform W2 --jmax -1", None),
        ("deform W2 --jmax -1 --set t1=1", None),
        ("coboundary Z1 --bundle O(-2) --cocycle 1/0*z^-1", None),
        ("ext-verdict Z1 --sub -1 --quot 1 --cocycle z^-2*exp(u) --cutoff -1", None),
        ("coboundary Z1 --bundle O(-2) --cocycle z^-2*exp(u) --exp-cutoff -1", None),
        ("verify-paper --claims ,", None),  # names no claim
        # more stability rounds than the 8 window enlargements can give
        ("h1 Z2@t1=1 --bundle O(-2) --l-lo -2 --l-hi 0 --fiber-max 1 "
         "--escalation-step 1 --stability-rounds 9", None),
    ],
)
def test_bad_input_is_a_one_line_error(capsys, monkeypatch, tmp_path, argv, max_cells):
    cfg = tmp_path / "bad.cfg"  # the two maps are not mutually inverse
    cfg.write_text("name = bad\nforward = z^-1, z^2*u\ninverse = xi^-1, xi^2*v + 1\n")
    if max_cells is not None:
        monkeypatch.setenv("CECH_MAX_CELLS", max_cells)
    code, _, err = run(capsys, *shlex.split(argv.format(cfg=cfg)))
    assert code == 2
    assert "Traceback" not in err
    assert err.startswith("error: ") and err.count("\n") == 1


def test_stability_rounds_beyond_the_budget_are_ignored_on_the_exact_tier(capsys):
    code, out, _ = run(capsys, "h1", "W2", "--bundle", "tangent", "--stability-rounds", "9")
    assert code == 0 and "kind: Exact" in out


def test_readme_cli_examples_exit_0(capsys, tmp_path):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```", 2)[1]
    lines = [line for line in block.splitlines() if line.strip()]
    assert len(lines) >= 10 and all(line.startswith("cechlab ") for line in lines)
    for line in lines:
        argv = shlex.split(line)[1:]
        if "--out" in argv:
            at = argv.index("--out") + 1
            argv[at] = str(tmp_path / argv[at])
        code, _, err = run(capsys, *argv)
        assert code == 0, (line, err)


def test_space_file(tmp_path, capsys):
    cfg = tmp_path / "spaces.cfg"
    cfg.write_text(
        "name = myw2\n"
        "forward = z^-1, z^2*u1 + z*u2, u2\n"
        "inverse = xi^-1, xi^2*v1 - xi*v2, v2\n"
    )
    spaces = load_space_file(str(cfg))
    assert "myw2" in spaces
    code, out, _ = run(
        capsys, "coboundary", "myw2", "--space-file", str(cfg), "--bundle", "O(-4)",
        "--cocycle", "z^-1,", "--l-lo", "-6", "--l-hi", "6", "--fiber-max", "4",
    )
    # rank-1 bundle wants exactly one component; trailing comma is tolerated
    assert code == 0
    assert "isCoboundary: False" in out


def test_translated_fiber_space_file_answers_like_z0(tmp_path, capsys):
    # v = u + 1: Z0 with its fiber translated, a fiber image of zero base
    # width and zero least fiber degree
    cfg = tmp_path / "spaces.cfg"
    cfg.write_text("name = z0shift\nforward = z^-1, u + 1\ninverse = xi^-1, v - 1\n")
    box = ["--bundle", "O(-3)", "--l-lo", "-4", "--l-hi", "1", "--fiber-max", "2"]
    code, out, _ = run(
        capsys, "h1", "z0shift", "--space-file", str(cfg), *box, "--format", "json"
    )
    assert code == 0
    code_z0, out_z0, _ = run(capsys, "h1", "Z0", *box, "--format", "json")
    assert code_z0 == 0
    generators = json.loads(out)["generators"]
    assert len(generators) == 6 and generators == json.loads(out_z0)["generators"]


def test_space_file_with_params(tmp_path):
    cfg = tmp_path / "spaces.cfg"
    cfg.write_text(
        "name = dz2\n"
        "forward = z^-1, z^2*u + t1*z\n"
        "inverse = xi^-1, xi^2*v - t1*xi\n"
        "params = t1=1/2\n"
    )
    spaces = load_space_file(str(cfg))
    assert [str(p) for p in spaces["dz2"].transition.forward] == [
        "z^-1",
        "1/2*z + z^2*u",
    ]


def test_deformed_space_names(capsys):
    # a numeric point is named by the labels of its nonzero parameters
    assert str(parse_space("W2@t1=1")) == "W2[t1=1]: (xi, v...) = (z^-1, z*u2 + z^2*u1, u2)"
    assert str(parse_space("W2@t0=1")) == "W2[t0=1]: (xi, v...) = (z^-1, z + z^2*u1, u2)"
    assert str(parse_space("Z3@t1=1,t2=2")) == (
        "Z3[t1=1,t2=2]: (xi, v...) = (z^-1, z + 2*z^2 + z^3*u)"
    )
    assert parse_space("W3@t1=0").name == "W3[t=0]"
    code, out, _ = run(
        capsys, "h1", "W2@t1=1", "--l-lo", "-3", "--l-hi", "1", "--fiber-max", "2",
    )
    assert code == 0 and "space: W2[t1=1]\n" in out
    # `deform X --set A` and `X@A` name and build the same space
    for space, assign in [
        ("W2", "t0=1"), ("W2", "t1=1"), ("W2", "t0=1/2,t2=-1"), ("W2", "t4=3"), ("W2", "t1=0"),
        ("W3", "t1=1"), ("W3", "t2=1"), ("W3", "t1=1,t2=-3/4"),
        ("Z2", "t1=1"), ("Z3", "t2=1/2"), ("Z4", "t1=1,t3=2"),
    ]:
        code, out, _ = run(capsys, "deform", space, "--set", assign, "--format", "json")
        assert code == 0
        assert json.loads(out)["perturbed"] == str(parse_space(f"{space}@{assign}")), assign


SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


@pytest.mark.parametrize(
    "argv, header",
    [
        (["h1_window_scan.py", "W2", "-4", "--max-fiber", "2"],
         "space W2: (xi, v...) = (z^-1, z^2*u1, u2)"),
        (["moduli_grid.py", "--family", "Z"], "space     j  h1(<=1)  h1-2j  formula ok"),
    ],
)
def test_scripts_exit_0(argv, header):
    src = str(SCRIPTS.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / argv[0])] + argv[1:],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == header


# -- fuzzing: a small argv grammar, valid and malformed pieces mixed ---------

_SPACES = [
    "Z-1", "Z1", "Z2", "Z3", "W1", "W2", "W3", "W2@t1=1", "Z2@t1=1", "Z3@t1=1,t2=1/2",
    "W3@t2=1", "Q7", "Z", "W2@", "W2@t1=", "Z2@t1=x", "Z2@t1=1/0", "W2@t0=2", "Z2@t5=1",
]
_BUNDLES = [
    "O(-2)", "O(-4)", "O(1)", "O(x)", "tangent", "end-tangent", "ext(-1,1,z^-2*exp(u))",
    "ext(1,2,z^-1)", "ext(1,2,", "nonsense",
]
_EXPRS = [
    "z^-1", "z^-2*u", "z^-1*u2", "z^-3*u1 + 2*z^-1", "0", "z^-1,", "z^-1,0,0", "exp(z)",
    "z^-2*exp(u)", "z^^", "(", "1/0", "z^-20", "u9", "xi", "z^-1/2", "",
]
_MATRIX_ENTRIES = ["z", "1", "0", "z^-1", "z^2", "2*z", "u", "x", "", "1/0"]


def _ints(lo, hi, *bad):
    """An integer in [lo, hi] as text, or now and then one of ``bad``."""
    return st.sampled_from([str(i) for i in range(lo, hi + 1)] * 3 + list(bad))


@st.composite
def _box_opts(draw):
    opts = []
    for flag, values in (
        ("--l-lo", _ints(-4, 4, "x", "")),
        ("--l-hi", _ints(-4, 4, "1.5")),
        ("--fiber-max", _ints(-1, 3, "y")),
        ("--escalation-step", _ints(0, 2, "z")),
        ("--stability-rounds", _ints(0, 1)),
    ):
        if draw(st.booleans()):
            opts += [flag, draw(values)]
    # keep every example cheap: a small box unless the box is malformed
    for flag, value in (("--l-lo", "-2"), ("--l-hi", "1"), ("--fiber-max", "2"),
                        ("--escalation-step", "1"), ("--stability-rounds", "1")):
        if flag not in opts:
            opts += [flag, value]
    return opts


@st.composite
def _matrices(draw):
    rows = draw(st.integers(1, 3))
    return ";".join(
        ",".join(draw(st.lists(st.sampled_from(_MATRIX_ENTRIES), min_size=1, max_size=3)))
        for _ in range(rows)
    )


@st.composite
def _argv(draw):
    command = draw(st.sampled_from([
        "h1", "coboundary", "reduce", "split-type", "ext-verdict", "moduli-dim",
        "deform", "probe-affine", "hirzebruch", "verify-paper", "bogus",
    ]))
    space = draw(st.sampled_from(_SPACES))
    fmt = ["--format", draw(st.sampled_from(["table", "json"] * 4 + ["xml"]))]
    if command in ("h1", "coboundary", "reduce"):
        argv = [command, space, "--bundle", draw(st.sampled_from(_BUNDLES))]
        if command != "h1":
            argv += ["--cocycle", draw(st.sampled_from(_EXPRS))]
        if draw(st.booleans()):
            argv += ["--exp-cutoff", draw(_ints(0, 4, "-1"))]
        return argv + draw(_box_opts()) + fmt
    if command == "split-type":
        if draw(st.booleans()):
            return [command, "--matrix", draw(_matrices())] + fmt
        return [command, space, "--bundle", draw(st.sampled_from(_BUNDLES))] + fmt
    if command == "ext-verdict":
        return [
            command, space, "--sub", draw(_ints(-2, 2, "a")), "--quot", draw(_ints(-2, 2)),
            "--cocycle", draw(st.sampled_from(_EXPRS)), "--cutoff", draw(_ints(0, 4, "-1")),
        ] + fmt
    if command == "moduli-dim":
        return [command, space, "--j", draw(_ints(0, 1, "-1", "q"))] + fmt
    if command == "deform":
        argv = [command, draw(st.sampled_from(["Z1", "Z2", "Z3", "W2", "W3", "W1", "W2@t1=1"]))]
        if draw(st.booleans()):
            argv += ["--jmax", draw(_ints(0, 2, "-1"))]
        if draw(st.booleans()):
            argv += ["--set", draw(st.sampled_from(
                ["t1=1", "t1=1,t3=1/2", "t5=1", "t0=1", "t1=1/0", "t1=x", "", "t2=-3/4"]
            ))]
        return argv + fmt
    if command == "probe-affine":
        degrees = draw(st.sampled_from(["-1", "-2,-3", "x", "", "-1,,", "1/2", "-4"]))
        return [command, space, f"--degrees={degrees}"] + draw(_box_opts()) + fmt
    if command == "hirzebruch":
        return [command, draw(_ints(-2, 4, "k"))] + fmt
    if command == "verify-paper":
        claim = draw(st.sampled_from(["W1-rigidity", "Hirzebruch-identities", "bogus-id", ","]))
        return [command, "--claims", claim] + fmt
    return [command, space]


@given(_argv())
def test_cli_fuzz_exits_cleanly(argv):
    """Any argv from the grammar exits 0, 1 or 2, and never with a traceback."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)  # an escaping exception is the traceback
    assert code in (0, 1, 2), (argv, code)
    assert "Traceback" not in err.getvalue(), (argv, err.getvalue())
