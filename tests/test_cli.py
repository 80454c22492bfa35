import json
import shlex
from pathlib import Path

import pytest

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
        ("hirzebruch 0", None),
        ("coboundary W2@t1=1 --bundle O(-4) --cocycle z^-1", "abc"),
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


def test_deformed_space_names():
    s = parse_space("W2@t1=1")
    assert [str(p) for p in s.transition.forward] == ["z^-1", "z*u2 + z^2*u1", "u2"]
    s = parse_space("Z3@t1=1,t2=2")
    assert [str(p) for p in s.transition.forward] == ["z^-1", "z + 2*z^2 + z^3*u"]
