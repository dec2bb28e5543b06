"""Command-line interface: exit codes, JSON envelope, CSV output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from pseudoplanar.cli import main
from pseudoplanar.scheme import spectrum_closed_form


def run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_pp_test_true(capsys):
    code, out, _ = run(capsys, "pp-test", "--field", "4:13", "--f", "5:1")
    assert code == 0
    assert "pseudo-planar: true" in out


def test_pp_test_false_with_witness(capsys):
    code, out, _ = run(capsys, "pp-test", "--field", "6:43", "--f", "5:1,20:1")
    assert code == 1
    assert "witness eps: 0x3" in out


def test_pp_test_json_envelope(capsys):
    code, out, _ = run(
        capsys, "pp-test", "--field", "4:13", "--f", "5:1", "--out", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["schema_version"] == 1
    assert data["command"] == "pp-test"
    assert data["inputs"] == {"field": "4:13", "f": "5:1"}
    assert data["result"] == {"pseudo_planar": True}


def test_usage_errors_exit_2(capsys):
    # malformed polynomial literal
    code, _, err = run(capsys, "pp-test", "--field", "4:13", "--f", "oops")
    assert code == 2 and "error:" in err
    # reducible modulus
    code, _, err = run(capsys, "pp-test", "--field", "4:15", "--f", "5:1")
    assert code == 2
    # coefficient out of range for the field
    code, _, err = run(capsys, "pp-test", "--field", "3:b", "--f", "3:ff")
    assert code == 2



def _run_child(*argv):
    """The CLI in a child process, so that a hang fails instead of stalling."""
    src = str(Path(__file__).resolve().parent.parent / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "pseudoplanar.cli", *argv],
        capture_output=True, text=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=path),
    )


@pytest.mark.parametrize("argv", [
    ("--field", "3:-b"),
    ("--field", "6:-43"),
    ("--field", "1:-3"),
])
def test_negative_modulus_exits_2(argv):
    proc = _run_child("field-info", *argv)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "is not a positive int of degree" in proc.stderr


@pytest.mark.parametrize("a", ["-1", "40"])
@pytest.mark.parametrize("family, extra", [
    ("binomial1", ("--m", "2")),
    ("linear", ()),
    ("gold_half", ()),
    ("scherr_zieve", ()),
])
def test_construct_a_outside_the_field_exits_2(capsys, family, extra, a):
    code, out, err = run(
        capsys, "construct", "--field", "6:43", "--family", family, *extra, "--a", a
    )
    assert code == 2 and out == ""
    assert "nonzero field element, 0 < a < 0x40" in err


@pytest.mark.parametrize("a", ["zz", "", "1.5"])
def test_construct_a_that_is_not_hex_exits_2(capsys, a):
    code, out, err = run(capsys, "construct", "--field", "6:43", "--family", "linear", "--a", a)
    assert code == 2 and out == ""
    assert err == f"error: bad --a {a!r}; expected a hex field element, e.g. 1f\n"


def test_repeated_exponent_literal_exits_2(capsys):
    # 5:1,5:1 would XOR-merge into the zero function, which is pseudo-planar
    code, out, err = run(capsys, "pp-test", "--field", "4:13", "--f", "5:1,5:1")
    assert code == 2 and out == ""
    assert "exponent 5 is repeated" in err
    code, _, err = run(capsys, "rds-verify", "--field", "3:b", "--f", "3:1,6:1,3:1")
    assert code == 2 and "exponent 3 is repeated" in err

def test_field_info(capsys):
    code, out, _ = run(capsys, "field-info", "--field", "6:43")
    assert code == 0
    assert "order: 64" in out


def test_modulus_override_flag_is_gone():
    # --field n:POLYHEX is the one way to set the modulus
    proc = _run_child("field-info", "--field", "3:b", "--modulus-override", "d")
    assert proc.returncode == 2 and proc.stdout == ""
    assert "unrecognized arguments: --modulus-override" in proc.stderr


@pytest.mark.parametrize("spec", ["17:20009", "24:1000087"])
def test_field_degree_above_the_cap_exits_2(spec):
    proc = _run_child("field-info", "--field", spec)
    assert proc.returncode == 2 and proc.stdout == ""
    assert "extension degree must be in [1, 16]" in proc.stderr


def test_constant_term_passes_pp_and_rds_tests(capsys):
    # f(0) = 1 translates D_f by a 2-torsion element: still a difference set
    code, out, _ = run(capsys, "pp-test", "--field", "3:b", "--f", "0:1")
    assert code == 0 and "pseudo-planar: true" in out
    code, out, _ = run(capsys, "rds-verify", "--field", "3:b", "--f", "0:1")
    assert code == 0 and "relative difference set: true" in out


@pytest.mark.parametrize("argv", [
    ("scheme-build",),
    ("eigen",),
    ("scheme-build", "--out", "json"),
    ("bm-fuse", "--cols", "0;1,2;3;4,5"),
])
def test_constant_term_scheme_commands_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv[:1], "--field", "3:b", "--f", "0:1", *argv[1:])
    assert code == 2 and out == ""
    assert "D must contain 0, which for D_f means f(0) = 0" in err


@pytest.mark.parametrize("out", ["text", "json", "csv"])
def test_constant_term_spectrum_exits_2(capsys, out):
    # the closed form holds for f(0) = 0; a constant term flips signs of it
    code, stdout, err = run(
        capsys, "spectrum", "--field", "3:b", "--f", "0:1", "--out", out
    )
    assert code == 2 and stdout == ""
    assert "D must contain 0, which for D_f means f(0) = 0" in err


def test_construct_families(capsys):
    code, out, _ = run(
        capsys, "construct", "--field", "6:43", "--family", "binomial1",
        "--m", "2", "--a", "2", "--out", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["pseudo_planar"] is True
    code, out, _ = run(
        capsys, "construct", "--field", "3:b", "--family", "shifted2", "--m", "1"
    )
    assert code == 0
    assert "f: 3:1,6:1" in out
    # domain violation: binomial1 needs n = 3m
    code, _, err = run(
        capsys, "construct", "--field", "4:13", "--family", "binomial1", "--m", "2"
    )
    assert code == 2


def test_rds_verify(capsys):
    code, out, _ = run(capsys, "rds-verify", "--field", "4:13", "--f", "5:1")
    assert code == 0
    assert "relative difference set: true" in out
    code, out, _ = run(capsys, "rds-verify", "--field", "4:13", "--f", "3:1")
    assert code == 1
    assert "multiplicity" in out


def test_scheme_build_and_eigen(capsys):
    code, out, _ = run(
        capsys, "scheme-build", "--field", "3:b", "--f", "3:1,6:1", "--out", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["matches_closed_forms"] is True
    assert data["result"]["class_count"] == 5
    code, out, _ = run(capsys, "eigen", "--field", "3:b", "--f", "0:0")
    assert code == 0
    assert "verified: True" in out


def test_spectrum_csv_matches_closed_form(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--field", "3:b", "--f", "3:1,6:1", "--out", "csv"
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value_re,value_im,frequency"
    want = [(v.re, v.im, c) for v, c in spectrum_closed_form(3)]
    got = [tuple(int(x) for x in ln.split(",")) for ln in lines[1:]]
    assert got == want


def test_spectrum_non_pp_exits_1(capsys):
    code, _, err = run(capsys, "spectrum", "--field", "6:43", "--f", "5:1,20:1")
    assert code == 1
    assert "witness" in err


def test_search_monomials_cli(capsys):
    code, out, _ = run(
        capsys, "search-monomials", "--field", "3:b", "--out", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["total_candidates"] == 49
    assert len(data["result"]["hits"]) == 21
    assert "conjecture_counterexamples" not in data["result"]


def test_search_binomials_cli_sharded(capsys, tmp_path):
    hits = []
    for k in range(2):
        code, out, _ = run(
            capsys, "search-binomials", "--field", "3:b",
            "--shard", f"{k}/2", "--out", "json",
            "--checkpoint", str(tmp_path / f"ck{k}.json"),
        )
        assert code == 0
        hits += json.loads(out)["result"]["hits"]
    assert "3:1,6:1" in hits
    # long-run gate propagates as a usage error
    code, _, err = run(capsys, "search-binomials", "--field", "8:11b")
    assert code == 2 and "long" in err


@pytest.mark.parametrize("key, value", [("next", 10**9), ("hits", [1]), ("hits", ["x"])])
def test_search_cli_refuses_a_forged_checkpoint(capsys, tmp_path, key, value):
    from pseudoplanar import search

    path = tmp_path / "ck.json"
    argv = ["search-binomials", "--field", "4:13", "--shard", "0/2", "--checkpoint", str(path)]
    assert run(capsys, *argv)[0] == 0
    data = json.loads(path.read_text())
    del data["digest"]
    data[key] = value
    data["digest"] = search._digest(data)
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert f"ck.json: {key}" in err


def test_search_cli_names_a_torn_checkpoint(capsys, tmp_path):
    path = tmp_path / "ck.json"
    path.write_text('{"version": 1, "fie')
    code, out, err = run(capsys, "search-monomials", "--field", "4:13", "--checkpoint", str(path))
    assert code == 2 and out == ""
    assert err.startswith(f"error: checkpoint {path} is not readable JSON: ")


@pytest.mark.parametrize("command", ["search-binomials", "search-monomials"])
def test_search_cli_refuses_a_checkpoint_outside_a_directory_first(
    capsys, monkeypatch, tmp_path, command
):
    from pseudoplanar import search

    def no_candidate(*args):
        raise AssertionError("a candidate was tested")

    monkeypatch.setattr(search, "_orbit_hits", no_candidate)
    monkeypatch.setattr(search, "_monomial_hits", no_candidate)
    path = tmp_path / "missing" / "x"
    code, out, err = run(capsys, command, "--field", "4:13", "--checkpoint", str(path))
    assert code == 2 and out == ""
    assert err == f"error: checkpoint {path}: {path.parent} is not a writable directory\n"
    assert not path.parent.exists()


def test_bm_fuse_cli(capsys):
    code, out, _ = run(
        capsys, "bm-fuse", "--field", "3:b", "--f", "0:0",
        "--cols", "0;1,2;3;4,5", "--out", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["result"]["row_partition"] == [[0], [1], [2, 3], [4, 5]]
    code, _, err = run(
        capsys, "bm-fuse", "--field", "3:b", "--f", "0:0", "--cols", "0;1;2,3;4;5"
    )
    assert code == 1
    assert "fusion refused" in err


@pytest.mark.parametrize(
    "field, cols, message",
    [
        ("3:b", "0;1,2;3;4,5,5", "partition the columns 0..5 of P (6 columns)"),
        ("3:b", "0;1,2;3;4,5,6", "partition the columns 0..5 of P (6 columns)"),
        ("3:b", "1;0,2,3,4,5", "column cell 0 must be {0}"),
        # n = 2 has five classes, so P has five columns
        ("2:7", "0;1,2;3", "partition the columns 0..4 of P (5 columns)"),
    ],
)
def test_bm_fuse_cols_that_do_not_fit_p_exit_2(capsys, field, cols, message):
    code, out, err = run(
        capsys, "bm-fuse", "--field", field, "--f", "0:0", "--cols", cols
    )
    assert code == 2
    assert out == ""
    assert message in err and "fusion refused" not in err


def test_threads_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pp-test", "--field", "4:13", "--f", "5:1", "--threads", "4"])
    assert exc.value.code == 2
    assert "--threads" in capsys.readouterr().err


def test_bm_fuse_rejects_bad_cols_before_building(capsys, monkeypatch):
    from pseudoplanar import scheme

    def no_build(D):
        raise AssertionError("the scheme was built before --cols was parsed")

    monkeypatch.setattr(scheme, "build_report", no_build)
    code, _, err = run(
        capsys, "bm-fuse", "--field", "3:b", "--f", "0:0", "--cols", "0;1,x"
    )
    assert code == 2
    assert "bad --cols" in err


def test_csv_out_is_a_usage_error_outside_spectrum(capsys, tmp_path):
    checkpoint = tmp_path / "ck.json"
    for argv in (
        ["scheme-build", "--field", "3:b", "--f", "0:0", "--out", "csv"],
        ["search-binomials", "--field", "3:b", "--out", "csv",
         "--checkpoint", str(checkpoint)],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err
    # rejected at parse time, before the search could write a checkpoint
    assert not checkpoint.exists()
