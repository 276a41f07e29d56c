import argparse
import json
import shlex
from pathlib import Path

import pytest

from mpm.cli import build_parser, main

ROOT = Path(__file__).resolve().parents[1]

FPM_F = """fpm 1
field 2
params 2
rows 2
0 0
0 0
cols 3
1 4 : 1 1
3 3 : 1 1
4 1 : 1 1
"""

FPM_G = FPM_F.replace("3 3 :", "2 2 :")

BC_A = "0 2\n1 inf\n"
BC_B = "1 3\n1.5 inf\n"

CWF = """cwf 1
field 2
params 2
p 0 0 0 :
q 0 0 0 :
a 1 1 4 : p 1 q 1
b 1 3 3 : p 1 q 1
c 1 4 1 : p 1 q 1
"""


@pytest.fixture
def files(tmp_path):
    paths = {}
    for name, text in [("f.fpm", FPM_F), ("g.fpm", FPM_G),
                       ("a.bc", BC_A), ("b.bc", BC_B), ("x.cwf", CWF)]:
        p = tmp_path / name
        p.write_text(text)
        paths[name] = str(p)
    return paths


def test_wasserstein_command(files, capsys):
    assert main(["wasserstein", "--p", "1", files["a.bc"], files["b.bc"]]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "2.5"  # |0-1| + |2-3| + |1-1.5|
    assert main(["wasserstein", "--p", "1", "--exact", files["a.bc"], files["b.bc"]]) == 0
    assert capsys.readouterr().out.strip() == "2.5"


def test_wasserstein_json(files, capsys):
    assert main(["wasserstein", "--p", "inf", "--json",
                 files["a.bc"], files["b.bc"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["distance"] == 1.0


def test_barcode_along_line(files, capsys):
    assert main(["barcode", "--line", "1,1;0,0", files["f.fpm"]]) == 0
    assert capsys.readouterr().out == "0 3\n0 inf\n"


FPM_ADVERSARIAL = """fpm 1
field 3
params 2
rows 5
-1/3 2/7
-1/3 2/7
1/1000000000000 -5/7
-2/7 -1/3
3/7 -1/1000000000000
cols 4
1/3 2/7 : 0 1 1 1
1/1000000000000 6/7 : 1 1 2 1
5/3 -1/3 : 2 1 3 2
2 1 : 0 1 1 1 2 1 3 1
"""


def test_barcode_along_line_golden(tmp_path, capsys):
    # negative labels with denominators 3, 7 and 10**12, and a base point
    # with denominator 10**12 + 39; recorded from the Fraction pushes
    path = tmp_path / "adv.fpm"
    path.write_text(FPM_ADVERSARIAL)
    assert main(["barcode", "--line", "1,3/7;1/1000000000039,-2/7", str(path)]) == 0
    assert capsys.readouterr().out == (
        "-1/21 9/7\n"
        "117/7000000000273000000000000 5000000000192/7000000000273\n"
        "1999999999993/7000000000000 inf\n"
        "4/7 8/7\n")


def test_restrict_roundtrip(files, capsys, tmp_path):
    out = tmp_path / "r.fpm"
    assert main(["restrict", "--line", "1,1;0,0", files["f.fpm"],
                 "-o", str(out)]) == 0
    text = out.read_text()
    assert "params 1" in text
    assert main(["barcode", str(out)]) == 0
    assert capsys.readouterr().out == "0 3\n0 inf\n"


def test_matchdist_json(files, capsys):
    assert main(["matchdist", "--p", "inf", "--eps", "0.05", "--json",
                 files["f.fpm"], files["g.fpm"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["upper"] - data["lower"] <= 0.05
    assert data["lower"] >= 0.95
    assert set(data["argmax_line"]) == {"v", "w"}


def test_matchdist_deterministic_output(files, capsys):
    argv = ["matchdist", "--p", "1", "--eps", "0.1", "--json",
            files["f.fpm"], files["g.fpm"]]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first


def test_labeldist(files, capsys):
    assert main(["labeldist", "--p", "2", files["f.fpm"], files["g.fpm"]]) == 0
    assert abs(float(capsys.readouterr().out) - 2 ** 0.5) < 1e-9


def test_labeldist_keeps_small_roots(tmp_path, capsys):
    # the p = 2 root of a tiny sum of squares is neither 0 nor rounded down
    zero = tmp_path / "zero.fpm"
    zero.write_text("fpm 1\nfield 2\nparams 1\nrows 1\n0\ncols 0\n")
    for gap in ("0.00000000000000000001", "0.00001"):
        moved = tmp_path / "moved.fpm"
        moved.write_text(f"fpm 1\nfield 2\nparams 1\nrows 1\n{gap}\ncols 0\n")
        assert main(["labeldist", "--p", "2", "--digits", "17",
                     str(zero), str(moved)]) == 0
        assert float(capsys.readouterr().out) == float(gap)


def test_labeldist_rejects_different_matrices(files, capsys, tmp_path):
    other = tmp_path / "o.fpm"
    other.write_text("fpm 1\nfield 2\nparams 2\nrows 1\n0 0\ncols 0\n")
    assert main(["labeldist", "--p", "1", files["f.fpm"], str(other)]) == 2


def test_labeldist_rejects_different_parameter_counts(files, capsys, tmp_path):
    # the matrix of f.fpm under 1-parameter labels is a data error (exit 2)
    one = tmp_path / "one.fpm"
    one.write_text("fpm 1\nfield 2\nparams 1\nrows 2\n0\n0\n"
                   "cols 3\n1 : 1 1\n3 : 1 1\n4 : 1 1\n")
    for pair in ([str(one), files["f.fpm"]], [files["f.fpm"], str(one)]):
        assert main(["labeldist", "--p", "1"] + pair) == 2
        assert capsys.readouterr().err.startswith("data error")


def test_bounds_json(files, capsys):
    assert main(["bounds", "--p", "1", "--eps", "0.05", "--json",
                 files["f.fpm"], files["g.fpm"]]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["lower"] <= data["upper"] + 0.05
    assert data["upper"] <= 2.0


def test_json_p_is_the_parsed_exponent(files, capsys):
    # the four distance commands print "p" the same way, as the parsed
    # exponent's canonical text, whatever spelling --p was given in
    f, g, a, b = files["f.fpm"], files["g.fpm"], files["a.bc"], files["b.bc"]
    for text, want in (("3/2", "1.5"), ("6/4", "1.5"), ("1.50", "1.5"),
                       ("4/3", "4/3"), ("2", "2"), ("Infinity", "inf")):
        for argv in (["wasserstein", a, b], ["labeldist", f, g],
                     ["matchdist", "--eps", "4", f, g], ["bounds", "--eps", "4", f, g]):
            assert main(argv[:1] + ["--p", text, "--json"] + argv[1:]) == 0
            assert json.loads(capsys.readouterr().out)["p"] == want, (text, argv)


def test_homology_pipeline(files, capsys, tmp_path):
    out = tmp_path / "h1.fpm"
    assert main(["homology", "--deg", "1", files["x.cwf"], "-o", str(out)]) == 0
    assert main(["barcode", "--line", "1,1;2,0", str(out)]) == 0
    assert capsys.readouterr().out == "3 inf\n4 inf\n"


def test_lift_roundtrip(files, capsys, tmp_path):
    prefix = str(tmp_path / "lifted")
    assert main(["lift", files["f.fpm"], files["g.fpm"], "-o", prefix]) == 0
    capsys.readouterr()
    assert main(["homology", "--deg", "1", prefix + ".f.cwf"]) == 0
    text = capsys.readouterr().out
    assert "params 2" in text


def test_hilbert(files, capsys):
    assert main(["hilbert", "--at", "2,2", "--at", "5,5", files["f.fpm"]]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines == ["2,2\t2", "5,5\t1"]


def test_hilbert_grade_of_the_wrong_length_is_a_data_error(files, capsys):
    # "1,2,3" parses as a grade, but not as one of f.fpm's 2 parameters
    assert main(["hilbert", "--at", "1,2,3", files["f.fpm"]]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "grade '1,2,3' does not have 2 coordinates" in captured.err


def test_barcode_line_must_match_the_parameter_count(files, tmp_path, capsys):
    one = tmp_path / "one.fpm"
    one.write_text("fpm 1\nfield 2\nparams 1\nrows 1\n0\ncols 0\n")
    for argv, message in ((["barcode", files["f.fpm"]],
                           "a 2-parameter module needs --line"),
                          (["barcode", "--line", "1,1;0,0", str(one)],
                           "--line applies only to 2-parameter modules")):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"data error: {message}\n"


def test_infinite_distances_print(tmp_path, capsys):
    # free modules of ranks 1 and 2: an essential bar is left unmatched
    # on every line, and no pairing aligns a unit matrix with a zero one
    one, two = tmp_path / "one.fpm", tmp_path / "two.fpm"
    one.write_text("fpm 1\nfield 2\nparams 2\nrows 1\n0 0\ncols 0\n")
    two.write_text("fpm 1\nfield 2\nparams 2\nrows 2\n0 0\n1 2\ncols 0\n")
    pair = [str(one), str(two)]
    assert main(["matchdist", "--p", "1", "--eps", "0.1"] + pair) == 0
    assert capsys.readouterr().out == "lower inf upper inf lines 1\n"
    assert main(["matchdist", "--p", "1", "--eps", "0.1", "--json"] + pair) == 0
    text = capsys.readouterr().out
    assert '"lower": "inf", "upper": "inf"' in text
    assert json.loads(text)["lines_evaluated"] == 1
    assert main(["bounds", "--p", "1", "--eps", "0.1", "--json"] + pair) == 0
    data = json.loads(capsys.readouterr().out)
    assert (data["lower"], data["upper"]) == ("inf", "inf")
    assert data["provenance"][1].startswith("upper: no pairing found")


def test_output_golden(tmp_path, monkeypatch, capsys):
    # stdout and exit code of the number-printing commands, recorded before
    # --digits/--exact/--json were narrowed to the commands that print numbers;
    # the six --p 3/2 JSON records of wasserstein, labeldist and bounds were
    # re-recorded when their "p" became the parsed exponent's text ("1.5")
    golden = json.loads((ROOT / "tests" / "cli_golden.json").read_text())
    for name, text in golden["inputs"].items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    for record in golden["records"]:
        assert main(record["argv"]) == record["exit"], record["argv"]
        assert capsys.readouterr().out == record["stdout"], record["argv"]


def test_number_flags_only_on_number_commands(files, tmp_path, capsys):
    # the six commands that print no number reject --digits and --exact
    f, g, x = files["f.fpm"], files["g.fpm"], files["x.cwf"]
    for argv in (["barcode", "--line", "1,1;0,0", f],
                 ["restrict", "--line", "1,1;0,0", f],
                 ["homology", "--deg", "1", x],
                 ["lift", f, g, "-o", str(tmp_path / "lifted")],
                 ["hilbert", "--at", "2,2", f],
                 ["gen", "presentation"]):
        assert main(argv) == 0
        for flag in (["--digits", "3"], ["--exact"]):
            assert main(argv + flag) == 1, argv + flag
            assert "unrecognized arguments" in capsys.readouterr().err


def test_digits_out_of_range_is_a_usage_error(tmp_path, capsys):
    # --digits outside 1..50 is rejected, not clamped to the nearest end
    a, b = tmp_path / "a.bc", tmp_path / "b.bc"
    a.write_text("0 1\n")
    b.write_text("0 1/3\n")
    for digits in ("0", "-4", "51", "x"):
        assert main(["wasserstein", "--p", "1", "--digits", digits, str(a), str(b)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("usage error") and "--digits" in err, digits
    for digits, out in (("1", "0.7"), ("50", format(2 / 3, ".50g"))):
        assert main(["wasserstein", "--p", "1", "--digits", digits, str(a), str(b)]) == 0
        assert capsys.readouterr().out == out + "\n"


def test_readme_cli_lines_parse():
    # every `mpm ...` line of the README's CLI block names real flags
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## CLI", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line, comments=True)[1:]
                for line in block.splitlines() if line.startswith("mpm ")]
    assert len(commands) >= 10
    parser = build_parser()
    for argv in commands:
        parser.parse_args(argv)


def test_gen_deterministic(capsys):
    assert main(["gen", "presentation", "--seed", "9"]) == 0
    first = capsys.readouterr().out
    assert main(["gen", "presentation", "--seed", "9"]) == 0
    assert capsys.readouterr().out == first
    assert first.startswith("fpm 1")


def test_gen_complex_parses(capsys):
    assert main(["gen", "complex", "--seed", "3", "--vertices", "5"]) == 0
    from mpm import parse_complex
    parse_complex(capsys.readouterr().out)


def test_usage_error_exit_code(capsys, tmp_path):
    assert main(["wasserstein", "--p", "1"]) == 1  # missing positionals
    assert main(["nonsense"]) == 1
    bc = tmp_path / "x.bc"
    bc.write_text("0 1\n")
    assert main(["wasserstein", "--p", "zero", str(bc), str(bc)]) == 1
    assert main(["wasserstein", "--p", "0.5", str(bc), str(bc)]) == 1


def test_data_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.bc"
    bad.write_text("3 1\n")
    good = tmp_path / "ok.bc"
    good.write_text("0 1\n")
    assert main(["wasserstein", "--p", "1", str(bad), str(good)]) == 2
    assert main(["wasserstein", "--p", "1", str(tmp_path / "nope.bc"), str(good)]) == 2


def test_computation_failure_exit_code(files, capsys):
    code = main(["matchdist", "--p", "1", "--eps", "0.000001",
                 "--max-depth", "3", files["f.fpm"], files["g.fpm"]])
    assert code == 3


def test_bad_eps_and_max_depth_are_usage_errors(files, capsys):
    # a non-positive --eps or a negative --max-depth is a bad flag (exit 1,
    # naming it) like --eps abc, not a data error (2) or a failed
    # computation (3); --max-depth 0 (the root line only) stays valid
    pair = [files["f.fpm"], files["g.fpm"]]
    for command, flags in (("matchdist", ["--eps", "0.1", "--max-depth", "-1"]),
                           ("matchdist", ["--eps", "0.1", "--max-depth", "two"]),
                           ("matchdist", ["--eps", "-1"]),
                           ("matchdist", ["--eps", "0"]),
                           ("matchdist", ["--eps", "abc"]),
                           ("bounds", ["--eps", "-1/2"]),
                           ("bounds", ["--eps", "0.0"])):
        assert main([command, "--p", "inf"] + flags + pair) == 1, (command, flags)
        err = capsys.readouterr().err
        assert err.startswith("usage error") and flags[-2] in err, (command, flags)
    assert main(["matchdist", "--p", "inf", "--eps", "0.1", "--max-depth", "0"] + pair) == 3


def test_bad_counts_are_usage_errors(files, capsys):
    # each count flag is an integer with a least value: --rows at least 1,
    # --deg, --cols, --vertices and --bars at least 0.  Anything else is
    # a bad flag (exit 1, naming it), not randrange's message, a data
    # error or an empty fixture; the least values themselves stay valid.
    # gen's --params is 1 or 2 and its --field a prime, checked alike
    for command, flag, bad in ((["homology", files["x.cwf"]], "--deg", "-1"),
                               (["gen", "presentation"], "--rows", "0"),
                               (["gen", "presentation"], "--rows", "-1"),
                               (["gen", "pair"], "--cols", "-1"),
                               (["gen", "barcode"], "--bars", "-1"),
                               (["gen", "complex"], "--vertices", "-2"),
                               (["gen", "complex"], "--vertices", "2.5"),
                               (["gen", "presentation"], "--params", "0"),
                               (["gen", "complex"], "--params", "3"),
                               (["gen", "presentation"], "--field", "4"),
                               (["gen", "pair"], "--field", "1"),
                               (["gen", "complex"], "--field", "two")):
        assert main(command + [flag, bad]) == 1, (flag, bad)
        err = capsys.readouterr().err
        assert err.startswith("usage error") and flag in err, (flag, bad, err)
    for command, flag, least in ((["homology", files["x.cwf"]], "--deg", "0"),
                                 (["gen", "presentation"], "--rows", "1"),
                                 (["gen", "pair"], "--cols", "0"),
                                 (["gen", "barcode"], "--bars", "0"),
                                 (["gen", "complex"], "--vertices", "0"),
                                 (["gen", "presentation"], "--params", "1"),
                                 (["gen", "complex"], "--field", "3")):
        assert main(command + [flag, least]) == 0, (flag, least)
        capsys.readouterr()


def test_bad_p_at_and_line_are_usage_errors(files, capsys, tmp_path):
    # --p, --at and --line are checked as they are parsed: a bad value is
    # a usage error (exit 1) naming the flag, reported before any input
    # file is read, so a missing file does not mask it
    f, bc = files["f.fpm"], files["a.bc"]
    cases = [(["wasserstein", "--p", bad, bc, bc], "--p") for bad in ("1/2", "abc", "1/0")]
    for command, eps in (("labeldist", []), ("matchdist", ["--eps", "0.1"]),
                         ("bounds", ["--eps", "0.1"])):
        cases += [([command, "--p", bad] + eps + [f, f], "--p")
                  for bad in ("1/2", "abc", "1/0")]
    cases += [(["hilbert", "--at", "1,x", f], "--at"),
              (["hilbert", "--at", "2,2", "--at", "1/0,1", f], "--at"),
              (["hilbert", "--at", "1,x", str(tmp_path / "missing.fpm")], "--at"),
              (["barcode", "--line", "junk", f], "--line"),
              (["restrict", "--line", "junk", f], "--line"),
              (["restrict", "--line", "0,1;0,0", f], "--line")]
    for argv, flag in cases:
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("usage error") and flag in err, (argv, err)


def test_every_value_flag_has_a_type():
    # each option that takes a value is checked by its argparse type;
    # only the -o output paths are taken as typed
    parser = build_parser()
    [subs] = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    for command, sub in subs.choices.items():
        for action in sub._actions:
            if action.option_strings and action.nargs != 0 and "-o" not in action.option_strings:
                assert action.type is not None, (command, action.option_strings)


def test_library_value_errors_are_not_usage_errors(files, monkeypatch):
    # main reports only its own error types; a ValueError from the
    # library is a fault and propagates
    def broken(*args):
        raise ValueError("library fault")
    monkeypatch.setattr("mpm.cli.wasserstein", broken)
    with pytest.raises(ValueError, match="library fault"):
        main(["wasserstein", "--p", "1", files["a.bc"], files["b.bc"]])
