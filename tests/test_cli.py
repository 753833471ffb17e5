from fractions import Fraction
from pathlib import Path

import pytest

from tautrel.cli import main
from tautrel.gwi import format_sum, parse_graph, parse_sum
from tautrel.graphs import symmetrize
from tautrel.relations import RelationRegistry
from tautrel.sums import FormalSum

from conftest import reference_normal_coords

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parents[1] / "src" / "tautrel" / "data" / "getzler_g1n4k2.gwi"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_nine_orbits(capsys):
    code, out, _ = run(
        capsys, "enumerate", "-g", "1", "-n", "4", "-k", "2",
        "--boundary-only", "--symmetrize",
    )
    lines = [l for l in out.splitlines() if l]
    assert code == 0
    assert lines[-1] == "COUNT 9"
    assert len(lines) == 10
    for l in lines[:-1]:
        parse_graph(l)


def test_enumerate_three_divisors(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "0", "-n", "4", "-k", "1", "--boundary-only")
    assert code == 0
    assert out.splitlines()[-1] == "COUNT 3"


def test_enumerate_empty(capsys):
    code, out, _ = run(capsys, "enumerate", "-g", "0", "-n", "3", "-k", "1")
    assert code == 0
    assert out.splitlines() == ["COUNT 0"]


def test_enumerate_invalid_exit_2(capsys):
    code, _, err = run(capsys, "enumerate", "-g", "0", "-n", "2", "-k", "1")
    assert code == 2
    assert "error" in err


def test_enumerate_boundary_only_excludes_kappa(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "-g", "0", "-n", "4", "-k", "1", "--boundary-only", "--kappa"])
    assert exc.value.code == 2
    assert "not allowed with argument --boundary-only" in capsys.readouterr().err


def test_unwritable_out_exit_2(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    code, _, err = run(capsys, "find", "-g", "0", "-n", "4", "-k", "1", "--out", str(taken))
    assert code == 2
    assert err.startswith("error: ")
    code, _, err = run(capsys, "enumerate", "-g", "0", "-n", "4", "-k", "1", "--out", str(tmp_path))
    assert code == 2
    assert err.startswith("error: ")


def test_find_recovers_golden_equation(tmp_path, capsys):
    code, out, _ = run(
        capsys, "find", "-g", "1", "-n", "4", "-k", "2",
        "--boundary-only", "--out", str(tmp_path), "--lmax", "1",
    )
    assert code == 0
    assert "NULLSPACE dim=2" in out
    assert "TRIVIAL dim=1" in out
    assert "NEW 1" in out
    files = sorted(tmp_path.glob("candidate_*.gwi"))
    assert len(files) == 1
    got = parse_sum(files[0].read_text().strip())
    golden = parse_sum(GOLDEN.read_text().strip())
    lead, coeff = golden.terms()[0]
    ratio = got.coefficient(lead) / coeff
    assert ratio and got == golden.scale(ratio)


def test_find_report_has_rows_and_provenance(tmp_path, capsys):
    code, out, _ = run(
        capsys, "find", "-g", "1", "-n", "4", "-k", "2",
        "--boundary-only", "--out", str(tmp_path), "--lmax", "1",
    )
    assert code == 0
    rows = [l for l in out.splitlines() if l.startswith("ROW ")]
    assert rows and all("l=1" in r and "(" in r for r in rows)


def test_check_golden_equation(capsys):
    code, out, _ = run(capsys, "check", str(GOLDEN))
    assert code == 0
    assert "l=1 ZERO" in out and "l=2 ZERO" in out


def test_check_top_codimension_vacuous(tmp_path, capsys):
    f = tmp_path / "g1trr.gwi"
    f.write_text("<1^1>_1 - 1/24*<1 e0 e0>_0\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 0
    assert "vacuously" in out


def test_check_forced_lmax_zero_is_not_top_codimension(capsys):
    # the golden class has codimension 2 of 4: only --lmax 0 empties the range
    code, out, _ = run(capsys, "check", str(GOLDEN), "--lmax", "0")
    assert code == 0
    assert out == "l-range empty (--lmax 0): vacuously invariant\n"


@pytest.mark.parametrize("argv", [
    ["find", "-g", "0", "-n", "5", "-k", "1", "--lmax", "-1"],
    ["check", str(GOLDEN), "--lmax", "-2"],
])
def test_negative_lmax_exit_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv + (["--out", str(tmp_path)] if argv[0] == "find" else []))
    out = capsys.readouterr()
    assert exc.value.code == 2
    assert out.out == "" and "--lmax: %s is negative" % argv[-1] in out.err
    assert not list(tmp_path.iterdir())


def test_check_perturbed_fails(tmp_path, capsys):
    golden = parse_sum(GOLDEN.read_text().strip())
    lead, _ = golden.terms()[0]
    perturbed = golden + FormalSum.single(lead, Fraction(1))
    f = tmp_path / "perturbed.gwi"
    f.write_text(format_sum(perturbed) + "\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    assert "NONZERO" in out and "RESIDUAL" in out


def test_check_bad_file_exit_2(tmp_path, capsys):
    f = tmp_path / "bad.gwi"
    f.write_text("<1 2 e0>_0\n")  # unpaired internal name
    code, _, err = run(capsys, "check", str(f))
    assert code == 2


@pytest.mark.parametrize("text", [
    "<1 2 3 4>_0 + <1 2 e0>_0 <3 4 e0>_0",  # codimensions 0 and 1
    "<1 2 3 4>_0 + <1 2 3 5>_0",  # label sets {1,2,3,4} and {1,2,3,5}
])
def test_check_inhomogeneous_exit_2(tmp_path, capsys, text):
    f = tmp_path / "mixed.gwi"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 2
    assert "mixed" in err and "(0, (1, 2, 3, 4)," in err
    assert "vacuously" not in out


@pytest.mark.parametrize("text", [
    "<1 2 3>_0 <4 5 6>_0",  # total genus -1 by the closed form
    "<1 e0 e0>_1 <2 3 4>_0",  # read as if on (1,4,1)
])
def test_check_refuses_disconnected_term_exit_2(tmp_path, capsys, text):
    f = tmp_path / "product.gwi"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "check", str(f))
    assert code == 2
    assert "not connected" in err and format_sum(parse_sum(text)) in err
    assert "l=" not in out and "vacuously" not in out


def test_reduce_trivial_combination_prints_zero(tmp_path, capsys):
    # the known-trivial direction of the four-point genus-1 ambient
    reps = {
        5: "<1 2 3 e0>_0 <4 e0 e1 e1>_0",
        6: "<1 2 3 4 e0>_0 <e0 e1 e1>_0",
        7: "<1 2 e0 e1>_0 <3 4 e0 e1>_0",
        8: "<1 2 e0>_0 <3 4 e0 e1 e1>_0",
        9: "<1 e0 e1>_0 <2 3 4 e0 e1>_0",
    }
    coeff = {5: Fraction(-1), 6: Fraction(-1, 2), 7: Fraction(1), 8: Fraction(-1, 2), 9: Fraction(1)}
    T = FormalSum()
    for i, s in reps.items():
        T = T + symmetrize(parse_graph(s), {1, 2, 3, 4}).scale(coeff[i])
    f = tmp_path / "t.gwi"
    f.write_text(format_sum(T) + "\n")
    code, out, _ = run(capsys, "reduce", str(f))
    assert code == 0
    assert out.strip() == "ZERO"


def test_reduce_single_stratum_is_normal(tmp_path, capsys):
    f = tmp_path / "s.gwi"
    f.write_text("<1 2 e0>_0 <3 4 e0>_0\n")
    code, out, _ = run(capsys, "reduce", str(f))
    assert code == 0
    got = parse_sum(out.strip())
    reg = RelationRegistry()
    assert reg.normal_form(got - parse_sum("<1 2 e0>_0 <3 4 e0>_0")).is_zero()


def test_reduce_reads_lines_as_one_sum_and_skips_indented_comments(tmp_path, capsys):
    one = tmp_path / "one.gwi"
    one.write_text("<1 2 e0>_0 <3 4 e0>_0 - 1/2*<1 3 e0>_0 <2 4 e0>_0\n")
    split = tmp_path / "split.gwi"
    split.write_text("  # an indented comment\n<1 2 e0>_0 <3 4 e0>_0\n\n-1/2*<1 3 e0>_0 <2 4 e0>_0\n")
    code, out, _ = run(capsys, "reduce", str(one))
    assert code == 0
    assert run(capsys, "reduce", str(split)) == (0, out, "")


def test_reduce_keeps_each_label_set(tmp_path, capsys):
    # D(12|34) once on {1,2,3,4} and twice on {1,2,3,5}: reduce takes
    # no label set for another, though the three terms share a size
    text = "<1 2 e0>_0 <3 4 e0>_0 + <1 3 e0>_0 <2 5 e0>_0 + <1 5 e0>_0 <2 3 e0>_0"
    f = tmp_path / "mixed.gwi"
    f.write_text(text + "\n")
    code, out, _ = run(capsys, "reduce", str(f))
    assert code == 0
    got = parse_sum(out.strip())
    reg = RelationRegistry()
    assert reference_normal_coords(reg, got.items()) == reference_normal_coords(reg, parse_sum(text).items())
    assert {g.external_labels() for g, _ in got.items()} == {(1, 2, 3, 4), (1, 2, 3, 5)}


def test_reduce_expresses_class_over_basis(tmp_path, capsys):
    # the first five-vector class rewritten over the basis classes
    v1 = symmetrize(parse_graph("<3 4 e0>_0 <5 e1 e1 e0>_0"), {3, 4})
    f = tmp_path / "v1.gwi"
    f.write_text(format_sum(v1) + "\n")
    code, out, _ = run(capsys, "reduce", str(f))
    assert code == 0
    got = parse_sum(out.strip())
    reg = RelationRegistry()
    assert reg.normal_form(got - v1).is_zero()
    assert got != v1  # genuinely rewritten into basis classes


def test_missing_registry_dir_exit_2(capsys, tmp_path):
    # only the commands that reduce modulo relations need the root
    f = tmp_path / "s.gwi"
    f.write_text("<1 2 e0>_0 <3 4 e0>_0\n")
    code, _, err = run(capsys, "--registry", str(tmp_path / "nope"), "reduce", str(f))
    assert code == 2
    code, _, _ = run(
        capsys, "--registry", str(tmp_path / "nope"),
        "enumerate", "-g", "0", "-n", "4", "-k", "1",
    )
    assert code == 0


# both commands read the registry file of (0,4,1): reduce for the
# class itself, check for the operator image of a (0,5,1) divisor
@pytest.mark.parametrize("command, text", [
    ("reduce", "<1 2 e0>_0 <3 4 e0>_0"),
    ("check", "<1 2 e0>_0 <3 4 5 e0>_0"),
])
@pytest.mark.parametrize("registry_text, message", [
    ("1 2 3 4>_0\n", "g0n4k1.gwi:1: expected '<'"),
    ("# convention: upside-down\n<1 2 e0>_0 <3 4 e0>_0\n", "unknown convention 'upside-down'"),
])
def test_bad_registry_file_exit_2(tmp_path, capsys, command, text, registry_text, message):
    reg = tmp_path / "reg"
    reg.mkdir()
    (reg / "g0n4k1.gwi").write_text(registry_text)
    f = tmp_path / "s.gwi"
    f.write_text(text + "\n")
    code, _, err = run(capsys, "--registry", str(reg), command, str(f))
    assert code == 2
    assert err.startswith("error: ") and message in err


# an imported (0,5,1) relation with a term of codimension 0, of genus 1
# (and four labels), or of codimension 2 is bad input, named by its line
@pytest.mark.parametrize("relation", [
    "<1 2 3 4 5>_0",
    "<1 2 3 e0>_0 <4 e0>_1",
    "<1 2 e0>_0 <3 e0 e1>_0 <4 5 e1>_0 - <1 3 e0>_0 <2 e0 e1>_0 <4 5 e1>_0",
    "<1 e0>_0 <e0 2 3 4 5>_0",  # an unstable two-valent vertex
])
def test_registry_relation_outside_ambient_exit_2(tmp_path, capsys, relation):
    reg = tmp_path / "reg"
    reg.mkdir()
    (reg / "g0n5k1.gwi").write_text("# provenance: imported\n%s\n" % relation)
    f = tmp_path / "s.gwi"
    f.write_text("<1 2 e0>_0 <3 4 5 e0>_0\n")
    code, out, err = run(capsys, "--registry", str(reg), "reduce", str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and "g0n5k1.gwi:2: " in err
    assert "is outside the ambient (g,n,k)=(0, 5, 1)" in err


# a zero denominator is bad input, in the file read and in a registry
# file (check reads (0,4,1) for the image of a (0,5,1) divisor)
DIVISOR = "<1 2 e0>_0 <3 4 5 e0>_0"


@pytest.mark.parametrize("command, registry_files, text, where", [
    ("check", {}, "1/0*" + DIVISOR, "s.gwi:1: "),
    ("reduce", {}, "1/0*" + DIVISOR, "s.gwi:1: "),
    ("check", {"g0n4k1.gwi": "1/0*<1 2 e0>_0 <3 4 e0>_0"}, DIVISOR, "g0n4k1.gwi:2: "),
    ("reduce", {"g0n5k1.gwi": "1/0*" + DIVISOR}, DIVISOR, "g0n5k1.gwi:2: "),
])
def test_zero_denominator_exit_2(tmp_path, capsys, command, registry_files, text, where):
    reg = tmp_path / "reg"
    reg.mkdir()
    for name, line in registry_files.items():
        (reg / name).write_text("# provenance: imported\n%s\n" % line)
    f = tmp_path / "s.gwi"
    f.write_text(text + "\n")
    code, out, err = run(capsys, "--registry", str(reg), command, str(f))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and where + "zero denominator" in err


def test_check_zero_sum_is_vacuous(tmp_path, capsys):
    f = tmp_path / "zero.gwi"
    f.write_text("0\n")
    code, out, _ = run(capsys, "check", str(f))
    assert (code, out) == (0, "EMPTY (zero sum is vacuously invariant)\n")


def test_registry_zero_relation_is_dropped(tmp_path, capsys):
    reg = tmp_path / "reg"
    reg.mkdir()
    (reg / "g0n5k1.gwi").write_text("<1 2 e0>_0 <3 4 5 e0>_0 - <1 2 e0>_0 <3 4 5 e0>_0\n")
    f = tmp_path / "s.gwi"
    f.write_text("<1 2 e0>_0 <3 4 5 e0>_0\n")
    expected = run(capsys, "reduce", str(f))
    assert expected[0] == 0
    assert run(capsys, "--registry", str(reg), "reduce", str(f)) == expected


# (1,4,2) needs imported relations, a genus-2 factor has none at all
@pytest.mark.parametrize("argv, text", [
    (["find", "-g", "2", "-n", "2", "-k", "2", "--boundary-only"], None),
    (["check"], "<1 2 3 e0>_1 <e0>_1"),
    (["reduce"], "<1 2>_2"),
])
def test_missing_inductive_data_exit_3(tmp_path, capsys, argv, text):
    if text is None:
        argv = argv + ["--out", str(tmp_path)]
    else:
        f = tmp_path / "s.gwi"
        f.write_text(text + "\n")
        argv = argv + [str(f)]
    code, out, err = run(capsys, *argv)
    assert code == 3
    assert err.startswith("error: inductive data missing")
    assert out == ""


@pytest.mark.parametrize("texts, named", [
    # both genus-2 components lack data: the first in the canonical
    # graph's component order is named, however the input lists them
    (
        ("<1 3^1 4 e0 e0>_1 <2^1 e1 e1^1>_1", "<2^1 e1 e1^1>_1 <1 3^1 4 e0 e0>_1"),
        "(2, 3, 2): genus >= 2 factor",
    ),
    # both terms lack data: the first in sort_key order is named
    (
        ("<1 2 3^1>_2 + <1 2 3 e0 e0>_1", "<1 2 3 e0 e0>_1 + <1 2 3^1>_2"),
        "(2, 3, 1): genus >= 2 factor",
    ),
])
def test_refusal_names_first_lacking_data(tmp_path, capsys, texts, named):
    f = tmp_path / "s.gwi"
    for text in texts:
        f.write_text(text + "\n")
        code, out, err = run(capsys, "reduce", str(f))
        assert (code, out) == (3, "")
        assert err == "error: inductive data missing for (g,n,k)=%s\n" % named


def test_check_coord_lines_name_their_basis_class(tmp_path, capsys):
    f = tmp_path / "s.gwi"
    f.write_text("<1^1 2 3 4 5>_0\n")
    code, out, _ = run(capsys, "check", str(f))
    assert code == 1
    coords = [l for l in out.splitlines() if l.startswith("  COORD ")]
    assert len(coords) == 12
    assert len(set(coords)) == 12
    for line in coords:
        _, amb, rest = line.split(None, 2)
        cls, coeff = rest.rsplit(" ", 1)
        assert amb == "(0,4,1)x(0,3,0)" and coeff == "-1/2"
        parse_graph(cls)


def test_discover_steps_same_with_warm_registry(tmp_path, capsys, monkeypatch):
    # the second pass over the same registry loads every table from
    # tables/ and must print and write exactly what the first did
    import tautrel.relations

    reg = tmp_path / "registry"
    reg.mkdir()
    passes, tables = [], []
    for i in (1, 2):
        work = tmp_path / ("pass%d" % i)
        steps = [
            ["find", "-g", "1", "-n", "4", "-k", "2", "--boundary-only", "--out", str(work / "out1")],
            ["find", "-g", "1", "-n", "4", "-k", "2", "--out", str(work / "out2")],
            ["check", str(work / "out1" / "candidate_g1n4k2_1.gwi")],
        ]
        runs = [run(capsys, "--registry", str(reg), *argv) for argv in steps]
        files = sorted((p.relative_to(work), p.read_bytes()) for p in work.rglob("*.gwi"))
        passes.append(([(code, out.replace(str(work), "$W"), err) for code, out, err in runs], files))
        tables.append({p.name: p.read_bytes() for p in (reg / "tables").iterdir()})
        # no table may be rebuilt in the second pass
        monkeypatch.setattr(tautrel.relations, "enumerate_classes", None)
    assert [code for code, _, _ in passes[0][0]] == [0, 0, 0]
    assert len(passes[0][1]) == 2 and passes[0] == passes[1]
    assert len(tables[0]) == 14 and tables[0] == tables[1]
