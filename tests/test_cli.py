import csv
import io
import json
import os
import pathlib
import shlex
import types

import pytest

from pgrouplab import bounds, cli
from pgrouplab.groups import cyclic, dihedral
from pgrouplab.groups.catalog import catalog, write_catalog
from pgrouplab.qcombin import galois_number

import exactoracle


def run(args, capsys):
    code = cli.main(args)
    out = capsys.readouterr().out
    return code, out


def test_census_command(capsys):
    code, out = run(["census", "--p", "2", "--k", "3"], capsys)
    assert code == 0
    assert out.strip().endswith("3/5")


def test_census_uncovered_order(capsys):
    code, out = run(["census", "--p", "7", "--k", "3"], capsys)
    assert code == 2
    assert "failures" in out


def test_census_with_user_catalog(tmp_path, capsys):
    cat = tmp_path / "mine.cat"
    write_catalog(str(cat), [("C8", cyclic(8), 2)])
    code, out = run(["census", "--p", "2", "--k", "3", "--catalog", str(cat)], capsys)
    assert code == 0
    assert out.strip().endswith("1/1")  # Aut(C8) is C2 x C2


def test_census_writes_csv_and_manifest(tmp_path, capsys):
    out_path = tmp_path / "census.csv"
    code, _ = run(["census", "--p", "2", "--k", "3", "--out", str(out_path)], capsys)
    assert code == 0
    lines = out_path.read_text().splitlines()
    assert lines[0] == "name,aut_order,is_p_group"
    assert len(lines) == 6
    manifest = json.loads((tmp_path / "census.csv.manifest.json").read_text())
    assert manifest["command"] == "census" and manifest["params"]["p"] == 2


def test_outputs_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["walk", "--p", "3", "--d", "1", "--a", "2", "--q", "1", "--n", "5",
         "--exact", "--out", str(a)], capsys)
    run(["walk", "--p", "3", "--d", "1", "--a", "2", "--q", "1", "--n", "5",
         "--exact", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


def test_walk_exact_csv_equals_independent_oracle_rows(tmp_path, capsys):
    out_csv = tmp_path / "walk.csv"
    code, _ = run(["walk", "--p", "7", "--d", "3", "--a", "1,2,0;0,1,3;4,0,1", "--n", "20",
                   "--exact", "--out", str(out_csv)], capsys)
    assert code == 0
    spec = types.SimpleNamespace(p=7, d=3, a_matrix=((1, 2, 0), (0, 1, 3), (4, 0, 1)), q_weight=1.0)
    want = io.StringIO(newline="")
    writer = csv.writer(want)
    writer.writerow(["n", "tv", "chi2_rhs", "ubthm_bound"])
    pairs = zip(exactoracle.rolled_steps(spec, 20), exactoracle.product_form_steps(spec, 20))
    for k, (dist, f) in enumerate(pairs):  # A is not diagonal: no bound column
        writer.writerow([k, f"{exactoracle.tv_distance(dist):.12g}",
                         f"{exactoracle.chi2_rhs(f):.12g}", ""])
    assert out_csv.read_bytes() == want.getvalue().encode()


def test_walk_exact_output(capsys):
    code, out = run(["walk", "--p", "3", "--d", "1", "--a", "2", "--q", "1",
                     "--n", "1", "--exact"], capsys)
    assert code == 0
    assert "TV 0.3333" in out


def test_walk_exact_csv_bound_column_matches_oracle(tmp_path, capsys):
    out_csv = tmp_path / "walk.csv"
    code, _ = run(["walk", "--p", "11", "--d", "2", "--a", "2,0;0,3", "--q", "0.5",
                   "--n", "30", "--exact", "--out", str(out_csv)], capsys)
    assert code == 0
    with open(out_csv, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [row["n"] for row in rows] == [str(k) for k in range(31)]
    want = [f"{exactoracle.ubthm_bound(11, 2, [2, 3], 0.5, k):.12g}" for k in range(31)]
    assert [row["ubthm_bound"] for row in rows] == want


def test_walk_mc_seeded(tmp_path, capsys):
    code, out = run(["walk", "--p", "3", "--d", "1", "--a", "2", "--q", "1", "--n", "3",
                     "--mc", "--trials", "2000", "--seed", "11"], capsys)
    assert code == 0 and out.startswith("TV")


def test_submod_command(capsys):
    code, out = run(["submod", "--alpha", "2", "--beta", "1", "--q", "2"], capsys)
    assert code == 0 and out.strip() == "3"
    code, out = run(["submod", "--alpha", "2", "--q", "2"], capsys)
    assert code == 0 and out.strip() == "5"


def test_lie_command(capsys):
    code, out = run(["lie", "--d", "2", "--n", "3", "--p", "2", "--witt"], capsys)
    assert code == 0 and out.strip() == "2"
    code, out = run(
        ["lie", "--d", "2", "--n", "4", "--p", "3", "--lyndon", "--triangularity"], capsys
    )
    assert code == 0 and "triangularity ok" in out


def test_orbits_command(tmp_path, capsys):
    out_path = tmp_path / "orbits.csv"
    code, out = run(["orbits", "--d", "2", "--p", "3", "--module", "wedge",
                     "--out", str(out_path)], capsys)
    assert code == 0
    assert "orbits=8" in out
    lines = out_path.read_text().splitlines()
    assert lines[0] == "action_id,orbit_index,size,stabilizer_order,regular"
    assert len(lines) == 9


def test_orbits_natural_module(capsys):
    code, out = run(["orbits", "--d", "2", "--p", "3", "--module", "natural"], capsys)
    assert code == 0 and out.strip() == "orbits=3 regular=0"


def test_orbits_unsafe_limits_keep_the_gl_guard(capsys):
    # every GL(d,p) above the guard has a permutation table above the permutation guard, so
    # orbits takes no --unsafe-limits: GL(3,5) is refused before enumeration
    code, out = run(["orbits", "--d", "3", "--p", "5", "--unsafe-limits"], capsys)
    assert code == 2
    assert json.loads(out) == {"failures": ["unrecognized arguments: --unsafe-limits"]}
    code, out = run(["orbits", "--d", "3", "--p", "5"], capsys)
    assert code == 2
    assert json.loads(out) == {"failures": ["GL(d,p) order 1488000 exceeds guard 1000000"]}


def test_unsafe_limits_only_on_the_commands_that_read_it():
    commands = next(a for a in cli.build_parser()._actions if a.dest == "command").choices
    options = {name: {s for a in sub._actions for s in a.option_strings if s not in ("-h", "--help")}
               for name, sub in commands.items()}
    assert {name for name, opts in options.items() if "--unsafe-limits" in opts} == {"census", "walk"}
    assert sum(len(opts) for opts in options.values()) == 40


def test_orbits_wedge_p2_writes_nothing_to_stderr(capsys):
    assert cli.main(["orbits", "--d", "2", "--p", "2", "--module", "wedge"]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out == "orbits=8 regular=0\n"


def test_manifest_records_the_guards_in_force(tmp_path):
    cat = tmp_path / "mine.cat"
    write_catalog(str(cat), [("C8", cyclic(8), 2)])
    census = ["census", "--p", "2", "--k", "3", "--catalog", str(cat)]
    walk = ["walk", "--p", "3", "--d", "1", "--a", "2", "--n", "2"]
    out_path = tmp_path / "out.csv"
    for argv, guard, default in ((census, "group_order", 256), (walk, "walk_states", 10**6)):
        for flag, want in (([], default), (["--unsafe-limits"], 10**12)):
            assert cli.main(argv + flag + ["--out", str(out_path)]) == 0
            assert json.loads((tmp_path / "out.csv.manifest.json").read_text())["guards"][guard] == want


def test_orbits_gl32_wedge(tmp_path, capsys):
    out_path = tmp_path / "orbits.csv"
    code, out = run(["orbits", "--d", "3", "--p", "2", "--module", "wedge",
                     "--out", str(out_path)], capsys)
    assert code == 0  # the Cauchy-Frobenius count agrees with the orbit census
    assert out.strip() == "orbits=68 regular=2"  # one orbit per group R/N, as tests/test_pcover.py checks
    rows = list(csv.reader(out_path.read_text().splitlines()))[1:]
    assert len(rows) == 68
    assert sum(int(r[2]) for r in rows) == galois_number(6, 2) == 2825
    assert all(int(r[2]) * int(r[3]) == 168 for r in rows)


def test_bounds_command(capsys):
    # limit1 is 1 plus a positive term: reported as a value, with an empty holds cell
    code, out = run(["bounds", "--kind", "limit1", "--p", "2,3", "--d", "17", "--n", "3"], capsys)
    assert code == 0
    rows = list(csv.reader(out.splitlines()))
    assert [r[:3] for r in rows] == [["2", "17", "3"], ["3", "17", "3"]]
    assert all(r[4] == "1" and float(r[5]) > 1 and r[6] == "" for r in rows)


def test_bounds_limit2_csv(tmp_path, capsys):
    out_path = tmp_path / "limit2.csv"
    code, _ = run(["bounds", "--kind", "limit2", "--p", "2,3,5", "--d", "3,10", "--n", "2,3",
                   "--out", str(out_path)], capsys)
    assert code == 0
    rows = list(csv.reader(out_path.read_text().splitlines()))[1:]
    assert [tuple(int(x) for x in r[:3]) for r in rows] == [
        (p, d, n) for p in (2, 3, 5) for d in (3, 10) for n in (2, 3)]
    for r in rows:
        p, d, n = (int(x) for x in r[:3])
        if (d, n) == (3, 2):
            assert r[3:] == ["", "", "", "", "warn:n = 2 requires d >= 10"]
            continue
        rep = bounds.limit2_bounds(p, d, n)
        assert r[4] == f"{rep.bound_a.value:.12g}"
        if (d, n) == (3, 3) or (p, d, n) == (2, 10, 2):
            assert rep.vacuous_b and r[5:] == ["", "False", "vacuous_b"]
        else:
            assert r[5] == f"{rep.bound_b.value:.12g}" and r[6:] == ["True", ""]
            assert float(r[4]) <= float(r[5])


def test_lie_expansion_writes_json(tmp_path, capsys):
    out_path = tmp_path / "lie.json"
    code, out = run(["lie", "--d", "3", "--n", "2", "--p", "3", "--expansion",
                     "--expansion-dim", "2", "--out", str(out_path)], capsys)
    assert code == 0 and out.strip() == "expansion dims 2 -> 6 ok=True"
    assert json.loads(out_path.read_text()) == {"expansion": True}


def test_bounds_dn_kind(capsys):
    code, out = run(["bounds", "--kind", "dn", "--p", "2", "--d", "17", "--n", "3"], capsys)
    assert code == 0 and "third=True" in out


def test_selftest(capsys):
    code, out = run(["selftest"], capsys)
    assert code == 0
    assert "FAIL" not in out


def test_census_outputs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(["census", "--p", "2", "--k", "3", "--out", str(a)], capsys)
    run(["census", "--p", "2", "--k", "3", "--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()
    assert (
        (tmp_path / "a.csv.manifest.json").read_bytes()
        == (tmp_path / "b.csv.manifest.json").read_bytes()
    )


def test_census_rejects_catalog_of_another_order(tmp_path, capsys):
    # |Aut(C2)| = 1 = 3^0, so without the check this would print 1/1
    cat = tmp_path / "c2.cat"
    write_catalog(str(cat), [("C2", cyclic(2), 2)])
    for argv in (["--p", "3", "--k", "1"], ["--p", "2", "--k", "2"]):
        code, out = run(["census"] + argv + ["--catalog", str(cat)], capsys)
        assert code == 2
        assert "not order" in json.loads(out.strip().splitlines()[-1])["failures"][0]


def _truncated_catalog(tmp_path):
    # the header promises eight table rows; only five follow
    path = tmp_path / "truncated.cat"
    write_catalog(str(path), [("D8", dihedral(8), 2)])
    path.write_text("".join(path.read_text().splitlines(keepends=True)[:6]))
    return str(path)


@pytest.mark.parametrize("args", [
    ["walk", "--a", "1,2;3", "--d", "2", "--p", "5", "--n", "3"],
    ["walk", "--p", "4", "--d", "2", "--a", "2", "--n", "3"],
    ["census", "--p", "2", "--k", "3", "--catalog", "TRUNCATED"],
    ["bounds", "--kind", "nope"],
    ["orbits", "--d", "2", "--p", "3", "--module", "nope"],
    ["walk", "--p", "5", "--d", "2", "--a", "2", "--n", "3", "--mode", "nope"],
    ["walk", "--p", "5", "--d", "2", "--a", "2", "--n", "3", "--exact", "--mc"],
    ["walk", "--p", "5", "--d", "2", "--a", "2"],
    ["walk", "--p", "5", "--d", "2", "--a", "2", "--n", "-1", "--exact"],
    ["walk", "--p", "5", "--d", "2", "--a", "2", "--n", "-1", "--mc"],
    ["walk", "--p", "5", "--d", "2", "--a", "2", "--n", "100001", "--mc", "--trials", "1"],
    ["orbits", "--d", "0", "--p", "2"],
    ["orbits", "--d", "2", "--p", "4"],
    ["census", "--p", "abc", "--k", "3"],
    ["nosuch"],
    ["census", "--p", "2", "--k", "3", "--catalog", "MISSING/x.cat"],
    ["census", "--p", "2", "--k", "3", "--out", "MISSING/x.csv"],
    ["bounds", "--kind", "limit1", "--p", "4", "--d", "6", "--n", "3"],
    ["bounds", "--kind", "limit2", "--p", "2,6", "--d", "6", "--n", "3"],
    ["bounds", "--kind", "limit1", "--p", "2", "--d", "6", "--n", "1"],
    ["bounds", "--kind", "dn", "--d", "0", "--n", "3"],
    ["bounds", "--kind", "dn", "--d", "5", "--n", ""],
    ["lie", "--d", "2", "--n", "3", "--p", "4", "--triangularity"],
    ["lie", "--d", "2", "--n", "3", "--p", "1", "--triangularity"],
    ["lie", "--d", "3", "--n", "2", "--p", "6", "--expansion"],
    ["lie", "--d", "3", "--n", "3", "--p", "5", "--expansion", "--expansion-dim", "-4"],
])
def test_malformed_input_exits_2_with_failure_list(tmp_path, capsys, args):
    args = [_truncated_catalog(tmp_path) if a == "TRUNCATED" else a for a in args]
    args = [a.replace("MISSING", str(tmp_path / "missing")) for a in args]
    code, out = run(args, capsys)
    assert code == 2
    failures = json.loads(out.strip().splitlines()[-1])["failures"]
    assert isinstance(failures, list) and failures


def test_walk_mc_warns_on_stderr_when_trials_are_fewer_than_states(tmp_path, capsys):
    # p = 11, d = 2 has 121 states; 50 trials cannot resolve the distribution
    args = ["walk", "--p", "11", "--d", "2", "--a", "2", "--n", "5", "--mc", "--seed", "3"]
    assert cli.main(args + ["--trials", "50", "--out", str(tmp_path / "few.csv")]) == 0
    few = capsys.readouterr()
    assert "warning: 50 trials for 121 states" in few.err
    assert len(few.out.splitlines()) == 1 and few.out.startswith("TV ")
    assert cli.main(args + ["--trials", "121", "--out", str(tmp_path / "enough.csv")]) == 0
    enough = capsys.readouterr()
    assert enough.err == "" and enough.out.startswith("TV ")


def test_readme_command_line_examples_run(tmp_path, monkeypatch, capsys):
    readme = pathlib.Path(__file__).resolve().parent.parent / "README.md"
    block = readme.read_text().split("## Command line", 1)[1].split("```")[1]
    lines = [ln for ln in block.splitlines() if ln.startswith("pgrouplab ")]
    assert lines
    monkeypatch.chdir(tmp_path)
    write_catalog("my.cat", [(name, g, 2) for name, g in catalog(2, 3)])
    for line in lines:
        command, _, expected = line.partition("# -> ")
        code, out = run(shlex.split(command, comments=True)[1:], capsys)
        assert code == 0, line
        if expected:
            assert out.splitlines()[-1] == expected.strip(), line
