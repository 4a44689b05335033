import hashlib
import json
import warnings
from math import comb

from rainbowramsey import asymptotics, colorings, lubell, posets, search
from rainbowramsey.cli import main
from rainbowramsey.lattice import Family


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_rainbow_subcommand(capsys):
    code, out = run_cli(capsys, "rainbow", "--p", "C2", "--q", "C3",
                        "--mode", "weak", "--n-cap", "3")
    assert code == 0
    obj = json.loads(out)
    assert obj["result"]["value"] == 2
    assert obj["result"]["witness"]["n"] == 1
    assert "result_digest" in obj["manifest"]


def test_result_body_is_deterministic(capsys):
    _, out1 = run_cli(capsys, "two-color", "--n", "8", "--objective", "mass")
    _, out2 = run_cli(capsys, "two-color", "--n", "8", "--objective", "mass")
    a, b = json.loads(out1), json.loads(out2)
    assert a["result"] == b["result"]
    assert a["manifest"]["result_digest"] == b["manifest"]["result_digest"]


def test_ramsey_and_threshold(capsys):
    code, out = run_cli(capsys, "ramsey", "--p", "C3", "--p", "C3", "--n-cap", "4")
    assert code == 0 and json.loads(out)["result"]["value"] == 4
    code, out = run_cli(capsys, "threshold", "--n", "4", "--k", "2", "--partial")
    assert code == 0 and json.loads(out)["result"]["value"] == 4


def test_fork_csv_format(capsys):
    code, out = run_cli(capsys, "fork", "--which", "g", "--r", "5", "--k", "1",
                        "--format", "csv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "problem,value,method"
    assert lines[1].startswith("g_1(5),3")
    assert lines[-1].startswith("# manifest:")


def test_lubell_family_file(tmp_path, capsys):
    fam = Family.make(4, [0, 0b0011, 0b1111])
    path = tmp_path / "fam.txt"
    path.write_text(fam.to_text())
    code, out = run_cli(capsys, "lubell", "--family", str(path))
    assert code == 0
    assert json.loads(out)["result"]["value"] == "13/6"
    code, out = run_cli(capsys, "lubell", "--family", str(path), "--residual")
    assert json.loads(out)["result"]["value"] == "0/1"


def test_corechain_subcommand(tmp_path, capsys):
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    f1.write_text(Family.make(3, [0b001, 0b111]).to_json())
    f2.write_text(Family.make(3, [0b011]).to_json())
    code, out = run_cli(capsys, "corechain", "--family", str(f1), "--family", str(f2))
    assert code == 0
    obj = json.loads(out)["result"]
    assert obj["valid"] and obj["chain"][0] == 0 and obj["chain"][-1] == 7


def test_coloring_gen_check_pipeline(tmp_path, capsys):
    code, gen_out = run_cli(capsys, "coloring", "gen", "--kind", "g2-lower", "--n", "8")
    assert code == 0
    path = tmp_path / "col.json"
    path.write_text(json.dumps(json.loads(gen_out)["result"]["coloring"]))
    code, out = run_cli(capsys, "coloring", "check", "--coloring", str(path),
                        "--p", "C3", "--q", "A2", "--mode", "strong")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["avoided"] is False and "mono_copy" in res
    # the same coloring is a valid (C2 strong, A2 strong) witness: comparable classes
    code, out = run_cli(capsys, "coloring", "check", "--coloring", str(path),
                        "--p", "C2", "--q", "A2", "--mode", "strong")
    res = json.loads(out)["result"]
    assert res["avoided"] is False  # mono strong C2 exists inside a class
    code, out = run_cli(capsys, "coloring", "check", "--coloring", str(path),
                        "--p", "A3", "--q", "A2", "--mode", "strong")
    res = json.loads(out)["result"]
    assert "rainbow_copy" not in res  # classes mutually comparable: no rainbow A2


def test_coloring_check_rr_lower_pins(tmp_path, capsys):
    # levels of B_9 in five classes of two: a mono C2 in every class, no
    # mono C3, no rainbow strong A5, a rainbow strong A4
    _, gen_out = run_cli(capsys, "coloring", "gen", "--kind", "rr-lower", "--e", "2", "--q", "6")
    path = tmp_path / "col.json"
    path.write_text(json.dumps(json.loads(gen_out)["result"]["coloring"]))
    expected = {
        ("C2", "A5"): (False, "f1fd9d783b2f8d7c5a9064fc92ffe9b58c0e52c4774209d74e65f39e80d2c0a6"),
        ("C3", "A5"): (True, "15db360c4d11d30401085787837261e4c0bce582bd20796a0e95406961ae5e3c"),
        ("C3", "A4"): (False, "6f9980cffa07dc8acd8dd3c80486e42b4f922eebbd8e70144c667e0a30885afa"),
    }
    for (p, q), (avoided, digest) in expected.items():
        code, out = run_cli(capsys, "coloring", "check", "--coloring", str(path),
                            "--p", p, "--q", q, "--mode-q", "strong")
        obj = json.loads(out)
        assert code == 0 and obj["result"]["avoided"] is avoided
        text = json.dumps(obj["result"], sort_keys=True, separators=(",", ":"))
        assert hashlib.sha256(text.encode()).hexdigest() == digest
        assert obj["manifest"]["result_digest"] == digest


def test_input_files_are_closed(tmp_path, capsys):
    fam_path = tmp_path / "fam.txt"
    fam_path.write_text(Family.make(3, [0, 0b011]).to_text())
    _, gen_out = run_cli(capsys, "coloring", "gen", "--kind", "g2-lower", "--n", "4")
    col_path = tmp_path / "col.json"
    col_path.write_text(json.dumps(json.loads(gen_out)["result"]["coloring"]))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert run_cli(capsys, "lubell", "--family", str(fam_path))[0] == 0
        assert run_cli(capsys, "coloring", "check", "--coloring", str(col_path),
                       "--p", "C3", "--q", "A2")[0] == 0
    assert not [w for w in caught if issubclass(w.category, ResourceWarning)]


def test_thin_antichain_and_constants(capsys):
    code, out = run_cli(capsys, "thin-antichain", "--n", "10")
    assert code == 0 and json.loads(out)["result"]["size"] == 8
    code, out = run_cli(capsys, "constants", "--k-max", "4", "--format", "csv")
    assert code == 0 and out.splitlines()[0] == "k,c_k,residual"


def test_inequalities_subcommand(capsys):
    code, out = run_cli(capsys, "inequalities", "--check", "tech-a")
    assert code == 0
    res = json.loads(out)["result"]["checks"][0]
    assert res["max_violation"] <= 1e-12


def test_repro_subcommand(capsys):
    code, out = run_cli(capsys, "repro", "subcube-mass")
    assert code == 0
    res = json.loads(out)["result"]
    assert res["passed"] is True and res["criterion"] == 1


def test_exit_codes(capsys):
    assert main(["nonsense"]) == 1
    assert main(["ramsey"]) == 1  # missing required --p
    code, out = run_cli(capsys, "ramsey", "--p", "C3", "--p", "C3",
                        "--n-cap", "4", "--budget", "10")
    assert code == 2  # budget exhaustion: partial result, exit 2
    assert json.loads(out)["result"]["budget_exhausted"] is True
    # stopped in n = 0: nothing certified, so no value
    code, out = run_cli(capsys, "rainbow", "--p", "C3", "--q", "C3",
                        "--n-cap", "4", "--budget", "0")
    res = json.loads(out)["result"]
    assert code == 2 and res["value"] is None and res["witness"] is None


def test_out_file(tmp_path, capsys):
    path = tmp_path / "result.json"
    code, out = run_cli(capsys, "fork", "--which", "g", "--r", "9", "--k", "2",
                        "--out", str(path))
    assert code == 0 and out == ""
    assert json.loads(path.read_text())["result"]["value"] == 6


def test_two_color_sweep_csv(capsys):
    code, out = run_cli(capsys, "two-color", "--n", "8", "--objective", "size",
                        "--sweep", "10", "--format", "csv")
    assert code == 0
    lines = [ln for ln in out.splitlines() if not ln.startswith("#")]
    assert lines[0] == "n,value,float"
    assert lines[1].startswith("8,16") and lines[3].startswith("10,32")


def test_repro_registry_covers_all_criteria_one_to_one():
    from rainbowramsey.criteria import REGISTRY
    numbers = sorted(num for num, _fn in REGISTRY.values())
    assert numbers == list(range(1, 15))


def test_lubell_residual_past_enumeration_range(tmp_path, capsys):
    # n = 9..20 goes to the max-partition dp; past n = 20 it is refused
    path = tmp_path / "fam.txt"
    path.write_text("n=9\n1\n1,2\n3,4,5\n")
    code, out = run_cli(capsys, "lubell", "--family", str(path), "--residual")
    assert code == 0
    assert json.loads(out)["result"] == {"problem": "max-partition residual (n=9)",
                                         "value": "0/1"}
    path.write_text("n=21\n1\n")
    assert main(["lubell", "--family", str(path), "--residual"]) == 1


def test_search_flags_only_where_read(capsys):
    # --budget and --n-cap belong to the subcommands that read them
    assert main(["threshold", "--n", "3", "--k", "2", "--n-cap", "99", "--budget", "1"]) == 1
    assert main(["two-color", "--n", "4", "--budget", "1"]) == 1
    assert main(["lubell", "--subcube", "4", "1", "1", "--n-cap", "2"]) == 1
    # k = 2 reads the budget as k = 3 does: F(3,2) takes 20 nodes
    for budget in ("0", "1"):
        code, out = run_cli(capsys, "threshold", "--n", "3", "--k", "2", "--budget", budget)
        result = json.loads(out)["result"]
        assert code == 2 and result["budget_exhausted"], budget
        assert result["checked"] == {"n_min": 3, "n_max": 2}, budget
    code, out = run_cli(capsys, "threshold", "--n", "3", "--k", "2", "--budget", "20")
    result = json.loads(out)["result"]
    assert code == 0 and (result["value"], result["nodes"]) == (3, 20)
    code, out = run_cli(capsys, "fork", "--which", "f", "--r", "2", "--k", "1",
                        "--n-cap", "3", "--budget", "1000")
    assert code == 0


def test_malformed_input_files_are_errors(tmp_path, capsys):
    # empty or blank text, JSON whose colors / sets are not lists, whose n
    # is not a number or that is not an object, and a result that is not
    # an object end in an error line, not a traceback
    path = tmp_path / "in.txt"
    cases = [("coloring", ""), ("coloring", "  \n\n"), ("coloring", '{"n": 2, "colors": 5}'),
             ("coloring", '{"n": 2, "colors": [5], "total": false}'),
             ("coloring", '{"n": null, "colors": [[0, 0]], "total": false}'),
             ("coloring", '{"n": 2, "colors": [[null, 0]], "total": false}'),
             ("coloring", '{"result": 5}'), ("coloring", '{"result": {"coloring": 5}}'),
             ("family", '{"n": 2, "sets": 5}'), ("family", ""),
             ("family", '{"n": null, "sets": [1]}'),
             # a float, bool or string where an integer is expected, a
             # total that is not a JSON boolean or a COL v1 total= other
             # than 0 or 1, none read as the integer or boolean it resembles
             ("coloring", '{"n": 2.9, "total": false, "colors": [[1.7, 0], [2, 1]]}'),
             ("coloring", '{"n": 2, "total": false, "colors": [[1, 0.5]]}'),
             ("coloring", '{"n": 2, "total": false, "colors": [[true, 0]]}'),
             ("coloring", '{"n": "2", "total": false, "colors": [[1, 0]]}'),
             ("coloring", '{"n": 1, "total": "no", "colors": [[0, 0], [1, 0]]}'),
             ("coloring", '{"n": 1, "total": 1, "colors": [[0, 0], [1, 0]]}'),
             ("coloring", "n=1 total=yes\n0 0\n1 0\n"),
             ("family", '{"n": 3.99, "sets": [7.5]}'), ("family", '{"n": 3, "sets": [true]}'),
             ("family", '{"n": 3, "sets": ["7"]}')]
    for kind, text in cases:
        path.write_text(text)
        if kind == "coloring":
            argv = ["coloring", "check", "--coloring", str(path), "--p", "C2", "--q", "A2"]
        else:
            argv = ["lubell", "--family", str(path)]
        assert main(argv) == 1, (kind, text)
        assert capsys.readouterr().err.startswith("error:"), (kind, text)


def test_fork_g_refuses_search_flags(capsys):
    # --which g is a formula: a budget or a size cap would be ignored
    assert main(["fork", "--which", "g", "--r", "9", "--k", "2", "--budget", "1"]) == 1
    assert main(["fork", "--which", "g", "--r", "9", "--k", "2", "--n-cap", "0"]) == 1
    assert "--which f" in capsys.readouterr().err
    code, out = run_cli(capsys, "fork", "--which", "g", "--r", "9", "--k", "2")
    assert code == 0 and json.loads(out)["result"]["value"] == 6


def test_fork_f_refuses_k_below_1(capsys):
    for k in ("0", "-1"):
        assert main(["fork", "--which", "f", "--r", "2", "--k", k]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: fork_f_small needs 1 <= k <= 2")


def test_inequalities_step_guards(capsys):
    # not finite and positive, or more than GRID_MAX_POINTS points: 1e-7
    # asks about 1.25e12 points of tech-a, 5e-9 asks 1e8 of ineq1
    for check, step in [(c, s) for c in ("tech-a", "ineq1")
                        for s in ("0", "-1e-3", "inf", "nan", "5e-324")]:
        assert main(["inequalities", "--check", check, "--step", step]) == 1, (check, step)
    assert main(["inequalities", "--check", "tech-a", "--step", "1e-7"]) == 1
    assert main(["inequalities", "--check", "ineq1", "--step", "5e-9"]) == 1
    err = capsys.readouterr().err
    assert "finite and positive" in err and "points" in err
    code, out = run_cli(capsys, "inequalities", "--check", "tech-c", "--step", "0.25")
    row = json.loads(out)["result"]["checks"][0]
    assert code == 0 and row["step"] == 0.25 and row["points"] == 12


def test_ineq1_point_cap(capsys, monkeypatch):
    # ineq1 evaluates every point, so its cap is 5M points: step 1.1e-8
    # (45M points, over 20 s of evaluation) is refused before any point
    def evaluated(beta):
        raise AssertionError("ineq1 point evaluated")

    with monkeypatch.context() as m:
        m.setattr(asymptotics, "_ineq1_value", evaluated)
        assert main(["inequalities", "--check", "ineq1", "--step", "1.1e-8"]) == 1
    assert "5000000 grid points" in capsys.readouterr().err
    code, out = run_cli(capsys, "inequalities", "--check", "ineq1", "--step", "2.5e-7")
    row = json.loads(out)["result"]["checks"][0]
    assert code == 0 and row["points"] == 2_000_001 and row["max_violation"] <= 0


def test_search_n_cap_refused(capsys, monkeypatch):
    # n past 8 would build n! and 4^n tables; fork --which f inherits the guard
    argvs = (["ramsey", "--p", "C2", "--p", "C2"], ["rainbow", "--p", "C2", "--q", "A2"],
             ["fork", "--which", "f", "--r", "2", "--k", "1"])
    for argv in argvs:
        assert main(argv + ["--n-cap", "-1"]) == 1, argv
        assert "n_cap must be >= 0" in capsys.readouterr().err, argv
    code, out = run_cli(capsys, "ramsey", "--p", "C2", "--p", "C2", "--n-cap", "9")
    assert code == 0 and json.loads(out)["result"]["value"] == 2
    monkeypatch.setattr(search, "_avoiding", lambda n, *args: object())
    for argv in argvs:
        assert main(argv + ["--n-cap", "9"]) == 1, argv
        assert "n_cap above 8 is refused" in capsys.readouterr().err, argv


def test_missing_inputs_are_usage_errors(capsys):
    assert main(["coloring", "gen", "--kind", "consecutive-level", "--n", "3"]) == 1
    assert "needs --parts" in capsys.readouterr().err
    assert main(["lubell"]) == 1
    assert "needs --family or --subcube" in capsys.readouterr().err


def _one_error_line(capsys):
    err = capsys.readouterr().err
    assert err.startswith(("usage error: ", "error: ")) and err.count("\n") == 1, err
    return err


def test_coloring_gen_refuses_flags_its_kind_does_not_read(capsys):
    for argv, flags in ((["--kind", "rr-lower", "--n", "10", "--e", "2", "--q", "3"], "--n"),
                        (["--kind", "level", "--parts", "1,1"], "--parts"),
                        (["--kind", "g2-lower", "--k", "5", "--e", "3"], "--e, --k"),
                        (["--kind", "consecutive-level", "--n", "3", "--parts", "1,1,1",
                          "--r-set", "1"], "--r-set"),
                        (["--kind", "fk-random", "--n", "4", "--q", "3", "--f-tweak", "1"],
                         "--q, --f-tweak"),
                        (["--kind", "trace", "--n", "3", "--k", "2"], "--k")):
        assert main(["coloring", "gen", *argv]) == 1, argv
        kind = argv[1]
        assert f"--kind {kind} does not read {flags}" in _one_error_line(capsys), argv
    # the defaults moved to the kinds that read them
    _, out = run_cli(capsys, "coloring", "gen", "--kind", "rr-lower", "--e", "2", "--q", "3")
    assert json.loads(out)["result"]["coloring"]["n"] == 3
    _, out = run_cli(capsys, "coloring", "gen", "--kind", "level")
    assert json.loads(out)["result"]["coloring"]["n"] == 0


def test_two_color_sweep_below_n_refused(capsys):
    assert main(["two-color", "--n", "8", "--sweep", "3"]) == 1
    assert "--sweep must be >= --n (8), got 3" in _one_error_line(capsys)
    code, out = run_cli(capsys, "two-color", "--n", "8", "--sweep", "8")
    assert code == 0 and [r["n"] for r in json.loads(out)["result"]["rows"]] == [8]


def test_large_pattern_names_refused_before_building(capsys, monkeypatch):
    small = posets._pattern_from_strict

    def built(k, pairs):
        assert k <= 8, "large pattern built"
        return small(k, pairs)

    monkeypatch.setattr(posets, "_pattern_from_strict", built)
    for argv in (["rainbow", "--p", "C2", "--q", "C400", "--n-cap", "1"],
                 ["ramsey", "--p", "A300"],
                 ["fork", "--which", "f", "--r", "256", "--k", "1"],
                 ["fork", "--which", "f", "--r", "100000", "--k", "1"]):
        assert main(argv) == 1, argv
        assert "elements is refused: patterns have at most 256" in _one_error_line(capsys), argv


def test_negative_budget_and_threshold_n_refused(capsys):
    # budget 0 stays a budget stop (exit 2); a negative one is refused
    assert main(["rainbow", "--p", "C2", "--q", "C2", "--budget", "0"]) == 2
    capsys.readouterr()
    for argv in (["rainbow", "--p", "C2", "--q", "C2"], ["ramsey", "--p", "C2"],
                 ["threshold", "--n", "3", "--k", "3"],
                 ["fork", "--which", "f", "--r", "2", "--k", "1"]):
        assert main(argv + ["--budget", "-1"]) == 1, argv
        assert "budget must be >= 0" in capsys.readouterr().err, argv
    assert main(["threshold", "--n", "-1", "--k", "2"]) == 1
    assert "needs n >= 0" in capsys.readouterr().err


def test_fork_g_refused_past_ground_cap(capsys):
    assert main(["fork", "--which", "g", "--r", "1", "--k", "66"]) == 1
    assert "n=64 ground cap" in capsys.readouterr().err
    code, out = run_cli(capsys, "fork", "--which", "g", "--r", "1", "--k", "64")
    assert code == 0 and json.loads(out)["result"]["value"] == 64


def test_lubell_subcube_past_64_and_refused_past_cap(capsys, monkeypatch):
    code, out = run_cli(capsys, "lubell", "--subcube", "200", "100", "100")
    assert code == 0 and json.loads(out)["result"]["value"] == f"1/{comb(200, 100)}"

    def computed(*args):
        raise AssertionError("binomial computed")

    monkeypatch.setattr(lubell, "binom", computed)
    assert main(["lubell", "--subcube", "10001", "1", "1"]) == 1
    assert "needs N <= 10000" in capsys.readouterr().err


def test_coloring_gen_capped_before_enumerating(capsys, monkeypatch):
    def enumerated(*args):
        raise AssertionError("sets enumerated")

    with monkeypatch.context() as m:
        m.setattr(colorings, "all_masks", enumerated)
        for n in ("70", "30"):
            assert main(["coloring", "gen", "--kind", "level", "--n", n]) == 1
            assert "more than the 1048576" in capsys.readouterr().err
        # counts of more than 4,300 digits, which Python refuses to print
        for argv in (["--kind", "level", "--n", "20000"], ["--kind", "g2-lower", "--n", "100000"],
                     ["--kind", "fk-random", "--n", "100000", "--k", "3", "--seed", "1"],
                     ["--kind", "rr-lower", "--e", "5000", "--q", "3"]):
            assert main(["coloring", "gen", *argv]) == 1, argv
            err = capsys.readouterr().err
            assert err.startswith("error: ") and "more than the 1048576" in err, argv
            assert len(err) < 200, argv
    code, out = run_cli(capsys, "coloring", "gen", "--kind", "g2-lower", "--n", "20")
    assert code == 0 and sum(json.loads(out)["result"]["classes"]) == 16_447


def test_trace_r_set_is_a_set_of_elements(capsys):
    # a repeated element names the same set as one copy, not the next bit up
    code, out = run_cli(capsys, "coloring", "gen", "--kind", "trace", "--n", "3",
                        "--r-set", "1,1")
    _, once = run_cli(capsys, "coloring", "gen", "--kind", "trace", "--n", "3",
                      "--r-set", "1")
    assert code == 0 and json.loads(out)["result"] == json.loads(once)["result"]
    _, two = run_cli(capsys, "coloring", "gen", "--kind", "trace", "--n", "3",
                     "--r-set", "2")
    assert json.loads(out)["result"] != json.loads(two)["result"]
    for elem in ("0", "4"):
        assert main(["coloring", "gen", "--kind", "trace", "--n", "3", "--r-set", elem]) == 1
        assert f"element {elem} outside ground [3]" in capsys.readouterr().err


def test_constants_refuses_non_finite_tol(capsys):
    for tol in ("nan", "inf"):
        assert main(["constants", "--k-max", "3", "--tol", tol]) == 1
        assert "tol must be finite" in capsys.readouterr().err
