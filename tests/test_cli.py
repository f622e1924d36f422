import json

import pytest

from nilhom import cli, jsonio
from nilhom.cli import main

HEIS = '{"type":"free_nilpotent","rank":2,"class":2}'


@pytest.fixture(autouse=True)
def emitter_matches_its_oracle(monkeypatch):
    """Every document a test here writes is checked, as a string, against
    json.dumps(doc, indent=2)."""
    emit = jsonio.dumps_json

    def checked(doc):
        text = emit(doc)
        assert text == json.dumps(doc, indent=2)
        return text
    monkeypatch.setattr(jsonio, "dumps_json", checked)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_betti_golden(capsys):
    code, out, _ = run_cli(capsys, "betti", "--group", HEIS)
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "v1"
    assert doc["betti"] == [1, 2, 2, 1]
    assert doc["config"]["group"]["rank"] == 2


def test_betti_integral(capsys):
    code, out, _ = run_cli(capsys, "betti", "--group", HEIS, "--integral")
    doc = json.loads(out)
    assert code == 0
    factors = {row["j"]: row["invariant_factors"] for row in doc["integral"]}
    assert factors[1] == [0, 0]
    assert factors[3] == [0]


def test_betti_rejects_class3(capsys):
    code, _, err = run_cli(capsys, "betti", "--group",
                           '{"type":"free_nilpotent","rank":2,"class":3}')
    assert code == 2
    assert "class" in err


def test_betti_integral_needs_class_two(capsys):
    # class one has no integral page to report; refused like class three
    code, out, err = run_cli(capsys, "betti", "--group",
                             '{"type":"free_nilpotent","rank":2,"class":1}',
                             "--integral")
    assert code == 2 and out == ""
    assert "class two" in err
    code, out, _ = run_cli(capsys, "betti", "--group",
                           '{"type":"free_nilpotent","rank":4,"class":1}')
    assert code == 0 and json.loads(out)["betti"] == [1, 4, 6, 4, 1]


def test_tame_lamplighter_golden(capsys):
    code, out, _ = run_cli(capsys, "tame", "--module",
                           '{"nvars":1,"ideal":[]}', "--m", "2")
    assert code == 0
    assert json.loads(out)["tame"] is False


def test_tame_principal_module(capsys):
    mod = ('{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
           '{"coeff":"-2","exp":[0]}]]}')
    code, out, _ = run_cli(capsys, "tame", "--module", mod, "--m", "4")
    assert code == 0
    assert json.loads(out)["tame"] is True


def test_tame_needs_exactly_one_input(capsys):
    code, _, err = run_cli(capsys, "tame", "--m", "2")
    assert code == 2


def test_report_golden(capsys):
    code, out, _ = run_cli(capsys, "report", "--c", "2", "--n", "2",
                           "--sigma-complement", "[]")
    assert code == 0
    doc = json.loads(out)
    assert doc["requirement"] == 6
    assert doc["holds"] is True


def test_report_lamplighter(capsys):
    sc = '[{"ineqs":[["1"]]},{"ineqs":[["-1"]]}]'
    code, out, _ = run_cli(capsys, "report", "--c", "1", "--n", "1",
                           "--sigma-complement", sc)
    doc = json.loads(out)
    assert doc["requirement"] == 2
    assert doc["holds"] is False
    assert doc["fails_at_m"] == 2


def test_explicit_nvars_must_match_the_cones(capsys):
    rays = '[{"ineqs":[[1,0]],"eqs":[[0,1]]},{"ineqs":[[-1,0]],"eqs":[[0,1]]}]'
    code, out, err = run_cli(capsys, "tame", "--sigma-complement", rays,
                             "--nvars", "3", "--m", "2")
    assert code == 2 and out == ""
    assert "3" in err and "2" in err
    code, out, err = run_cli(capsys, "report", "--c", "1", "--n", "1",
                             "--sigma-complement", rays, "--nvars", "3")
    assert code == 2 and out == ""
    assert "3" in err and "2" in err
    # a matching --nvars, or none, is accepted; report falls back to --n
    # only for cones with no constraints
    code, out, _ = run_cli(capsys, "tame", "--sigma-complement", rays,
                           "--nvars", "2", "--m", "2")
    assert code == 0 and json.loads(out)["tame"] is False
    code, out, _ = run_cli(capsys, "report", "--c", "1", "--n", "1",
                           "--sigma-complement", rays)
    assert code == 0 and json.loads(out)["fails_at_m"] == 2
    code, out, _ = run_cli(capsys, "tame", "--sigma-complement", "[{}]",
                           "--nvars", "2", "--m", "2")
    assert code == 0 and json.loads(out)["tame"] is False
    # --nvars 0 is a dimension like any other, not an unset flag
    code, out, err = run_cli(capsys, "report", "--c", "1", "--n", "2",
                             "--nvars", "0", "--sigma-complement", "[]")
    assert code == 0, err
    assert json.loads(out)["holds"] is True


def test_a_cone_with_no_rows_takes_the_dimension_of_any_cone(capsys):
    # the rows of the second cone fix n = 2 for the empty one, in either order
    docs = {}
    for sc in ('[{}, {"ineqs":[[1,0]]}]', '[{"ineqs":[[1,0]]}, {}]'):
        for argv in (("tame", "--m", "2"), ("report", "--c", "1", "--n", "1")):
            code, out, err = run_cli(capsys, *argv, "--sigma-complement", sc)
            assert code == 0, err
            docs.setdefault(argv[0], set()).add(out)
    assert {k: len(v) for k, v in docs.items()} == {"tame": 1, "report": 1}
    assert json.loads(docs["tame"].pop())["tame"] is False
    assert json.loads(docs["report"].pop())["fails_at_m"] == 2
    # cones with rows that disagree still exit 2
    code, out, err = run_cli(capsys, "tame", "--m", "2", "--sigma-complement",
                             '[{}, {"ineqs":[[1]]}, {"ineqs":[[1,0]]}]')
    assert code == 2 and out == "" and "mismatch" in err


def test_betti_rank5(capsys):
    code, out, _ = run_cli(capsys, "betti", "--group",
                           '{"type":"free_nilpotent","rank":5,"class":2}')
    assert code == 0
    assert json.loads(out)["betti"] == [1, 5, 40, 176, 440, 835, 1423, 1980,
                                        1980, 1423, 835, 440, 176, 40, 5, 1]


def test_filtration_verdict(capsys):
    code, out, _ = run_cli(capsys, "filtration", "--group", HEIS, "--j", "2")
    doc = json.loads(out)
    cert = doc["certificate"]
    assert cert["bound"] == 3
    assert cert["bound_satisfied"] is True
    assert cert["total_dimension"] == 2


def test_pages_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "pages", "--group", HEIS)
    doc = json.loads(out)
    cells = {(c["p"], c["q"]): c["dim"] for c in doc["page"]["cells"]}
    assert cells[(2, 0)] == 1 and cells[(1, 1)] == 2
    diffs = {(d["p"], d["q"]): d["matrix"] for d in doc["page"]["differentials"]}
    assert diffs[(2, 0)] == [["1"]]


def test_pages_central_extension(capsys):
    ext = '{"type":"central_extension","q_rank":3,"a_rank":1,"pairing":[["1","0","0"]]}'
    code, out, _ = run_cli(capsys, "pages", "--group", ext)
    doc = json.loads(out)
    assert code == 0
    diffs = {(d["p"], d["q"]): d["matrix"] for d in doc["page"]["differentials"]}
    assert diffs[(2, 0)] == [["1", "0", "0"]]


def test_vbscan_constant_rows(capsys):
    # the Heisenberg group twisted by an Anosov map: degree 2 is all 0
    action = json.dumps({
        "type": "action",
        "group": {"type": "free_nilpotent", "rank": 2, "class": 2},
        "generators": [[["2", "1"], ["1", "1"]]],
    })
    for j, total in ((1, 1), (2, 0)):
        code, out, _ = run_cli(capsys, "vbscan", "--group", action,
                               "--j", str(j), "--m-max", "6")
        doc = json.loads(out)
        assert code == 0
        assert [row["total"] for row in doc["scan"]["rows"]] == [total] * 6
        assert doc["scan"]["verdict"]["observed_bound"] == total


CLASS3 = '{"type":"free_nilpotent","rank":2,"class":3}'
CLASS3_ACTION = ('{"type":"action","group":%s,'
                 '"generators":[[["1","0"],["0","1"]]]}' % CLASS3)


@pytest.mark.parametrize("argv", [
    ["pages", "--group", CLASS3],
    ["vbscan", "--group", CLASS3_ACTION, "--j", "0"],
    ["vbscan", "--group", CLASS3_ACTION, "--j", "1"],
], ids=["pages", "vbscan-j0", "vbscan-j1"])
def test_class3_is_refused_where_the_page_is_built(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "only class <= 2 carries an explicit central extension" in err


def test_sigma_cone_output(capsys):
    mod = json.dumps({"nvars": 2, "ideal": [
        [{"coeff": "1", "exp": [0, 0]}, {"coeff": "1", "exp": [1, 0]},
         {"coeff": "1", "exp": [0, 1]}]]})
    code, out, _ = run_cli(capsys, "sigma", "--module", mod)
    doc = json.loads(out)
    assert code == 0
    assert len(doc["sigma_complement"]) == 3


def test_sigma_witness_and_strict(capsys):
    free = '{"nvars":1,"ideal":[]}'
    code, out, _ = run_cli(capsys, "sigma", "--module", free,
                           "--witness", "[1]", "--degree-bound", "3")
    assert code == 0
    assert json.loads(out)["witness"] == "unknown"
    code, out, _ = run_cli(capsys, "sigma", "--module", free,
                           "--witness", "[1]", "--strict")
    assert code == 3
    mod = ('{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
           '{"coeff":"-2","exp":[0]}]]}')
    code, out, _ = run_cli(capsys, "sigma", "--module", mod,
                           "--witness", "[1]", "--strict")
    assert code == 0
    assert json.loads(out)["witness"] != "unknown"


def test_sigma_witness_rejects_a_negative_degree_bound(capsys):
    # a bound below 0 searches nothing, so "unknown" would be a false verdict
    for mod in ('{"nvars":1,"ideal":[]}',
                '{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
                '{"coeff":"-2","exp":[0]}]]}'):
        code, out, err = run_cli(capsys, "sigma", "--module", mod,
                                 "--witness", "[1]", "--degree-bound", "-1")
        assert code == 2 and out == ""
        assert "degree bound" in err


def test_sigma_output_feeds_tame_input(capsys):
    # round-trip: the emitted cone union re-parses as tame input
    mod = json.dumps({"nvars": 2, "ideal": [
        [{"coeff": "1", "exp": [0, 0]}, {"coeff": "1", "exp": [1, 0]},
         {"coeff": "1", "exp": [0, 1]}]]})
    _, out, _ = run_cli(capsys, "sigma", "--module", mod)
    cones = json.dumps(json.loads(out)["sigma_complement"])
    code, out2, _ = run_cli(capsys, "tame", "--sigma-complement", cones,
                            "--m", "2")
    assert code == 0 and json.loads(out2)["tame"] is True
    code, out3, _ = run_cli(capsys, "tame", "--sigma-complement", cones,
                            "--m", "3")
    assert code == 0 and json.loads(out3)["tame"] is False


@pytest.mark.parametrize("argv,value", [
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":1,"pairing":[["1/2"]]}'], "'1/2'"),
    (["vbscan", "--group", json.dumps({
        "type": "action", "group": {"type": "free_nilpotent", "rank": 2,
                                    "class": 2},
        "generators": [[["1", "1/2"], ["0", "1"]]]}), "--j", "1"], "'1/2'"),
    (["betti", "--group", '{"type":"free_nilpotent","rank":2.9,"class":2}'],
     "2.9"),
    (["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":"1","exp":[1.5]},'
                           '{"coeff":"-2","exp":[0]}]]}'], "1.5"),
    (["betti", "--group", '{"type":"free_nilpotent","rank":2,"class":true}'],
     "True"),
], ids=["pairing", "generator", "rank", "exponent", "boolean"])
def test_non_integral_integer_fields_exit_2(capsys, argv, value):
    # truncating them would compute on another group or module
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"expected an integer, got {value}" in err


@pytest.mark.parametrize("argv,message", [
    (["betti", "--group", '{"type":"free_nilpotent","rank":2}'],
     "free_nilpotent spec lacks the field 'class'"),
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":1}'],
     "central_extension spec lacks the field 'pairing'"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2}}', "--j", "1"],
     "action spec lacks the field 'generators'"),
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":1,"pairing":[1]}'],
     "a matrix must be a list of lists, got [1]"),
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":1,"pairing":{"a":1}}'],
     "a matrix must be a list of lists, got {'a': 1}"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2},"generators":"ab"}', "--j", "1"],
     "action generators must be a list of matrices, got 'ab'"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2},"generators":5}', "--j", "1"],
     "action generators must be a list of matrices, got 5"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2},"generators":{"x":[["1"]]}}',
      "--j", "1"],
     "action generators must be a list of matrices, got {'x': [['1']]}"),
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":-1,"pairing":[["1"]]}'],
     "a_rank must be nonnegative, got -1"),
    # module specs: the malformed term or list is named
    (["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":"1"}]]}'],
     "module term lacks the field 'exp'"),
    (["sigma", "--module", '{"nvars":1,"ideal":[[{"exp":[1]}]]}'],
     "module term lacks the field 'coeff'"),
    (["sigma", "--module", '{"nvars":1,"ideal":5}'],
     "ideal must be a list of generators, got 5"),
    (["sigma", "--module", '{"nvars":1,"ideal":[5]}'],
     "an ideal generator must be a list of terms or one term, got 5"),
    (["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":"1","exp":5}]]}'],
     "module term field 'exp' must be a list, got 5"),
    (["sigma", "--module", '{"nvars":1,"ideal":[["x"]]}'],
     "module term must be an object, got 'x'"),
], ids=["missing-class", "missing-pairing", "missing-generators",
        "flat-pairing", "object-pairing", "string-generators",
        "number-generators", "object-generators", "negative-a-rank",
        "term-without-exp", "term-without-coeff", "number-ideal",
        "number-generator", "number-exp", "string-term"])
def test_malformed_group_spec_is_named(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert message in err


@pytest.mark.parametrize("cones", ['[[1,2]]', '["x"]', '{}'],
                         ids=["rows", "string", "object"])
def test_cone_union_must_be_a_list_of_objects(capsys, cones):
    code, out, err = run_cli(capsys, "tame", "--sigma-complement", cones,
                             "--nvars", "2", "--m", "2")
    assert code == 2 and out == ""
    assert "cone union must be a list of objects" in err


@pytest.mark.parametrize("argv", [
    ["tame", "--sigma-complement", '[{"ineqs":[[true,0]]}]', "--m", "2"],
    ["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":true,"exp":[1]},'
                          '{"coeff":"-2","exp":[0]}]]}'],
    ["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
                          '{"coeff":"-2","exp":[0]}]]}', "--witness", "[true]"],
], ids=["cone-row", "coefficient", "witness"])
def test_booleans_are_not_rationals(capsys, argv):
    # Python reads a JSON true as the int 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "got True" in err


def test_zero_denominator_exit_2(capsys):
    for argv in (["sigma", "--module", '{"nvars":1,"ideal":[[{"coeff":"1/0",'
                                       '"exp":[1]}]]}'],
                 ["tame", "--sigma-complement", '[{"ineqs":[["1/0"]]}]',
                  "--m", "2"]):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert "zero denominator in '1/0'" in err


def test_repeated_exponents_add_up(capsys):
    # t + t - 2 is the generator 2t - 2, so the witness is 1 - t
    mod = ('{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
           '{"coeff":"1","exp":[1]},{"coeff":"-2","exp":[0]}]]}')
    code, out, _ = run_cli(capsys, "sigma", "--module", mod, "--witness", "[1]")
    doc = json.loads(out)
    assert code == 0
    assert doc["config"]["module"]["ideal"] == [[{"coeff": "-2", "exp": [0]},
                                                 {"coeff": "2", "exp": [1]}]]
    assert doc["witness"]["poly"] == [{"coeff": "1", "exp": [0]},
                                      {"coeff": "-1", "exp": [1]}]
    # t - t is the zero generator
    code, out, err = run_cli(capsys, "sigma", "--module",
                             '{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
                             '{"coeff":"-1","exp":[1]}]]}')
    assert code == 2 and out == ""
    assert "ideal generators must be nonzero" in err


@pytest.mark.parametrize("argv", [
    ["sigma", "--module", '{"nvars":-1,"ideal":[]}'],
    ["tame", "--sigma-complement", "[]", "--nvars", "-3", "--m", "2"],
    ["report", "--c", "1", "--n", "1", "--sigma-complement", "[]",
     "--nvars", "-3"],
    ["tame", "--module", '{"nvars":-1,"ideal":[]}', "--m", "2"],
    # a generator is present: nvars is named, not the exponent arity
    ["tame", "--module", '{"nvars":-1,"ideal":[[{"coeff":"1","exp":[1]}]]}',
     "--m", "2"],
], ids=["sigma", "tame-cones", "report", "tame-module",
        "tame-module-generator"])
def test_negative_nvars_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert "nvars must be nonnegative" in err


def test_pages_of_an_extension_with_trivial_centre(capsys):
    # an empty pairing has C(q_rank, 2) columns and no rows
    ext = '{"type":"central_extension","q_rank":3,"a_rank":0,"pairing":[]}'
    code, out, _ = run_cli(capsys, "pages", "--group", ext)
    doc = json.loads(out)
    assert code == 0
    assert doc["config"]["group"]["pairing"] == []
    assert [c["dim"] for c in doc["page"]["cells"]] == [1, 3, 3, 1]
    assert doc["page"]["differentials"] == []


def test_malformed_json_exit_2(capsys):
    code, _, err = run_cli(capsys, "betti", "--group", '{"type": oops')
    assert code == 2
    assert "line" in err and "column" in err


def test_unknown_flag_exit_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--group", HEIS, "--no-such-flag"])
    assert exc.value.code == 2


def test_non_principal_module_exit_2(capsys):
    mod = json.dumps({"nvars": 1, "ideal": [
        [{"coeff": "1", "exp": [1]}, {"coeff": "-2", "exp": [0]}],
        [{"coeff": "1", "exp": [2]}, {"coeff": "-3", "exp": [0]}]]})
    code, _, err = run_cli(capsys, "sigma", "--module", mod)
    assert code == 2
    assert "witness" in err


def test_deterministic_output(capsys):
    args = ["betti", "--group", HEIS]
    _, out1, _ = run_cli(capsys, *args)
    _, out2, _ = run_cli(capsys, *args)
    assert out1 == out2


def test_stdin_input(capsys, monkeypatch):
    import io
    monkeypatch.setattr("sys.stdin", io.StringIO(HEIS))
    code, out, _ = run_cli(capsys, "betti", "--group", "-")
    assert code == 0
    assert json.loads(out)["betti"] == [1, 2, 2, 1]


def test_file_input_and_output(tmp_path, capsys):
    spec = tmp_path / "group.json"
    spec.write_text(HEIS)
    outfile = tmp_path / "out.json"
    code, _, _ = run_cli(capsys, "betti", "--group", str(spec),
                         "--output", str(outfile))
    assert code == 0
    assert json.loads(outfile.read_text())["betti"] == [1, 2, 2, 1]


def test_one_parser_serves_a_sequence_of_calls(tmp_path, capsys, monkeypatch):
    """Calls through the module's one parser give, call by call, the exit
    code and bytes of a freshly built parser: no flag or default carries
    over from one call to the next."""
    free = '{"nvars":1,"ideal":[]}'
    mod = ('{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
           '{"coeff":"-2","exp":[0]}]]}')
    outfile = tmp_path / "out.json"
    calls = [
        ["betti", "--group", HEIS, "--integral"],
        ["betti", "--group", HEIS],
        ["sigma", "--module", free, "--witness", "[1]", "--strict"],
        ["sigma", "--module", mod],
        ["tame", "--module", free, "--m", "2"],
        ["tame", "--sigma-complement", "[]", "--nvars", "2", "--m", "2"],
        ["betti", "--group", HEIS, "--output", str(outfile)],
        ["betti", "--group", HEIS],
        ["betti", "--group", HEIS, "--no-such-flag"],
    ]

    def run(argv):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
        written = outfile.read_bytes() if outfile.exists() else None
        if written is not None:
            outfile.unlink()
        out = capsys.readouterr()
        return code, out.out.encode(), out.err.encode(), written

    def no_rebuild():
        raise AssertionError("main() rebuilt the parser")
    with monkeypatch.context() as m:
        m.setattr(cli, "_build_parser", no_rebuild)
        shared = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        with monkeypatch.context() as m:
            m.setattr(cli, "_PARSER", cli._build_parser())
            fresh.append(run(argv))
    assert shared == fresh
    assert [r[0] for r in shared] == [0, 0, 3, 0, 0, 0, 0, 0, 2]
    assert [r[3] is not None for r in shared] == [False] * 6 + [True, False, False]
    assert b'"integral": [' in shared[0][1]
    assert b'"integral": [' not in shared[1][1]
    assert b'"witness"' not in shared[3][1]
    assert shared[6][1] == b"" and shared[6][3] == shared[7][1]
