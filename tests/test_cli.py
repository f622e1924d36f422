import json
import os
import re
import subprocess
import sys
from math import comb
from pathlib import Path

import pytest

from nilhom import cli, filtration, sigma, spectral, vbscan
from nilhom.cli import main

from reference_jsonio import DocumentCheck

HEIS = '{"type":"free_nilpotent","rank":2,"class":2}'
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def emitter_matches_its_oracle(monkeypatch):
    """Every document a test here writes is checked, as a string, against
    json.dumps(doc, indent=2) with a page read as ``page_json``, and
    counted against the documents written."""
    check = DocumentCheck(monkeypatch)
    yield
    check.verify()


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


def test_tame_on_a_principal_module_asks_no_lp(capsys, monkeypatch):
    # the least failing m is read from the Newton polygon: the hexagon
    # has parallel edges and fails at 2, the pentagon has none and fails
    # at 3
    from nilhom import lp

    def refuse(cons, nvars):
        raise AssertionError("tame --module asked an LP")

    monkeypatch.setattr(lp, "feasible", refuse)
    hexagon = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    pentagon = [(0, 0), (2, 0), (3, 2), (0, 1), (1, 1)]
    for support, least in ((hexagon, 2), (pentagon, 3)):
        mod = json.dumps({"nvars": 2, "ideal": [[
            {"coeff": "1", "exp": list(e)} for e in support]]})
        for m in (2, 3, 4):
            code, out, err = run_cli(capsys, "tame", "--module", mod, "--m", str(m))
            assert code == 0, err
            assert json.loads(out)["tame"] is (m < least)


def test_tame_on_a_free_module_asks_no_lp(capsys, monkeypatch):
    # every module takes one decision: the free module's complement is
    # the whole sphere, which fails at 2 once nvars >= 1, and the
    # triangle has no parallel edges, so it fails at 3
    from nilhom import lp

    def refuse(cons, nvars):
        raise AssertionError("tame --module asked an LP")

    monkeypatch.setattr(lp, "feasible", refuse)
    triangle = ('{"nvars":2,"ideal":[[{"coeff":"1","exp":[0,0]},'
                '{"coeff":"1","exp":[1,0]},{"coeff":"1","exp":[0,1]}]]}')
    for mod, m, tame in (('{"nvars":0,"ideal":[]}', 2, True),
                         ('{"nvars":0,"ideal":[]}', 5, True),
                         ('{"nvars":2,"ideal":[]}', 2, False),
                         ('{"nvars":2,"ideal":[]}', 4, False),
                         (triangle, 2, True), (triangle, 3, False)):
        code, out, err = run_cli(capsys, "tame", "--module", mod, "--m", str(m))
        assert code == 0, err
        assert json.loads(out)["tame"] is tame, (mod, m)


def test_tame_module_errors_keep_their_order(capsys):
    # parse, then the non-principal refusal, then --nvars, then m < 2:
    # each input below also breaks every later rule
    line = ('[{"coeff":"1","exp":[0,0]},{"coeff":"1","exp":[1,0]},'
            '{"coeff":"1","exp":[0,1]}]')
    principal = '{"nvars":2,"ideal":[%s]}' % line
    cases = [
        ('{"nvars":2,"ideal":[%s],"extra":1}' % line,
         "module spec has the unknown field 'extra'; it takes 'nvars' and "
         "'ideal'"),
        ('{"nvars":2,"ideal":[%s,%s]}' % (line, line),
         "non-principal ideals admit only the witness semidecision"),
        (principal, "--nvars 3 disagrees with the nvars 2 of the module"),
    ]
    for mod, message in cases:
        code, out, err = run_cli(capsys, "tame", "--module", mod,
                                 "--nvars", "3", "--m", "1")
        assert (code, out, err) == (2, "", f"error: {message}\n")
    code, out, err = run_cli(capsys, "tame", "--module", principal, "--m", "1")
    assert (code, out, err) == (2, "", "error: tameness is defined for m >= 2\n")


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
    # one rule for a module's complement: its dimension is the module's
    mod = '{"nvars":1,"ideal":[]}'
    code, out, err = run_cli(capsys, "tame", "--module", mod,
                             "--nvars", "3", "--m", "2")
    assert code == 2 and out == ""
    assert "--nvars 3" in err and "1" in err
    code, out, _ = run_cli(capsys, "tame", "--module", mod,
                           "--nvars", "1", "--m", "2")
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


@pytest.mark.parametrize("nil_class", [2, 3])
def test_filtration_far_past_the_hirsch_length(capsys, nil_class):
    # the degree loops stop at the rank (class two) and at j - W (class
    # three), so j = 10^8 answers at once
    group = json.dumps({"type": "free_nilpotent", "rank": 2,
                        "class": nil_class})
    code, out, _ = run_cli(capsys, "filtration", "--group", group,
                           "--j", str(10 ** 8))
    assert code == 0
    cert = json.loads(out)["certificate"]
    assert cert["layers"] == [] and cert["total_dimension"] == 0


def test_filtration_refuses_a_class_above_1000(capsys):
    group = '{"type":"free_nilpotent","rank":2,"class":1001}'
    code, out, err = run_cli(capsys, "filtration", "--group", group, "--j", "1")
    assert code == 2 and out == ""
    assert "class <= 1000" in err
    group = group.replace("1001", "1000")
    code, out, _ = run_cli(capsys, "filtration", "--group", group, "--j", "1")
    assert code == 0
    assert json.loads(out)["certificate"]["total_dimension"] == 2


@pytest.mark.parametrize("argv,field", [
    (["betti", "--group", '{"type":"free_nilpotent","rank":%s,"class":2}'], "rank"),
    (["filtration", "--group", '{"type":"free_nilpotent","rank":%s,"class":2}',
      "--j", "1"], "rank"),
    (["filtration", "--group", '{"type":"free_nilpotent","rank":2,"class":"%s"}',
      "--j", "1"], "class"),
    (["pages", "--group",
      '{"type":"central_extension","q_rank":%s,"a_rank":0,"pairing":[]}'], "q_rank"),
    (["pages", "--group",
      '{"type":"central_extension","q_rank":2,"a_rank":%s,"pairing":[]}'], "a_rank"),
    (["sigma", "--module", '{"nvars":%s,"ideal":[]}'], "nvars"),
], ids=["betti-rank", "filtration-rank", "filtration-class", "q_rank",
        "a_rank", "nvars"])
def test_a_size_above_maxsize_exit_2(capsys, argv, field):
    # 2^70 cannot index anything: refused at parse time, where it used to
    # raise OverflowError (betti) or hang (filtration)
    argv = [a % 2 ** 70 if "%s" in a else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert f"field {field!r} is {2 ** 70}" in err


def test_pages_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "pages", "--group", HEIS)
    doc = json.loads(out)
    cells = {(c["p"], c["q"]): c["dim"] for c in doc["page"]["cells"]}
    assert cells[(2, 0)] == 1 and cells[(1, 1)] == 2
    diffs = {(d["p"], d["q"]): d["matrix"] for d in doc["page"]["differentials"]}
    assert diffs[(2, 0)] == [["1"]]


def test_pages_writes_the_same_bytes_to_a_file(capsys, tmp_path):
    group = '{"type":"free_nilpotent","rank":3,"class":2}'
    code, out, _ = run_cli(capsys, "pages", "--group", group)
    assert code == 0
    path = tmp_path / "page.json"
    code, printed, _ = run_cli(capsys, "pages", "--group", group,
                               "--output", str(path))
    assert code == 0 and printed == ""
    assert path.read_bytes() == out.encode("utf-8")


def test_pages_are_written_in_chunks(monkeypatch):
    # one write per cell and per matrix row: a rank-4 page is never
    # joined into one string first
    writes = []

    class Recorder:
        def write(self, text):
            writes.append(text)
            return len(text)

        def flush(self):
            pass

    monkeypatch.setattr(cli.sys, "stdout", Recorder())
    assert main(["pages", "--group",
                 '{"type":"free_nilpotent","rank":4,"class":2}']) == 0
    page = json.loads("".join(writes))["page"]
    rows = sum(len(d["matrix"]) for d in page["differentials"])
    assert len(writes) >= len(page["cells"]) + rows > 1


@pytest.mark.parametrize("argv, keep", [
    # the rank-4 page is far larger than a pipe's buffer, so the writer
    # meets the closed pipe (`nilhom pages ... | head -c 10`)
    (["pages", "--group", '{"type":"free_nilpotent","rank":4,"class":2}'], 10),
    # the whole document waits in stdout's buffer for the last flush
    (["betti", "--group", HEIS], 0),
], ids=["mid-document", "at-the-flush"])
def test_a_closed_pipe_exits_1_in_silence(argv, keep):
    # stdout block-buffered, as it is in a shell pipe by default
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.Popen([sys.executable, "-m", "nilhom.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        assert proc.stdout.read(keep) == b'{\n  "schem'[:keep]
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 1
    finally:
        proc.kill()
        proc.wait()
    assert err == b""


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


def test_vbscan_far_past_the_hirsch_length(capsys):
    action = json.dumps({
        "type": "action",
        "group": {"type": "free_nilpotent", "rank": 2, "class": 2},
        "generators": [[["2", "1"], ["1", "1"]]],
    })
    code, out, _ = run_cli(capsys, "vbscan", "--group", action,
                           "--j", "20000", "--m-max", "2")
    assert code == 0
    rows = json.loads(out)["scan"]["rows"]
    assert [row["total"] for row in rows] == [0, 0]


@pytest.mark.parametrize("j,m_max", [(10 ** 8, 2), (1, 10 ** 8)],
                         ids=["deep", "long"])
def test_vbscan_refuses_a_scan_above_its_entry_limit(capsys, j, m_max):
    # either shape used to run for minutes with no output
    action = ('{"type":"action","group":%s,'
              '"generators":[[["2","1"],["1","1"]]]}' % HEIS)
    code, out, err = run_cli(capsys, "vbscan", "--group", action,
                             "--j", str(j), "--m-max", str(m_max))
    assert code == 2 and out == ""
    assert f"(j + 1) * m_max <= {vbscan.MAX_SCAN_ENTRIES}" in err
    assert f"j = {j} and m_max = {m_max}" in err


@pytest.mark.parametrize("argv,rank,limit", [
    (["betti"], spectral.MAX_CLOSED_FORM_RANK + 1, spectral.MAX_CLOSED_FORM_RANK),
    (["betti"], 10 ** 6, spectral.MAX_CLOSED_FORM_RANK),
    (["filtration", "--j", "1"], spectral.MAX_CLOSED_FORM_RANK + 1,
     spectral.MAX_CLOSED_FORM_RANK),
    (["filtration", "--j", "1"], 10 ** 6, spectral.MAX_CLOSED_FORM_RANK),
    (["betti", "--integral"], spectral.MAX_INTEGRAL_RANK + 1,
     spectral.MAX_INTEGRAL_RANK),
], ids=["betti", "betti-huge", "filtration", "filtration-huge", "integral"])
def test_a_class2_rank_above_its_limit_exit_2(capsys, argv, rank, limit):
    # 2^r arm sets for the closed form, one Smith form per content block
    # for the integral table: above the limit both refuse before any work,
    # where rank 10^6 used to end in MemoryError
    group = '{"type":"free_nilpotent","rank":%d,"class":2}' % rank
    code, out, err = run_cli(capsys, *argv, "--group", group)
    assert code == 2 and out == ""
    assert f"takes rank <= {limit}, got rank {rank}" in err


@pytest.mark.parametrize("argv,rank", [
    (["betti"], cli.MAX_CLASS_ONE_RANK + 1),
    (["betti"], 10 ** 6),
    (["filtration", "--j", "50000"], cli.MAX_CLASS_ONE_RANK + 1),
    (["filtration", "--j", "50000"], 10 ** 6),
], ids=["betti", "betti-huge", "filtration", "filtration-huge"])
def test_a_class1_rank_above_its_limit_exit_2(capsys, argv, rank):
    # betti at rank 20,000 printed nothing in 10 s, and filtration at rank
    # 100,000 ended in a traceback writing a number of over 4,300 digits
    group = '{"type":"free_nilpotent","rank":%d,"class":1}' % rank
    code, out, err = run_cli(capsys, *argv, "--group", group)
    assert code == 2 and out == ""
    assert (f"class one takes rank <= {cli.MAX_CLASS_ONE_RANK}, "
            f"got rank {rank}") in err


@pytest.mark.parametrize("rank,nil_class", [(4, 35), (4, 1000), (18, 1000)])
def test_a_filtration_above_its_layer_limit_exit_2(capsys, rank, nil_class):
    # class 35 took 10.7 s and 909 MB to print 131.6 MB, and class 1000
    # printed nothing in 20 s; the layers of rank 18 would hold numbers
    # of more digits than str() takes
    group = '{"type":"free_nilpotent","rank":%d,"class":%d}' % (rank, nil_class)
    code, out, err = run_cli(capsys, "filtration", "--j", "5", "--group", group)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: the certificate would have \d+ layers, above the "
                        rf"limit of {filtration.MAX_LAYERS}\n", err), err


@pytest.mark.parametrize("rank,nil_class,j", [
    (2, 60, 3000), (2, 60, 10000), (3, 20, 20000), (2, 1000, 2000)])
def test_a_deep_layer_count_exit_2_at_once(capsys, rank, nil_class, j):
    # each class re-summed a window of degrees for every degree: the first
    # took 19.8 s to refuse, the others printed nothing in 20 s
    group = '{"type":"free_nilpotent","rank":%d,"class":%d}' % (rank, nil_class)
    code, out, err = run_cli(capsys, "filtration", "--j", str(j), "--group", group)
    assert code == 2 and out == ""
    assert re.fullmatch(r"error: (the certificate would have \d+ layers|counting the "
                        r"layers would read \d+ \(class, degree\) entries), above "
                        r"the limit of \d+\n", err), err


@pytest.mark.parametrize("argv,flag", [
    (["report", "--c", "9" * 2200, "--n", "9" * 2200, "--sigma-complement", "[]"],
     "--c"),
    (["filtration", "--j", "9" * 4300, "--group", HEIS], "--j"),
], ids=["report", "filtration"])
def test_an_integer_flag_above_maxsize_exit_2(capsys, argv, flag):
    # the requirement 2(c(n-1)+1) and the bound c(j-1)+1 had more digits
    # than str() takes: a traceback from the writer, exit 1
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    value = argv[argv.index(flag) + 1]
    assert err == f"error: {flag} is {value}, above the largest size {sys.maxsize}\n"


def test_a_class1_filtration_at_its_limit_is_written(capsys):
    # the middle binomial, the longest number class one prints
    r = cli.MAX_CLASS_ONE_RANK
    group = '{"type":"free_nilpotent","rank":%d,"class":1}' % r
    code, out, _ = run_cli(capsys, "filtration", "--j", str(r // 2),
                           "--group", group)
    assert code == 0
    layers = json.loads(out)["certificate"]["layers"]
    assert [layer["dimension"] for layer in layers] == [comb(r, r // 2)]


@pytest.mark.parametrize("group,q_rank,a_rank", [
    ('{"type":"free_nilpotent","rank":1000000,"class":2}', 10 ** 6,
     10 ** 6 * (10 ** 6 - 1) // 2),
    ('{"type":"free_nilpotent","rank":40,"class":1}', 40, 0),
    ('{"type":"central_extension","q_rank":1000000,"a_rank":0,"pairing":[]}',
     10 ** 6, 0),
    ('{"type":"free_nilpotent","rank":6,"class":2}', 6, 15),
    ('{"type":"central_extension","q_rank":16,"a_rank":0,"pairing":[]}', 16, 0),
], ids=["free-huge", "class-one", "extension-huge", "rank-6", "just-above"])
def test_a_page_above_its_limit_exit_2(capsys, group, q_rank, a_rank):
    # a page has 2^(q_rank + a_rank) labels; the first three printed
    # nothing in 5 s before the limit
    code, out, err = run_cli(capsys, "pages", "--group", group)
    assert code == 2 and out == ""
    assert (f"pages take q_rank + a_rank <= {cli.MAX_PAGE_RANK}, got "
            f"q_rank {q_rank} and a_rank {a_rank}") in err


def test_a_page_at_its_limit_is_written(capsys):
    ext = '{"type":"central_extension","q_rank":%d,"a_rank":0,"pairing":[]}'
    code, out, _ = run_cli(capsys, "pages", "--group", ext % cli.MAX_PAGE_RANK)
    assert code == 0
    cells = json.loads(out)["page"]["cells"]
    assert sum(c["dim"] for c in cells) == 2 ** cli.MAX_PAGE_RANK


@pytest.mark.parametrize("exc", [TypeError, KeyError])
def test_a_bug_inside_a_command_is_not_an_input_error(monkeypatch, exc):
    # every input error is a ValueError: anything else propagates, and a
    # script run shows its traceback and exits 1
    def bug(r):
        raise exc("bug")
    monkeypatch.setattr(cli, "betti_free_nilpotent_c2", bug)
    with pytest.raises(exc):
        main(["betti", "--group", HEIS])


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
    # a bound below 0 searches nothing, so "unknown" would be a false
    # verdict; without --witness it is refused all the same, not echoed
    for mod in ('{"nvars":1,"ideal":[]}',
                '{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
                '{"coeff":"-2","exp":[0]}]]}'):
        for witness in (("--witness", "[1]"), ()):
            code, out, err = run_cli(capsys, "sigma", "--module", mod,
                                     *witness, "--degree-bound", "-1")
            assert code == 2 and out == ""
            assert "degree bound" in err and "-1" in err
    code, out, _ = run_cli(capsys, "sigma", "--module",
                           '{"nvars":1,"ideal":[]}', "--degree-bound", "0")
    assert code == 0 and json.loads(out)["config"]["degree_bound"] == 0


def test_sigma_witness_refuses_a_search_past_its_row_limit(capsys):
    # the supports of the tameness benchmark's witness.i1: bound 3 finds a
    # witness among the second generator's rows, but bound 10^6 runs
    # through the first generator's shells before it, and printed nothing
    # in 20 s; now it stops once it passes the row limit
    mod = json.dumps({"nvars": 3, "ideal": [
        [{"coeff": "1", "exp": [0, 0, 0]}, {"coeff": "1", "exp": [1, 1, 0]},
         {"coeff": "1", "exp": [0, 0, 1]}],
        [{"coeff": "1", "exp": [1, 0, 0]}, {"coeff": "1", "exp": [0, 1, 0]},
         {"coeff": "1", "exp": [0, 0, 1]}]]})
    code, out, _ = run_cli(capsys, "sigma", "--module", mod,
                           "--witness", "[-1,1,2]", "--degree-bound", "3")
    assert code == 0 and json.loads(out)["witness"] != "unknown"
    code, out, err = run_cli(capsys, "sigma", "--module", mod, "--witness",
                             "[-1,1,2]", "--degree-bound", str(10 ** 6))
    assert code == 2 and out == "" and "Traceback" not in err
    assert (f"the witness search at degree bound 1000000 passed its limit of "
            f"{sigma.MAX_WITNESS_ROWS} rows") in err


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
    # cone rows and witness directions: not read by letters or keys
    (["tame", "--sigma-complement", '[{"ineqs":["12"],"eqs":[]}]', "--m", "2"],
     "cone field 'ineqs' must be a list of rows, got '12'"),
    (["tame", "--sigma-complement", '[{"ineqs":{"1":2}}]', "--m", "2"],
     "cone field 'ineqs' must be a list of rows, got {'1': 2}"),
    (["tame", "--sigma-complement", '[{"ineqs":5}]', "--m", "2"],
     "cone field 'ineqs' must be a list of rows, got 5"),
    (["report", "--c", "1", "--n", "1", "--sigma-complement",
      '[{"eqs":"12"}]'],
     "cone field 'eqs' must be a list of rows, got '12'"),
    (["sigma", "--module", '{"nvars":2,"ideal":[]}', "--witness", '"12"'],
     "--witness must be a list of rationals, got '12'"),
    (["sigma", "--module", '{"nvars":2,"ideal":[]}', "--witness", '{"1":2}'],
     "--witness must be a list of rationals, got {'1': 2}"),
    # a misspelt or missing field is named, never read as absent
    (["tame", "--sigma-complement", '[{"ineq":[[1,0]]}]', "--nvars", "2",
      "--m", "2"],
     "cone has the unknown field 'ineq'; it takes 'ineqs' and 'eqs'"),
    (["report", "--c", "1", "--n", "1", "--sigma-complement",
      '[{"ineqs":[[1]],"eqs":[],"rays":[]}]'],
     "cone has the unknown field 'rays'"),
    (["sigma", "--module",
      '{"nvars":2,"idael":[[{"coeff":"1","exp":[1,0]}]]}'],
     "module spec has the unknown field 'idael'; it takes 'nvars' and 'ideal'"),
    (["tame", "--module", '{"nvars":2}', "--m", "2"],
     "module spec lacks the field 'ideal'"),
    (["sigma", "--module", '{"ideal":[]}'],
     "module spec lacks the field 'nvars'"),
    (["betti", "--group", '{"type":"free_nilpotent","rank":2,"class":2,'
                          '"extra":1}'],
     "free_nilpotent spec has the unknown field 'extra'; it takes 'type', "
     "'rank' and 'class'"),
    (["pages", "--group", '{"type":"central_extension","q_rank":2,'
                          '"a_rank":1,"pairing":[["1"]],"pairng":[]}'],
     "central_extension spec has the unknown field 'pairng'; it takes "
     "'type', 'q_rank', 'a_rank' and 'pairing'"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2},"generators":[[[1,0],[0,1]]],'
                           '"gens":[]}', "--j", "1"],
     "action spec has the unknown field 'gens'; it takes 'type', 'group' "
     "and 'generators'"),
    (["vbscan", "--group", '{"type":"action","group":{"type":"free_nilpotent",'
                           '"rank":2,"class":2,"clas":2},'
                           '"generators":[[[1,0],[0,1]]]}', "--j", "1"],
     "free_nilpotent spec has the unknown field 'clas'"),
    # the direction's length against the module's, before the search
    (["sigma", "--module", '{"nvars":2,"ideal":[]}', "--witness", "[1]"],
     "--witness has length 1, but the module has nvars 2"),
    (["sigma", "--module", '{"nvars":2,"ideal":[]}', "--witness", "[]"],
     "--witness has length 0, but the module has nvars 2"),
    (["sigma", "--module", '{"nvars":2,"ideal":[]}', "--witness", '[0,"0/3"]'],
     "--witness is the zero direction, but a direction must be nonzero"),
], ids=["missing-class", "missing-pairing", "missing-generators",
        "flat-pairing", "object-pairing", "string-generators",
        "number-generators", "object-generators", "negative-a-rank",
        "term-without-exp", "term-without-coeff", "number-ideal",
        "number-generator", "number-exp", "string-term", "string-cone-row",
        "object-cone-rows", "number-cone-rows", "string-cone-eqs",
        "string-witness", "object-witness", "misspelt-cone-field",
        "unknown-cone-field", "misspelt-ideal", "missing-ideal",
        "missing-nvars", "unknown-free-field", "misspelt-pairing",
        "unknown-action-field", "unknown-nested-group-field", "short-witness", "empty-witness", "zero-witness"])
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


def test_strict_is_a_sigma_flag_only(capsys):
    # only the witness search can come back "unknown"
    with pytest.raises(SystemExit) as exc:
        main(["betti", "--group", HEIS, "--strict"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --strict" in capsys.readouterr().err


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


def test_a_directory_as_input_exit_2(tmp_path, capsys):
    code, out, err = run_cli(capsys, "betti", "--group", str(tmp_path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(tmp_path) in err


@pytest.mark.parametrize("where", ["missing/out.json", "."])
def test_an_unwritable_output_exit_2(tmp_path, capsys, where):
    target = tmp_path / where
    code, out, err = run_cli(capsys, "betti", "--group", HEIS,
                             "--output", str(target))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and str(target) in err
    assert not (tmp_path / "missing").exists()


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
