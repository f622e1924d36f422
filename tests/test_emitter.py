"""``jsonio.write_json`` against its oracle, ``json.dumps(doc, indent=2)``.

The emitter must give the oracle's text exactly, compared as strings, on
hand-made edge cases, on every document the command line writes for the
computations of the four demos and on ``pages`` documents of edge-case
and random extensions (the CLI tests check theirs through a fixture in
``test_cli.py``), and must raise TypeError wherever the oracle does.  A
page is read by the oracle as ``reference_jsonio.page_json``.
"""

import json
import random
from math import comb

import pytest

from nilhom import cli, jsonio
from nilhom.groups import FreeNilpotentSpec, central_extension_of_class2
from nilhom.sigma import full_sphere
from nilhom.spectral import Page, e2_page

from reference_jsonio import DocumentCheck, dumps, oracle

EDGE_CASES = [
    {}, [], [[]], [{}], {"a": {}}, {"a": []}, [[], [[]], {}],
    (), (1, 2), [(1, (2, 3)), ()], {"t": ("x", "y")},
    [True, False, None], [True], [None, None], [1, "1", True], [1, True],
    [0, -1, 2**64 + 1, -(2**70), 10**40],
    [1.5, -0.0, 1e300, 5e-324, float("inf"), float("-inf"), float("nan")],
    ['say "hi"', "back\\slash", "line\nbreak\ttab\r", "\x00\x01\x1f\x7f",
     "Grüße", "∂²x", "\U0001f600", "  ", ""],
    {"é": "ü", 'k"ey': ["v"], "": ""},
    {1: "int key", 2.5: "float key", False: "bool key", None: "none key",
     -3: [1]},
    "top-level", "Grüße", 7, -7, 2**80, 0.1, True, False, None,
    {"schema": "v1", "config": {"group": {"rank": 2}, "integral": False},
     "betti": [1, 2, 2, 1], "page": {"cells": [
         {"p": 0, "q": 0, "dim": 1, "basis": [[[], []]]},
         {"p": 1, "q": 0, "dim": 2, "basis": [[[0], []], [[1], []]]}],
         "differentials": [{"p": 2, "q": 0, "matrix": [["-1"]]}]}},
    [[["1", "-2"], ["3", "4"]], [[1, 2], [3, 4]], [["1", 2], [None, 3.5]]],
    [[[[[[[[[[["deep"]]]]]]]]]]],
]


@pytest.mark.parametrize("doc", EDGE_CASES, ids=range(len(EDGE_CASES)))
def test_edge_cases_match_the_oracle(doc):
    assert dumps(doc) == json.dumps(doc, indent=2)


class Opaque:
    pass


REFUSED = [{1, 2}, Opaque(), b"bytes", {"a": {1}}, [1, object()],
           ({"x": frozenset()},), {(1, 2): "tuple key"}, {Opaque(): 1},
           [[[{"deep": {3}}]]], 1j]


@pytest.mark.parametrize("doc", REFUSED, ids=range(len(REFUSED)))
def test_what_json_refuses_raises_type_error(doc):
    with pytest.raises(TypeError):
        json.dumps(doc, indent=2)
    with pytest.raises(TypeError):
        dumps(doc)


HEIS = '{"type":"free_nilpotent","rank":2,"class":2}'
T_MINUS_2 = ('{"nvars":1,"ideal":[[{"coeff":"1","exp":[1]},'
             '{"coeff":"-2","exp":[0]}]]}')
FREE = '{"nvars":1,"ideal":[]}'
TRIANGLE = ('{"nvars":2,"ideal":[[{"coeff":"1","exp":[0,0]},'
            '{"coeff":"1","exp":[1,0]},{"coeff":"1","exp":[0,1]}]]}')


def _free(r, c):
    return json.dumps({"type": "free_nilpotent", "rank": r, "class": c})


def _action(gens):
    return json.dumps({"type": "action", "group": json.loads(HEIS),
                       "generators": gens})


# the command lines for what each demo computes
DEMO_COMMANDS = {
    "heisenberg_homology": [["pages", "--group", HEIS]] + [
        ["betti", "--group", _free(r, 2), "--integral"] for r in (2, 3, 4)],
    "filtration_bound": [
        ["filtration", "--group", _free(r, c), "--j", str(j)]
        for r, c in ((3, 2), (2, 3)) for j in (1, 2, 3)],
    "sigma_tameness": [
        ["sigma", "--module", T_MINUS_2],
        ["sigma", "--module", T_MINUS_2, "--witness", "[1]", "--degree-bound", "4"],
        ["sigma", "--module", T_MINUS_2, "--witness", "[-1]", "--degree-bound", "4"],
        ["tame", "--module", T_MINUS_2, "--m", "12"],
        ["tame", "--module", FREE, "--m", "2"],
        ["sigma", "--module", TRIANGLE],
        ["tame", "--module", TRIANGLE, "--m", "2"],
        ["tame", "--module", TRIANGLE, "--m", "3"]],
    "virtual_betti_scan": [
        ["vbscan", "--group", _action([[["2", "1"], ["1", "1"]]]),
         "--j", str(j), "--m-max", "16"] for j in range(4)] + [
        ["vbscan", "--group", _action([[["1", "0"], ["0", "1"]]]),
         "--j", str(j), "--m-max", "8"] for j in range(3)] + [
        ["report", "--c", "2", "--n", "3", "--sigma-complement", "[]"],
        ["report", "--c", "1", "--n", "1", "--sigma-complement",
         json.dumps(jsonio.cones_json(full_sphere(1)))]],
}


@pytest.mark.parametrize("demo", sorted(DEMO_COMMANDS))
def test_demo_documents_match_the_oracle(demo, capsys, monkeypatch):
    check = DocumentCheck(monkeypatch)
    for argv in DEMO_COMMANDS[demo]:
        assert cli.main(argv) == 0, argv
    out = capsys.readouterr().out
    check.verify()
    assert len(check.docs) == len(DEMO_COMMANDS[demo])
    assert out == "".join(oracle(doc) + "\n" for doc in check.docs)


def _extension(q_rank, a_rank, pairing):
    return json.dumps({"type": "central_extension", "q_rank": q_rank,
                       "a_rank": a_rank,
                       "pairing": [[str(x) for x in row] for row in pairing]})


def _random_extensions(count, n, a):
    rng = random.Random(19)
    return [_extension(n, a, [[rng.randint(-3, 3) for _ in range(comb(n, 2))]
                              for _ in range(a)]) for _ in range(count)]


# pages whose labels, cells and matrix rows take every shape the writer
# handles: empty I or J, empty and single-entry cells, no differential,
# and multi-digit, negative and big entries
PAGE_GROUPS = [_free(r, 2) for r in (1, 2, 3, 4)] + [
    _extension(3, 0, []),
    _extension(0, 2, [[], []]),
    _extension(1, 2, [[], []]),
    _extension(4, 1, [[0] * 6]),
    _extension(3, 2, [[-12, -100, 2**70], [3, 0, -1]]),
] + _random_extensions(20, 6, 4)


@pytest.mark.parametrize("group", PAGE_GROUPS, ids=range(len(PAGE_GROUPS)))
def test_page_documents_match_the_oracle(group, capsys, monkeypatch):
    check = DocumentCheck(monkeypatch)
    assert cli.main(["pages", "--group", group]) == 0
    out = capsys.readouterr().out
    check.verify()
    assert len(check.docs) == 1
    assert out == oracle(check.docs[0]) + "\n"


def test_pages_anywhere_in_a_document_match_the_oracle():
    # pages the command line never prints: no cells, an empty cell, and
    # pages nested at other depths than a document's "page" key
    heis = e2_page(central_extension_of_class2(FreeNilpotentSpec(2, 2)))
    docs = [Page({}, {}), [Page({(0, 0): ()}, {})],
            {"a": [{"b": heis}, heis], "c": Page({}, {})}, [[], heis, 1]]
    for doc in docs:
        assert dumps(doc) == oracle(doc)


def test_page_cases_reach_every_shape(capsys):
    pages = []
    for group in PAGE_GROUPS:
        assert cli.main(["pages", "--group", group]) == 0
        pages.append(json.loads(capsys.readouterr().out)["page"])
    entries = {x for page in pages for d in page["differentials"]
               for row in d["matrix"] for x in row}
    assert {"-12", "-100", str(2**70)} <= entries
    assert sum(1 for page in pages if page["differentials"] == []) >= 5
