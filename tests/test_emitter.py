"""``jsonio.dumps_json`` against its oracle, ``json.dumps(doc, indent=2)``.

The emitter must give the oracle's text exactly, compared as strings, on
hand-made edge cases and on every document the command line writes for
the computations of the four demos (the CLI tests check theirs through a
fixture in ``test_cli.py``), and must raise TypeError wherever the
oracle does.
"""

import json

import pytest

from nilhom import cli, jsonio
from nilhom.sigma import full_sphere

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
    assert jsonio.dumps_json(doc) == json.dumps(doc, indent=2)


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
        jsonio.dumps_json(doc)


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
    emit, seen = jsonio.dumps_json, []
    monkeypatch.setattr(jsonio, "dumps_json",
                        lambda doc: seen.append(doc) or emit(doc))
    for argv in DEMO_COMMANDS[demo]:
        assert cli.main(argv) == 0, argv
    out = capsys.readouterr().out
    assert len(seen) == len(DEMO_COMMANDS[demo])
    texts = [emit(doc) for doc in seen]
    assert texts == [json.dumps(doc, indent=2) for doc in seen]
    assert out == "".join(text + "\n" for text in texts)
