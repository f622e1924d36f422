"""Seeded job lists for the three benchmark workloads.

A job is one ``nilhom`` command line: the argv handed to
``nilhom.cli.main``, the exit code it must return, and the facts the
output checks need (``meta``).  Every random choice comes from a
``random.Random`` seeded with the workload name and the seed, so the same
seed always yields the same list.  The program sees only the argv.

Seeded inputs keep the *shape* of each job fixed (ranks, term counts,
Newton polygon combinatorics, eigenvalue growth) and randomise the
entries, so the work a pass does barely moves from seed to seed while the
numbers the program handles do.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

WORKLOADS = ("homology", "tameness", "scan")
DEFAULT_SEED = 0


@dataclass(frozen=True)
class Job:
    id: str
    argv: tuple
    exit: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def kind(self) -> str:
        """Subcommand bucket the job's time is charged to."""
        cmd = self.argv[0]
        if cmd == "betti" and "--integral" in self.argv:
            return "betti_integral"
        if cmd == "sigma" and "--witness" in self.argv:
            return "witness"
        return cmd


def _js(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _free(r, c):
    return _js({"type": "free_nilpotent", "rank": r, "class": c})


def _mat(rows):
    return [[str(x) for x in row] for row in rows]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b)))
             for j in range(len(b[0]))] for i in range(len(a))]


def _unimodular2(rng):
    """Random 2x2 integer matrix of determinant +-1 with small entries,
    together with its inverse."""
    u, inv = [[1, 0], [0, 1]], [[1, 0], [0, 1]]
    for _ in range(3):
        k = rng.choice((-1, 1))
        if rng.random() < 0.5:
            e, e_inv = [[1, k], [0, 1]], [[1, -k], [0, 1]]
        else:
            e, e_inv = [[1, 0], [k, 1]], [[1, 0], [-k, 1]]
        u, inv = _matmul(e, u), _matmul(inv, e_inv)
    if rng.random() < 0.5:
        swap = [[0, 1], [1, 0]]
        u, inv = _matmul(swap, u), _matmul(inv, swap)
    return u, inv


# ---------------------------------------------------------------- homology

def _homology(rng):
    jobs = []
    for r in (2, 3, 4):
        jobs.append(Job(f"betti.r{r}", ("betti", "--group", _free(r, 2)),
                        meta={"rank": r}))
    for r in (3, 4):
        jobs.append(Job(f"betti_integral.r{r}",
                        ("betti", "--group", _free(r, 2), "--integral"),
                        meta={"rank": r}))
    jobs.append(Job("pages.free4", ("pages", "--group", _free(4, 2)),
                    meta={"n": 4, "a": 6}))
    # fixed shapes, random pairings: the d2 o d2 check in Page costs the
    # same on every seed while the entries differ
    for n, a in ((5, 3), (5, 4), (6, 3), (6, 4)):
        pairing = [[rng.randint(-3, 3) for _ in range(n * (n - 1) // 2)]
                   for _ in range(a)]
        group = {"type": "central_extension", "q_rank": n, "a_rank": a,
                 "pairing": _mat(pairing)}
        jobs.append(Job(f"pages.ext{n}x{a}", ("pages", "--group", _js(group)),
                        meta={"n": n, "a": a}))
    for r, c, js in ((4, 2, range(1, 6)), (3, 3, range(1, 5))):
        for j in js:
            jobs.append(Job(f"filtration.r{r}c{c}j{j}",
                            ("filtration", "--group", _free(r, c), "--j", str(j)),
                            meta={"rank": r, "class": c, "j": j}))
    jobs.append(Job("reject.betti_class3", ("betti", "--group", _free(3, 3)),
                    exit=2))
    return jobs


# ---------------------------------------------------------------- tameness

# Support templates in two variables: the seed moves them and draws their
# coefficients, so the cone count, the tameness verdicts and the LP work
# of each slot are the same on every seed.
_TEMPLATES = {
    "p4": ((0, 0), (3, 0), (0, 3), (1, 1)),            # triangle + interior
    "p5": ((0, 0), (2, 0), (3, 2), (0, 1), (1, 1)),    # no parallel edges
    "p6": ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),  # hexagon
}
_WITNESS = (
    ((((0, 0, 0), (1, 0, 0), (0, 1, 1)), ((0, 0, 0), (0, 1, 0), (1, 0, 1))),
     [1, 2, -1]),
    ((((0, 0, 0), (1, 1, 0), (0, 0, 1)), ((1, 0, 0), (0, 1, 0), (0, 0, 1))),
     [-1, 1, 2]),
)
_TAME_MS = {"m0": (2, 4), "p4": (2, 3), "p5": (2,), "p6": (2,)}


def _poly(terms):
    return [{"coeff": str(c), "exp": list(e)} for e, c in terms]


def _random_principal(rng, template):
    # the complement depends on the support only up to translation; even a
    # signed permutation of the axes reorders the simplex's columns and
    # moves an LP's pivot count by half, so the orientation stays fixed
    dx, dy = rng.randint(-3, 3), rng.randint(-3, 3)
    terms = [((x + dx, y + dy), rng.choice((-3, -2, -1, 1, 2, 3)))
             for x, y in template]
    return {"nvars": 2, "ideal": [_poly(terms)]}


def _ray(a, b):
    """The closed ray through (a, b) in the plane, as a cone."""
    return {"ineqs": [[str(a), str(b)]], "eqs": [[str(-b), str(a)]]}


def _tameness(rng):
    jobs = []
    modules = {"m0": {"nvars": 2, "ideal": [_poly(
        [((0, 0), 1), ((1, 0), 1), ((0, 1), 1), ((1, 1), 1), ((2, 0), 1)])]}}
    for name, template in _TEMPLATES.items():
        modules[name] = _random_principal(rng, template)
    for name, mod in modules.items():
        jobs.append(Job(f"sigma.{name}", ("sigma", "--module", _js(mod)),
                        meta={"nvars": 2}))
        for m in _TAME_MS[name]:
            jobs.append(Job(f"tame.{name}.m{m}",
                            ("tame", "--module", _js(mod), "--m", str(m)),
                            meta={"family": name, "m": m}))
    # complements built here with a known answer: rays in the open upper
    # half-plane never sum to zero, two opposite rays do at m = 2.  The
    # seed scales the rays' generators, which the program must normalise.
    k = rng.randint(1, 4)
    held = _js([_ray(k * a, k * b) for a, b in ((1, 2), (-2, 1))])
    k = rng.randint(1, 4)
    opposed = _js([_ray(k * 2, k), _ray(-2, -1)])
    for name, sc, c, n, fails_at in (("held", held, 1, 2, None),
                                     ("opposed", opposed, 1, 1, 2)):
        jobs.append(Job(f"report.{name}",
                        ("report", "--c", str(c), "--n", str(n),
                         "--sigma-complement", sc),
                        meta={"family": name, "c": c, "n": n,
                              "fails_at": fails_at}))
        jobs.append(Job(f"tame.{name}.m2",
                        ("tame", "--sigma-complement", sc, "--m", "2"),
                        meta={"family": name, "m": 2}))
    # fixed supports and directions, seeded signs and one translation of
    # the whole ideal: the elimination's fill-in, and so its cost, is the
    # same on every seed
    for k, (supports, direction) in enumerate(_WITNESS):
        shift = [rng.randint(-2, 2) for _ in range(3)]
        gens = [_poly([(tuple(x + s for x, s in zip(e, shift)),
                        rng.choice((-1, 1))) for e in support])
                for support in supports]
        jobs.append(Job(f"witness.i{k}",
                        ("sigma", "--module", _js({"nvars": 3, "ideal": gens}),
                         "--witness", _js(direction), "--degree-bound", "3"),
                        meta={"nvars": 3, "direction": direction}))
    two_gens = {"nvars": 2, "ideal": modules["p4"]["ideal"]
                + modules["p5"]["ideal"]}
    jobs.append(Job("reject.sigma_non_principal",
                    ("sigma", "--module", _js(two_gens)), exit=2))
    return jobs


# -------------------------------------------------------------------- scan

def _action(r, gens):
    return _js({"type": "action",
                "group": {"type": "free_nilpotent", "rank": r, "class": 2},
                "generators": [_mat(g) for g in gens]})


def _pad(block, sign):
    return [block[0] + [0], block[1] + [0], [0, 0, sign]]


def _scan(rng):
    jobs = []

    def scan(name, r, gens, j, m_max):
        jobs.append(Job(f"vbscan.{name}.j{j}",
                        ("vbscan", "--group", _action(r, gens), "--j", str(j),
                         "--m-max", str(m_max)),
                        meta={"j": j, "m_max": m_max}))

    anosov = [[2, 1], [1, 1]]
    for j in (1, 2, 3):
        scan("anosov2", 2, [anosov], j, 256)
    fib = [[1, 1], [1, 0]]
    pair = [_pad(_matmul(fib, fib), 1), _pad(fib, -1)]
    for j in (1, 2, 3):
        scan("pair3", 3, pair, j, 8)
    # conjugates of one trace-3 matrix: the same eigenvalue growth on
    # every seed, different entries
    base = [[0, -1], [1, 3]]
    for sign in (1, -1):
        u, inv = _unimodular2(rng)
        block = _matmul(_matmul(u, base), inv)
        name = f"block3{'p' if sign > 0 else 'm'}"
        scan(name, 3, [_pad(block, sign)], 1, 24)
        scan(name, 3, [_pad(block, sign)], 2, 24)
    shear = rng.choice((1, -1))
    jobs.append(Job("reject.vbscan_noncommuting",
                    ("vbscan", "--group",
                     _action(2, [[[1, shear], [0, 1]], [[1, 0], [shear, 1]]]),
                     "--j", "1"), exit=2))
    return jobs


_GENERATORS = {"homology": _homology, "tameness": _tameness, "scan": _scan}


def jobs(workload: str, seed: int):
    """The job list of one pass of ``workload`` for ``seed``."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))
