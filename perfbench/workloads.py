"""Seeded request lists for the benchmark workloads.

A workload is one pass: a list of CLI argv lists, each with the exit
codes that count as a correct answer.  The same (workload, seed, tiny)
always gives the same list.  Each pass has a fixed composition (how many
requests of each command, dimension and case) and the seed only picks
parameters within a case, so the cost of a pass barely depends on the
seed and runs with different seeds are comparable.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from checks import chi_formula

# At the commit that introduced this benchmark these requests end in a
# ValueError traceback (exit 1).  Their documented answer is exit 2; they
# count as failed until the CLI maps the error to that exit code.
KNOWN_FAILURES = (("search", "--g", "1", "--d", "5"), ("search", "--g", "3", "--d", "0"))


@dataclass(frozen=True)
class Request:
    argv: tuple[str, ...]
    expect: frozenset[int]


OK = frozenset({0})
PARSE_ERROR = frozenset({2})
NO_CERTIFICATE = frozenset({4})


def _req(expect: frozenset[int], *argv) -> Request:
    return Request(tuple(str(x) for x in argv), expect)


def _general_d(rng: random.Random, g: int, case: str) -> int:
    """A degree for which both recipes fire, only the strict one, or none (d <= g)."""
    if case == "none":
        return rng.randint(1, g)
    if case == "strict":
        return rng.randint(g + 1, 2**g - 1)
    return rng.randint(2**g, 2**g + 600)


def general(rng: random.Random, tiny: bool) -> list[Request]:
    # g = 2 goes through the surface table; g >= 3 through the recipes.
    # The slot counts put the median in the middle of the g = 6 group and
    # the p90 in the middle of the g = 7 "both" group, away from the edges
    # between groups of different cost.
    slots = [("beta", 2, "none"), ("beta", 2, "strict"), ("np", 2, "both")]
    top = 4 if tiny else 5
    slots += [(cmd, g, case) for g in range(3, top + 1) for cmd, case in (("beta", "both"), ("np", "strict"), ("beta", "none"))]
    if not tiny:
        slots += [(cmd, 6, case) for case in ("both", "strict", "none") for cmd in ("beta", "np")] * 3
        slots += [("beta", 7, "both"), ("np", 7, "both")] * 3 + [("beta", 7, "strict"), ("np", 7, "none")]
        # one certify at g = 8 costs about a third of the pass
        slots += [("beta", 8, "strict")]
    requests = []
    for cmd, g, case in slots:
        d = _general_d(rng, g, case)
        if cmd == "beta":
            requests.append(_req(OK, "beta", "--general", g, d))
        else:
            requests.append(_req(OK, "np", "--g", g, "--d", d))
    return requests


def search(rng: random.Random, tiny: bool) -> list[Request]:
    if tiny:
        return [_req(OK, "search", "--g", 3, "--d", rng.randint(8, 12)),
                _req(OK, "search", "--g", 2, "--d", rng.randint(3, 9), "--generalized")]
    # The seeded slots are all cheap (well under the median); the fixed
    # degrees form a middle group of similar cost around the median and a
    # top group around the p90, so neither statistic sits on an edge
    # between groups whatever the seed picks.
    requests = [_req(OK, "search", "--g", 2, "--d", rng.randint(3, 24), "--generalized") for _ in range(4)]
    requests += [_req(OK, "search", "--g", 3, "--d", rng.randint(3, 7), "--generalized") for _ in range(2)]
    requests += [_req(OK, "search", "--g", 3, "--d", rng.randint(8, 18)) for _ in range(3)]
    requests += [_req(OK, "search", "--g", 3, "--d", d) for d in (32, 34, 40, 42, 44, 46, 50)]
    requests += [_req(OK, "search", "--g", 4, "--d", 9)]
    requests += [_req(OK, "search", "--g", 3, "--d", d) for d in (48, 52, 54, 56, 60, 64)]
    requests += [_req(OK, "search", "--g", 4, "--d", d) for d in (8, 10)]
    return requests


def _explicit_class(rng: random.Random, g: int, ample: bool) -> tuple[list[int], list[int], int]:
    """Random class whose chi is positive (ample) or zero (degenerate, not ample).

    With nonnegative coefficients the class is nef, so it is ample exactly
    when it is nondegenerate, i.e. when chi > 0.
    """
    while True:
        k = [rng.randint(1, 9) for _ in range(g - 1)]
        a = [rng.choice((0, 1, 1, 2, 3)) for _ in range(g)]
        c = rng.randint(0, 2)
        if (any(a) or c) and (chi_formula(k, a, c) > 0) == ample:
            return k, a, c


def _malformed(rng: random.Random) -> list[Request]:
    n = rng.randint(2, 5)
    return [
        _req(PARSE_ERROR, "chi", "--g", n, "--k", ",".join(["1"] * (n - 1)), "--a", "1,x"),
        _req(PARSE_ERROR, "type", "--g", n),
        _req(PARSE_ERROR, "ample", "--g", n, "--k", "1", "--a", ",".join(["1"] * (n + 1))),
        _req(PARSE_ERROR, "kgroup", "--g", n, "--k", ",".join(["1"] * (n - 1)), "--a", ",".join(["-1"] * n)),
        _req(PARSE_ERROR, "beta", "--general", 0, rng.randint(1, 50)),
        _req(PARSE_ERROR, "np", "--g", n, "--d", 0),
        _req(PARSE_ERROR, "table", "--max", 0),
        _req(PARSE_ERROR, "chi", "--g", "two"),
        _req(PARSE_ERROR, "frobnicate", "--g", n),
    ]


def queries(rng: random.Random, tiny: bool) -> list[Request]:
    scale = 1 if tiny else 3
    top = 4 if tiny else 6
    requests = []
    for g in range(2, top + 1):
        for ample, count in ((True, 4 * scale), (False, 2 * scale)):
            for cmd in ("chi", "type", "kgroup", "ample", "beta"):
                # explicit beta on an ample class runs the g!-order flag search
                n = max(1, count // (g - 3)) if cmd == "beta" and ample and g >= 5 else count
                for i in range(n):
                    k, a, c = _explicit_class(rng, g, ample)
                    argv = [cmd, "--g", g, "--k", ",".join(map(str, k)), "--a", ",".join(map(str, a)), "--c", c]
                    if cmd == "kgroup" and i % 2:
                        argv.append("--full")
                    expect = OK if ample or cmd in ("chi", "ample") else NO_CERTIFICATE
                    requests.append(_req(expect, *argv))
        for case in ("both", "strict", "none"):
            requests.append(_req(OK, "np", "--g", g, "--d", _general_d(rng, g, case)))
    requests += [_req(OK, "table", "--max", rng.randint(1, 300)) for _ in range(2 * scale)]
    for _ in range(scale):
        requests += _malformed(rng)
    requests += [Request(argv, PARSE_ERROR) for argv in KNOWN_FAILURES]
    return requests


WORKLOADS = {"general": general, "search": search, "queries": queries}


def build(workload: str, seed: int, tiny: bool = False) -> list[Request]:
    """One pass of the workload, in a seeded order."""
    rng = random.Random(f"{workload}:{seed}")
    requests = WORKLOADS[workload](rng, tiny)
    rng.shuffle(requests)
    return requests
