"""Correctness checks applied from outside to every benchmark request.

Nothing here imports betabound: each check recomputes what it can from
the request's argv with code of its own (the closed multilinear chi
formula, exact bound comparison) and compares it with the rendered
envelope.  ``check`` returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import json
from fractions import Fraction


def chi_formula(k: list[int], a: list[int], c: int) -> int:
    """chi = prod_i a_i + c * sum_i k_i * prod_{j != i} a_j, with k_{g-1} = 1."""
    k_full = list(k) + [1]
    prod = 1
    for x in a:
        prod *= x
    mixed = 0
    for i, ki in enumerate(k_full):
        p = ki
        for j, x in enumerate(a):
            if j != i:
                p *= x
        mixed += p
    return prod + c * mixed


def _flag(argv: list[str], name: str) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else None


def _ints(text: str | None) -> list[int]:
    return [int(x) for x in text.split(",")] if text else []


def _class_of(argv: list[str]) -> tuple[list[int], list[int], int]:
    """(k, a, c) of an explicit-class request."""
    return _ints(_flag(argv, "--k")), _ints(_flag(argv, "--a")), int(_flag(argv, "--c") or 0)


def _bound_le(x: dict, y: dict) -> bool:
    """x <= y for two rendered bounds, decided by integer arithmetic."""
    if x["kind"] == "rational" and y["kind"] == "rational":
        return Fraction(x["value"]) <= Fraction(y["value"])
    if x["kind"] == "rational":
        # p/q <= r^(-1/n)  iff  p^n * r <= q^n
        q = Fraction(x["value"])
        return q.numerator ** y["degree"] * y["radicand"] <= q.denominator ** y["degree"]
    if y["kind"] == "rational":
        q = Fraction(y["value"])
        return q.numerator ** x["degree"] * x["radicand"] >= q.denominator ** x["degree"]
    # r1^(-1/n1) <= r2^(-1/n2)  iff  r1^n2 >= r2^n1
    return x["radicand"] ** y["degree"] >= y["radicand"] ** x["degree"]


_ONE = {"kind": "rational", "value": "1"}


def _check_interval(interval: dict, where: str) -> list[str]:
    if not _bound_le(interval["lower"], interval["upper"]):
        return [f"{where}: lower bound exceeds upper bound"]
    if not _bound_le(interval["upper"], _ONE):
        return [f"{where}: upper bound exceeds 1"]
    return []


def _check_flag_bound(flag: dict, g: int, where: str) -> list[str]:
    chis = flag["chis"]
    if sorted(flag["order"]) != list(range(g)) or len(chis) != g or min(chis) <= 0:
        return [f"{where}: malformed flag order or chi chain"]
    expected = max([Fraction(1, chis[-1])] + [Fraction(chis[i], chis[i - 1]) for i in range(1, g)])
    if Fraction(flag["value"]) != expected:
        return [f"{where}: flag_bound {flag['value']} != {expected} from its chis"]
    return []


def _check_type(ptype: list[int], chi: int, where: str) -> list[str]:
    problems = []
    if any(b % a for a, b in zip(ptype, ptype[1:])):
        problems.append(f"{where}: type {ptype} is not a divisibility chain")
    prod = 1
    for x in ptype:
        prod *= x
    if prod != chi:
        problems.append(f"{where}: type product {prod} != chi {chi}")
    return problems


def _check_kgroup(kgroup: dict, chi: int, where: str) -> list[str]:
    prod = 1
    for x in kgroup["value"]:
        prod *= x
    if prod != kgroup["order"] or kgroup["order"] != chi * chi:
        return [f"{where}: K-group order {kgroup['order']} != chi^2 = {chi * chi}"]
    return []


def _check_certificate(cert: dict, d: int, where: str) -> list[str]:
    params = cert["params"]
    g = params["g"]
    chi = cert["chi"]["value"]
    problems = []
    if chi_formula(params["k"], params["coefficients"], params["c"]) != chi:
        problems.append(f"{where}: reported chi {chi} != closed formula")
    if cert["type"]["value"] != [1] * (g - 1) + [d]:
        problems.append(f"{where}: type {cert['type']['value']} is not (1, ..., 1, {d})")
    problems += _check_type(cert["type"]["value"], chi, where)
    problems += _check_kgroup(cert["k_group"], chi, where)
    problems += _check_flag_bound(cert["flag_bound"], g, where)
    problems += _check_interval(cert["interval"], where)
    return problems


def _check_explicit(command: str, argv: list[str], results: dict) -> list[str]:
    k, a, c = _class_of(argv)
    g = len(a)
    chi = chi_formula(k, a, c)
    if command == "ample":
        return [] if results["ample"]["value"] == (chi > 0) else [f"ample != (chi {chi} > 0)"]
    if command == "kgroup":
        return _check_kgroup(results["k_group"], chi, "kgroup")
    if results["chi"]["value"] != chi:
        return [f"reported chi {results['chi']['value']} != closed formula {chi}"]
    if command == "chi":
        pair = (results["chi_multilinear"]["value"], results["chi_pfaffian"]["value"])
        return [] if pair == (chi, chi) else [f"chi oracles {pair} != {chi}"]
    problems = _check_type(results["type"]["value"], chi, command)
    if command == "beta":
        problems += _check_flag_bound(results["flag_bound"], g, "beta")
        problems += _check_interval(results["interval"], "beta")
    return problems


def _check_results(argv: list[str], results: dict) -> list[str]:
    command = argv[0]
    if command in ("chi", "type", "kgroup", "ample") or (command == "beta" and "--general" not in argv):
        return _check_explicit(command, argv, results)
    if command == "beta":
        d = int(argv[argv.index("--general") + 2])
        problems = _check_interval(results["interval"], "beta --general")
        if results["witness"] is not None:
            problems += _check_certificate(results["witness"], d, "witness")
        return problems
    if command == "np":
        return _check_interval(results["interval"], "np")
    if command == "search":
        d = int(_flag(argv, "--d"))
        certs = results["certificates"]
        problems = [] if results["count"] == len(certs) else ["count != number of certificates"]
        bounds = [Fraction(cert["flag_bound"]["value"]) for cert in certs]
        if bounds != sorted(bounds):
            problems.append("certificates are not sorted by bound")
        for rank, cert in enumerate(certs):
            problems += _check_certificate(cert, d, f"certificate {rank}")
        return problems
    if command == "table":
        rows = results["rows"]
        problems = [] if [r["d"] for r in rows] == list(range(1, int(_flag(argv, "--max")) + 1)) else ["table rows"]
        for row in rows:
            problems += _check_interval(row["interval"], f"table d={row['d']}")
        return problems
    return [f"no check for command {command!r}"]


def check(argv: list[str], expected_exits: frozenset[int], exit_code: int, stdout: str) -> list[str]:
    """Problems with one request's outcome; exit codes outside ``expected_exits`` are problems."""
    if exit_code not in expected_exits:
        return [f"exit {exit_code}, expected one of {sorted(expected_exits)}"]
    if exit_code != 0:
        return []
    try:
        envelope = json.loads(stdout)
        if envelope["argv"] != list(argv):
            return ["envelope does not echo argv"]
        return _check_results(list(argv), envelope["results"])
    except (ValueError, KeyError, TypeError, IndexError, ZeroDivisionError) as exc:
        return [f"unreadable envelope: {type(exc).__name__}: {exc}"]
