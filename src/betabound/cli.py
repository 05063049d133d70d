"""Command-line frontend with machine-readable output.

Subcommands: chi | type | kgroup | ample | beta | search | np | table.
Classes are described by --g, --k k1,k2,..., --a a1,...,ag and --c;
factor indices in the output are 0-based.  Output defaults to JSON with
a versioned envelope; every numeric claim carries the name of the oracle
or rule that produced it, and rationals are printed as "p/q" strings,
never as decimals.  The JSON text comes from one small writer,
``_json_text``, byte-identical to ``json.dumps(indent=2, sort_keys=True)``;
it refuses floats.  Exit codes: 0 ok, 2 parse error, 3 internal oracle
disagreement (a bug trap), 4 no certificate.  A library ValueError
(an input outside a function's domain) exits 2 like a parse error, and
so does one raised while rendering (an integer too long to print).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, replace
from typing import Sequence

from .constructor import (
    MAX_DEGREE,
    OracleDisagreement,
    brute_search,
    certify_class,
    checked_chi,
    default_box,
    general_beta,
)
from .surfacetable import generate_table
from .syzygy import necessary_lower_bounds, np_report
from .threshold import InconsistentBoundsError
from .torusmodel import (
    ConstructionSpace,
    DegenerateFormError,
    DivisorClass,
    LatticeInvariantError,
    alt_form,
    is_ample,
    k_group,
    polarization_type,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_ORACLE = 3
EXIT_NO_CERTIFICATE = 4


class CLIError(ValueError):
    """Bad command-line input (exit code 2)."""


def _parse_int_list(text: str) -> tuple[int, ...]:
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise CLIError(f"expected a comma-separated integer list, got {text!r}") from exc


def _class_from_args(args) -> DivisorClass:
    """The class the flags describe, once its entries are in range."""
    if args.g is None or args.a is None:
        raise CLIError("describing a class requires --g and --a (and --k for g >= 2)")
    space = ConstructionSpace(args.g, _parse_int_list(args.k))
    cls = DivisorClass(space, _parse_int_list(args.a), args.c)
    if max(space.k + cls.a + (cls.c,)) > MAX_DEGREE:
        raise CLIError("entries of --k, --a and --c must be <= 10^100")
    return cls


def _class_inputs(cls: DivisorClass) -> dict:
    return {
        "g": cls.space.g,
        "k": list(cls.space.k),
        "a": list(cls.a),
        "c": cls.c,
    }


def _envelope(command: str, argv: Sequence[str], inputs: dict, results: dict, fmt: str) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "argv": list(argv),
        "inputs": inputs,
        "results": results,
        "format": fmt,
    }


def _cmd_chi(args, argv) -> dict:
    form = alt_form(_class_from_args(args))
    chi = checked_chi(form)
    results = {
        "chi": {"value": chi, "by": "multilinear=pfaffian"},
        "chi_multilinear": {"value": chi, "by": "intersection-multilinear"},
        "chi_pfaffian": {"value": chi, "by": "pfaffian"},
    }
    return _envelope("chi", argv, _class_inputs(form.cls), results, args.format)


def _cmd_type(args, argv) -> dict:
    form = alt_form(_class_from_args(args))
    chi = checked_chi(form)
    ptype = polarization_type(form)
    results = {
        "type": {"value": list(ptype.d), "by": "smith-normal-form"},
        "chi": {"value": chi, "by": "multilinear=pfaffian"},
    }
    return _envelope("type", argv, _class_inputs(form.cls), results, args.format)


def _cmd_kgroup(args, argv) -> dict:
    form = alt_form(_class_from_args(args))
    checked_chi(form)
    shape = k_group(form, full=args.full)
    results = {
        "k_group": {
            "value": list(shape.divisors),
            "order": shape.order,
            "by": "smith-normal-form",
        }
    }
    return _envelope("kgroup", argv, _class_inputs(form.cls), results, args.format)


def _cmd_ample(args, argv) -> dict:
    form = alt_form(_class_from_args(args))
    chi, ample = checked_chi(form), is_ample(form)
    if ample != (chi > 0):
        # the classes accepted here are ample exactly when chi > 0 (torusmodel.is_ample)
        raise OracleDisagreement(f"minor test says ample={ample} on {form.cls}, but chi = {chi}")
    results = {"ample": {"value": ample, "by": "minor-test"}}
    return _envelope("ample", argv, _class_inputs(form.cls), results, args.format)


def _cmd_beta(args, argv) -> dict:
    if args.general is not None:
        if args.g is not None or args.k or args.a is not None or args.c:
            raise CLIError("--general takes no --g, --k, --a or --c")
        g, d = args.general
        if g < 1 or d < 1:
            raise CLIError("--general needs g >= 1 and d >= 1")
        report = general_beta(g, d)
        results = report.to_json()
        results["np"] = np_report(g, d, report.interval).to_json()
        return _envelope("beta", argv, {"general": {"g": g, "d": d}}, results, args.format)

    cls = _class_from_args(args)
    cert = certify_class(cls, lowers=(necessary_lower_bounds,)).to_json()
    results = {key: cert[key] for key in ("chi", "type", "flag_bound", "interval", "np")}
    return _envelope("beta", argv, _class_inputs(cls), results, args.format)


def _cmd_search(args, argv) -> dict:
    overrides = {name: getattr(args, name) for name in ("max_a", "max_b", "max_k", "max_c")}
    box = replace(default_box(args.g, args.d), **{k: v for k, v in overrides.items() if v is not None})
    certificates = brute_search(args.g, args.d, box=box, generalized=args.generalized)
    results = {
        "count": len(certificates),
        "certificates": [cert.to_json() for cert in certificates],
    }
    if not certificates:
        results["diagnostic"] = "no construction of the requested type inside the box"
    inputs = {"g": args.g, "d": args.d, "box": asdict(box), "generalized": args.generalized}
    return _envelope("search", argv, inputs, results, args.format)


def _cmd_np(args, argv) -> dict:
    if args.g < 1 or args.d < 1:
        raise CLIError("np needs g >= 1 and d >= 1")
    report = general_beta(args.g, args.d)
    np_cert = np_report(args.g, args.d, report.interval)
    results = {
        "np": np_cert.to_json(),
        "interval": report.interval.to_json(),
        "necessary_lower_bounds": [
            {"bound": str(rule.value), "strict": False, "by": rule.reason}
            for rule in necessary_lower_bounds(args.g, args.d)
        ],
    }
    return _envelope("np", argv, {"g": args.g, "d": args.d}, results, args.format)


def _cmd_table(args, argv) -> dict:
    if args.max < 1:
        raise CLIError("--max must be >= 1")
    rows = generate_table(args.max)
    results = {"rows": [row.to_json() for row in rows]}
    return _envelope("table", argv, {"max": args.max}, results, args.format)


def _render_markdown(envelope: dict) -> str:
    if envelope["command"] == "table":
        rows = envelope["results"]["rows"]
        header = "| d | " + " | ".join(str(r["d"]) for r in rows) + " |"
        rule = "|---|" + "---|" * len(rows)
        values = "| beta | " + " | ".join(r["display"] for r in rows) + " |"
        return "\n".join([header, rule, values])
    lines = [f"# {envelope['command']}", ""]
    for key, value in envelope["results"].items():
        lines.append(f"- {key}: {json.dumps(value, sort_keys=True)}")
    return "\n".join(lines)


def _render_csv(envelope: dict) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    command = envelope["command"]
    if command == "table":
        writer.writerow(["d", "beta", "exact", "rule"])
        for row in envelope["results"]["rows"]:
            writer.writerow([row["d"], row["display"], row["interval"]["exact"], row["rule"]])
    elif command == "search":
        writer.writerow(["rank", "bound", "a", "b", "c", "k", "order", "type"])
        for rank, cert in enumerate(envelope["results"]["certificates"], start=1):
            params = cert["params"]
            writer.writerow(
                [
                    rank,
                    cert["flag_bound"]["value"],
                    params["a"],
                    params["b"],
                    params["c"],
                    " ".join(str(x) for x in params["k"]),
                    " ".join(str(x) for x in cert["flag_bound"]["order"]),
                    " ".join(str(x) for x in cert["type"]["value"]),
                ]
            )
    else:
        writer.writerow(["key", "value"])
        for key, value in envelope["results"].items():
            writer.writerow([key, json.dumps(value, sort_keys=True)])
    return out.getvalue().rstrip("\n")


_quote = json.encoder.encode_basestring_ascii


def _json_text(value, pad: str = "") -> str:
    """JSON text of value, byte for byte ``json.dumps(value, indent=2, sort_keys=True)``.

    Takes dicts with str keys, lists, tuples (written as lists), str, int,
    bool and None; anything else, a float included, raises TypeError.  An
    int too long to print raises ValueError, as ``int.__repr__`` does.
    With ``indent`` the stdlib call cannot use its C encoder (Python <=
    3.13), and its pure-Python fallback takes about twice as long.
    """
    if isinstance(value, str):
        return _quote(value)
    if value is True:
        return "true"
    if value is False:
        return "false"
    if value is None:
        return "null"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = pad + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        parts = [_quote(key) + ": " + _child_text(value[key], inner) for key in sorted(value)]
        return "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_child_text(item, inner) for item in value]
        return "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _child_text(item, pad: str) -> str:
    # str and int, most of a search's leaves, skip _json_text's type tests
    kind = type(item)
    return _quote(item) if kind is str else int.__repr__(item) if kind is int else _json_text(item, pad)


def render(envelope: dict) -> str:
    fmt = envelope["format"]
    if fmt == "json":
        return _json_text(envelope)
    if fmt == "markdown":
        return _render_markdown(envelope)
    if fmt == "csv":
        return _render_csv(envelope)
    raise CLIError(f"unknown format {fmt!r}")


def _add_class_flags(parser: argparse.ArgumentParser):
    parser.add_argument("--g", type=int, help="number of elliptic-curve factors")
    parser.add_argument("--k", type=str, default="", help="comma-separated multipliers k1,...,k(g-1)")
    parser.add_argument("--a", type=str, help="comma-separated coefficients a1,...,ag")
    parser.add_argument("--c", type=int, default=0, help="coefficient of the correspondence divisor")


def _add_format_flag(parser: argparse.ArgumentParser):
    parser.add_argument(
        "--format", choices=("json", "csv", "markdown"), default="json", help="output format"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betabound",
        description="Exact polarization invariants and basepoint-freeness threshold bounds "
        "on products of elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("chi", "Euler characteristic of a class (both oracles)"),
        ("type", "polarization type of a class"),
        ("kgroup", "shape of the finite group K(l)"),
        ("ample", "ampleness of a class"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_class_flags(p)
        _add_format_flag(p)
        if name == "kgroup":
            p.add_argument("--full", action="store_true", help="report the full doubled divisor list")

    p = sub.add_parser("beta", help="certified threshold interval for a class or a (g, d) target")
    _add_class_flags(p)
    p.add_argument(
        "--general",
        type=int,
        nargs=2,
        metavar=("G", "D"),
        help="bound the general member of type (1, ..., 1, D) in dimension G",
    )
    _add_format_flag(p)

    p = sub.add_parser("search", help="brute-force search for constructions of type (1, ..., 1, d)")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--max-a", type=int, default=None, dest="max_a")
    p.add_argument("--max-b", type=int, default=None, dest="max_b")
    p.add_argument("--max-k", type=int, default=None, dest="max_k")
    p.add_argument("--max-c", type=int, default=None, dest="max_c")
    p.add_argument("--generalized", action="store_true", help="vary interior coefficients and c")
    _add_format_flag(p)

    p = sub.add_parser("np", help="syzygy property guarantees for a (g, d) target")
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    _add_format_flag(p)

    p = sub.add_parser("table", help="beta table for general type-(1, d) abelian surfaces")
    p.add_argument("--max", type=int, default=16)
    _add_format_flag(p)

    return parser


_DISPATCH = {
    "chi": _cmd_chi,
    "type": _cmd_type,
    "kgroup": _cmd_kgroup,
    "ample": _cmd_ample,
    "beta": _cmd_beta,
    "search": _cmd_search,
    "np": _cmd_np,
    "table": _cmd_table,
}


def run(argv: Sequence[str]) -> dict:
    """Parse and execute, returning the output envelope (for tests)."""
    args = build_parser().parse_args(argv)
    return _DISPATCH[args.command](args, argv)


def main(argv: Sequence[str] | None = None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    try:
        text = render(run(argv))
    except (OracleDisagreement, LatticeInvariantError, InconsistentBoundsError) as exc:
        print(f"internal oracle failure: {exc}", file=sys.stderr)
        return EXIT_ORACLE
    except DegenerateFormError as exc:
        print(f"no certificate: {exc}", file=sys.stderr)
        return EXIT_NO_CERTIFICATE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    try:
        print(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # downstream consumer (e.g. head) closed the pipe; not an error
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
