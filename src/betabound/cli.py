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

Each subparser carries its ``_cmd_*`` handler, which returns the
command's inputs and results; ``run`` parses argv and wraps those two in
the one envelope every command shares.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys
from dataclasses import asdict, replace
from math import prod
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
    space = ConstructionSpace(args.g, _parse_int_list(args.k or ""))
    cls = DivisorClass(space, _parse_int_list(args.a), args.c or 0)
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


def _cmd_chi(args) -> tuple[dict, dict]:
    form = alt_form(_class_from_args(args))
    chi = checked_chi(form)
    return _class_inputs(form.cls), {
        "chi": {"value": chi, "by": "multilinear=pfaffian"},
        "chi_multilinear": {"value": chi, "by": "intersection-multilinear"},
        "chi_pfaffian": {"value": chi, "by": "pfaffian"},
    }


def _cmd_type(args) -> tuple[dict, dict]:
    form = alt_form(_class_from_args(args))
    chi = checked_chi(form)
    return _class_inputs(form.cls), {
        "type": {"value": list(polarization_type(form)), "by": "smith-normal-form"},
        "chi": {"value": chi, "by": "multilinear=pfaffian"},
    }


def _cmd_kgroup(args) -> tuple[dict, dict]:
    form = alt_form(_class_from_args(args))
    checked_chi(form)
    divisors = k_group(polarization_type(form), full=args.full)
    return _class_inputs(form.cls), {
        "k_group": {"value": list(divisors), "order": prod(divisors), "by": "smith-normal-form"}
    }


def _cmd_ample(args) -> tuple[dict, dict]:
    form = alt_form(_class_from_args(args))
    chi, ample = checked_chi(form), is_ample(form)
    if ample != (chi > 0):
        # the classes accepted here are ample exactly when chi > 0 (torusmodel.is_ample)
        raise OracleDisagreement(f"minor test says ample={ample} on {form.cls}, but chi = {chi}")
    return _class_inputs(form.cls), {"ample": {"value": ample, "by": "minor-test"}}


def _cmd_beta(args) -> tuple[dict, dict]:
    if args.general is not None:
        if any(flag is not None for flag in (args.g, args.k, args.a, args.c)):
            raise CLIError("--general takes no --g, --k, --a or --c")
        g, d = args.general
        if g < 1 or d < 1:
            raise CLIError("--general needs g >= 1 and d >= 1")
        report = general_beta(g, d)
        results = report.to_json()
        results["np"] = np_report(g, d, report.interval).to_json()
        return {"general": {"g": g, "d": d}}, results

    cls = _class_from_args(args)
    cert = certify_class(cls, lowers=(necessary_lower_bounds,)).to_json()
    return _class_inputs(cls), {key: cert[key] for key in ("chi", "type", "flag_bound", "interval", "np")}


def _cmd_search(args) -> tuple[dict, dict]:
    if args.max_c is not None and not args.generalized:
        raise CLIError("--max-c needs --generalized: the standard search keeps c = 1")
    overrides = {name: getattr(args, name) for name in ("max_a", "max_b", "max_k", "max_c")}
    box = replace(default_box(args.g, args.d), **{k: v for k, v in overrides.items() if v is not None})
    certificates = brute_search(args.g, args.d, box=box, generalized=args.generalized)
    memo = {}  # one envelope's equal parts as one object (Certificate.to_json)
    results = {
        "count": len(certificates),
        "certificates": [cert.to_json(memo) for cert in certificates],
    }
    if not certificates:
        results["diagnostic"] = "no construction of the requested type inside the box"
    return {"g": args.g, "d": args.d, "box": asdict(box), "generalized": args.generalized}, results


def _cmd_np(args) -> tuple[dict, dict]:
    if args.g < 1 or args.d < 1:
        raise CLIError("np needs g >= 1 and d >= 1")
    report = general_beta(args.g, args.d)
    return {"g": args.g, "d": args.d}, {
        "np": np_report(args.g, args.d, report.interval).to_json(),
        "interval": report.interval.to_json(),
        "necessary_lower_bounds": [
            {"bound": str(rule.value), "strict": False, "by": rule.reason}
            for rule in necessary_lower_bounds(args.g, args.d)
        ],
    }


def _cmd_table(args) -> tuple[dict, dict]:
    if args.max < 1:
        raise CLIError("--max must be >= 1")
    return {"max": args.max}, {"rows": [row.to_json() for row in generate_table(args.max)]}


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


def _json_text(value) -> str:
    """JSON text of value, byte for byte ``json.dumps(value, indent=2, sort_keys=True)``.

    Takes dicts with str keys, lists, tuples (written as lists), str, int,
    bool and None; anything else, a float included, raises TypeError.  An
    int too long to print raises ValueError, as ``int.__repr__`` does.
    With ``indent`` the stdlib call cannot use its C encoder (Python <=
    3.13), and its pure-Python fallback takes over twice as long.
    """
    return _write(value, "", {}, {})


def _write(value, pad: str, frames: dict, texts: dict) -> str:
    """``_json_text`` of a value written at indent ``pad``.

    Exact str and int children, most of a search's leaves, are written
    inline.  ``frames`` maps the key tuple of each dict met, in insertion
    order, to its keys in sorted order, each with its quoted text and
    ": ", so a shape that recurs, such as a search's certificates or a
    table's rows, has its keys sorted and quoted once per call.

    ``texts`` maps each nonempty container met, by (id, indent), to ""
    the first time and to its text the second, and from then on its
    parent reads that text instead of recursing: a sub-tree one tree holds
    many times, such as the parts a search's certificates share
    (``Certificate.to_json``), is written, and its node visited, at most
    twice per indent, however often it is held.  A node met once
    keeps no text, so peak memory does not grow by the output.  Ids are
    compared only within one call, while the tree being written keeps
    every node alive; nothing is kept between calls.
    """
    is_dict = isinstance(value, dict)
    if is_dict or isinstance(value, (list, tuple)):
        if not value:
            return "{}" if is_dict else "[]"
        node = (id(value), pad)
        seen = texts.get(node)  # None or "": a stored text is read by the parent
        inner = pad + "  "
        parts = []
        if is_dict:
            shape = tuple(value)
            frame = frames.get(shape)
            if frame is None:
                frame = frames[shape] = [(key, _quote(key) + ": ") for key in sorted(value)]
            for key, prefix in frame:
                item = value[key]
                kind = type(item)
                text = _quote(item) if kind is str else int.__repr__(item) if kind is int else texts.get((id(item), inner)) or _write(item, inner, frames, texts)
                parts.append(prefix + text)
            text = "{\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "}"
        else:
            for item in value:
                kind = type(item)
                parts.append(_quote(item) if kind is str else int.__repr__(item) if kind is int else texts.get((id(item), inner)) or _write(item, inner, frames, texts))
            text = "[\n" + inner + (",\n" + inner).join(parts) + "\n" + pad + "]"
        texts[node] = "" if seen is None else text
        return text
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
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


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
    # no defaults, so beta --general can refuse a given --c 0 or --k ''
    parser.add_argument("--g", type=int, help="number of elliptic-curve factors")
    parser.add_argument("--k", type=str, help="comma-separated multipliers k1,...,k(g-1)")
    parser.add_argument("--a", type=str, help="comma-separated coefficients a1,...,ag")
    parser.add_argument("--c", type=int, help="coefficient of the correspondence divisor")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="betabound",
        description="Exact polarization invariants and basepoint-freeness threshold bounds "
        "on products of elliptic curves.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in (
        ("chi", _cmd_chi, "Euler characteristic of a class (both oracles)"),
        ("type", _cmd_type, "polarization type of a class"),
        ("kgroup", _cmd_kgroup, "shape of the finite group K(l)"),
        ("ample", _cmd_ample, "ampleness of a class"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        _add_class_flags(p)

    p = sub.add_parser("beta", help="certified threshold interval for a class or a (g, d) target")
    p.set_defaults(handler=_cmd_beta)
    _add_class_flags(p)
    p.add_argument(
        "--general",
        type=int,
        nargs=2,
        metavar=("G", "D"),
        help="bound the general member of type (1, ..., 1, D) in dimension G",
    )

    p = sub.add_parser("search", help="brute-force search for constructions of type (1, ..., 1, d)")
    p.set_defaults(handler=_cmd_search)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    for bound in ("a", "b", "k", "c"):
        p.add_argument(f"--max-{bound}", type=int)
    p.add_argument("--generalized", action="store_true", help="vary interior coefficients and c")

    p = sub.add_parser("np", help="syzygy property guarantees for a (g, d) target")
    p.set_defaults(handler=_cmd_np)
    p.add_argument("--g", type=int, required=True)
    p.add_argument("--d", type=int, required=True)

    p = sub.add_parser("table", help="beta table for general type-(1, d) abelian surfaces")
    p.set_defaults(handler=_cmd_table)
    p.add_argument("--max", type=int, default=16)

    for p in sub.choices.values():
        p.add_argument("--format", choices=("json", "csv", "markdown"), default="json", help="output format")
    # after --format: usage errors print kgroup's usage line with its options in this order
    sub.choices["kgroup"].add_argument("--full", action="store_true", help="report the full doubled divisor list")
    return parser


def run(argv: Sequence[str]) -> dict:
    """Parse and execute, returning the output envelope (for tests)."""
    args = build_parser().parse_args(argv)
    inputs, results = args.handler(args)
    return {
        "schema": SCHEMA_VERSION,
        "command": args.command,
        "argv": list(argv),
        "inputs": inputs,
        "results": results,
        "format": args.format,
    }


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
