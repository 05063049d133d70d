import collections
import contextlib
import dataclasses
import io
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import betabound.cli
import betabound.constructor
import betabound.surfacetable
import betabound.torusmodel
from betabound.cli import (
    EXIT_NO_CERTIFICATE,
    EXIT_OK,
    EXIT_ORACLE,
    EXIT_PARSE,
    _json_text,
    main,
    render,
    run,
)
from betabound.threshold import InconsistentBoundsError
from betabound.torusmodel import is_ample
from util import containers, perfbench_module

checks = perfbench_module("checks")
check = checks.check

TABLE_16_CELLS = [
    "1", "1", "2/3", "1/2", "1/2", "1/2", "<= 3/7", "<= 3/8",
    "1/3", "<= 1/3", "<= 1/3", "1/3", "<= 4/13", "2/7", "4/15", "1/4",
]


class TestClassCommands:
    def test_chi_surface(self):
        env = run(["chi", "--g", "2", "--k", "2", "--a", "2,1", "--c", "1"])
        assert env["results"]["chi"]["value"] == 6
        assert env["results"]["chi_multilinear"]["value"] == 6
        assert env["results"]["chi_pfaffian"]["value"] == 6

    def test_type_threefold_forty(self):
        env = run(["type", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"])
        assert env["results"]["type"]["value"] == [1, 1, 40]
        assert env["results"]["type"]["by"] == "smith-normal-form"

    def test_type_principal_product(self):
        env = run(["type", "--g", "2", "--k", "1", "--a", "1,1", "--c", "0"])
        assert env["results"]["type"]["value"] == [1, 1]

    def test_kgroup(self):
        env = run(["kgroup", "--g", "2", "--k", "3", "--a", "0,1", "--c", "1"])
        assert env["results"]["k_group"]["value"] == [3, 3]
        assert env["results"]["k_group"]["order"] == 9
        full = run(["kgroup", "--g", "2", "--k", "3", "--a", "0,1", "--c", "1", "--full"])
        assert full["results"]["k_group"]["value"] == [1, 1, 3, 3]

    def test_ample(self):
        env = run(["ample", "--g", "2", "--k", "3", "--a", "1,1", "--c", "1"])
        assert env["results"]["ample"]["value"] is True
        env = run(["ample", "--g", "2", "--k", "3", "--a", "0,0", "--c", "1"])
        assert env["results"]["ample"]["value"] is False


class TestBetaCommand:
    def test_general_surface_twelve(self):
        env = run(["beta", "--general", "2", "12"])
        interval = env["results"]["interval"]
        assert interval["exact"] is True
        assert interval["upper"]["value"] == "1/3"

    def test_general_threefold_fifteen(self):
        env = run(["beta", "--general", "3", "15"])
        interval = env["results"]["interval"]
        assert interval["upper"]["value"] == "7/15"
        assert interval["lower"] == {
            "kind": "inverse-root",
            "radicand": 15,
            "degree": 3,
            "display": "15^(-1/3)",
        }
        assert env["results"]["strictly_below"] == "1/2"
        assert env["results"]["witness"]["params"]["k"] == [4, 2]

    def test_explicit_threefold_forty(self):
        env = run(["beta", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"])
        assert env["results"]["flag_bound"]["value"] == "13/40"
        assert env["results"]["flag_bound"]["order"] == [0, 1, 2]
        assert env["results"]["interval"]["scope"] == "specific-construction"
        assert env["results"]["np"]["p_beta"] == 1

    @pytest.mark.parametrize("command", ["chi", "type", "kgroup", "ample", "beta"])
    def test_class_commands_build_one_form(self, monkeypatch, command):
        built = []

        def counted(cls):
            built.append(cls)
            return betabound.torusmodel.alt_form(cls)

        for module in (betabound.cli, betabound.constructor):
            monkeypatch.setattr(module, "alt_form", counted)
        run([command, "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"])
        assert len(built) == 1

    def test_non_ample_class_exits_four(self, capsys):
        code = main(["beta", "--g", "2", "--k", "3", "--a", "0,0", "--c", "1"])
        assert code == EXIT_NO_CERTIFICATE
        assert "no certificate" in capsys.readouterr().err

    def test_degenerate_class_exits_four_above_g_eight(self, capsys):
        for g in (9, 12):
            ones = ",".join(["1"] * (g - 1))
            start = time.perf_counter()
            assert main(["beta", "--g", str(g), "--k", ones, "--a", "0," + ones, "--c", "0"]) == EXIT_NO_CERTIFICATE
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err.startswith("no certificate: ")

    def test_general_refuses_class_flags(self, capsys):
        # --general bounds a (g, d) target, so class flags would be dropped
        # silently; a zero --c and an empty --k are flags given all the same
        for flags in (
            ["--g", "3", "--a", "1,1,1"], ["--g", "3"], ["--k", "9,3"], ["--a", "1,1,3"], ["--c", "1"],
            ["--c", "0"], ["--k", ""],
        ):
            assert main(["beta", "--general", "3", "40"] + flags) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --general takes no --g, --k, --a or --c\n"

    def test_general_above_g_eight(self):
        for g, d in ((9, 600), (12, 4396)):
            witness = run(["beta", "--general", str(g), str(d)])["results"]["witness"]
            assert witness["type"]["value"] == [1] * (g - 1) + [d]


class TestSearchCommand:
    def test_degree_seven(self):
        env = run(["search", "--g", "3", "--d", "7"])
        certs = env["results"]["certificates"]
        assert certs[0]["flag_bound"]["value"] == "4/7"
        best = [c for c in certs if c["flag_bound"]["value"] == "4/7"]
        assert any(c["params"]["k"] == [3, 2] for c in best)

    def test_degree_six_two_witnesses(self):
        env = run(["search", "--g", "3", "--d", "6"])
        best = [
            c for c in env["results"]["certificates"]
            if c["flag_bound"]["value"] == "2/3"
        ]
        ks = {tuple(c["params"]["k"]) for c in best if c["params"]["a"] == 1 and c["params"]["b"] == 1}
        assert {(3, 1), (2, 2)} <= ks

    def test_surface_nine(self):
        env = run(["search", "--g", "2", "--d", "9"])
        assert env["results"]["certificates"][0]["flag_bound"]["value"] == "1/3"

    def test_equal_parts_of_one_envelope_are_one_object(self):
        # one memo per envelope (Certificate.to_json): the chi, type, k_group
        # and curve_lower dicts are one group per value, the flag bound dicts
        # one per value, the witness orders, chi chains and coefficient lists
        # one list per value, the interval and N_p report one per (flag bound,
        # curve bound), since g and chi = d are fixed; the rest is fresh
        for argv in (["search", "--g", "3", "--d", "40"], ["search", "--g", "2", "--d", "12", "--generalized"]):
            certs = run(argv)["results"]["certificates"]
            parts = ("chi", "type", "k_group", "curve_lower")
            groups, flags, lists, bounds = {}, {}, {}, {}
            for cert in certs:
                owner = groups.setdefault(json.dumps([cert[part] for part in parts]), cert)
                assert all(cert[part] is owner[part] for part in parts)
                flag = cert["flag_bound"]
                assert flags.setdefault(json.dumps(flag, sort_keys=True), flag) is flag
                for kind, part in (("order", flag["order"]), ("chis", flag["chis"]), ("coefficients", cert["params"]["coefficients"])):
                    assert lists.setdefault((kind, tuple(part)), part) is part
                owner = bounds.setdefault((flag["value"], cert["curve_lower"]["value"]), cert)
                assert cert["interval"] is owner["interval"] and cert["np"] is owner["np"]
            for table in (groups, flags, bounds):
                assert 1 < len(table) < len(certs)
            for kind in ("order", "chis", "coefficients"):
                assert 1 < sum(key[0] == kind for key in lists) < len(certs)
            for fresh in (lambda c: c, lambda c: c["params"], lambda c: c["params"]["k"]):
                assert len({id(fresh(cert)) for cert in certs}) == len(certs)

    def test_lists_of_different_kinds_are_different_objects(self):
        # an order and a coefficient tuple can be equal, (0, 1) here, and
        # still get a list each, so editing one cannot change the other
        certs = run(["search", "--g", "2", "--d", "12", "--generalized"])["results"]["certificates"]
        both = [cert for cert in certs if cert["params"]["coefficients"] == cert["flag_bound"]["order"]]
        assert both
        for cert in both:
            assert cert["params"]["coefficients"] is not cert["flag_bound"]["order"]

    def test_two_envelopes_share_nothing(self):
        argv = ["search", "--g", "3", "--d", "40"]
        first, second = run(argv), run(argv)
        assert first == second
        assert not {id(node) for node in containers(first)} & {id(node) for node in containers(second)}

    def test_search_csv_reads_the_shared_parts(self):
        # one CSV row per certificate, with the witness order and type each holds
        argv = ["search", "--g", "3", "--d", "40"]
        certs = run(argv)["results"]["certificates"]
        rows = render(run(argv + ["--format", "csv"])).splitlines()[1:]
        assert len(rows) == len(certs)
        for row, cert in zip(rows, certs):
            fields = row.split(",")
            assert fields[6] == " ".join(map(str, cert["flag_bound"]["order"]))
            assert fields[7] == " ".join(map(str, cert["type"]["value"]))

    def test_max_c_needs_generalized(self, capsys):
        # the standard search keeps c = 1, so a --max-c would be echoed and ignored
        for c in ("0", "1", "3"):
            assert main(["search", "--g", "3", "--d", "7", "--max-c", c]) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == "error: --max-c needs --generalized: the standard search keeps c = 1\n"
        certs = run(["search", "--g", "2", "--d", "6", "--generalized", "--max-c", "0"])["results"]["certificates"]
        assert len(certs) == 12 and all(cert["params"]["c"] == 0 for cert in certs)
        # nor does a refused box advise --max-c for the standard search
        assert main(["search", "--g", "4", "--d", "1000"]) == EXIT_PARSE
        assert capsys.readouterr().err.endswith("--max-k, and --max-c with --generalized\n")

    def test_empty_box_is_ok_with_diagnostic(self, capsys):
        code = main(["search", "--g", "2", "--d", "7", "--max-k", "1", "--max-a", "1", "--max-b", "1"])
        assert code == EXIT_OK
        out = json.loads(capsys.readouterr().out)
        assert out["results"]["count"] == 0
        assert "diagnostic" in out["results"]

    def test_empty_multiplier_range_does_no_work(self, monkeypatch, capsys):
        # 4^13 coefficient shapes but no k in [1, 0]: nothing fits, and no
        # shape may be visited
        def no_work(*args, **kwargs):
            raise AssertionError("a shape was enumerated")

        monkeypatch.setattr(betabound.constructor, "chi_affine", no_work)
        argv = ["search", "--g", "12", "--d", "50", "--generalized"]
        for flag, value in (("--max-a", 3), ("--max-b", 3), ("--max-c", 3), ("--max-k", 0)):
            argv += [flag, str(value)]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["count"] == 0

    def test_out_of_range_shapes_walk_no_multipliers(self, monkeypatch, capsys):
        # chi of each of the 4 shapes is at most 29 with k_i <= 3, far below d:
        # every shape is visited and none walks its 3^8 multiplier tuples
        real_affine, real_product = betabound.constructor.chi_affine, betabound.constructor.product
        shapes = []

        def affine_spy(a, c):
            shapes.append((tuple(a), c))
            return real_affine(a, c)

        def product_spy(*ranges, repeat=1):
            if repeat != 1:
                raise AssertionError("a (shape, multiplier) pair was walked")
            return real_product(*ranges)

        monkeypatch.setattr(betabound.constructor, "chi_affine", affine_spy)
        monkeypatch.setattr(betabound.constructor, "product", product_spy)
        argv = ["search", "--g", "10", "--d", "1000000", "--max-a", "1", "--max-b", "1", "--max-k", "3"]
        assert main(argv) == EXIT_OK
        assert json.loads(capsys.readouterr().out)["results"]["count"] == 0
        assert len(shapes) == 4


class TestNpCommand:
    def test_threefold_forty(self):
        env = run(["np", "--g", "3", "--d", "40"])
        assert env["results"]["np"]["guaranteed_p"] == 1

    def test_surface_seven_boundary(self):
        env = run(["np", "--g", "2", "--d", "7"])
        assert env["results"]["np"]["guaranteed_p"] == 0
        assert env["results"]["np"]["projectively_normal_general"] is True
        below = run(["np", "--g", "2", "--d", "6"])
        assert below["results"]["np"]["projectively_normal_general"] is False


class TestTableCommand:
    def test_json_rows(self):
        env = run(["table", "--max", "16"])
        assert [row["display"] for row in env["results"]["rows"]] == TABLE_16_CELLS

    def test_markdown_layout(self):
        env = run(["table", "--max", "4", "--format", "markdown"])
        text = render(env)
        lines = text.splitlines()
        assert lines[0] == "| d | 1 | 2 | 3 | 4 |"
        assert lines[2] == "| beta | 1 | 1 | 2/3 | 1/2 |"

    def test_csv(self):
        env = run(["table", "--max", "3", "--format", "csv"])
        lines = render(env).splitlines()
        assert lines[0] == "d,beta,exact,rule"
        assert lines[3] == "3,2/3,True,odd-m-near-next-square"


class TestCliContract:
    def test_parse_error_exit_code(self, capsys):
        code = main(["chi", "--g", "2", "--k", "2,3", "--a", "1,1", "--c", "0"])
        assert code == EXIT_PARSE
        assert "error" in capsys.readouterr().err

    def test_library_value_errors_exit_two(self, capsys):
        for argv in (
            ["search", "--g", "1", "--d", "5"],
            ["search", "--g", "3", "--d", "0"],
            ["beta", "--general", "13", "600"],
            ["beta", "--g", "13", "--k", ",".join(["1"] * 12), "--a", ",".join(["1"] * 13)],
        ):
            assert main(argv) == EXIT_PARSE
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: ")

    @pytest.mark.parametrize("g, d", [(3, 0), (0, 5)])
    def test_search_domain_error_names_the_search(self, capsys, g, d):
        # the default box is built from g and d, so it must refuse them first
        assert main(["search", "--g", str(g), "--d", str(d)]) == EXIT_PARSE
        assert capsys.readouterr().err == "error: need g >= 2 and d >= 1\n"

    def test_oversized_inputs_refused_before_work(self, monkeypatch, capsys):
        # Each of these would run a flag search exponential in g, certify
        # with entries of unbounded size or enumerate a search box too large
        # to finish, before failing if the size were not checked first; none
        # may build a form or certify.
        def no_work(*args, **kwargs):
            raise AssertionError("work started before the size check")

        monkeypatch.setattr(betabound.cli, "alt_form", no_work)
        for name in ("alt_form", "certify"):
            monkeypatch.setattr(betabound.constructor, name, no_work)
        monkeypatch.setattr(betabound.surfacetable, "surface_beta", no_work)
        ones = ",".join(["1"] * 29)
        over = str(10**100 + 1)
        over_class = ["--g", "12", "--k", ",".join([over] * 11), "--a", ",".join([over] * 12), "--c", over]
        for argv in (
            ["beta", "--general", "30", "200000"],
            ["chi", "--g", "30", "--k", ones, "--a", ones + ",1", "--c", "1"],
            ["search", "--g", "30", "--d", "50"],
            ["search", "--g", "8", "--d", "50"],
            ["search", "--g", "4", "--d", "1000"],
            ["search", "--g", "2", "--d", "6", "--generalized", "--max-k", "10000000"],
            # 10^6 shapes of one pair each: 5 * 10^6 steps; 8.4 s of enumeration unchecked
            ["search", "--g", "3", "--d", str(10**40), "--max-a", "999", "--max-b", "999", "--max-k", "1"],
            # 944,784 pairs at g = 12: 944,848 steps; 3.0 s of enumeration unchecked
            ["search", "--g", "12", "--d", str(10**40), "--max-a", "3", "--max-b", "3", "--max-k", "3"],
            # 236,212 steps, under the limit, but 1,112 candidates: refused only
            # after about 186,000 steps unless shapes whose chi range misses d are skipped
            ["search", "--g", "12", "--d", "26", "--max-a", "1", "--max-b", "1", "--max-k", "3"],
            # 2,048 candidates: under 10^4, but above the g = 12 limit of 10^4 // 9;
            # with b = 0, chi = a_0 for every multiplier
            ["search", "--g", "12", "--d", "1", "--max-a", "1", "--max-b", "0", "--max-k", "2"],
            # boxes holding more than 2^63 - 1 values of one coefficient; the
            # default box at g = 2 takes max_k = d
            ["search", "--g", "2", "--d", str(2**63)],
            ["search", "--g", "3", "--d", "40", "--max-k", str(2**63)],
            ["search", "--g", "3", "--d", "40", "--max-a", str(2**63)],
            ["search", "--g", "3", "--d", "40", "--generalized", "--max-c", str(2**63)],
            # b = 0: chi does not depend on k_1, so every one of 2^63 values fits
            ["search", "--g", "2", "--d", "3", "--max-a", "3", "--max-b", "0", "--max-k", str(2**63)],
            # one above the degree limit of 10^100
            ["beta", "--general", "12", str(10**100 + 1)],
            ["np", "--g", "12", "--d", str(10**100 + 1)],
            # every class entry one above the same limit: 60 s or more of work unchecked
            ["ample"] + over_class,
            ["beta"] + over_class,
            # a degenerate class: the dimension limit refuses it before any oracle runs
            ["beta", "--g", "13", "--k", ",".join(["1"] * 12), "--a", "0" + ",1" * 12, "--c", "0"],
            # one row above the table limit of 10^4
            ["table", "--max", "10001"],
        ):
            start = time.perf_counter()
            assert main(argv) == EXIT_PARSE
            assert time.perf_counter() - start < 1.0
            assert capsys.readouterr().err.startswith("error: ")

    def test_huge_dimension_refused_at_once(self):
        # The default box takes an integer g-th root of d before the dimension
        # check, which once cost 2^(g - 1) for g >= d.bit_length(): run the CLI
        # in a child capped at 1 GiB and 10 s, since that cost grows with g.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "betabound.cli", "search", "--g", str(10**23), "--d", "5"],
            capture_output=True, text=True, timeout=10, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_PARSE
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv", [
        ["--g", "3", "--d", str(10**10), "--generalized", "--max-c", "-1"],
        ["--g", "12", "--d", "37", "--max-a", "6", "--generalized", "--max-c", "-1"],
        ["--g", "2", "--d", str(10**16), "--max-a", "-1"],
        ["--g", "2", "--d", str(10**100), "--max-a", "-1"],
        ["--g", "3", "--d", "7", "--max-a", str(10**12), "--generalized", "--max-c", "-1"],
    ])
    def test_empty_box_returns_nothing_at_once(self, argv):
        # A box with an empty range holds no candidate, whatever the other
        # ranges hold: it must not build them (memory) or size them (overflow).
        # Run the CLI in a child capped at 1 GiB and 10 s, as above.
        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))

        src = str(Path(__file__).resolve().parent.parent / "src")
        proc = subprocess.run(
            [sys.executable, "-m", "betabound.cli", "search", *argv],
            capture_output=True, text=True, timeout=10, preexec_fn=cap_memory,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        assert json.loads(proc.stdout)["results"]["count"] == 0

    def test_writer_refuses_an_int_too_long_to_print(self):
        with pytest.raises(ValueError):
            _json_text({"chi": 10**5000})

    def test_writer_builds_a_shared_sub_tree_twice_per_indent(self, monkeypatch):
        # a node held 30 times at each of two indents: its sub-tree is written
        # when the node is first met and again to store its text at the second
        # meeting, at each indent, and every later meeting reuses that text
        inner = [1, "x"]
        node = {"a": inner, "b": True}
        tree = {"flat": [node] * 30, "deep": [[node] for _ in range(30)]}
        calls = collections.Counter()
        real = betabound.cli._write

        def spy(value, pad, *rest):
            calls[id(value), pad] += 1
            return real(value, pad, *rest)

        monkeypatch.setattr(betabound.cli, "_write", spy)
        assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)
        # (the writer looks a child's text up before it recurses, so later
        # meetings make no call)
        assert calls[id(node), " " * 4] == calls[id(node), " " * 6] == 2
        assert calls[id(inner), " " * 6] == calls[id(inner), " " * 8] == 2
        # nothing is kept between calls: a second render writes it afresh
        _json_text(tree)
        assert calls[id(inner), " " * 6] == calls[id(inner), " " * 8] == 4

    def test_writer_writes_what_a_search_shares_at_most_twice(self, monkeypatch):
        envelope = run(["search", "--g", "3", "--d", "40"])
        certs = envelope["results"]["certificates"]
        calls = collections.Counter()
        real = betabound.cli._write

        def spy(value, *rest):
            if isinstance(value, (dict, list)) and value:
                calls[id(value)] += 1
            return real(value, *rest)

        monkeypatch.setattr(betabound.cli, "_write", spy)
        assert render(envelope) == json.dumps(envelope, indent=2, sort_keys=True)
        for cert in certs:
            # a shared part is written once per certificate holding it, at
            # most twice, and so is what it holds, however many hold them:
            # after that its parent reads its text without a call
            held = sum(other["interval"] is cert["interval"] for other in certs)
            assert calls[id(cert["interval"])] == min(held, 2)
            for node in (
                cert["interval"]["lower"], cert["interval"]["upper"], cert["type"]["value"], cert["k_group"]["value"],
                cert["flag_bound"], cert["flag_bound"]["order"], cert["flag_bound"]["chis"], cert["params"]["coefficients"],
            ):
                assert calls[id(node)] <= 2
        assert sum(calls.values()) < len(containers(envelope))

    def test_writer_keeps_nothing_between_calls(self):
        # a node edited between two renders is written as it now stands
        node = {"a": [1]}
        tree = [node, node, node]
        assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)
        node["a"].append(2)
        assert _json_text(tree) == json.dumps(tree, indent=2, sort_keys=True)

    def test_render_errors_exit_two(self, monkeypatch, capsys):
        # class entries stop at 10^100, so no result reaches Python's limit
        # for printing an int; render one that does
        def too_long(envelope):
            return render({**envelope, "results": {"chi": 10**5000}})

        monkeypatch.setattr(betabound.cli, "render", too_long)
        assert main(["chi", "--g", "3", "--k", "2,2", "--a", "1,1,1", "--c", "1"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "Traceback" not in captured.err

    def test_int_too_long_under_a_repeated_shape_exits_two(self, monkeypatch, capsys):
        # under a list, in the second dict of one key set, after its frame exists
        rows = [{"d": 1, "beta": "1"}, {"d": 10**5000, "beta": "1"}]
        with pytest.raises(ValueError):
            _json_text(rows)
        monkeypatch.setattr(betabound.cli, "render", lambda envelope: render({**envelope, "results": {"rows": rows}}))
        assert main(["table", "--max", "2"]) == EXIT_PARSE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")

    def test_inconsistent_bounds_exit_three(self, monkeypatch, capsys):
        def broken(g, d):
            raise InconsistentBoundsError("lower bound exceeds upper bound")

        monkeypatch.setattr(betabound.cli, "general_beta", broken)
        assert main(["np", "--g", "3", "--d", "40"]) == EXIT_ORACLE
        assert "internal oracle failure" in capsys.readouterr().err

    def test_ampleness_disagreement_exits_three(self, monkeypatch, capsys):
        monkeypatch.setattr(betabound.cli, "is_ample", lambda form: not is_ample(form))
        for a in ("1,1", "0,0"):
            assert main(["ample", "--g", "2", "--k", "3", "--a", a, "--c", "1"]) == EXIT_ORACLE
            assert capsys.readouterr().err.startswith("internal oracle failure: minor test says ample=")

    def test_flag_chain_disagreement_exits_three(self, monkeypatch, capsys):
        real = betabound.torusmodel.restriction_scan

        def off_by_one(a, k, c, keep):
            chi, drops = real(a, k, c, keep)
            if len(keep) == 4:
                # the full set's drop of factor 3, the witness's first, is off
                # by one; the chi check reads only the head and cannot see it
                drops = drops[:-1] + [drops[-1] + 1]
            return chi, drops

        monkeypatch.setattr(betabound.torusmodel, "restriction_scan", off_by_one)
        assert main(["beta", "--g", "4", "--k", "3,2,1", "--a", "1,1,1,2", "--c", "1"]) == EXIT_ORACLE
        err = capsys.readouterr().err
        assert err.startswith("internal oracle failure: flag chain oracles disagree")
        assert "formula [" in err and "pfaffian [" in err

    def test_type_product_disagreement_exits_three(self, monkeypatch, capsys):
        real = betabound.torusmodel._smith_diagonal

        def last_pair_doubled(rows):
            diag = real(rows)
            return diag[:-2] + (2 * diag[-2], 2 * diag[-1])

        monkeypatch.setattr(betabound.torusmodel, "_smith_diagonal", last_pair_doubled)
        assert main(["type", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"]) == EXIT_ORACLE
        err = capsys.readouterr().err
        assert err.startswith("internal oracle failure: type product does not match chi")

    @pytest.mark.parametrize("full", [False, True])
    def test_kgroup_checks_the_type_against_chi(self, monkeypatch, capsys, full):
        # doubling the last Smith entry keeps the divisibility chain, so only
        # the product check against chi sees it: (1, 3) becomes (1, 6)
        real = betabound.torusmodel._smith_diagonal

        def last_doubled(rows):
            diag = real(rows)
            return diag[:-1] + (2 * diag[-1],)

        monkeypatch.setattr(betabound.torusmodel, "_smith_diagonal", last_doubled)
        argv = ["kgroup", "--g", "2", "--k", "3", "--a", "0,1", "--c", "1"] + (["--full"] if full else [])
        assert main(argv) == EXIT_ORACLE
        assert capsys.readouterr().err.startswith("internal oracle failure: type product does not match chi")

    def test_strict_recipe_bound_not_below_its_threshold_exits_three(self, monkeypatch, capsys):
        real = betabound.constructor.recipe_strict
        monkeypatch.setattr(
            betabound.constructor, "recipe_strict", lambda g, d: dataclasses.replace(real(g, d), m=10 * real(g, d).m)
        )
        assert main(["beta", "--general", "3", "40"]) == EXIT_ORACLE
        err = capsys.readouterr().err
        assert err.startswith("internal oracle failure: strict recipe bound")

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == EXIT_PARSE

    def test_json_round_trip(self, capsys):
        argv = ["type", "--g", "3", "--k", "9,3", "--a", "1,1,3", "--c", "1"]
        assert main(argv) == EXIT_OK
        first = json.loads(capsys.readouterr().out)
        assert main(first["argv"]) == EXIT_OK
        second = json.loads(capsys.readouterr().out)
        assert first == second

    def test_schema_and_echo(self):
        env = run(["chi", "--g", "1", "--k", "", "--a", "2", "--c", "1"])
        assert env["schema"] == 1
        assert env["command"] == "chi"
        assert env["inputs"] == {"g": 1, "k": [], "a": [2], "c": 1}

    def test_rationals_are_strings_not_decimals(self):
        env = run(["beta", "--general", "3", "15"])
        text = json.dumps(env)
        assert "7/15" in text
        assert "0.4666" not in text

    def test_search_csv_render(self):
        env = run(["search", "--g", "2", "--d", "9", "--format", "csv"])
        lines = render(env).splitlines()
        assert lines[0] == "rank,bound,a,b,c,k,order,type"
        assert lines[1].startswith("1,1/3,")

    def test_markdown_generic_render(self):
        env = run(["chi", "--g", "2", "--k", "2", "--a", "2,1", "--c", "1", "--format", "markdown"])
        text = render(env)
        assert text.startswith("# chi")
        assert "chi" in text


CLASS_COMMANDS = ("chi", "type", "kgroup", "ample")


@st.composite
def argvs(draw):
    """Random argv for every command and an unknown one.  Sizes above a
    refusal limit are refused before work, and search boxes are at most 3
    on every side, so no draw costs more than a few seconds."""
    command = draw(st.sampled_from(CLASS_COMMANDS + ("beta", "search", "np", "table", "frobnicate")))
    g = draw(st.integers(-1, 13))
    d = draw(st.integers(-1, 10**40))
    argv = [command]
    general = command == "beta" and draw(st.booleans())
    if command in CLASS_COMMANDS or (command == "beta" and (not general or draw(st.booleans()))):
        def entries(n):
            return ",".join(map(str, draw(st.lists(st.integers(-2, 5), min_size=n, max_size=n))))

        # short lists: of the lengths g - 1 and g a class needs, or of any length up to 5
        if 1 <= g <= 5 and draw(st.booleans()):
            k, a = entries(g - 1), entries(g)
        else:
            k, a = entries(draw(st.integers(0, 5))), entries(draw(st.integers(0, 5)))
        argv += ["--g", g, "--k", k, "--a", a, "--c", draw(st.integers(-2, 5))]
        if command == "kgroup" and draw(st.booleans()):
            argv.append("--full")
    if general:
        # beside class flags this exits 2: --general takes none
        argv += ["--general", g, d]
    elif command == "search":
        argv += ["--g", g, "--d", d]
        # --max-c without --generalized exits 2, so it is drawn half the time
        for flag in ("--max-a", "--max-b", "--max-k") + (("--max-c",) if draw(st.booleans()) else ()):
            argv += [flag, draw(st.integers(-1, 3))]
        if draw(st.booleans()):
            argv.append("--generalized")
    elif command == "np":
        argv += ["--g", g, "--d", d]
    elif command == "table":
        argv += ["--max", draw(st.integers(-1, 2 * 10**4))]
    if draw(st.booleans()):
        argv += ["--format", draw(st.sampled_from(("json", "csv", "markdown")))]
    return [str(x) for x in argv]


@settings(max_examples=100, deadline=None)
@given(argvs())
def test_random_argv_ends_in_a_documented_exit_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects malformed argv this way
            code = exc.code
    assert code in (EXIT_OK, EXIT_PARSE, EXIT_ORACLE, EXIT_NO_CERTIFICATE)
    assert "Traceback" not in err.getvalue()
    if code == EXIT_OK and ("--format" not in argv or argv[argv.index("--format") + 1] == "json"):
        assert check(argv, {EXIT_OK}, code, out.getvalue()) == []


@st.composite
def class_argvs(draw):
    """Well-formed explicit-class requests, every entry in range, so that
    nearly all exit 0 and reach the outside checker; ``argvs`` draws
    entries below 1 for --k, and most of its class draws exit 2."""
    command = draw(st.sampled_from(CLASS_COMMANDS + ("beta",)))
    g = draw(st.integers(1, 6))
    k = draw(st.lists(st.integers(1, 9), min_size=g - 1, max_size=g - 1))
    a = draw(st.lists(st.integers(0, 5), min_size=g, max_size=g))
    c = draw(st.integers(0, 3))
    argv = [command, "--g", g, "--k", ",".join(map(str, k)), "--a", ",".join(map(str, a)), "--c", c]
    if command == "kgroup" and draw(st.booleans()):
        argv.append("--full")
    return [str(x) for x in argv]


@settings(max_examples=100, deadline=None)
@given(class_argvs())
def test_class_envelopes_pass_the_outside_checker(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    k, a, c = checks._class_of(argv)
    chi = checks.chi_formula(k, a, c)
    if not any(a) and not c:
        assert code == EXIT_PARSE  # the zero class
    elif chi == 0 and argv[0] in ("type", "kgroup", "beta"):
        assert code == EXIT_NO_CERTIFICATE
    else:
        assert code == EXIT_OK
        assert check(argv, {EXIT_OK}, code, out.getvalue()) == []
