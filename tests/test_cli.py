"""Command-line behavior: output shapes, golden rows, exit codes."""

import argparse
import decimal
import io
import json
import re
import subprocess
import sys
import tracemalloc
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import eulerward.cli as cli
import eulerward.stirlingperm as stirlingperm
import eulerward.trees as trees
from eulerward.cli import _write_json, main
from eulerward.eulerian import Params, eulerian_table
from eulerward.numerics import PolyST, assoc_stirling_subset
from eulerward.ward import ward_table


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTable:
    def test_csv_golden_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "eulerian", "--nu", "2", "--s", "1", "--t", "0",
            "--nmax", "3", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,1", "1,1", "2,1,2", "3,1,8,6"]

    def test_smallest_table(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "eulerian", "--nu", "1", "--nmax", "0", "--format", "csv"
        )
        assert code == 0
        assert out.splitlines() == ["0,1"]

    def test_ward_csv_matches_associated_stirling(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "ward", "--nu", "1", "--s", "0", "--t", "1",
            "--nmax", "4", "--format", "csv",
        )
        assert code == 0
        for line in out.splitlines():
            parts = [int(x) for x in line.split(",")]
            n, values = parts[0], parts[1:]
            assert values == [assoc_stirling_subset(n + k, k) for k in range(len(values))]

    def test_json_values_are_strings(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "eulerian", "--nu", "2", "--nmax", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["rows"][3] == ["1", "8", "6"]
        assert payload["nu"] == "2"
        assert all(isinstance(v, str) for row in payload["rows"] for v in row)

    def test_csv_and_json_carry_identical_values(self, capsys):
        args = ["table", "ward", "--nu", "2", "--s", "2", "--t", "1", "--nmax", "5"]
        code, out_json, _ = run_cli(capsys, *args)
        assert code == 0
        code, out_csv, _ = run_cli(capsys, *args, "--format", "csv")
        assert code == 0
        rows = json.loads(out_json)["rows"]
        csv_rows = [line.split(",")[1:] for line in out_csv.splitlines()]
        assert rows == csv_rows

    def test_polynomial_mode(self, capsys):
        code, out, _ = run_cli(
            capsys, "table", "eulerian", "--nu", "2", "--nmax", "1",
            "--mode", "poly", "--format", "csv",
        )
        assert code == 0
        assert out.splitlines() == ["0,1*s^0*t^0", "1,1*s^1*t^0,1*s^0*t^1"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_entries_past_the_int_to_str_digit_limit(self, capsys, fmt):
        # s = 10^100 makes E(45, 0) = s^45 a 4501-digit number, past the
        # interpreter's default 4300-digit limit for str(int)
        code, out, err = run_cli(
            capsys, "table", "eulerian", "--nu", "1", "--s", "1" + "0" * 100, "--t", "0",
            "--nmax", "45", "--format", fmt,
        )
        assert code == 0, err
        if fmt == "csv":
            row45 = out.splitlines()[45].split(",")[1:]
        else:
            row45 = json.loads(out)["rows"][45]
        assert row45[0] == "1" + "0" * 4500

    def test_rejects_bad_order(self, capsys):
        code, _, err = run_cli(capsys, "table", "eulerian", "--nu", "0", "--nmax", "2")
        assert code == 2
        assert "error" in err

    def test_rejects_unknown_kind(self):
        with pytest.raises(SystemExit) as exc:
            main(["table", "pascal", "--nu", "1", "--nmax", "2"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_negative_nmax_is_the_library_error(self, capsys, fmt):
        code, out, err = run_cli(capsys, "table", "eulerian", "--nu", "1", "--nmax=-1", "--format", fmt)
        assert (code, out, err) == (2, "", "error: nmax must be >= 0, got -1\n")


def _oracle_render(value) -> str:
    if isinstance(value, PolyST):
        return value.render()
    try:
        return str(value)
    except ValueError:
        return str(decimal.Decimal(value))


def _oracle_trimmed(row) -> list:
    out = list(row)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _oracle_table(kind, nu, s, t, nmax, fmt, mode):
    """The text ``table`` printed when it built the whole triangle and
    handed it to json.dumps: the oracle for the streaming writer."""
    out = io.StringIO()
    build = eulerian_table if kind == "eulerian" else ward_table
    tri = build(Params(nu, s, t), nmax, mode)
    rows = [[_oracle_render(v) for v in _oracle_trimmed(tri.row(n))] for n in range(nmax + 1)]
    if fmt == "csv":
        for n, row in enumerate(rows):
            print(",".join([str(n)] + row), file=out)
    else:
        payload = {
            "kind": kind,
            "mode": mode,
            "nu": str(nu),
            "s": str(s),
            "t": str(t),
            "nmax": str(nmax),
            "rows": rows,
        }
        print(json.dumps(payload, indent=2, sort_keys=True), file=out)
    return out.getvalue()


def _table_argv(kind, nu, s, t, nmax, fmt, mode="int"):
    return ["table", kind, "--nu", str(nu), "--s=%d" % s, "--t=%d" % t,
            "--nmax", str(nmax), "--format", fmt, "--mode", mode]


class _WriteLog(io.TextIOBase):
    """A stdout that keeps only the length of each write."""

    def __init__(self):
        self.sizes = []

    def write(self, piece):
        self.sizes.append(len(piece))
        return len(piece)


class TestTableStreaming:
    @settings(max_examples=120, deadline=None)
    @given(
        st.sampled_from(["eulerian", "ward"]),
        st.sampled_from(["int", "poly"]),
        st.integers(1, 3),
        st.integers(-2, 3),
        st.integers(-2, 3),
        st.integers(0, 20),
        st.sampled_from(["csv", "json"]),
    )
    def test_matches_the_whole_table_writer(self, kind, mode, nu, s, t, nmax, fmt):
        out = io.StringIO()
        with redirect_stdout(out):
            code = main(_table_argv(kind, nu, s, t, nmax, fmt, mode))
        assert code == 0
        assert out.getvalue() == _oracle_table(kind, nu, s, t, nmax, fmt, mode)

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_holds_one_row_at_a_time(self, fmt):
        args = ("eulerian", 3, 2, 1, 150, fmt)
        want = _oracle_table(*args, "int")
        if fmt == "csv":
            longest = max(map(len, want.splitlines()))
        else:
            longest = max(map(len, re.findall(r"\n    \[\n.*?\n    \]", want, re.S)))
        out = _WriteLog()
        tracemalloc.start()
        try:
            with redirect_stdout(out):
                code = main(_table_argv(*args))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert sum(out.sizes) == len(want)
        assert max(out.sizes) <= longest + 16
        assert peak < len(want) / 3

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("bad", [["--nu", "0"], ["--nu", "2", "--nmax=-1"]])
    def test_bad_input_writes_nothing(self, capsys, fmt, bad):
        argv = ["table", "eulerian", "--nmax", "3", *bad, "--format", fmt]
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ")


class TestEntryTexts:
    """cmd_table quotes each json entry by a plain join, which is exact only
    because no entry text needs escaping."""

    @given(st.lists(st.integers(min_value=-10**40, max_value=10**40), min_size=1, max_size=6))
    def test_int_texts_are_signed_digits(self, row):
        for text in cli._int_texts(row):
            assert re.fullmatch(r"-?[0-9]+", text)
            assert json.dumps(text) == '"' + text + '"'

    def test_decimal_fallback_texts_are_signed_digits(self):
        big = 10**4500
        with pytest.raises(ValueError):
            str(big)  # past the digit limit, so _int_texts takes the Decimal route
        texts = cli._int_texts([big, -big - 7, 0, -3])
        assert texts == ["1" + "0" * 4500, "-1" + "0" * 4499 + "7", "0", "-3"]
        for text in texts:
            assert re.fullmatch(r"-?[0-9]+", text)
            assert json.dumps(text) == '"' + text + '"'

    @given(
        st.dictionaries(
            st.tuples(st.integers(0, 5), st.integers(0, 5)),
            st.integers(min_value=-10**40, max_value=10**40),
            max_size=6,
        )
    )
    def test_poly_texts_need_no_escaping(self, terms):
        for text in cli._poly_texts([PolyST(terms)]):
            assert re.fullmatch(r"[0-9*s^t+-]+", text)
            assert json.dumps(text) == '"' + text + '"'


class TestEnumerate:
    def test_three_objects(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--nu", "2", "--tvec", "0", "--n", "2"
        )
        assert code == 0
        lines = [json.loads(line) for line in out.splitlines()]
        assert len(lines) == 3
        assert {line["entries"][0] for line in lines} == {"2 2 1 1", "1 2 2 1", "1 1 2 2"}

    def test_size_zero_emits_the_scaffold(self, capsys):
        code, out, _ = run_cli(capsys, "enumerate", "--nu", "1", "--n", "0")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 1
        assert json.loads(lines[0])["entries"] == [""]

    def test_known_word_appears_with_its_ascents(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--nu", "3", "--t", "2", "--n", "2"
        )
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        match = [r for r in records if r["entries"] == ["0 0 1 1 2 2 2 1"]]
        assert len(match) == 1
        assert match[0]["ascent_count"] == "2"
        assert match[0]["ascent_positions"] == [["2", "4"]]

    def test_json_format_collects_an_array(self, capsys):
        code, out, _ = run_cli(
            capsys, "enumerate", "--nu", "2", "--tvec", "0", "--n", "2",
            "--format", "json",
        )
        assert code == 0
        assert len(json.loads(out)) == 3

    def test_line_count_matches_the_product_formula(self, capsys):
        # s=2, t=1: product of (2k + 3) over k < n
        code, out, _ = run_cli(
            capsys, "enumerate", "--nu", "2", "--s", "2", "--t", "1", "--n", "3"
        )
        assert code == 0
        assert len(out.splitlines()) == 3 * 5 * 7

    def test_cap_exceeded(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--nu", "2", "--n", "9", "--max-count", "100"
        )
        assert code == 2
        assert out == ""
        assert "exceed" in err

    @pytest.mark.parametrize("s", ["0", "-3"])
    def test_rejects_fewer_than_one_word(self, capsys, s):
        for extra in ([], ["--t", "2"]):
            code, out, err = run_cli(capsys, "enumerate", "--nu", "1", "--n", "1", "--s", s, *extra)
            assert code == 2
            assert out == ""
            assert err == "error: enumeration needs s >= 1 entries\n"

    def test_negative_n_is_the_library_error(self, capsys):
        code, out, err = run_cli(capsys, "enumerate", "--nu", "1", "--n", "-1")
        assert (code, out, err) == (2, "", "error: n must be >= 0, got -1\n")

    def test_rejects_negative_cap(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--nu", "2", "--n", "1", "--max-count", "-5"
        )
        assert (code, out, err) == (2, "", "error: --max-count must be >= 0, got -5\n")

    def test_rejects_malformed_tvec(self, capsys):
        code, _, err = run_cli(capsys, "enumerate", "--nu", "2", "--n", "1", "--tvec", "1,x")
        assert code == 2
        assert "tvec" in err

    def test_rejects_contradictory_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "enumerate", "--nu", "2", "--n", "1", "--tvec", "1,0", "--t", "2"
        )
        assert (code, out, err) == (2, "", "error: tvec must sum to t = 2, got (1, 0)\n")

    @pytest.mark.parametrize(
        "flags,message",
        [
            (["--tvec", "0,-1"], "tvec parts must be nonnegative, got (0, -1)"),
            (["--t", "-1"], "a composition of t needs t >= 0"),
        ],
        ids=["negative-tvec-part", "negative-t"],
    )
    def test_rejects_a_negative_part_of_t(self, capsys, flags, message):
        code, out, err = run_cli(capsys, "enumerate", "--nu", "1", "--n", "1", *flags)
        assert (code, out, err) == (2, "", "error: %s\n" % (message,))


class TestBijection:
    def test_chain_word(self, capsys):
        code, out, _ = run_cli(capsys, "bijection", "333222111", "--nu", "3")
        assert code == 0
        payload = json.loads(out)
        assert payload["distinguished_union"] == ["1", "2", "3"]
        assert payload["statistic"] == {
            "agree": True,
            "distinguished_size": "3",
            "n_minus_ascents": "3",
        }
        assert payload["forest"][0]["root"]["label"] == 1
        assert payload["dot"].startswith("digraph forest {")

    def test_four_entry_forest(self, capsys):
        code, out, _ = run_cli(
            capsys, "bijection", "2 3 3 3 2 2 0 0", "555111", "0444", "", "--nu", "3"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["tvec"] == ["2", "0", "1", "0"]
        assert payload["n"] == "5"
        assert payload["ascent_count"] == "2"
        assert payload["distinguished_sets"] == [["2"], ["1", "5"], [], []]
        assert payload["distinguished_union"] == ["1", "2", "5"]
        assert payload["statistic"]["agree"] is True

    def test_invalid_word(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "1221", "1", "--nu", "2")
        assert code == 2
        assert "not a valid" in err

    @pytest.mark.parametrize("flag", [["--t", "0"], ["--tvec", "1"]], ids=["t", "tvec"])
    def test_takes_no_composition_flag(self, capsys, flag):
        # the zeros of each word are its part of t, so a flag could only repeat them
        with pytest.raises(SystemExit) as exc:
            main(["bijection", "1221", "--nu", "2", *flag])
        out, err = capsys.readouterr()
        assert (exc.value.code, out) == (2, "")
        assert "unrecognized arguments: %s" % (" ".join(flag),) in err

    @pytest.mark.parametrize("nu", ["-2", "0"], ids=["negative-nu", "zero-nu"])
    def test_order_and_parts_are_checked_before_the_words(self, capsys, nu):
        # the word is fine for some order; the fault is nu, and the error
        # names it as enumerate does
        flags = ["--nu", nu]
        message = "nu must be >= 1, got %s" % (nu,)
        code, out, err = run_cli(capsys, "bijection", "1", *flags)
        assert (code, out, err) == (2, "", "error: %s\n" % (message,))
        code, _, enumerate_err = run_cli(capsys, "enumerate", "--n", "1", *flags)
        assert (code, enumerate_err) == (2, err)

    def test_unparsable_word_is_named(self, capsys):
        code, out, err = run_cli(capsys, "bijection", "1 a 1", "--nu", "1")
        assert (code, out, err) == (2, "", "error: cannot parse word '1 a 1'\n")

    def test_labels_must_partition_the_range(self, capsys):
        code, _, err = run_cli(capsys, "bijection", "11", "33", "--nu", "2")
        assert code == 2

    @pytest.mark.parametrize(
        "words,error",
        [
            (["1122", "2112"], "word 2 is not a valid order-2 word"),
            (["1122", "1122"], "the labels across the words must partition 1..n"),
            # word 1 and 3 repeat a label, but the bad word is reported first
            (["11", "2112", "11"], "word 2 is not a valid order-2 word"),
        ],
        ids=["bad-word", "bad-partition", "word-before-partition"],
    )
    def test_input_errors(self, capsys, words, error):
        code, out, err = run_cli(capsys, "bijection", *words, "--nu", "2")
        assert (code, out, err) == (2, "", "error: %s\n" % (error,))

    def test_each_word_is_validated_once(self, capsys, monkeypatch):
        # the one pass that checks a word also builds its tree
        calls = []
        real = stirlingperm._factor

        def counting(letters, nu, node):
            calls.append(letters)
            return real(letters, nu, node)

        for module in (stirlingperm, trees):
            monkeypatch.setattr(module, "_factor", counting)
        code, _, _ = run_cli(capsys, "bijection", "23332200", "555111", "0444", "", "--nu", "3")
        assert code == 0
        assert sorted(calls) == sorted(
            [(2, 3, 3, 3, 2, 2, 0, 0), (5, 5, 5, 1, 1, 1), (0, 4, 4, 4), ()]
        )

    def test_each_distinguished_set_is_the_library_rule(self, capsys, monkeypatch):
        # the D sets come from distinguished_set, which holds the root rule,
        # one call per tree, not from a second copy of the rule in cli
        calls = []
        real = trees.distinguished_set

        def counting(tree):
            calls.append(tree)
            return real(tree)

        monkeypatch.setattr(cli, "distinguished_set", counting)
        code, out, _ = run_cli(capsys, "bijection", "23332200", "555111", "0444", "", "--nu", "3")
        assert code == 0 and len(calls) == 4
        assert json.loads(out)["distinguished_sets"] == [["2"], ["1", "5"], [], []]

    def test_deep_tree_prints(self):
        # a 3000-level chain prints about 100 MB, so only its size and tail are kept
        class Tail(io.TextIOBase):
            chars, labels, text = 0, 0, ""

            def write(self, piece):
                self.chars += len(piece)
                self.labels += piece == '"label": '
                self.text = (self.text + piece)[-200:]
                return len(piece)

        out, err = Tail(), io.StringIO()
        word = " ".join(str(x) for x in range(1, 3001))
        with redirect_stdout(out), redirect_stderr(err):
            code = main(["bijection", word, "--nu", "1"])
        assert code == 0 and err.getvalue() == ""
        assert out.labels == 3000
        assert out.text.endswith('"n_minus_ascents": "1"\n  },\n  "tvec": [\n    "0"\n  ]\n}\n')

    def test_deep_tree_parses_back_to_its_forest(self, capsys):
        # 600 levels nest the JSON 1200 deep, past json's default recursion limit
        letters = tuple(range(1, 601))
        code, out, err = run_cli(capsys, "bijection", " ".join(map(str, letters)), "--nu", "1")
        assert code == 0 and err == ""
        forest = trees.seq_to_forest((letters,), 1)
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)
        try:
            assert json.loads(out)["forest"] == trees.forest_to_json(forest, 1)
        finally:
            sys.setrecursionlimit(limit)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=5), inner, max_size=4),
    max_leaves=30,
)


class TestJsonWriter:
    @settings(max_examples=200, deadline=None)
    @given(JSON_VALUES)
    def test_matches_json_dumps(self, value):
        pieces = []
        _write_json(value, pieces.append)
        assert "".join(pieces) == json.dumps(value, indent=2, sort_keys=True)

    def test_rejects_what_it_cannot_write(self):
        for value in ({1: "x"}, [1.5], {"a": (1, 2)}):
            with pytest.raises(TypeError):
                _write_json(value, lambda piece: None)


class TestVerify:
    def test_all_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all")
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        assert len(payload["suites"]) == 6
        # a constant key that the pinned digests and the benchmark's report check read
        assert payload["size_level"] == "default"
        for suite in payload["suites"]:
            assert suite["passed"] is True
            assert suite["size_level"] == "default"
            for check in suite["checks"]:
                assert check["witness"] is None

    def test_single_suite_report(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "closed-forms")
        assert code == 0
        payload = json.loads(out)
        assert payload["suite"] == "closed-forms"
        assert payload["size_level"] == "default"
        assert {c["id"] for c in payload["checks"]} == {"closed-forms", "special-cases"}

    def test_output_is_deterministic(self, capsys):
        args = ("verify", "--suite", "recurrence-vs-enumeration")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_rejects_unknown_suite(self):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--suite", "everything"])
        assert exc.value.code == 2

    @pytest.mark.parametrize("value", ["small", "default"])
    def test_takes_no_size_level(self, capsys, value):
        # each check has one grid; the retired flag is a usage error
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--size-level", value])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--size-level" in err and "Traceback" not in err


class TestProcessLevel:
    def test_module_entrypoint_roundtrip(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulerward.cli", "table", "eulerian",
             "--nu", "2", "--nmax", "3", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1] == "3,1,8,6"

    def test_usage_error_exit_code(self):
        proc = subprocess.run(
            [sys.executable, "-m", "eulerward.cli", "table"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["enumerate", "--nu", "2", "--tvec", "0,1", "--n", "5", "--format", "jsonl"],
            ["table", "eulerian", "--nu", "2", "--s", "1", "--t", "0", "--nmax", "300"],
        ],
    )
    def test_closed_pipe_exits_quietly(self, argv):
        # like `eulerward enumerate ... | head -1`: megabytes of output, and the
        # reader leaves after one line; exit 1 would claim a failed verification
        proc = subprocess.Popen(
            [sys.executable, "-m", "eulerward.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=120) == cli.EXIT_PIPE_CLOSED == 141
        assert err == b""

    def test_import_loads_no_dataclasses_inspect_or_typing(self):
        # every command pays for this import; -S keeps a site .pth that
        # imports typing itself from hiding a regression
        code = (
            "import sys, eulerward, eulerward.cli; "
            "print(' '.join(m for m in ('dataclasses', 'inspect', 'typing') if m in sys.modules))"
        )
        proc = subprocess.run(
            [sys.executable, "-S", "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == []


class TestParserReuse:
    TABLE = ["table", "eulerian", "--nu", "2", "--nmax", "5", "--format", "csv"]

    def test_one_parser_serves_every_call(self, capsys, monkeypatch):
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        # argparse's own __init__ names the class, so its __init__ is patched, not the name
        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        monkeypatch.setattr(cli, "_parser", None)
        for argv in (self.TABLE, self.TABLE + ["--s", "3"], ["bijection", "1", "--nu", "1"]):
            assert main(argv) == 0
        capsys.readouterr()
        # the subcommands' parsers are built with the top one, once
        assert built.count("eulerward") == 1
        assert len(built) == 5

    def test_defaults_come_back_after_a_flag(self, capsys):
        # --s 3 on one call must not stick to the next one's default s = 1
        assert main(self.TABLE + ["--s", "3"]) == 0
        with_s = capsys.readouterr().out
        assert main(self.TABLE) == 0
        reused = capsys.readouterr().out
        fresh = subprocess.run(
            [sys.executable, "-m", "eulerward.cli", *self.TABLE],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert fresh.returncode == 0, fresh.stderr
        assert reused == fresh.stdout != with_s

    def test_import_builds_no_parser(self):
        code = (
            "import argparse\n"
            "built = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "argparse.ArgumentParser.__init__ = lambda self, *a, **k: built.append(1) or init(self, *a, **k)\n"
            "import eulerward.cli\n"
            "print(len(built), eulerward.cli._parser)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            capture_output=True,
            text=True,
            env={"PYTHONPATH": str(Path(__file__).resolve().parent.parent / "src")},
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "None"]


# Argument soup: every flag of the four subcommands and the retired
# --size-level, values in -2..3, words, choice values, and digit-free text,
# so no draw asks for a large table.
ARG_TOKENS = st.sampled_from(
    [
        "--nu", "--s", "--t", "--nmax", "--n", "--tvec", "--format", "--mode",
        "--max-count", "--suite", "--size-level", "--s=-1", "--t=x", "--",
        "-2", "-1", "0", "1", "2", "3", "", "x", "1,0", "0,,1", "-1,2", "1/2", "0.5",
        "eulerian", "ward", "csv", "json", "jsonl", "poly", "int", "all", "egf",
        "closed-forms", "small", "default", "121", "1122", "0110", "33", "1 1", "2 1 2",
    ]
) | st.text(st.characters(blacklist_categories=("Nd", "Cs")), max_size=6)


class TestArgvProperty:
    @settings(max_examples=150, deadline=None)
    @given(
        st.sampled_from(["table", "enumerate", "bijection", "verify"]),
        st.lists(ARG_TOKENS, max_size=8),
    )
    def test_malformed_argv_exits_cleanly(self, command, tokens):
        # the suites themselves are tested above; here only argument handling runs
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(cli, "run_all", lambda: {"passed": True}), \
                mock.patch.object(cli, "run_suite", lambda name: {"suite": "stub", "passed": True}), \
                redirect_stdout(out), redirect_stderr(err):
            try:
                code = main([command, *tokens])
            except SystemExit as exc:
                code = exc.code
        assert code in (0, 2)
        assert "Traceback" not in err.getvalue()
