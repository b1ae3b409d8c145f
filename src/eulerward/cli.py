"""Command-line front end: tables, enumeration, bijection demos, verification.

Four subcommands:

    eulerward table eulerian --nu 2 --s 1 --t 0 --nmax 6
    eulerward enumerate --nu 2 --tvec 0 --n 2
    eulerward bijection 333222111 --nu 3
    eulerward verify --suite all

``enumerate`` builds one ``Params`` from --s, --t and --tvec, which checks
that they agree and supplies the composition (t, 0, ..., 0) when --tvec is
absent.  ``bijection`` takes no composition: the zeros of each word are its
part of t.

Exit codes: 0 success, 1 verification failure, 2 usage or invalid input,
141 (128 + SIGPIPE) when the reader closes stdout early, as
``eulerward enumerate ... | head -1`` does.
Table entries, counts, and statistics are rendered as decimal strings so
consumers never hit 64-bit truncation (tree-shape JSON keeps its small
structural integers as numbers).  Structure and key order are fixed, so
repeated runs are byte-identical.  ``table`` is streamed one row at a time,
so its memory stays near one row whatever the table's size, and every
input is checked first, so bad input writes nothing to stdout.
"""

from __future__ import annotations

import argparse
import decimal
import json
import os
import sys

from .eulerian import Params, eulerian_recurrence
from .numerics import _require_int
from .stirlingperm import (
    _labels_partition_range,
    ascent_positions,
    count_sequences,
    enumerate_sequences,
    word_from_text,
    word_text,
)
from .trees import (
    distinguished_set,
    forest_to_dot,
    forest_to_json,
    leftmost_internal_set,
    perm_to_tree,
)
from .verify import SUITE_NAMES, run_all, run_suite
from .ward import ward_recurrence

__all__ = ["main", "cmd_table", "cmd_enumerate", "cmd_bijection", "cmd_verify"]

DEFAULT_ENUMERATION_CAP = 1_000_000
EXIT_PIPE_CLOSED = 141  # 128 + SIGPIPE, what a shell reports for a killed writer


def _int_texts(row) -> list:
    try:
        return list(map(str, row))
    except ValueError:
        # past the interpreter's int-to-str digit limit; Decimal has none
        return [str(decimal.Decimal(v)) for v in row]


def _poly_texts(row) -> list:
    return [v.render() for v in row]


def _trimmed(row) -> list:
    out = list(row)
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _write_json(obj, write) -> None:
    """Write ``json.dumps(obj, indent=2, sort_keys=True)`` through ``write``,
    byte for byte, piece by piece and with no recursion, so a forest of any
    depth prints and the pending work grows with its depth only.

    Takes dicts with str keys, lists, str, int, bool and None.
    """
    # pending work, next on top: text to copy, an int depth to start a new
    # line indented to, or a (value, depth) pair to write
    stack: list = [(obj, 0)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            write(item)
            continue
        if isinstance(item, int):
            write("\n" + "  " * item)
            continue
        value, depth = item
        if isinstance(value, dict) and value:
            if not all(isinstance(key, str) for key in value):
                raise TypeError("JSON object keys must be str")
            brackets = "{}"
            members = [(json.dumps(key) + ": ", value[key]) for key in sorted(value)]
        elif isinstance(value, list) and value:
            brackets = "[]"
            members = [("", v) for v in value]
        elif value is None or isinstance(value, (str, int, dict, list)):
            write(json.dumps(value))
            continue
        else:
            raise TypeError("cannot write %s as JSON" % (type(value).__name__,))
        work: list = []
        for i, (key, v) in enumerate(members):
            work += [brackets[0] if i == 0 else ",", depth + 1, key, (v, depth + 1)]
        work += [depth, brackets[1]]
        stack.extend(reversed(work))


def _parse_tvec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise ValueError("--tvec wants a comma-separated integer list, got %r" % (text,))


def cmd_table(args) -> int:
    """Write the table one row at a time, as soon as each row is built, so
    neither the triangle nor its text is ever held whole.  Every input is
    checked before the first byte is written."""
    p = Params(args.nu, args.s, args.t)
    recurrence = eulerian_recurrence if args.kind == "eulerian" else ward_recurrence
    rows = recurrence(p, args.mode).iter_rows(args.nmax)
    texts = _poly_texts if args.mode == "poly" else _int_texts
    write = sys.stdout.write
    if args.format == "csv":
        for n, row in enumerate(rows):
            write(",".join([str(n), *texts(_trimmed(row))]) + "\n")
        return 0
    # json.dumps(payload, indent=2, sort_keys=True) of the payload
    # {kind, mode, nmax, nu, rows, s, t}, every value a string, laid out by hand
    head = [("kind", args.kind), ("mode", args.mode), ("nmax", str(args.nmax)), ("nu", str(args.nu))]
    write("{\n" + "".join('  "%s": %s,\n' % (key, json.dumps(v)) for key, v in head) + '  "rows": [')
    # the entry texts need no JSON escaping (_int_texts gives -?[0-9]+, also
    # through Decimal, and render() gives [0-9*s^t+-]), so one join quotes them
    for n, row in enumerate(rows):
        entries = '"' + '",\n      "'.join(texts(_trimmed(row))) + '"'
        write((",\n" if n else "\n") + "    [\n      " + entries + "\n    ]")
    write('\n  ],\n  "s": %s,\n  "t": %s\n}\n' % (json.dumps(str(args.s)), json.dumps(str(args.t))))
    return 0


def cmd_enumerate(args) -> int:
    _require_int("--max-count", args.max_count, 0)
    tvec = None if args.tvec is None else _parse_tvec(args.tvec)
    s, t = (1, 0) if tvec is None else (len(tvec), sum(tvec))
    p = Params(args.nu, s if args.s is None else args.s, t if args.t is None else args.t, tvec)
    total = count_sequences(p, args.n)
    if total > args.max_count:
        print(
            "error: %d objects exceed the cap of %d (raise --max-count)" % (total, args.max_count),
            file=sys.stderr,
        )
        return 2
    for idx, seq in enumerate(enumerate_sequences(p, args.n)):
        positions = [sorted(ascent_positions(w)) for w in seq]
        record = {
            "entries": [word_text(w) for w in seq],
            "ascent_count": str(sum(map(len, positions))),
            "ascent_positions": [[str(i) for i in pos] for pos in positions],
        }
        if args.format == "jsonl":
            print(json.dumps(record, sort_keys=True))
        else:
            # one element of the indented array, written as soon as it is built
            text = json.dumps(record, indent=2, sort_keys=True).replace("\n", "\n  ")
            print(",\n  " if idx else "[\n  ", text, sep="", end="")
    if args.format == "json":
        print("\n]")
    return 0


def cmd_bijection(args) -> int:
    """Report the forest of the words: one pass (``perm_to_tree``) checks and
    factorizes each word, and a bad word is reported before a bad partition."""
    seq = tuple(word_from_text(text) for text in args.word)
    tvec = tuple(w.count(0) for w in seq)  # the words fix the parts of t
    _require_int("nu", args.nu, 1)  # as enumerate's Params does
    forest = []
    for idx, w in enumerate(seq, 1):
        try:
            forest.append(perm_to_tree(w, args.nu))
        except ValueError:
            raise ValueError("word %d is not a valid order-%d word" % (idx, args.nu)) from None
    if not _labels_partition_range(seq):
        raise ValueError("the labels across the words must partition 1..n")
    positions = [sorted(ascent_positions(w)) for w in seq]
    n, j = len(set().union(*seq) - {0}), sum(map(len, positions))
    esets = [leftmost_internal_set(tr) for tr in forest]
    dsets = [distinguished_set(tr) for tr in forest]
    dset = frozenset().union(*dsets)
    payload = {
        "nu": str(args.nu),
        "tvec": [str(x) for x in tvec],
        "n": str(n),
        "entries": [word_text(w) for w in seq],
        "ascent_count": str(j),
        "ascent_positions": [[str(i) for i in pos] for pos in positions],
        "forest": forest_to_json(forest, args.nu),
        "leftmost_sets": [[str(x) for x in sorted(e)] for e in esets],
        "distinguished_sets": [[str(x) for x in sorted(d)] for d in dsets],
        "distinguished_union": [str(x) for x in sorted(dset)],
        "statistic": {
            "n_minus_ascents": str(n - j),
            "distinguished_size": str(len(dset)),
            "agree": n - j == len(dset),
        },
        "dot": forest_to_dot(forest),
    }
    _write_json(payload, sys.stdout.write)
    print()
    return 0


def cmd_verify(args) -> int:
    payload = run_all() if args.suite == "all" else run_suite(args.suite)
    print(json.dumps(payload, indent=2, sort_keys=True))
    return 0 if payload["passed"] else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="eulerward",
        description="Generalized Eulerian and Ward number toolkit (exact arithmetic).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pt = sub.add_parser("table", help="emit a triangle of numbers or polynomials")
    pt.add_argument("kind", choices=("eulerian", "ward"))
    pt.add_argument("--nu", type=int, required=True, help="order (>= 1)")
    pt.add_argument("--s", type=int, default=1)
    pt.add_argument("--t", type=int, default=0)
    pt.add_argument("--nmax", type=int, required=True)
    pt.add_argument("--format", choices=("json", "csv"), default="json")
    pt.add_argument("--mode", choices=("int", "poly"), default="int")

    pe = sub.add_parser("enumerate", help="stream the permutation sequences of size n")
    pe.add_argument("--nu", type=int, required=True)
    pe.add_argument("--n", type=int, required=True)
    pe.add_argument("--s", type=int, default=None)
    pe.add_argument("--t", type=int, default=None)
    pe.add_argument("--tvec", default=None, help="composition of t, e.g. 2,0,1,0")
    pe.add_argument("--format", choices=("jsonl", "json"), default="jsonl")
    pe.add_argument("--max-count", type=int, default=DEFAULT_ENUMERATION_CAP)

    pb = sub.add_parser("bijection", help="map words to increasing trees and back")
    pb.add_argument("word", nargs="+", help="one word per sequence entry; '' for empty")
    pb.add_argument("--nu", type=int, required=True)

    pv = sub.add_parser("verify", help="run cross-verification suites")
    pv.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")

    return parser


_parser = None  # built by the first main call, then reused


def main(argv=None) -> int:
    """Run one command.  The parser is built on the first call and reused by
    later calls in the same process; importing the module builds none."""
    global _parser
    if _parser is None:
        _parser = _build_parser()
    args = _parser.parse_args(argv)
    try:
        # looked up per call, so a handler replaced after the parser was built still runs
        code = globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # a closed pipe may show only at this last write
    except ValueError as exc:
        print("error: %s" % (exc,), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to devnull, so the
        # flush at exit cannot fail again (the recipe of Python's signal docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE_CLOSED
    return code


if __name__ == "__main__":
    raise SystemExit(main())
