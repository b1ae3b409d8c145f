"""Golden-output guard: sha256 digests of outputs that must not change.

The digests pin the exact bytes of integer and symbolic tables in both
formats, of the enumeration stream in both formats, of six bijection reports
(one over a 600-level chain) and of every verify report; any change to the
engine, the enumeration order, the tree bijection, the rendering or the
verify report shows up here first.  A second set pins the series layer: T_nu
and both egf coefficient routes, one exact rational per line.  A third set
pins library outputs that faster routes replaced slower ones for (the row
transform, the closed forms, the order-2 ratio expansion, the marked-forest
rows, the ascent histograms, the series grid and the enumerate stream), each
digest taken from the route it replaced, one space-separated row per line.
CI runs this file on every supported Python version.
"""

import hashlib
import io
import shlex
from contextlib import redirect_stdout
from fractions import Fraction

import pytest

from eulerward import Params, eulerian_table, euler_to_ward, general_inverse_transform, ward_table, ward_to_euler
from eulerward.cli import main
from eulerward.eulerian import closed_form_order1, closed_form_order2
from eulerward.series import (
    egf_eulerian_coeffs,
    egf_ward_coeffs,
    eulerian_ratio_expansion_sides,
    second_order_ratio_expansion_sides,
    t_nu_series,
)
from eulerward.stirlingperm import ascent_histograms_up_to, count_sequences
from eulerward.trees import ward_marked_rows_up_to
from eulerward.verify import _compositions_for

CHAIN_600 = " ".join(map(str, range(1, 601)))

GOLDEN = [
    (
        "table eulerian --nu 2 --s 1 --t 0 --nmax 60 --format csv",
        "abdb10021d1fdcfae9e7a70c6912699a2161040bdbabd3c759ab6e5645887eac",
    ),
    (
        "table ward --nu 1 --s 0 --t 1 --nmax 60 --format json",
        "7239098b19e76b317b86f33cc201e44a5a53a1ef9e62688811ea8e4c4d56a039",
    ),
    (
        "table eulerian --nu 3 --s=-2 --t 3 --nmax 40 --format json",
        "010e32c61d52fcc93c3419d7b45419761a92ad7743748b65d1aab58b3963b20c",
    ),
    (
        "table ward --nu 2 --s 3 --t=-1 --nmax 40 --format csv",
        "ce420eb282f067c09d4032f7e52d11468e993291e47e9f3cb95df8180bd59d79",
    ),
    (
        "table eulerian --nu 2 --nmax 12 --mode poly --format json",
        "cd30a5c21b7e19d231d295fe69d899f100c223d8b65757369405a7ff52cb6a69",
    ),
    (
        "table ward --nu 3 --nmax 12 --mode poly --format csv",
        "bdd3d6e4ea966d50d875249bbae47ba3fea7399b8fa4b3a6d5e51950c3e5ba9f",
    ),
    (
        "enumerate --nu 2 --tvec 1,0,1 --n 4",
        "ada75608b48b63974107192aa8e7db9e7de3dce3eb320de14850efc347a1b107",
    ),
    (
        "enumerate --nu 1 --tvec 1,1 --n 5 --format json",
        "0c4fdf0728b47287e8da3ee9ff0d0cf6f1bcf598e8c8f70659ca32142781820c",
    ),
    (
        'bijection 23332200 555111 0444 "" --nu 3',
        "85c5d8fe586b95734438820c58037af9b5e7a5aac9a7da9f53c975c1c910359e",
    ),
    (
        "bijection 133322211 --nu 3",
        "63aa45454fb9ff3009f47d109b1d9f8040b76c1bc0fea65e06bb0c0317a91d3b",
    ),
    # t read off a 0-root, over one label and over none, and off the empty tree
    (
        "bijection 010 --nu 1",
        "e66e7b8765862491ad72cf50eb998cc6f682379663d0693dfa2ec6146cb03ae4",
    ),
    (
        "bijection 00 --nu 2",
        "e3d914338d4668571e633c89e1e72419bc58bf8d89c00bf1fb9f254ce6ed057b",
    ),
    (
        "bijection '' --nu 2",
        "0960fab6fa4404a8728cfa29fb1d44140ba5f52068a17fd683eb89f836624fde",
    ),
    # a 600-level chain: its JSON nests 1200 deep, past the default
    # recursion limit, so every walk behind the report must be iterative
    (
        "bijection '%s' --nu 1" % CHAIN_600,
        "edbee1ed46115d8f2fa63b6ea12d5ac3702569b7f25c348fbb8c4181e6fea216",
    ),
    (
        "verify --suite all",
        "88bb464aab4965fb79bcaed9af172ff2d6c19fd4465f99cf33066f44fcc717da",
    ),
    # the six per-suite reports, as the benchmark's verify workload prints them
    (
        "verify --suite recurrence-vs-enumeration",
        "4014f61156e8a1e6cb45eea44233510cf1b782a3a1e0fdcbe8e6d06b22ecbf81",
    ),
    (
        "verify --suite closed-forms",
        "c762001e544ebf6c00acda7f0bcc19272ae974fa74e3a2b77452ebc823133653",
    ),
    (
        "verify --suite inverse-pairs",
        "a53e43b3643d131769b12bc04cd7808a4428f57c7bee2e23174436698b9de2ea",
    ),
    (
        "verify --suite egf",
        "76eb4effb1aafdd383ec2245dbbc02744cf19daffc85da51f0096a3cbe59e7cf",
    ),
    (
        "verify --suite series-identities",
        "0685bd21daf5fc9e2002a9a0829ee387fdae147626087803f835a6e906fe9400",
    ),
    (
        "verify --suite ward-interpretation",
        "bbeb417c9142680960765e2eae0aeb4c23a2571fc747d4ea9f508f49a62ba845",
    ),
    # the benchmark's largest CLI table, through the row-by-row json layout
    (
        "table eulerian --nu 3 --s 2 --t 1 --nmax 220 --format json",
        "56480494e9ec3106d4f4166760c9e53d5dc4da397d0d60bb978552f84b43b444",
    ),
    (
        "table eulerian --nu 3 --s 2 --t 1 --nmax 220 --format csv",
        "032af6a7c7e8c89ac87c24e76234391d16ea7957f51bb5f40cc5597bb9341619",
    ),
]


@pytest.mark.parametrize(
    "argv,digest", GOLDEN, ids=[argv.replace(CHAIN_600, "1 2 ... 600") for argv, _ in GOLDEN]
)
def test_output_digest(capsys, argv, digest):
    assert main(shlex.split(argv)) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


SERIES_GOLDEN = [
    ("t_nu", (2, 22), "a8a06fc5faf6b08d251ea148b92b784461a933c8289290275b5568db6cf6c7fc"),
    ("t_nu", (3, 22), "f5c0723cd6235d03476366a7f6988f5950ad2b295c7d3fc75d71ab64347fa765"),
    ("t_nu", (4, 22), "1181e9e2b1302ade842145b49d975ea25919986778b40436a8505f8926c2dc06"),
    ("eulerian", (1, 1, 0, "1/2", 24), "7f0e8ed5205d4b0102c9964827cd8d063c9e28e721253692dd380939f809bf1f"),
    ("eulerian", (2, 2, 1, "1/3", 20), "449bdf6acc40144051b6831f5468c92a90f62a798517664b631d28e76bbdb0e9"),
    ("eulerian", (3, 1, 2, "3/4", 16), "6928c160fb86dc1e52cbf5769de946648142663cb2693bfc2a3e909141dc92b1"),
    ("eulerian", (4, 3, 0, "2/3", 12), "24606ecc48cf353207b8688680e401b8db521dc779bda76a563367b76f0b5d76"),
    ("ward", (1, 1, 0, "1", 24), "82850a16ec58ba9a54652cc9e200cbcf799e888d3918badde9e80fa870e40078"),
    ("ward", (2, 2, 1, "1/2", 20), "cf08daa464bd498802f3c275081c47d2d24cf13a94833333fc79a4db84cb56ab"),
    ("ward", (3, 1, 2, "3/2", 16), "c9ad27ae1c939ea5d3f28817f00b0e9699ab53ff3e1be6b41801750cc87eea86"),
    ("ward", (4, 3, 0, "2", 12), "54f91a4b78667332381740ac419eb56c60c856c592f2c46b23dde8967f5a9781"),
]

SERIES_ROUTES = {
    "t_nu": lambda nu, K: t_nu_series(nu, K).coeffs,
    "eulerian": egf_eulerian_coeffs,
    "ward": egf_ward_coeffs,
}


@pytest.mark.parametrize(
    "route,args,digest", SERIES_GOLDEN, ids=["%s%s" % (r, a) for r, a, _ in SERIES_GOLDEN]
)
def test_series_digest(route, args, digest):
    values = SERIES_ROUTES[route](*args)
    text = "\n".join(str(Fraction(v)) for v in values)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def _lines(rows) -> str:
    return "".join(" ".join(map(str, row)) + "\n" for row in rows)


def _row_transform():
    # the ratio-r row transform on big-int rows, both named directions and a
    # 2/3 round trip each way; taken before the transform moved to Horner's rule
    e = list(eulerian_table(Params(3, 2, 1), 150).row(150))
    w = list(ward_table(Params(2, 2, 1), 150).row(150))
    out = [euler_to_ward(e, 150), ward_to_euler(w, 150)]
    for row in (e, w):
        fwd = general_inverse_transform(row, 150, "2/3")
        out += [fwd, general_inverse_transform(fwd, 150, "2/3", "backward")]
        assert out[-1] == row
    return _lines(out)


def _closed_form_order2():
    # one row per call in O(n^2) terms; taken from the per-entry route
    return _lines(closed_form_order2(n, s, t) for s in range(5) for t in range(-3, 4) for n in range(16))


def _closed_forms_both_orders():
    return _lines(
        form(n, s, t)
        for s, t in ((1, 0), (0, 1), (2, 3), (3, -2))
        for form in (closed_form_order1, closed_form_order2)
        for n in range(21)
    )


def _ratio_expansion_order2():
    # the right side without series products; taken from the route with them
    return _lines(
        side
        for s, t in ((1, 0), (2, 1), (2, 3), (3, 1))
        for n in range(6)
        for side in second_order_ratio_expansion_sides(n, s, t, 16)
    )


def _marked_forest_rows():
    # all orders from one walk; taken from the one-row-per-walk route
    return _lines(
        row
        for nu in range(1, 4)
        for s in range(1, 4)
        for t in range(4)
        for comp in _compositions_for(s, t)
        for row in ward_marked_rows_up_to(Params(nu, s, t, comp), 4)
    )


def _ascent_histograms():
    # each order in turn as the top one; taken while the walk still built
    # tuples of entry tuples
    rows = []
    for nu in range(1, 5):
        for s in range(1, 4):
            for t in range(4):
                for comp in _compositions_for(s, t):
                    p = Params(nu, s, t, comp)
                    for n in range(6):
                        if count_sequences(p, n) > 200_000:
                            break
                        rows.append(ascent_histograms_up_to(p, n)[n])
    return _lines(rows)


def _enumerate_stream():
    # taken while the walk still built tuples of entry tuples: the same
    # objects in the same gap order
    out = io.StringIO()
    with redirect_stdout(out):
        for nu, tvec, n in (("2", "0", "4"), ("3", "1,0,1", "3"), ("1", "2,0", "4")):
            assert main(["enumerate", "--nu", nu, "--tvec", tvec, "--n", n, "--format", "jsonl"]) == 0
    return out.getvalue()


def _series_grid():
    # both egf routes, T_nu and both sides of both ratio expansions at the
    # verify grid; taken while TruncSeries still stored Fractions
    rows = []
    for nu in range(1, 4):
        for s in range(1, 4):
            for t in range(3):
                rows += [egf_eulerian_coeffs(nu, s, t, x0, 16) for x0 in ("1/3", "3/4")]
                rows += [egf_ward_coeffs(nu, s, t, x0, 16) for x0 in ("1/2", "3")]
    rows += [t_nu_series(nu, 22).coeffs for nu in range(1, 5)]
    for sides, pairs in (
        (eulerian_ratio_expansion_sides, [(1, 0), (0, 1), (2, 3), (3, 1)]),
        (second_order_ratio_expansion_sides, [(1, 0), (2, 1), (2, 3), (3, 1)]),
    ):
        for s, t in pairs:
            for n in range(6):
                rows += sides(n, s, t, 12)
    return _lines(rows)


ROUTE_GOLDEN = [
    ("row-transform", _row_transform, "0208dc2090e7a76cd780244a41256bd15de77ab8ed7f588aa77dfc8fee55d1a1"),
    ("closed-form-order2", _closed_form_order2, "d4291f36301ea17645925f5888042116070e249bf62cd4211ef335516d836a3c"),
    ("closed-forms", _closed_forms_both_orders, "9ec031424d4bff71806fae7b2ec2c99292dd21f397007649bf3030a9b3bb983b"),
    ("ratio-expansion-order2", _ratio_expansion_order2, "b02b44880e91d55eb7b295a6c644bb89db1b25da3c9baf10cec06bbbea74d171"),
    ("marked-forest-rows", _marked_forest_rows, "37a00cae4409656696feacfca0feae3e66a2e687a2e7fcce1709525567c2ab1a"),
    ("ascent-histograms", _ascent_histograms, "3c96b87bda7441a85c9d8b5c5627379cc27579e054cfd658ff87a7543700f315"),
    ("enumerate-stream", _enumerate_stream, "22fb182c30508e08eae1938c396c330e60ceb90b7020516b5e3ca02c2f999f3a"),
    ("series", _series_grid, "26e875c015808a8c2b5cc82991ad015538ea0506b5a0862917cfcda7e4083dae"),
]


@pytest.mark.parametrize("name,build,digest", ROUTE_GOLDEN, ids=[name for name, _, _ in ROUTE_GOLDEN])
def test_route_digest(name, build, digest):
    assert hashlib.sha256(build().encode()).hexdigest() == digest
