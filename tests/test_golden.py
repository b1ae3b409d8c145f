"""Golden-output guard: sha256 digests of outputs that must not change.

The digests pin the exact bytes of integer and symbolic tables in both
formats, of the enumeration stream in both formats, of two bijection reports
and of the quick verify report; any change to the engine, the enumeration
order, the tree bijection, the rendering or the verify report shows up here
first.  A second set pins the series layer: T_nu and both egf coefficient
routes, one exact rational per line.
"""

import hashlib
import shlex
from fractions import Fraction

import pytest

from eulerward.cli import main
from eulerward.series import egf_eulerian_coeffs, egf_ward_coeffs, t_nu_series

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
    (
        "verify --suite all --size-level small",
        "3c066b0a2db5e2e9a17f2fda1fe68c4281e20c5b89dccc2872eff054e323204d",
    ),
]


@pytest.mark.parametrize("argv,digest", GOLDEN, ids=[argv for argv, _ in GOLDEN])
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
