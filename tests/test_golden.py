"""Golden-output guard: sha256 digests of CLI outputs that must not change.

The digests pin the exact bytes of integer and symbolic tables in both
formats, of the enumeration stream in both formats, of two bijection reports
and of the quick verify report; any change to the engine, the enumeration
order, the tree bijection, the rendering or the verify report shows up here
first.
"""

import hashlib
import shlex

import pytest

from eulerward.cli import main

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
