"""Golden CLI output: stdout digests and exit codes pinned before the
packed-orbit refactor (the `verify` ones before the batched
rotation-scaling sweep), so `factor`, `count`, `export`, `extremal` and
`verify` stay byte-identical.  Regenerate a digest only for a documented
change of output."""

import hashlib

import pytest

from astute.cli import main

# (argv, exit code, sha256 of stdout); the affine rules cover b = 4, 6, 9
GOLDEN = [
    ("factor --rule pcr --b 2 --n 3 --k 2 --format text", 0, "1abcaf9bd469fb634c703a88084f910b835a69a0954e60fe812151d68c1f2c48"),
    ("factor --rule pcr --b 2 --n 3 --k 2 --format json", 0, "7892bc4e5879d5974121b40643164c85c19a05a37bd99dad6cef76f55e62f8a8"),
    ("factor --rule pcr --b 2 --n 3 --k 2 --format dot", 0, "adc31d6a6192227aecf7978fb53e1dac15da4db04219c2d0982672d6ad5d297e"),
    ("count --rule pcr --b 2 --n 3 --k 2 --method all", 0, "6e50dae5d891d37df8768983f6156b7c826abb07e6a7d7bd5e7a5a87f263afdf"),
    ("factor --rule icr --b 3 --n 2 --k 2 --format text", 0, "bc4f30fc3fc352ca6a759189a7a823c001c86d3d61ff7e549fcf70d7919b0438"),
    ("factor --rule icr --b 3 --n 2 --k 2 --format json", 0, "a016a751bb4c9e6419b63790ea921df0089f07ffdd5164c099c8c4c8aa2f212b"),
    ("factor --rule icr --b 3 --n 2 --k 2 --format dot", 0, "7caf62e64915f9ff13a765540d02d32c81285791bbd56f4fef81f9bd0c66d1e6"),
    ("count --rule icr --b 3 --n 2 --k 2 --method all", 0, "a8e8226f5c61a795bc25de6d22c6c43b6ba8aa51717947543ea6294afcc3fdc6"),
    ("factor --rule xor --b 2 --n 4 --k 3 --format text", 0, "663e5d8a09dd601ec5e066a490c2bdb9211e5dc5d4017eea331060d24df5c6b5"),
    ("factor --rule xor --b 2 --n 4 --k 3 --format json", 0, "2630f4f4ed171fc73487cec6bbd93d161c6ac58dfb88f8c5ed3b4e6c1a016672"),
    ("factor --rule xor --b 2 --n 4 --k 3 --format dot", 0, "640f7898800760877da3e77f74614f71d88f0a56a15045ed22374da9a75c2b69"),
    ("count --rule xor --b 2 --n 4 --k 3 --method all", 0, "55c7879c9e54698016fd7d0aec67da37dcc7352e76a3b37b7c512b33d55825ce"),
    ("factor --rule affine:1;1,2,5 --b 6 --n 2 --k 2 --format text", 0, "7f9dd397068e15b05499d12ea4c550e4849ac821049e3de8a4433b566531b3b3"),
    ("factor --rule affine:1;1,2,5 --b 6 --n 2 --k 2 --format json", 0, "c631c3d66d0e2defd0872420c68d18539ff8c9ce0b2d9ebc89f792c0e0039452"),
    ("factor --rule affine:1;1,2,5 --b 6 --n 2 --k 2 --format dot", 0, "9e77e3ef1f49e53b6ee36d3c197adabd16d31583f72c593c6832504d2918905f"),
    ("count --rule affine:1;1,2,5 --b 6 --n 2 --k 2 --method all", 0, "8558f32b0a3758aea6a1e5bb880ba70ebb6d32ff53f912292d14a7ae6fc55cf4"),
    ("factor --rule affine:3;1,0,2,3 --b 4 --n 3 --k 2 --format text", 0, "24660b0f40db6c40bc96ee6accec0fcc976451eadb53a39b6c703ece7121a146"),
    ("factor --rule affine:3;1,0,2,3 --b 4 --n 3 --k 2 --format json", 0, "bdcd8226713ec92dda9f285b74d066f6778274f54ff194598539d6eda6e867ee"),
    ("factor --rule affine:3;1,0,2,3 --b 4 --n 3 --k 2 --format dot", 0, "ef9f38ae6cf18c1ad1ecfe951141a4e4b49f386760e1dc3a7c502899646aa979"),
    ("count --rule affine:3;1,0,2,3 --b 4 --n 3 --k 2 --method all", 0, "e2dcc2a8fd88645f672899f4a1753a436ba03da9feca1e70a00dc2425087cf6b"),
    ("factor --rule affine:2;2,3,4 --b 9 --n 2 --k 3 --format text", 0, "5f8e3ef2bcd9720c2431ba8f9dd7f8b2df06529e4f68721bd04863ea0e3f8a79"),
    ("factor --rule affine:2;2,3,4 --b 9 --n 2 --k 3 --format json", 0, "5d558ff44b03407879829c5ac4f2716ab95ce099d748bb92a7f85e224e1a0ae9"),
    ("factor --rule affine:2;2,3,4 --b 9 --n 2 --k 3 --format dot", 0, "96d6709081bf3af4e2b41a9ffef2bef3a72d8ecd00685550e9e96f73307b2fbd"),
    ("count --rule affine:2;2,3,4 --b 9 --n 2 --k 3 --method all", 0, "1a177c46323ae1c97ddfbb05eee8ca305f4fafc3daaed03fe74e35de466e328b"),
    ("export --b 2 --n 3 --k 2 --rule icr", 0, "e9af894ad22af89389421fa3fee5db72b14fdb70faabd8d4bc34ca4ff185115d"),
    ("extremal --b 2 --n 3 --k 2", 0, "04b8ffbdb98c77c0e5ca78a5204790cd060ee5c18b70c70713f3edee5b008c9a"),
    ("verify --suite lemmas", 0, "cfa6696529ab4da16b891a29c86bcc07a658964d8a2480d299da8894716ee848"),
    ("verify --suite all", 0, "92e69a452e2174d6f0e4ae2597a23a72b05f1e78f6d03eb604aa23edc40c4a6f"),
    # benchmark scale (b^n = 65536, 16384, 4096), pinned before the bulk
    # orbit-layer kernels: the word permutation shared by enumeration and
    # Burnside, the phase-sliced successor array and the digit-built names
    ("count --rule icr --b 2 --n 16 --k 3 --method all", 0, "f09c24b5dbb223d1db33b5eef5199c162c0cc7b8658fe6aac5cdf1abbaf5e6f0"),
    ("factor --rule xor --b 2 --n 14 --format json", 0, "a139140f0fbc7b4c9f2f9460b27299118bd3313d9d2b5373bb482dec39a25aeb"),
    ("factor --rule pcr --b 2 --n 12 --k 2 --format dot", 0, "8affab8cad405eddfd4ff644b590aa41bb38021f3c05b326dbc7550c9d95f827"),
]


@pytest.mark.parametrize("argv,code,digest", GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_stdout(capsys, argv, code, digest):
    assert main(argv.split()) == code
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest
