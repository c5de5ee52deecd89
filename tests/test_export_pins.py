"""Byte pins for ``export``, seen through ``cli.main``.

Each case pins one SHA-256 over the exit code, stdout, stderr and the bytes
of the ``--out`` OBJ file (None when the command wrote none).  The cases
cover every projection with and without ``--close-v``, the smallest grid,
a closed grid two v values wide, a power-law source, a vertex whose sign
of zero depends on the rotation's zero-component products, and the errors
a mesh can meet at an interior point: a profile domain error and a
rotation angle that overflows, where no file may be written; and a grid
one u wide, a usage error."""

import hashlib
import json

import pytest

from rotsurf4.cli import main

SURFACE = ["--f", "u+1", "--g", "sin(u)+2", "--alpha", "1", "--beta", "2", "--u", "0:1:4",
           "--v", "0:6.283185307179586:5"]
SMALL = ["--f", "u", "--g", "u^2+1", "--alpha", "1", "--beta", "3", "--u", "0.5:1.5:2"]

CASES = {
    "drop1": (["export", *SURFACE, "--projection", "drop1"],
        "3f5a51e7c203ca4fe7fc47f801fb157903bee5622abec64aad6263dc397cc111"),
    "drop1-close-v": (["export", *SURFACE, "--projection", "drop1", "--close-v"],
        "e610f24a19c6bc7d1b1eada840e380b3eb3a267d9aa77c7de83f09e16ef1ba89"),
    "drop2": (["export", *SURFACE, "--projection", "drop2"],
        "5a229b500381b094e840f2f5ac53b39c22dd7943619c50b467efa5da884b845f"),
    "drop2-close-v": (["export", *SURFACE, "--projection", "drop2", "--close-v"],
        "86356dd5e239d6cfb8812246e1591bb19027ac32522c53f3507be3b466b52a2f"),
    "drop3": (["export", *SURFACE, "--projection", "drop3"],
        "e89e8388fa17de8a8083c7d450721becd9153ab0b62bd3290eb1c908859c3089"),
    "drop3-close-v": (["export", *SURFACE, "--projection", "drop3", "--close-v"],
        "e9e75b7268162ab061e958cf75a125442b3ce904e458b5eddf30c0b324a44d05"),
    "drop4": (["export", *SURFACE],
        "a17da261434f7890fa3af43016ed5d0caf9c1a688389d35109daad4ec0c367ee"),
    "drop4-close-v": (["export", *SURFACE, "--projection", "drop4", "--close-v"],
        "eebedaca65bbbc96156c61df7f8c83cbe5cc16ec3fe504aa65a7be72c1d805db"),
    "grid-2x2": (["export", *SMALL, "--v", "0:1:2"],
        "e518d4bc4513567c56bdd8fe328e06e484fea5bdc3b10e458ed5000082fde296"),
    # two quads per row, on the same four vertices
    "nv2-close-v": (["export", *SMALL, "--v", "0:1:2", "--close-v", "--projection", "drop2"],
        "1df19a851be8abde196d49990391285983f89d27bc8b0d1a5579364501c489cd"),
    "power-law": (["export", "--msc-c", "1.5", "--eps", "-1", "--alpha", "1", "--beta", "3",
                   "--u", "0.5:2:3", "--v", "0:3:4", "--close-v", "--projection", "drop3"],
        "3dc80d8d2ec6170072722a11d223d742051fe4befc86be8385c2d643ee786eff"),
    # at u = 0, x1 = -0.0 * cos(v) - 0.0 * sin(v) is +0.0 where sin(v) < 0,
    # while -0.0 * cos(v) alone would print -0
    "signed-zero": (["export", "--f=-u", "--g", "u^2+1", "--alpha", "1", "--beta", "2",
                     "--u", "0:1:2", "--v=-1:1:3"],
        "9d545b255a8f813da38a3257bd7c0428a25658d5ddbe30f34e5f29f35624f883"),
    # sqrt(0.6 - u) leaves its domain at u = 0.75, the fourth of five rows
    "domain-error": (["export", "--f", "u", "--g", "sqrt(0.6-u)", "--alpha", "1", "--beta", "2",
                      "--u", "0:1:5", "--v", "0:1:3"],
        "bc089ebdf182d2dce57d862d876f6d5616cdec65fbcfb5d775c8e2ec01bf7431"),
    # beta v overflows at the third of four v values
    "angle-overflow": (["export", *SMALL, "--v=0:1.6e308:4", "--close-v"],
        "45af59aa671921f7a25b2a4c39f1829351c2a1d4280aa282b4eafdffa17cb2c2"),
    "one-row": (["export", *SURFACE[:-4], "--u", "0:1:1", "--v", "0:1:3"],
        "374dae6e9ae04708551bf246e9f8b2475c3deca6c74102ab15ea157164da4ac4"),
}


@pytest.mark.parametrize("argv, digest",
                         [pytest.param(*case, id=name) for name, case in CASES.items()])
def test_export_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "m.obj"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    record = [code, captured.out, captured.err,
              out.read_bytes().hex() if out.exists() else None]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest, record
