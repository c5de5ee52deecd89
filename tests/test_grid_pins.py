"""Byte pins for the closed-form grid commands: ``invariants``, ``octet``
and ``plot`` of an invariant along u, seen through ``cli.main``.

Each case pins one SHA-256 over the exit code, stdout, stderr and the bytes
of the ``--out`` file (None when the command wrote none).  The cases cover
several v values per u, a -0.0 one-point grid, a zero classification
tolerance, a power-law source, three plotted quantities, and the errors a
grid can meet: a vanishing radius at an interior u, a closed form that
divides by zero or overflows (``**`` raises there), a divisor (G E)^2 of K
that overflows (``verify`` reads the same closed K), a closed-form error
before a vanishing radius, forms that overflow where the closed k divides
by zero (each command names its own first error), and a profile domain
error, which makes the whole-grid profile read miss.  The octet rows at the
edge of the double range pin its divisors."""

import hashlib
import json

import pytest

from rotsurf4.cli import main

SURFACE = ["--f", "u", "--g", "u^3+u", "--alpha", "1", "--beta", "2", "--u", "0.5:2:9"]
# G = a^2 f^2 + b^2 g^2 vanishes at u = 0, the third of five points
RADII_VANISH = ["--f", "u", "--g", "u^2", "--alpha", "1", "--beta", "2", "--u=-1:1:5"]
# (G E)^3 underflows to 0 at u = 1, where G E and (G E)^2 do not: the closed k
# refuses it (and so does plot of kappa, which reads it first); an invariants
# row, whose K divides by (G E)^2, refuses it too, as the term a^2 b^2 E
# mixed^2 of K's numerator underflows to 0 there
TINY = ["--f", "1e-30*u^-2", "--g", "1e-120", "--alpha", "1", "--beta", "2", "--u", "1e-10:1:2"]
# G E overflows at u = 1; the closed k's G ** 3 raises OverflowError there
HUGE = ["--f", "1e110*u^9", "--g", "u^2", "--alpha", "1", "--beta", "2", "--u", "1e-10:1:2"]
# (G E)^2 overflows at u = 1, where (G E)^3 = G^3 E^3 gives inf without raising
GAUSS = ["--f", "1e40", "--g", "1e40*u", "--alpha", "1", "--beta", "2", "--u", "1:2:2"]
# the whole-grid read misses at u = 0.5, so every jet is read per point
SQRT = ["--f", "u", "--g", "sqrt(u-1)", "--alpha", "1", "--beta", "2", "--u", "0.5:2:4"]
# E and G overflow at u = -1, so every closed table refuses it before the radii vanish at u = 0
STEEP = ["--f", "u", "--g", "1e160*u^2", "--alpha", "1", "--beta", "2"]
# L overflows at u = 0, where G E is finite and (G E)^3 underflows: the forms read "non-finite
# result" and the closed k "zero divisor", so a plot of k (which reads no forms) names the latter
BENT = ["--f", "1e-150+u", "--g", "u+5e157*u^2", "--alpha", "1", "--beta", "2", "--u", "0:1:2"]

CASES = {
    "invariants-v3": (["invariants", "--f", "u", "--g", "sin(u)*exp(-u^2)+sqrt(u)",
                       "--alpha", "1", "--beta", "2", "--u", "0.5:2:7", "--v", "0:1:3"], False,
        "921d2698c371de8ec4882221e8db4039fbbddb91cf2a4aff18258792059fc698"),
    "invariants-v3-out": (["invariants", *SURFACE, "--v", "0:6.283185307179586:3"], True,
        "d63ed8d8f83fcf091446152712b240b5463ceabede43b75a7287ea8aada9617f"),
    "invariants-negative-zero": (["invariants", "--f", "u+1", "--g", "u", "--alpha", "1",
                                  "--beta", "2", "--u=-0.0:0:1", "--v=-0.0:0:1"], False,
        "1b6e0398545e49c1948d55f74ae8bd4b2c32588758c6ab029b76fda6be4a9169"),
    # elliptic, flat at u = 0 (k = -0.0), then hyperbolic
    "invariants-tol-class-0": (["invariants", "--f", "u+2", "--g", "u^3", "--alpha", "1",
                                "--beta", "2", "--u=-1:1:5", "--tol-class", "0"], True,
        "cff72638ac7b2ef42457d95f58867da5d98d799b89241aa3cce37ebb2ca5845d"),
    # a straight meridian through the origin: flat at every point
    "invariants-flat": (["invariants", "--f", "u", "--g", "2*u", "--alpha", "1", "--beta", "2",
                         "--u", "0.5:2:3"], True,
        "13279ff304e5a066acc249561f4e7610be2d58f41001cef139c9192da550ff5b"),
    "octet-power-law": (["octet", "--msc-c", "1.5", "--eps", "-1", "--alpha", "1",
                         "--beta", "3", "--u", "0.5:2:6"], True,
        "1f4f2bb32703d3cc916dbf9f247510ce10466ac625a51231e7dc5bcc70223124"),
    "octet-expression": (["octet", "--f", "cos(u)", "--g", "sin(u)+2", "--alpha", "1",
                          "--beta", "2", "--u", "0:3:7"], False,
        "de47f44c9014b51419ec9ff77192c708f6151cfd8066980f4764eadcd32adaf9"),
    "plot-k": (["plot", *SURFACE, "--quantity", "k"], True,
        "38a9ea0dbddeff8f50d1cbc12f551341ec6b4ef4cb48eed94af6c40c8a3fa221"),
    "plot-nu1": (["plot", *SURFACE, "--quantity", "nu1"], True,
        "1138eca065b99a38e68c4fc97045176a593d6f527c220f69b801d33321b682de"),
    "plot-gamma2": (["plot", *SURFACE, "--quantity", "gamma2"], True,
        "d2d4efd06953613d5181ef40932517b512ed4ab445c5fc2894a7a149d1437c42"),
    "invariants-radii-vanish": (["invariants", *RADII_VANISH], True,
        "c90978da9055e70962d9ea1078c87ae8f4534f2aeb07bcf4527ad288e81ad8ff"),
    "octet-radii-vanish": (["octet", *RADII_VANISH], False,
        "c90978da9055e70962d9ea1078c87ae8f4534f2aeb07bcf4527ad288e81ad8ff"),
    "plot-radii-vanish": (["plot", *RADII_VANISH, "--quantity", "mu"], True,
        "c90978da9055e70962d9ea1078c87ae8f4534f2aeb07bcf4527ad288e81ad8ff"),
    "invariants-tiny": (["invariants", *TINY], True,
        "366a36e76656f120e83f3fba8c3ee5dd67a49eac55a578563c24cc1c97b61c76"),
    "octet-tiny": (["octet", *TINY], True,
        "2c405cfdda656a7a917315b2a8891982b3e3ce7175df2f1724753913ce84ea35"),
    "plot-zero-divisor": (["plot", *TINY, "--quantity", "kappa"], True,
        "2b68b77c60d32b52739f60a46cc60f12d121b29889b7db32ed3f7e5a430bfaa3"),
    "invariants-overflow": (["invariants", *HUGE], True,
        "629d06f0d538061ef808f9d9df0843e6e3db74214f74eae6ac6c7bb656e56fbb"),
    "plot-power-overflow": (["plot", *HUGE, "--quantity", "k"], True,
        "629d06f0d538061ef808f9d9df0843e6e3db74214f74eae6ac6c7bb656e56fbb"),
    "invariants-gauss-overflow": (["invariants", *GAUSS], False,
        "629d06f0d538061ef808f9d9df0843e6e3db74214f74eae6ac6c7bb656e56fbb"),
    "plot-gauss-overflow": (["plot", *GAUSS, "--quantity", "K"], True,
        "629d06f0d538061ef808f9d9df0843e6e3db74214f74eae6ac6c7bb656e56fbb"),
    "verify-gauss-overflow": (["verify", *GAUSS], False,
        "629d06f0d538061ef808f9d9df0843e6e3db74214f74eae6ac6c7bb656e56fbb"),
    # rows at the edge of the double range: the octet's divisors E^(3/2), sqrt(E) G and
    # sqrt(E) sqrt(G) stay finite where the invariants' (G E)^2 or G^3 do not
    "octet-huge": (["octet", *HUGE], True,
        "d976f57465acfd3d57279b93e1f43c3eb4c3e21939f37b626b438caff51ab9bf"),
    "octet-gauss": (["octet", *GAUSS], True,
        "f8910b176d690559bfeb975fa360ed29bd9d0daf473597603e500181f5e2ecd9"),
    "plot-mu-gauss": (["plot", *GAUSS, "--quantity", "mu"], True,
        "b251233fbf51a8e327975bee600ffb797d25385f93565f48f6715c55735adb14"),
    "verify-zero-divisor": (["verify", *TINY], False,
        "2b68b77c60d32b52739f60a46cc60f12d121b29889b7db32ed3f7e5a430bfaa3"),
    "invariants-steep": (["invariants", *STEEP, "--u=-1:1:3"], True,
        "88781e48d51cab6a18a4c7abd4908612a9515715383a7e3b7d52825a2483f391"),
    "octet-steep": (["octet", *STEEP, "--u=-1:1:3"], True,
        "88781e48d51cab6a18a4c7abd4908612a9515715383a7e3b7d52825a2483f391"),
    "plot-steep": (["plot", *STEEP, "--u=-1:1:3", "--quantity", "nu2"], True,
        "88781e48d51cab6a18a4c7abd4908612a9515715383a7e3b7d52825a2483f391"),
    "invariants-steep-radii-vanish": (["invariants", *STEEP, "--u=0:1:2"], True,
        "c90978da9055e70962d9ea1078c87ae8f4534f2aeb07bcf4527ad288e81ad8ff"),
    "invariants-bent": (["invariants", *BENT], False,
        "62d77402cb3ddc205a41db5ef0b3a963480242c95d9b7145022c462f664c0767"),
    "verify-bent": (["verify", *BENT], False,
        "62d77402cb3ddc205a41db5ef0b3a963480242c95d9b7145022c462f664c0767"),
    "plot-k-bent": (["plot", *BENT, "--quantity", "k"], True,
        "cb7a5d2823abe7ed216f6c2c5400c58135c7670925b15403b7729fdef0df322b"),
    "invariants-grid-miss": (["invariants", *SQRT], True,
        "f79833778f08fd45813793d6b986b0b8afbea34ad447c22323ac410c7a4946d7"),
    "octet-grid-miss": (["octet", *SQRT], True,
        "f79833778f08fd45813793d6b986b0b8afbea34ad447c22323ac410c7a4946d7"),
    "plot-grid-miss": (["plot", *SQRT, "--quantity", "K"], True,
        "f79833778f08fd45813793d6b986b0b8afbea34ad447c22323ac410c7a4946d7"),
}


@pytest.mark.parametrize("argv, to_file, digest",
                         [pytest.param(*case, id=name) for name, case in CASES.items()])
def test_grid_command_bytes_are_pinned(tmp_path, capsys, argv, to_file, digest):
    out = tmp_path / "out"
    code = main([*argv, "--out", str(out)] if to_file else argv)
    captured = capsys.readouterr()
    record = [code, captured.out, captured.err,
              out.read_bytes().hex() if out.exists() else None]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest, record
