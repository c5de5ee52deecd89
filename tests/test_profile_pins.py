"""Byte pins for the profile path: parse, both derivatives and their
evaluation, seen through ``cli.main``.

Each case pins one SHA-256 over the exit code, stdout, stderr and the bytes
of the ``--out`` file (None when the command wrote none).  The meridians are
the first twelve of the benchmark's seeded sweep (``perfbench/workloads.py``,
seed 41), on its 8-point u-grid; the domain-error cases fail in a node of the
first or second derivative, so their message prints a derivative node."""

import hashlib
import json

import pytest

from rotsurf4.cli import main

SWEEP = [
    ("((-1.379--0.934))+(((-2.684)^2+(u)/(u)))+(log((u)^1.605*(u+(u+2.037e0))))", "0.5", "2.0"),
    ("((2.083)/(u))+((-(-1.084))^2)+(cos((8.91e-1*-1.282)/((1.722)^1.145)))", "0.5", "2.5"),
    ("((u)^3)+(sin((u)^3))+(-(log(exp(-2.146))))", "1.5", "3.0"),
    ("(sin(1.266e0))+(cos(cos(-2.547)))+((-(1.274))^2*(7.26e-1*u)^3)", "1.5", "2.0"),
    ("(sin(2.9e0))+(log((u+1.361)*u))+(((cos(1.687e0))^3)^3)", "1.0", "2.0"),
    ("(cos(-1.364))+(cos(-(-2.417)))+(-(u)*log(1.612)*((1.96)^2)^2)", "1.5", "2.0"),
    ("(cos(-9.94e-1))+(((-2.491)/((u+0.799)))^2)+(((-(-1.045e0))/((u+0.691)))^3)", "0.5", "2.0"),
    ("(log(2.958e0))+(sin(sin(2.4)))+(log(exp(log((u+6.93e-1)))))", "1.0", "2.0"),
    ("((1.464e0)^2)+(-(-1.341*-0.76))+(log(exp((1.15)^2)))", "1.5", "3.0"),
    ("(u*u)+(sin(log((u+1.232))))+(((cos(u))/(exp(u)))/(exp(-(-1.714))))", "1.5", "2.0"),
    ("(u*u)+(-((u)^2))+((sin(cos(u)))^2)", "1.0", "2.5"),
    ("((1.488)^3)+(sin(cos(1.556)))+(log((exp(-1.742e0)+(1.88)^2.016e0)))", "1.0", "3.0"),
]


def _sweep(kind, i):
    g_text, alpha, beta = SWEEP[i]
    return [kind, "--f", "u", "--g", g_text, "--alpha", alpha, "--beta", beta,
            "--u", "0.5:2.0:8"]


PINS = [
    *(pytest.param(_sweep(kind, i), digest, id=f"{kind}-{i}") for (kind, i), digest in {
        ("invariants", 0): "41ae6cf91823987dfb5d0058b93a40d5289ef1a8c30f6ddf53bef0e79842f45e",
        ("invariants", 1): "474c6055e761f9a5663f8f32fb93085311c7b64cd031dfc4d7075be7973f6f54",
        ("invariants", 2): "ac5c117c39e720e689fe70c3da7c7c671a81f6e2852f1a70d77d8d9564e9898e",
        ("invariants", 3): "16913a6224da53067479441fe7fd94cf2e94bc6ec8b8fcefa82faf85653f8a45",
        ("invariants", 4): "2469d6b4870d99679341bf149b983e9cc126fbafee2422e13b5021703fcb6d58",
        ("invariants", 5): "e70385b1c58ba73535fe0266ce39142fefeef612f0b83bf2af3a58895191d640",
        ("octet", 6): "f3d6148bab173d712471dd8362a822ea3abceeef6188ab7498686362ff1767a6",
        ("octet", 7): "5d9d1343a252b7050157bcf9a8cd63d67ceeb61be46e88ccbd523646cb301105",
        ("octet", 8): "bd3a79410b9e03a8981e6b104c2115c79e581bda77768265cec20985b89f49fa",
        ("octet", 9): "9bfd1777936b76eb75b2153ffbeb77d9a620a539dcd57d0b74463ab1070618b1",
        ("octet", 10): "481d736d40e79d1d31a4de3933f04ca1c71727e4e60db68240deb97d3369d0bf",
        ("octet", 11): "ebfda5d4fdd01ed627f8fc03714dcc93de3e617f04a9f486f776d4ca64ebff72",
    }.items()),
    # d1 of g: 1/(2*sqrt(u-1)) divides by zero at u = 1
    pytest.param(["invariants", "--f", "u", "--g", "sqrt(u-1)", "--alpha", "1", "--beta", "2",
                  "--u", "1:2:3"],
                 "8a05a0321f01ff936ddcbaff1c74f20b0119e1a69c857af235178d50e1327565",
                 id="d1-division"),
    # d2 of g: 1.5*(0.5*u^-0.5) raises zero to a negative power at u = 0
    pytest.param(["octet", "--f", "u", "--g", "u^1.5", "--alpha", "1", "--beta", "2",
                  "--u", "0:1:2"],
                 "3006d207590c2eba7250f5e24593d609e2c075df5148a3fce4862912f31f72ac",
                 id="d2-power"),
    # d1 of f: the quotient rule's square of the divisor overflows at u = 1e160
    pytest.param(["invariants", "--f", "1/u", "--g", "u", "--alpha", "1", "--beta", "2",
                  "--u", "1e160:1e160:1"],
                 "a8f1111add3082733c14fd67edb0eb438d7a08807ff29d8723ff156f3cc127f8",
                 id="d1-quotient-overflow"),
]


@pytest.mark.parametrize("argv, digest", PINS)
def test_profile_path_bytes_are_pinned(tmp_path, capsys, argv, digest):
    out = tmp_path / "out.csv"
    code = main([*argv, "--out", str(out)])
    captured = capsys.readouterr()
    record = [code, captured.out, captured.err,
              out.read_bytes().hex() if out.exists() else None]
    assert hashlib.sha256(json.dumps(record).encode()).hexdigest() == digest, record
