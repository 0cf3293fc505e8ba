"""Golden CLI values: every sewing path must keep reproducing these numbers.

The literals are the shortest-repr outputs of ``szegosew eval`` and
``szegosew det`` for fixed arguments.  Any change to how a scheme is
assembled has to agree with them to 1e-14 relative.
"""

import json

import pytest

from szegosew.cli import main

RTOL = 1e-14

EPS_ARGS = ["--scheme", "eps", "--tau1", "0.3,1.0", "--tau2", "0.1,1.2",
            "--eps", "0.01,0.02", "--alpha1", "0.17", "--beta1", "0.38",
            "--alpha2", "0.07", "--beta2=-0.29"]
SPHERE_ARGS = ["--scheme", "rho-sphere", "--rho", "0.05,0.02",
               "--alpha2", "0.1", "--beta2=-0.22"]
TORUS_ARGS = ["--scheme", "rho-torus", "--tau", "0.2,1.1", "--w=-1.866,2.315",
              "--rho", "0.001,0.0006", "--alpha1", "0.17", "--beta1", "0.38",
              "--alpha2", "0.1", "--beta2=-0.22", "--order", "8"]

EVAL_GOLDEN = [
    ("eps-11", EPS_ARGS, "1:0.4,1.1,1:1.5,2.2",
     complex(-0.314133603995499, 0.6450987546244519)),
    ("eps-12", EPS_ARGS, "1:0.4,1.1,2:0.2,2.0",
     complex(-0.06475690352223501, 0.04186698931241542)),
    ("eps-21", EPS_ARGS, "2:0.2,2.0,1:1.5,2.2",
     complex(0.03930922983310186, -0.027145875394884608)),
    ("eps-22", EPS_ARGS, "2:0.2,2.0,2:1.5,2.2",
     complex(-0.599571918184382, 0.05699377758238325)),
    ("rho-torus", TORUS_ARGS, "1:0.6,3.5,1:-2.9,1.4",
     complex(0.4065992620168641, -0.17961102565576223)),
    ("rho-sphere", SPHERE_ARGS, "1:0.2,0.05,1:-0.15,0.18",
     complex(1.0852317202751651, -0.3137503586557735)),
]

DET_GOLDEN = [
    ("eps", [*EPS_ARGS, "--order", "16"], {
        "det_I_minus_Q": complex(0.9998449345047089, -0.0004431212586618795),
        "det_I_minus_F1F2": complex(0.9998449345047089,
                                    -0.0004431212586618795)}),
    ("rho-sphere", [*SPHERE_ARGS, "--order", "16"], {
        "det_I_minus_T_product": complex(1.130781295626427, 0.1835021953242384),
        "det_I_minus_T_matrix": complex(1.1307812956264276,
                                        0.18350219532423842)}),
    ("rho-torus", TORUS_ARGS, {
        "det_I_minus_T": complex(1.0247963986973787, 0.039752756946741616)}),
]


def _json(capsys, argv) -> dict:
    code = main([*argv, "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


def _close(got: complex, want: complex) -> bool:
    return abs(got - want) <= RTOL * abs(want)


@pytest.mark.parametrize("name,args,points,want", EVAL_GOLDEN,
                         ids=[g[0] for g in EVAL_GOLDEN])
def test_eval_golden(capsys, name, args, points, want):
    doc = _json(capsys, ["eval", *args, "--points", points])
    got = complex(*doc["rows"][0]["s"])
    assert _close(got, want), (name, got, want)


@pytest.mark.parametrize("name,args,want", DET_GOLDEN,
                         ids=[g[0] for g in DET_GOLDEN])
def test_det_golden(capsys, name, args, want):
    values = _json(capsys, ["det", *args])["values"]
    assert set(values) == set(want)
    for quantity, value in want.items():
        got = complex(*values[quantity])
        assert _close(got, value), (quantity, got, value)
