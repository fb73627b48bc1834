import json

import numpy as np
import pytest

from sparsekern import KernelSpec, Loss, ProblemVariant, SolverConfig
from sparsekern.errors import ConfigError

# each document type: an instance, one of its number fields, and one of its
# int fields (None where it has none)
DOCUMENTS = {
    "SolverConfig": (SolverConfig(gamma=0.2, iters=10, tol=1e-4, center_nodes=8), "gamma", "iters"),
    "KernelSpec": (KernelSpec(w_lo=0.1, w_hi=1.0, box=np.array([[0.0, 3.0]])), "w_hi", None),
    "Loss": (Loss("absolute_eps", 1e-3, 5.0), "epsilon", None),
    "ProblemVariant": (ProblemVariant.fixed_width(0.5), "w0", None),
}


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_from_dict_refuses_each_malformed_value_naming_its_key(name):
    doc, number, integer = DOCUMENTS[name]
    d = doc.to_dict()
    cases = [("eps", 0.1), (number, True), (number, "0.1")]
    if integer is not None:
        cases.append((integer, 2.5))
    for key, val in cases:
        with pytest.raises(ConfigError, match=f"{name} .*'{key}'"):
            type(doc).from_dict({**d, key: val})


@pytest.mark.parametrize("name", list(DOCUMENTS))
def test_to_dict_round_trips_through_json(name):
    doc = DOCUMENTS[name][0]
    d = doc.to_dict()
    assert type(doc).from_dict(json.loads(json.dumps(d))).to_dict() == d


def test_an_integral_float_fills_an_int_field():
    config = SolverConfig.from_dict({"gamma": 0.2, "iters": 5.0})
    assert config.iters == 5 and type(config.iters) is int
