"""The top-level namespace: the README's Python API block runs and gives
the values its comments name, and the package exports exactly the union of
its layers' __all__."""

import math
from pathlib import Path

import pytest

import sscasimir
from sscasimir import gaussian, plates, quadrature, series

README = Path(__file__).resolve().parents[1] / "README.md"
PI_SQ = math.pi ** 2

# each commented line of the block, and a check of the value it gives
CHECKS = {
    "ss.regularized_geometric_sum(1.0, 2.0)": lambda v: v == -1.0,
    "ss.self_similar_sum(ss.PowerSeries((1, 2, 4, 8, 16)), 2.0).value":
        lambda v: v == pytest.approx(-1 / 3, rel=1e-12),
    "ss.pair_interaction_energy(1.0).value": lambda v: v == pytest.approx(-PI_SQ / 1440, rel=1e-15),
    "ss.contraction_stack_energy(1.0, 2.0)":
        lambda v: v.value == pytest.approx(PI_SQ / 1260, rel=1e-13) and v.regularized is True,
    "ss.combined_stack_energy(1.0, 2.0).value": lambda v: v == 0.0,
    "params.coefficients": lambda v: v == (1.0, 1.0, 0.0),
    "ss.casimir_energy_density(params, shell)":
        lambda v: v.value == pytest.approx(-4.515e-3, rel=1e-3),
    "ss.rg_rescale(params, 2.0, ss.fixed_point_field_scale(2.0, 3), 3)":
        lambda v: v.K == 1.0,
}


def python_api_block():
    after = README.read_text(encoding="utf-8").split("## Python API", 1)[1]
    return after.split("```python\n", 1)[1].split("```", 1)[0]


def test_readme_python_api_block():
    namespace = {}
    checked = []
    for line in python_api_block().splitlines():
        code, _, comment = line.partition("#")
        code = code.strip()
        if not comment:
            exec(code, namespace)
            continue
        value = eval(code, namespace)
        assert CHECKS[code](value), line
        checked.append(code)
    assert checked == list(CHECKS)


def test_namespace_is_the_union_of_the_layers():
    layers = (series, plates, gaussian, quadrature)
    names = {name for layer in layers for name in layer.__all__}
    assert len(set(sscasimir.__all__)) == len(sscasimir.__all__)
    assert set(sscasimir.__all__) == names
    for layer in layers:
        for name in layer.__all__:
            assert getattr(sscasimir, name) is getattr(layer, name), name
    namespace = {}
    exec("from sscasimir import *", namespace)
    assert set(namespace) - {"__builtins__"} == names
