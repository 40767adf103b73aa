import json
import math
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from thermoorder import (
    BlockState,
    Hamiltonian,
    JointCatalyst,
    gibbs_state,
    marginal,
    product_joint,
    tensor,
    tensor_all,
)
from thermoorder.states import (
    joint_from_dict,
    joint_to_dict,
    state_from_dict,
    state_to_dict,
)

from conftest import random_rational_distribution, random_state


def test_gibbs_single_level_is_certain():
    assert gibbs_state(Hamiltonian((0.0,))).probs == (1.0,)


def test_gibbs_two_level_unit_gap():
    ham = Hamiltonian((0.0, 1.0))
    g = gibbs_state(ham)
    z = 1 + math.exp(-1)
    assert g.probs[0] == pytest.approx(1 / z, abs=1e-15)
    assert g.probs[1] == pytest.approx(math.exp(-1) / z, abs=1e-15)


def test_a_level_whose_weight_underflows_is_rejected_at_construction():
    # e^{-800} is 0.0 in floats: derived weights are checked like explicit ones
    with pytest.raises(ValueError, match="level 1 "):
        Hamiltonian((0.0, 800.0, 1.0))
    with pytest.raises(ValueError, match="level 0 "):
        Hamiltonian((1.0, 2.0), (0.0, 1.0))
    # exact levels beyond the float range above the ground have weight 0 too
    with pytest.raises(ValueError, match=r"level 1 \(10{400}\) is 0\.0; "):
        Hamiltonian((0, 10 ** 400))
    with pytest.raises(ValueError, match=r"level 1 \(0\) is 0\.0; "):
        Hamiltonian((Fraction(-10 ** 400), 0))
    # the weights are relative to the ground level, wherever it lies
    assert Hamiltonian((-800.0, 1.0 - 800.0)).gibbs == (1.0, math.exp(-1.0))


def test_gibbs_trivial_is_uniform():
    g = gibbs_state(Hamiltonian.trivial(3))
    assert g.probs == (Fraction(1, 3),) * 3
    assert g.exact


def test_tensor_identity_system():
    one = BlockState((1,), Hamiltonian((0,)))
    s = random_state(__import__("random").Random(3), 4)
    out = tensor(one, s)
    assert out.probs == s.probs
    assert out.ham.levels == s.ham.levels


def test_tensor_work_extraction_layout():
    # left side of the demo transition: probabilities interleave with zeros,
    # levels add pairwise in row-major order
    sys_ham = Hamiltonian((0.0, 1.0))
    bit_ham = Hamiltonian((0.0, 0.01))
    out = tensor(BlockState((0.73, 0.27), sys_ham), BlockState((1.0, 0.0), bit_ham))
    assert out.probs == (0.73, 0.0, 0.27, 0.0)
    assert out.ham.levels == (0.0, 0.01, 1.0, 1.01)


def test_tensor_uniform_stays_uniform():
    u2 = gibbs_state(Hamiltonian.trivial(2))
    out = tensor(u2, u2)
    assert out.probs == (Fraction(1, 4),) * 4


def test_tensor_associative_up_to_flattening(rng):
    a, b, c = (random_state(rng, n) for n in (2, 3, 2))
    left = tensor(tensor(a, b), c)
    right = tensor(a, tensor(b, c))
    assert left.probs == pytest.approx(right.probs, abs=1e-15)
    assert left.ham.levels == pytest.approx(right.ham.levels, abs=1e-15)


def test_gibbs_of_composite_is_tensor_of_gibbs(rng):
    from conftest import random_hamiltonian

    ha, hb = random_hamiltonian(rng, 3), random_hamiltonian(rng, 2)
    lhs = gibbs_state(ha.tensor(hb))
    rhs = tensor(gibbs_state(ha), gibbs_state(hb))
    assert lhs.probs == pytest.approx(rhs.probs, abs=1e-14)


def test_marginals_of_reference_joint():
    joint = JointCatalyst((0.66, 0.29, 0.04, 0.01), (2, 2))
    assert marginal(joint, 0).probs == pytest.approx((0.95, 0.05), abs=1e-15)
    assert marginal(joint, 1).probs == pytest.approx((0.70, 0.30), abs=1e-15)


def test_marginal_of_product_recovers_factors_exactly(rng):
    p = random_rational_distribution(rng, 3)
    q = random_rational_distribution(rng, 4)
    joint = product_joint([p, q])
    assert marginal(joint, 0).probs == p
    assert marginal(joint, 1).probs == q


def test_marginal_rejects_bad_subsystem():
    joint = JointCatalyst((0.25,) * 4, (2, 2))
    with pytest.raises(ValueError):
        marginal(joint, 2)


def test_joint_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        JointCatalyst((0.5, 0.5), (2, 2))


@pytest.mark.parametrize("dims", [(2.9, 2), (True, 4), ("2", 2), (2, 2.0)])
def test_joint_rejects_dims_that_are_not_plain_ints(dims):
    with pytest.raises(ValueError):
        JointCatalyst((0.25,) * 4, dims)
    with pytest.raises(ValueError):
        joint_from_dict({"probs": [0.25] * 4, "dims": list(dims)})


@pytest.mark.parametrize("document", [
    {"probs": [0.25] * 4, "dims": "22"},
    {"probs": [0.25] * 4, "dims": 4},
    {"dims": [2, 2]},
    {"probs": 0.25, "dims": [1]},
    [0.25, 0.75],
])
def test_joint_file_needs_an_object_of_arrays(document):
    with pytest.raises(ValueError):
        joint_from_dict(document)


def test_state_rejects_negative_probability():
    with pytest.raises(ValueError):
        BlockState((1.1, -0.1), Hamiltonian.trivial(2))


def test_state_rejects_bad_normalization():
    with pytest.raises(ValueError):
        BlockState((0.6, 0.6), Hamiltonian.trivial(2))
    with pytest.raises(ValueError):
        BlockState((Fraction(1, 2), Fraction(1, 3)), Hamiltonian.trivial(2))


def test_state_keeps_zero_probabilities():
    s = BlockState((0.5, 0.0, 0.5), Hamiltonian.trivial(3))
    assert len(s.probs) == 3
    assert s.support_size == 2


def test_every_operation_preserves_normalization(rng):
    for _ in range(25):
        a = random_state(rng, rng.randint(2, 4), zeros=rng.randint(0, 1))
        b = random_state(rng, rng.randint(2, 4))
        out = tensor(a, b)
        assert all(p >= 0 for p in out.probs)
        assert math.fsum(out.probs) == pytest.approx(1.0, abs=1e-12)


def test_json_round_trip_float():
    s = BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0)))
    again = state_from_dict(json.loads(json.dumps(state_to_dict(s))))
    assert again.probs == s.probs
    assert again.ham.levels == s.ham.levels


def test_json_round_trip_rational_bit_exact():
    s = BlockState((Fraction(2, 3), Fraction(1, 3)), Hamiltonian.trivial(2))
    payload = json.dumps(state_to_dict(s))
    again = state_from_dict(json.loads(payload))
    assert again.probs == (Fraction(2, 3), Fraction(1, 3))
    assert json.dumps(state_to_dict(again)) == payload


def test_json_rejects_nan_and_negative():
    with pytest.raises(ValueError):
        state_from_dict({"levels": [0, 0], "probs": [float("nan"), 1.0]})
    with pytest.raises(ValueError):
        state_from_dict({"levels": [0, 0], "probs": [-0.2, 1.2]})


def test_joint_json_round_trip():
    j = JointCatalyst((Fraction(33, 50), Fraction(29, 100), Fraction(1, 25), Fraction(1, 100)), (2, 2))
    again = joint_from_dict(json.loads(json.dumps(joint_to_dict(j))))
    assert again.probs == j.probs
    assert again.dims == j.dims


SUBNORMALS = st.floats(min_value=5e-324, max_value=2.2e-308)


@st.composite
def mixed_distributions(draw, n):
    """n probabilities mixing ints, Fractions, floats and subnormal floats."""
    weights = draw(st.lists(st.integers(0, 20), min_size=n, max_size=n).filter(any))
    probs = []
    for w in weights:
        x = Fraction(w, sum(weights))
        kind = draw(st.sampled_from(("fraction", "float", "subnormal")))
        if x == 0 and kind == "subnormal":
            probs.append(draw(SUBNORMALS))
        elif x.denominator == 1:
            probs.append(int(x))
        else:
            probs.append(float(x) if kind == "float" else x)
    return tuple(probs)


LEVELS = st.one_of(
    st.integers(-3, 5),
    st.fractions(min_value=-3, max_value=5, max_denominator=50),
    st.floats(-3, 5),
    SUBNORMALS,
)


def _bits(values):
    return [("float", struct.pack(">d", v)) if isinstance(v, float) else ("exact", Fraction(v))
            for v in values]


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 6).flatmap(
    lambda n: st.tuples(mixed_distributions(n), st.lists(LEVELS, min_size=n, max_size=n))))
def test_state_json_round_trip_is_bit_exact(data):
    probs, levels = data
    s = BlockState(probs, Hamiltonian(tuple(levels)))
    payload = json.dumps(state_to_dict(s))
    again = state_from_dict(json.loads(payload))
    assert _bits(again.probs) == _bits(s.probs)
    assert _bits(again.ham.levels) == _bits(s.ham.levels)
    assert again.exact == s.exact
    assert json.dumps(state_to_dict(again)) == payload


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(((2, 2), (2, 3), (2, 2, 2))).flatmap(
    lambda dims: st.tuples(st.just(dims), mixed_distributions(math.prod(dims)))))
def test_joint_json_round_trip_is_bit_exact(data):
    dims, probs = data
    j = JointCatalyst(probs, dims)
    payload = json.dumps(joint_to_dict(j))
    again = joint_from_dict(json.loads(payload))
    assert _bits(again.probs) == _bits(j.probs) and again.dims == j.dims
    assert json.dumps(joint_to_dict(again)) == payload


def test_tensor_all_order(rng):
    a, b, c = (random_state(rng, 2) for _ in range(3))
    assert tensor_all([a, b, c]).probs == tensor(tensor(a, b), c).probs


def test_load_joint_file(tmp_path):
    from thermoorder import load_joint
    from thermoorder.states import save_json

    path = tmp_path / "joint.json"
    save_json({"probs": ["33/50", "29/100", "1/25", "1/100"], "dims": [2, 2]}, path)
    joint = load_joint(path)
    assert joint.dims == (2, 2)
    assert joint.probs[0] == Fraction(33, 50)
    with pytest.raises(ValueError):
        save_json({"probs": [0.5, 0.5]}, path) or load_joint(path)


def test_to_exact_renormalizes_dyadic_floats():
    s = BlockState((0.73, 0.27), Hamiltonian((0.0, 1.0)))
    exact = s.to_exact()
    assert exact.exact
    assert sum(exact.probs, Fraction(0)) == 1
    assert abs(float(exact.probs[0]) - 0.73) < 1e-15
    # an exact state is its own exact version, not a copy
    r = BlockState((Fraction(2, 3), Fraction(1, 3)), Hamiltonian.trivial(2))
    assert r.to_exact() is r
