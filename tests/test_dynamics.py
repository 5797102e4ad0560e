import math

import pytest

from powerfree.dynamics import (GOLDEN_ROTATION, J_MAX_CAP, CyclicRotation,
                                IrrationalRotation, PairObservable,
                                TrigObservable, TwoPointSwap,
                                VectorObservable, orbit_table)


def test_golden_rotation_value():
    assert abs(GOLDEN_ROTATION - (math.sqrt(5.0) - 1.0) / 2.0) == 0.0
    assert 0.618 < GOLDEN_ROTATION < 0.619


def test_two_point_orbit_alternates():
    orb = orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 0, 7)
    assert orb.values.tolist() == [1.0, -1.0] * 4
    orb1 = orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 1, 3)
    assert orb1.values.tolist() == [-1.0, 1.0, -1.0, 1.0]
    assert orb.mean == 0.0


def test_cyclic_orbit_cycles():
    sys3 = CyclicRotation(3)
    obs = VectorObservable((1.0, 0.0, 0.0))
    orb = orbit_table(sys3, obs, 0, 8)
    assert orb.values.tolist() == [1, 0, 0, 1, 0, 0, 1, 0, 0]
    orb2 = orbit_table(sys3, obs, 2, 4)
    assert orb2.values.tolist() == [0, 1, 0, 0, 1]
    assert abs(orb.mean - 1.0 / 3.0) < 1e-15


def test_circle_orbit_closed_form():
    alpha = GOLDEN_ROTATION
    sysr = IrrationalRotation(alpha)
    obs = TrigObservable(1.0, ((1, 1.0),), ())
    x = 0.3
    orb = orbit_table(sysr, obs, x, 40)
    for j in range(41):
        ang = math.fmod(x + j * alpha, 1.0)
        want = 1.0 + math.cos(2.0 * math.pi * ang)
        assert orb.values[j] == want, j
    assert orb.mean == 1.0


def test_trig_observable_mean_and_values():
    obs = TrigObservable(2.5, ((3, 1.5),), ((1, -0.5),))
    assert obs.mean == 2.5
    x = 0.37
    want = (2.5 + 1.5 * math.cos(2 * math.pi * 3 * x)
            - 0.5 * math.sin(2 * math.pi * x))
    assert abs(obs.value_at(x) - want) < 1e-15


def test_type_pairing_enforced():
    with pytest.raises(TypeError):
        orbit_table(TwoPointSwap(), VectorObservable((1.0, 0.0)), 0, 3)
    with pytest.raises(TypeError):
        orbit_table(CyclicRotation(2), PairObservable(1.0, -1.0), 0, 3)
    with pytest.raises(TypeError):
        orbit_table(IrrationalRotation(0.5), PairObservable(1.0, -1.0),
                    0.0, 3)


def test_domain_validation():
    with pytest.raises(ValueError):
        orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 2, 3)
    with pytest.raises(ValueError):
        orbit_table(CyclicRotation(3), VectorObservable((1.0, 0.0, 0.0)),
                    3, 3)
    with pytest.raises(ValueError):
        orbit_table(CyclicRotation(3), VectorObservable((1.0, 0.0)), 0, 3)
    with pytest.raises(ValueError):
        orbit_table(IrrationalRotation(GOLDEN_ROTATION),
                    TrigObservable(1.0, (), ()), 1.5, 3)
    with pytest.raises(ValueError):
        orbit_table(TwoPointSwap(), PairObservable(1.0, -1.0), 0,
                    J_MAX_CAP + 1)
    with pytest.raises(ValueError):
        CyclicRotation(0)
    with pytest.raises(ValueError):
        IrrationalRotation(1.25)


def test_pair_observable_mean():
    obs = PairObservable(3.0, 1.0)
    assert obs.mean == 2.0
    assert obs.value_at(0) == 3.0 and obs.value_at(1) == 1.0
