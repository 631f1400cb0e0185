import pytest

from gbengine import builtin_ideal, cyclic_ideal, katsura_ideal, poly_str


def test_cyclic2_exact():
    ring, polys = cyclic_ideal(2)
    assert ring.num_vars == 2
    texts = [poly_str(ring, g) for g in polys]
    assert texts == ["x1+x2", "x1*x2+100"]


def test_cyclic_homogenized_two():
    ring, polys = cyclic_ideal(2, homogenize=True)
    assert ring.num_vars == 3
    for g in polys:
        degs = {m.deg for m in g.monos}
        assert len(degs) == 1, poly_str(ring, g)


def test_hcyclic8_shape():
    ring, polys = builtin_ideal("hcyclic8")
    assert ring.num_vars == 9
    assert len(polys) == 8
    for g in polys:
        assert len({m.deg for m in g.monos}) == 1


def test_cyclic_lengths():
    ring, polys = cyclic_ideal(5)
    # polynomials of degree 1..4 then the product relation
    assert [g.lead_mono.deg for g in polys] == [1, 2, 3, 4, 5]
    assert all(len(g) == 5 for g in polys[:4])


def test_katsura10_shape():
    ring, polys = builtin_ideal("katsura10")
    assert ring.num_vars == 10
    assert len(polys) == 10
    for g in polys:
        assert max(m.deg for m in g.monos) <= 2


def test_katsura_classic_convention():
    ring, polys = katsura_ideal(3, convention="classic")
    assert ring.num_vars == 4
    assert len(polys) == 4


def test_katsura_small_values():
    ring, polys = katsura_ideal(2, 101)
    texts = sorted(poly_str(ring, g) for g in polys)
    # u0 + 2u1 - 1 and u0^2 + 2u1^2 - u0
    assert texts == sorted(["x1+2*x2+100", "x1^2+2*x2^2+100*x1"])


def test_builtin_ideal_unknown():
    with pytest.raises(ValueError):
        builtin_ideal("sparta300")


def test_generator_bad_sizes():
    with pytest.raises(ValueError):
        cyclic_ideal(1)
    with pytest.raises(ValueError):
        katsura_ideal(0)
