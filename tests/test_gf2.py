import random

import pytest

from steinerloops import gf2

from conftest import reference_echelonize


def _random_rows(rng, width):
    """Seeded rows of one width: sparse or dense, with zero rows and
    repeats (also XORs of earlier rows) mixed in."""
    density = rng.choice([0.05, 0.2, 0.5, 0.9])
    rows = []
    for _ in range(rng.randrange(0, 40)):
        kind = rng.random()
        if kind < 0.1:
            rows.append(0)
        elif kind < 0.25 and rows:
            rows.append(rng.choice(rows))
        elif kind < 0.35 and len(rows) > 1:
            rows.append(rng.choice(rows) ^ rng.choice(rows))
        else:
            rows.append(sum(1 << k for k in range(width) if rng.random() < density))
    return rows


def _apply(rows, x):
    """rows @ x over GF(2): bit i is the parity of row i and x."""
    return sum((bin(r & x).count("1") & 1) << i for i, r in enumerate(rows))


# widths up to and past one 64-bit word; 25 seeded row lists each
WIDTHS = (1, 3, 8, 31, 64, 65, 100, 200)
SEEDS = range(25)


class TestEchelonize:
    @pytest.mark.parametrize("width", WIDTHS)
    def test_matches_reference(self, width):
        for seed in SEEDS:
            rows = _random_rows(random.Random(1000 * width + seed), width)
            assert gf2.echelonize(rows, width) == reference_echelonize(rows, width)

    def test_triple_rows_of_a_system(self, pg3):
        rows = [(1 << a) | (1 << b) | (1 << c) for a, b, c in pg3.triples]
        assert gf2.echelonize(rows, pg3.v) == reference_echelonize(rows, pg3.v)

    def test_degenerate_input(self):
        for rows in ([], [0], [0, 0, 0], [5, 5], [1 << 70, 1 << 70, 0]):
            assert gf2.echelonize(rows, 71) == reference_echelonize(rows, 71)

    def test_basis_is_reduced(self):
        rng = random.Random(7)
        for width in (10, 70):
            basis, pivots = gf2.echelonize(_random_rows(rng, width), width)
            assert pivots == sorted(set(pivots))
            for b, p in zip(basis, pivots):
                assert (b & -b).bit_length() - 1 == p
                assert all(not (other >> p) & 1 for other in basis if other != b)


def _answers(rows, rhs_list, width):
    return (
        gf2.rank(rows, width),
        [gf2.solve(rows, rhs, width) for rhs in rhs_list],
        gf2.nullspace_basis(rows, width),
    )


class TestCallers:
    """rank, solve and nullspace_basis give what they give when built on
    the reference elimination, and their answers check out directly."""

    @pytest.mark.parametrize("width", WIDTHS)
    def test_match_reference(self, monkeypatch, width):
        inconsistent = 0
        for seed in SEEDS:
            rng = random.Random(2000 * width + seed)
            rows = _random_rows(rng, width)
            rhs_list = [rng.getrandbits(len(rows)) for _ in range(3)]
            if rows:  # consistent by construction
                rhs_list.append(_apply(rows, rng.getrandbits(width)))
            got = _answers(rows, rhs_list, width)
            with monkeypatch.context() as m:
                m.setattr(gf2, "echelonize", reference_echelonize)
                assert got == _answers(rows, rhs_list, width)
            rank, solutions, kernel = got
            assert len(kernel) == width - rank
            assert all(_apply(rows, x) == 0 for x in kernel)
            for rhs, x in zip(rhs_list, solutions):
                assert x is None or _apply(rows, x) == rhs
                inconsistent += x is None
            assert not rows or solutions[-1] is not None
        assert inconsistent

    @pytest.mark.parametrize("seed", range(40))
    def test_inconsistent_right_hand_sides(self, seed):
        """On widths up to 6 every x is tried: solve returns None exactly
        when no x solves the system."""
        rng = random.Random(seed)
        width = rng.randrange(1, 7)
        rows = [rng.getrandbits(width) for _ in range(rng.randrange(1, 9))]
        images = {_apply(rows, x) for x in range(1 << width)}
        for rhs in range(1 << len(rows)):
            x = gf2.solve(rows, rhs, width)
            assert (x is None) == (rhs not in images)
            assert x is None or _apply(rows, x) == rhs
