import random

import numpy as np
import pytest

import steinerloops as sl
from steinerloops import catalog
from steinerloops.errors import (
    BadIdentityBlock,
    DiagonalViolation,
    NotLatin,
    TotalSymmetryViolation,
    TransposeViolation,
)


@pytest.fixture(scope="session")
def fano():
    return catalog.fixture("fano_labeled")


@pytest.fixture(scope="session")
def sts9():
    return catalog.fixture("sts9_labeled")


@pytest.fixture(scope="session")
def sts15_2():
    return catalog.fixture("sts15_2")


@pytest.fixture(scope="session")
def pg3():
    return catalog.pg(3)


@pytest.fixture(scope="session")
def sts3():
    return sl.validate_system(3, [(0, 1, 2)])


@pytest.fixture(scope="session")
def sts1():
    return sl.validate_system(1, [])


@pytest.fixture(scope="session")
def sts19_example():
    return sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11"))


def build_family():
    """Every system the suite constructs: all Schreier builds of order <= 32
    plus the catalog fixtures. Returns (label, TripleSystem) pairs."""
    out = []
    fano_q = catalog.fixture("fano_labeled").loop()
    sts9_q = catalog.fixture("sts9_labeled").loop()
    sts1_q = sl.validate_system(1, []).loop()
    sts3_q = sl.validate_system(3, [(0, 1, 2)]).loop()

    for t, q, tag in ((1, fano_q, "fano"), (1, sts9_q, "sts9")):
        n = sl.ElemAbelian2(t)
        for i, f in enumerate(sl.enumerate_factor_systems(n, q)):
            loop = sl.build_schreier(n, q, f)
            out.append((f"schreier[{tag},t={t}]#{i}", loop.system()))
    for q, tag in ((sts1_q, "sts1"), (sts3_q, "sts3")):
        for t in (1, 2):
            n = sl.ElemAbelian2(t)
            for i, f in enumerate(sl.enumerate_factor_systems(n, q)):
                loop = sl.build_schreier(n, q, f)
                out.append((f"schreier[{tag},t={t}]#{i}", loop.system()))
    # deterministic sample of the order-31 extensions (t=2 over the plane)
    rng = random.Random(20240901)
    n2 = sl.ElemAbelian2(2)
    b = fano_q.system().b
    for i in range(64):
        code = rng.randrange(1 << (2 * b))
        vals = [(code >> (2 * j)) & 3 for j in range(b)]
        f = sl.FactorSystem(fano_q, 2, vals)
        out.append((f"schreier[fano,t=2]#{i}", sl.build_schreier(n2, fano_q, f).system()))

    out.append(("pg1", catalog.pg(1)))
    out.append(("pg2", catalog.pg(2)))
    out.append(("pg3", catalog.pg(3)))
    out.append(("pg4", catalog.pg(4)))
    out.append(("ag1", catalog.ag(1)))
    out.append(("ag2", catalog.ag(2)))
    out.append(("sts15_2", catalog.fixture("sts15_2")))
    out.append(("sts13_a", catalog.fixture("sts13_a")))
    out.append(("sts13_b", catalog.fixture("sts13_b")))
    out.append(
        ("sts19_double", sl.double(catalog.fixture("sts9_loop_table"), catalog.fixture("phi_11")))
    )
    out.append(("fano_labeled", catalog.fixture("fano_labeled")))
    out.append(("sts9_labeled", catalog.fixture("sts9_labeled")))
    return out


@pytest.fixture(scope="session")
def constructed_family():
    return build_family()


def brute_force_equivalent(f1, f2):
    """Test-local oracle: search all cochains over the quotient points for
    one whose coboundary is f1 + f2."""
    qs = f1.q_system
    w, t = qs.v, f1.t
    target = tuple(a ^ b for a, b in zip(f1.values, f2.values))
    for code in range(1 << (w * t)):
        phi = [(code >> (j * t)) & ((1 << t) - 1) for j in range(w)]
        delta = tuple(phi[a] ^ phi[b] ^ phi[c] for a, b, c in qs.triples)
        if delta == target:
            return phi
    return None


def reference_operator_check(q, n_loop, blocks):
    """Test-local oracle for the operator conditions (i)-(iv): the loop-based
    check, one block pair at a time, that SteinerOperator construction must
    match in exception type, message and failing block."""

    def is_latin(arr):
        idx = np.arange(arr.shape[0])
        return bool(
            (np.sort(arr, axis=0) == idx[:, None]).all()
            and (np.sort(arr, axis=1) == idx[None, :]).all()
        )

    m, k = q.n, n_loop.n
    idx = np.arange(k)
    for p in range(m):
        for r in range(m):
            if not is_latin(blocks[p, r]):
                raise NotLatin(p, r)
    if not np.array_equal(blocks[0, 0], n_loop.table):
        raise BadIdentityBlock("block (0,0) is not the subloop table")
    for p in range(m):
        for r in range(p, m):
            if not np.array_equal(blocks[r, p], blocks[p, r].T):
                raise TransposeViolation(p, r)
    for p in range(m):
        if (np.diagonal(blocks[p, p]) != 0).any():
            raise DiagonalViolation(p)
    for p in range(m):
        for r in range(m):
            back = blocks[p, int(q.table[p, r])]
            if not np.array_equal(back[idx[:, None], blocks[p, r]], np.broadcast_to(idx, (k, k))):
                raise TotalSymmetryViolation(p, r)
    for p in range(m):
        if not np.array_equal(blocks[p, 0][:, 0], idx):
            raise AssertionError(f"block ({p},0) does not fix x under the subloop identity")
