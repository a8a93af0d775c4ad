"""Tests for the batched evaluation core: stacks of points through every
bracket kind, the kernel fills, the factorization and decoupling maps, the
one-call Jacobian, the blocked Jacobi residual on sample stacks, and the
suites' call counts."""

import math
import tracemalloc
import types

import numpy as np
import pytest

from plie import brackets, charts, decoupling as dc, factorization as fc, kernels, sampling, suites, verify
from plie.brackets import BracketSpec, HoloFn1, antisymmetrize, s_bivector_tensor
from plie.errors import BranchCut, ZeroG
from plie.points import DualPair, SPoint, SpinPoint, SpinTuple
from plie.tensors import r_pm
from plie.verify import DiffScheme, jacobi_residual, jacobian_fd

F_AFF = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
G_AFF = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")

# the real Zakrzewski bracket at epsilon is ZakC at kappa = -2i epsilon
EPSILON = 0.5

SPECS = [
    BracketSpec("S", 1j, n=2, d=3),
    BracketSpec("AOplus", 2.0 - 1.0j, n=3, d=2),
    BracketSpec("AOminus", 1.0, n=2, d=3),
    BracketSpec("Prime", 1j, n=3, d=3),
    BracketSpec("Sprod", 2.0 - 1.0j, n=2, d=3),
    BracketSpec("GLmult", 1j, ell=3),
    BracketSpec("Double", 1.0, ell=3),
    BracketSpec("DualGroup", 2.0 - 1.0j, ell=3),
    BracketSpec("STS", 1j, ell=3),
    BracketSpec("ZakC", 1.0, n=3, F=F_AFF, G=G_AFF),
    BracketSpec("ZakC", -2j * EPSILON, n=3, F=F_AFF, G=G_AFF),
]


def _label(spec):
    """A spec's test id: its kind, and ZakR for the real Zakrzewski bracket."""
    return "ZakR" if spec.kind == "ZakC" and spec.kappa == -2j * EPSILON else spec.kind


def _points(spec, count, seed=5):
    if spec.kind == "DualGroup":
        return np.stack([charts.pack_dual(sampling.sample_dual(seed, i, spec.ell, 0.4)) for i in range(count)])
    return np.stack([sampling.sample_vector(seed, i, spec.dim, 1.0) for i in range(count)])


def test_every_kind_is_covered():
    assert {s.kind for s in SPECS} == {
        "S", "AOplus", "AOminus", "Prime", "Sprod", "GLmult", "Double", "DualGroup", "STS", "ZakC"
    }


@pytest.mark.parametrize("spec", SPECS, ids=_label)
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_stack_equals_points_stacked(spec, batch):
    X = _points(spec, int(np.prod(batch))).reshape(batch + (spec.dim,))
    got = spec.bivector(X)
    assert got.shape == batch + (spec.dim, spec.dim)
    for idx in np.ndindex(*batch):
        np.testing.assert_array_equal(got[idx], spec.bivector(X[idx]))


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_single_point_is_batch_shape_empty(spec):
    x = _points(spec, 1)[0]
    assert spec.bivector(x).shape == (spec.dim, spec.dim)


def test_bivector_rejects_wrong_coordinate_count():
    with pytest.raises(ValueError):
        BracketSpec("S", 1.0, n=2, d=2).bivector(np.zeros((3, 7)))


@pytest.mark.parametrize("n,d", [(1, 1), (2, 3), (3, 2), (4, 4)])
@pytest.mark.parametrize("kappa", [1.0, 2.0 - 1.0j])
def test_batched_fill_matches_tensor_oracle(n, d, kappa):
    pts = [sampling.sample_spoint(9, i, n, d, 1.0) for i in range(5)]
    M = antisymmetrize(kernels.fill_s(np.stack([p.A for p in pts]), np.stack([p.B for p in pts]), kappa, kappa))
    for k, p in enumerate(pts):
        np.testing.assert_allclose(M[k], s_bivector_tensor(kappa, p), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 1)])
def test_fill_hat_stack_equals_points_stacked(n, d):
    pts = [sampling.sample_spoint(4, i, n, d, 1.0) for i in range(3)]
    M = antisymmetrize(kernels.fill_hat(np.stack([p.A for p in pts]), np.stack([p.B for p in pts]), 1j, -1.0))
    for k, p in enumerate(pts):
        np.testing.assert_array_equal(M[k], antisymmetrize(kernels.fill_hat(p.A, p.B, 1j, -1.0)))


# every (c0, c_row, c_col) the bracket evaluators pass to kernels.quadratic
QUADRATIC_COEFFS = [(0, 1, -1), (0, -1, -1), (0, 1, 1), (1, 0, 1), (1, -1, 0), (0, 1, 0), (0, 0, -1)]


def _quadratic_loops(M, N, kappa, c0, c_row, c_col):
    r, c = M.shape
    out = np.zeros((r * c, r * c), dtype=complex)
    for i in range(r):
        for j in range(c):
            for k in range(r):
                for l in range(c):
                    w = c0 + c_row * np.sign(i - k) + c_col * np.sign(j - l)
                    out[i * c + j, k * c + l] = 0.5 * kappa * w * M[i, l] * N[k, j]
    return out


@pytest.mark.parametrize("coeffs", QUADRATIC_COEFFS, ids=str)
@pytest.mark.parametrize("r,c", [(1, 3), (3, 1), (2, 3)])
def test_quadratic_matches_loops(r, c, coeffs):
    rng = np.random.default_rng(11)
    M, N = (rng.normal(size=(2, r, c)) + 1j * rng.normal(size=(2, r, c)) for _ in range(2))
    kappa = 2.0 - 1.0j
    got = kernels.quadratic(M, N, kappa, *coeffs)
    assert got.shape == (2, r * c, r * c)
    for k in range(2):
        want = _quadratic_loops(M[k], N[k], kappa, *coeffs)
        np.testing.assert_allclose(got[k], want, rtol=1e-15, atol=0)
        np.testing.assert_array_equal(kernels.quadratic(M[k], N[k], kappa, *coeffs), got[k])


@pytest.mark.parametrize("coeffs", QUADRATIC_COEFFS, ids=str)
def test_quadratic_block_is_the_full_block(coeffs):
    # rows and columns given as flat positions pick that block, bit for bit
    rng = np.random.default_rng(12)
    M, N = (rng.normal(size=(2, 3, 4)) + 1j * rng.normal(size=(2, 3, 4)) for _ in range(2))
    rows, cols = np.array([5, 0, 11, 6]), np.array([1, 2, 10])
    full = kernels.quadratic(M, N, 2.0 - 1.0j, *coeffs)
    np.testing.assert_array_equal(kernels.quadratic(M, N, 2.0 - 1.0j, *coeffs, rows, cols), full[:, rows[:, None], cols])


@pytest.mark.parametrize("pack,unpack,sample", [
    (charts.pack_spoint, lambda x: charts.unpack_spoint(x, 2, 3), lambda i: sampling.sample_spoint(1, i, 2, 3, 1.0)),
    (charts.pack_tuple, lambda x: charts.unpack_tuple(x, 2, 3), lambda i: sampling.sample_tuple(1, i, 2, 3, 1.0)),
    (charts.pack_dual, lambda x: charts.unpack_dual(x, 4), lambda i: sampling.sample_dual(1, i, 4, 0.4)),
], ids=["spoint", "tuple", "dual"])
def test_chart_roundtrip_on_stacks(pack, unpack, sample):
    X = np.stack([pack(sample(i)) for i in range(6)]).reshape(2, 3, -1)
    np.testing.assert_array_equal(pack(unpack(X)), X)


# --- the fills read their coordinates as array views ----------------------------


def _container_arrays(monkeypatch):
    """Make the fills read their arrays from the validated point containers of
    the public unpackers, through a stand-in for ``charts`` in ``brackets``."""

    def spoint(x, n, d):
        p = charts.unpack_spoint(x, n, d)
        return p.A, p.B

    def spins(x, n, d):
        t = charts.unpack_tuple(x, n, d)
        return np.stack([s.a for s in t], axis=-2), np.stack([s.b for s in t], axis=-2)

    def spin(x, n):
        p = charts.unpack_spin(x, n)
        return p.a, p.b

    def dual(x, ell):
        pair = charts.unpack_dual(x, ell)
        return pair.hplus, pair.hminus

    routed = dict(vars(charts), _spoint_arrays=spoint, _tuple_arrays=spins, _spin_arrays=spin, _dual_arrays=dual)
    monkeypatch.setattr(brackets, "charts", types.SimpleNamespace(**routed))


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_view_fill_equals_container_fill(monkeypatch, spec):
    X = _points(spec, 4)
    got = [spec.upper(X), spec.upper(X[0])]
    _container_arrays(monkeypatch)
    want = [spec.upper(X), spec.upper(X[0])]
    for g, w in zip(got, want):
        assert g.shape == w.shape
        assert np.array_equal(g.view(float), w.view(float))
        assert np.array_equal(np.signbit(g.view(float)), np.signbit(w.view(float)))


@pytest.mark.parametrize("batch", [(), (4,), (2, 3)])
def test_chart_helpers_return_the_unpacker_arrays(batch):
    n, d, ell = 3, 2, 4
    count = int(np.prod(batch))
    x = sampling.sample_vector(6, np.arange(count), 2 * n * d, 1.0).reshape(batch + (2 * n * d,))
    p = charts.unpack_spoint(x, n, d)
    A, B = charts._spoint_arrays(x, n, d)
    assert np.array_equal(A, p.A) and np.array_equal(B, p.B)
    t = charts.unpack_tuple(x, n, d)
    a, b = charts._tuple_arrays(x, n, d)
    assert a.shape == b.shape == batch + (d, n)
    for k in range(d):
        assert np.array_equal(a[..., k, :], t[k].a) and np.array_equal(b[..., k, :], t[k].b)
    s = charts.unpack_spin(x[..., : 2 * n], n)
    a, b = charts._spin_arrays(x[..., : 2 * n], n)
    assert np.array_equal(a, s.a) and np.array_equal(b, s.b)
    for arrays in (charts._spoint_arrays(x, n, d), charts._tuple_arrays(x, n, d), charts._spin_arrays(x, n)):
        assert all(np.shares_memory(arr, x) for arr in arrays)  # views: no copy of the coordinates
    y = charts.pack_dual(sampling.sample_dual(6, np.arange(count), ell, 0.4)).reshape(batch + (ell * ell,))
    pair = charts.unpack_dual(y, ell)
    hp, hm = charts._dual_arrays(y, ell)
    assert np.array_equal(hp, pair.hplus) and np.array_equal(hm, pair.hminus)
    upper = BracketSpec("DualGroup", 1.0, ell=ell).upper
    for tiny in (0, 1e-310):  # the first diagonal entry of h_+: no inverse, or one that overflows
        y[..., ell * (ell - 1) // 2] = tiny
        for unpack in (charts.unpack_dual, charts._dual_arrays, lambda y, ell: upper(y)):
            with pytest.raises(ValueError, match="diagonal"), np.errstate(over="ignore", invalid="ignore"):
                unpack(y, ell)


def _count_containers(monkeypatch) -> list:
    """Record each SPoint, SpinPoint and DualPair built from now on."""
    built = []
    for cls in (SPoint, SpinPoint, DualPair):
        def counted(self, real=cls.__post_init__, name=cls.__name__):
            built.append(name)
            real(self)

        monkeypatch.setattr(cls, "__post_init__", counted)
    return built


@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_jacobi_residual_builds_no_point_container(monkeypatch, spec):
    X = _points(spec, 3)
    caches = (
        verify._cyclic_positions,
        brackets._on_or_below_diagonal,
        charts._dual_index,
    )
    jacobi_residual(spec, X, POLY)  # the caches fill on first use
    built = _count_containers(monkeypatch)
    misses = [c.cache_info().misses for c in caches]
    jacobi_residual(spec, X, POLY)
    assert built == []
    assert [c.cache_info().misses for c in caches] == misses  # the second call reuses every table
    tables = [
        verify._cyclic_positions(spec.dim),
        brackets._on_or_below_diagonal(spec.dim, spec.dim),
    ]
    if spec.kind == "DualGroup":
        r, up, lo, free = charts._dual_index(spec.ell)
        tables += [r, *up, *lo, *free]
    assert not any(t.flags.writeable for t in tables)


# --- the per-probe Jacobi residual, kept as an oracle ---------------------------


def _jacobi_per_probe(spec, x, scheme, along_rows=False):
    """One bivector call per probe.  Along the coordinate axes the differences
    d_l Pi are contracted with Pi(x) by a plain einsum; along the rows of
    Pi(x), as ``jacobi_residual`` probes, the differences are
    T[i] = sum_l Pi_il d_l Pi themselves."""
    x = np.asarray(x, dtype=complex)
    dim = spec.dim
    Pi0 = spec.bivector(x)
    directions = Pi0 if along_rows else np.eye(dim)

    def dmat(delta):
        D = np.empty((dim, dim, dim), dtype=complex)
        for l in range(dim):
            e = delta * directions[l]
            D[l] = (spec.bivector(x + e) - spec.bivector(x - e)) / (2 * delta)
        return D

    D = dmat(scheme.step)
    if scheme.richardson:
        D = (4.0 * dmat(scheme.step / 2) - D) / 3.0
    T = D if along_rows else np.einsum("il,ljk->ijk", Pi0, D)
    J = T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)
    return float(np.max(np.abs(J)))


class _Perturbed:
    """A bracket plus an antisymmetric cubic term 0.3 x_j x_k^2 (or, with
    ``quadratic``, 0.3 x_j x_(k-1)): a bivector far from Poisson, so its
    Jacobiator is O(1) and two evaluations can be compared relatively.  With
    the quadratic term the bivector stays quadratic, so central differences
    are exact along any direction."""

    def __init__(self, spec, quadratic=False):
        self.spec = spec
        self.dim = spec.dim
        self.quadratic = quadratic

    def _term(self, x):
        y = np.roll(x, 1, axis=-1) if self.quadratic else x * x
        E = 0.3 * x[..., :, None] * y[..., None, :]
        return E - E.swapaxes(-1, -2)

    def bivector(self, x):
        x = np.asarray(x, dtype=complex)
        return self.spec.bivector(x) + self._term(x)

    def upper(self, x):
        # the perturbed raw fill: equal to the bivector strictly above the diagonal
        x = np.asarray(x, dtype=complex)
        return self.spec.upper(x) + self._term(x)


BIG = BracketSpec("S", 2.0 - 1.0j, n=7, d=7)
BIG_SCHEMES = [DiffScheme(step=1e-2, richardson=False), DiffScheme(step=1e-3, richardson=True)]


def test_big_probe_stack_spans_several_blocks():
    assert 2 * BIG.dim * BIG.dim * BIG.dim > verify._BLOCK_ENTRIES


def test_blocked_residual_matches_per_probe_on_poisson_bracket():
    x = sampling.sample_vector(42, 0, BIG.dim, 1.0)
    POLY = DiffScheme(step=1e-2, richardson=False)
    got, want = jacobi_residual(BIG, x, POLY), _jacobi_per_probe(BIG, x, POLY)
    assert got < 1e-10 and want < 1e-10
    assert abs(got - want) < 1e-11


@pytest.mark.parametrize("scheme", BIG_SCHEMES, ids=["real-axis", "richardson"])
def test_blocked_residual_matches_per_probe(scheme):
    spec = _Perturbed(BIG)
    x = sampling.sample_vector(42, 1, BIG.dim, 1.0)
    got, want = jacobi_residual(spec, x, scheme), _jacobi_per_probe(spec, x, scheme, along_rows=True)
    assert want > 1e-2
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("scheme", BIG_SCHEMES, ids=["real-axis", "richardson"])
def test_blocked_residual_matches_coordinate_probes_on_quadratic_bivector(scheme):
    # central differences of a quadratic bivector are exact along any
    # direction, so the row probes must agree with the coordinate-probe einsum
    spec = _Perturbed(BIG, quadratic=True)
    x = sampling.sample_vector(42, 2, BIG.dim, 1.0)
    got, want = jacobi_residual(spec, x, scheme), _jacobi_per_probe(spec, x, scheme)
    assert want > 1e-2
    assert got == pytest.approx(want, rel=1e-12)


def test_blocked_residual_matches_per_probe_small_blocks(monkeypatch):
    # blocks of two probe pairs at dim 8: uneven last block, every kind of block edge
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 2 * 2 * 8 * 8)
    spec = _Perturbed(BracketSpec("Prime", 1j, n=2, d=2))
    x = sampling.sample_vector(3, 0, spec.dim, 1.0)
    for scheme in BIG_SCHEMES:
        want = _jacobi_per_probe(spec, x, scheme, along_rows=True)
        assert jacobi_residual(spec, x, scheme) == pytest.approx(want, rel=1e-12)


# --- the Jacobi residual on sample stacks -------------------------------------

POLY = DiffScheme(step=1e-2, richardson=False)
RATIONAL = DiffScheme(step=1e-3, richardson=True)
STACK_SCHEMES = [POLY, RATIONAL]
STACK_SCHEME_IDS = ["poly", "rational"]


def _per_sample_entries(spec, scheme):
    """Bivector entries of one sample's probes, as jacobi_residual counts them."""
    return (4 if scheme.richardson else 2) * spec.dim**3


@pytest.mark.parametrize("scheme", STACK_SCHEMES, ids=STACK_SCHEME_IDS)
@pytest.mark.parametrize("count", [1, 3, 7])
@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_stacked_residual_equals_per_point(spec, count, scheme):
    X = _points(spec, count)
    got = jacobi_residual(spec, X, scheme)
    assert got.shape == (count,)
    assert type(jacobi_residual(spec, X[0], scheme)) is float
    np.testing.assert_array_equal(got, [jacobi_residual(spec, x, scheme) for x in X])


@pytest.mark.parametrize("split", ["two-samples", "coordinate-blocks"])
@pytest.mark.parametrize("scheme", STACK_SCHEMES, ids=STACK_SCHEME_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=_label)
def test_stacked_residual_equals_per_point_small_blocks(monkeypatch, spec, scheme, split):
    X = _points(spec, 7)
    per_direction = (4 if scheme.richardson else 2) * spec.dim**2
    if split == "two-samples":  # chunks of two samples, the last one alone: their rows of Pi, then their probes
        cap, calls_wanted = 2 * _per_sample_entries(spec, scheme), 2 * 4
    else:  # one sample at a time: its rows of Pi, then its probes in blocks of two rows
        cap, calls_wanted = 2 * per_direction, 7 * (1 + -(-spec.dim // 2))
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
    want = [jacobi_residual(spec, x, scheme) for x in X]
    calls = _count_bivector_calls(monkeypatch, spec)
    np.testing.assert_array_equal(jacobi_residual(spec, X, scheme), want)
    assert len(calls) == calls_wanted


def _count_bivector_calls(monkeypatch, spec) -> list:
    """Patch the bivector and the raw fill ``upper`` of ``spec``'s class to
    record each outermost call's stack length (``bivector`` calls ``upper``)."""
    calls = []
    depth = [0]

    def counting(real):
        def counted(self, x):
            if not depth[0]:
                calls.append(len(x))
            depth[0] += 1
            try:
                return real(self, x)
            finally:
                depth[0] -= 1

        return counted

    for name in ("bivector", "upper"):
        monkeypatch.setattr(type(spec), name, counting(getattr(type(spec), name)))
    return calls


# DualGroup is rational, so only Richardson differences reach TOL_EXACT on it,
# and only they are used on it
REGIME_CASES = [
    pytest.param(spec, scheme, id=f"{_label(spec)}-{name}")
    for spec in SPECS
    for scheme, name in zip(STACK_SCHEMES, STACK_SCHEME_IDS)
    if spec.kind != "DualGroup" or scheme.richardson
]


@pytest.mark.parametrize("spec,scheme", REGIME_CASES)
def test_one_point_in_both_regimes(monkeypatch, spec, scheme):
    # a cap of one sample's entries keeps its probes in one call after the
    # call for its rows of Pi; one entry less sends the probes of all rows
    # but the last to one call and the last row's to another, with the
    # same residual, bit for bit
    x = _points(spec, 1)[0]
    per_sample = _per_sample_entries(spec, scheme)
    perturbed = _Perturbed(spec, quadratic=True)
    per_row = 4 if scheme.richardson else 2
    probes = per_row * spec.dim
    got = []
    for cap, calls_wanted in ((per_sample, [1, probes]), (per_sample - 1, [1, probes - per_row, per_row])):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
        calls = _count_bivector_calls(monkeypatch, spec)
        residual = jacobi_residual(spec, x, scheme)
        assert calls == calls_wanted
        assert residual < suites.TOL_EXACT
        got.append(jacobi_residual(perturbed, x, scheme))
        monkeypatch.undo()
    assert got[0] > 1e-2
    assert got[1] == got[0]


@pytest.mark.parametrize(
    "spec,scheme",
    [
        pytest.param(BracketSpec("S", 2.0 - 1.0j, n=3, d=3), POLY, id="S"),
        pytest.param(BracketSpec("Double", 1j, ell=4), POLY, id="Double"),
        pytest.param(BracketSpec("DualGroup", 2.0 - 1.0j, ell=3), RATIONAL, id="DualGroup"),
    ],
)
def test_residual_is_the_same_at_every_block_size(monkeypatch, spec, scheme):
    # every blocking probes the rows of Pi and sums each triple in one order:
    # chunks of every number of samples down to one, then blocks of every
    # number of rows down to one row a call, give each sample's residual
    # bit for bit, on the bracket and on an O(1) Jacobiator
    X = _points(spec, 5)
    per_sample = _per_sample_entries(spec, scheme)
    per_row = per_sample // spec.dim
    caps = [c * per_sample for c in range(len(X), 0, -1)] + [r * per_row for r in range(spec.dim - 1, 0, -1)]
    for bracket in (spec, _Perturbed(spec, quadratic=True)):
        want = jacobi_residual(bracket, X, scheme)
        for cap in caps:
            monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
            np.testing.assert_array_equal(jacobi_residual(bracket, X, scheme), want)
        monkeypatch.undo()
    assert np.all(jacobi_residual(spec, X, scheme) < suites.TOL_EXACT)
    assert np.all(want > 1e-2)


def test_dual_group_row_probes_stay_in_chart_domain():
    # the probes run along the rows of Pi(x), at ell = 7 (dim 49) in several
    # calls per sample with Richardson differences; the largest step they take in a
    # diagonal coordinate of h_+ (the chart divides by it) was at most 4.5e-4
    # of that coordinate over 20 samples and three kappas
    ell = 7
    spec = BracketSpec("DualGroup", 2.0 - 1.0j, ell=ell)
    assert _per_sample_entries(spec, RATIONAL) > verify._BLOCK_ENTRIES
    X = charts.pack_dual(sampling.sample_dual(12, np.arange(3), ell, 0.4))
    diag = slice(ell * (ell - 1) // 2, ell * (ell + 1) // 2)
    reach = RATIONAL.step * np.max(np.abs(spec.bivector(X)[:, :, diag]), axis=1)
    assert np.all(reach < 1e-2 * np.abs(X[:, diag]))
    assert np.all(jacobi_residual(spec, X, RATIONAL) < suites.TOL_EXACT)


def _traced_peak(fn):
    """Peak traced memory of a second call of ``fn``, after one-off allocations."""
    fn()
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_big_residual_holds_no_derivative_cube():
    # one (dim, dim, dim) complex stack at dim 98 is 15.1 MB; the residual
    # peaked at 4.0 MB with NumPy 2.4, of which the packed Jacobiator of the
    # C(98, 3) triples is 2.4 MB
    x = sampling.sample_vector(42, 0, BIG.dim, 1.0)
    assert _traced_peak(lambda: jacobi_residual(BIG, x, POLY)) < 0.4 * 16 * BIG.dim**3


def test_multi_call_stack_keeps_one_derivative_stack():
    # at dim 64 one sample's residual peaked at 2.9 MB with NumPy 2.4, and a
    # stack of 3 within 2 kB of it; the bound is half of one sample's packed
    # Jacobiator, C(64, 3) complex entries (0.67 MB)
    spec = BracketSpec("S", 1.0, n=4, d=8)
    assert _per_sample_entries(spec, POLY) > verify._BLOCK_ENTRIES
    X = sampling.sample_vector(42, np.arange(3), spec.dim, 1.0)
    one = _traced_peak(lambda: jacobi_residual(spec, X[:1], POLY))
    three = _traced_peak(lambda: jacobi_residual(spec, X, POLY))
    assert three <= one + 16 * math.comb(spec.dim, 3) / 2


@pytest.mark.parametrize(
    "spec",
    [BracketSpec("S", 1.0, n=2, d=3), BracketSpec("GLmult", 1j, ell=4), BracketSpec("S", 1.0, n=3, d=3)],
    ids=lambda spec: f"{spec.kind}-dim{spec.dim}",
)
def test_single_call_chunks_keep_one_derivative_stack(spec):
    # chunks of 18, 8 and 5 samples: with NumPy 2.4 the peak was 2.20, 1.71
    # and 1.90 MB for one chunk, and within 2 kB of it for 2 or 4 chunks
    chunk = verify._BLOCK_ENTRIES // _per_sample_entries(spec, POLY)
    assert chunk >= 2
    X = sampling.sample_vector(42, np.arange(4 * chunk), spec.dim, 1.0)
    one = _traced_peak(lambda: jacobi_residual(spec, X[:chunk], POLY))
    for chunks in (2, 4):
        assert _traced_peak(lambda: jacobi_residual(spec, X[: chunks * chunk], POLY)) <= one + 2**16


# one spec of every kind at a dim where one sample's probes span several
# bivector calls, with the scheme its suite uses
MULTI_CALL = [
    pytest.param(spec, scheme, id=_label(spec))
    for spec, scheme in [
        *[(BracketSpec(k, 2.0 - 1.0j, n=4, d=5), POLY) for k in ("S", "AOplus", "AOminus", "Prime", "Sprod")],
        (BracketSpec("Double", 1j, ell=5), POLY),
        (BracketSpec("GLmult", 1j, ell=6), POLY),
        (BracketSpec("STS", 1j, ell=6), POLY),
        (BracketSpec("DualGroup", 2.0 - 1.0j, ell=6), RATIONAL),
        (BracketSpec("ZakC", 1.0, n=17, F=F_AFF, G=G_AFF), POLY),
        (BracketSpec("ZakC", -2j * EPSILON, n=17, F=F_AFF, G=G_AFF), POLY),
    ]
]


def _differences(f, X, scheme, directions):
    """The derivative stack of ``f`` at the points X along all the directions
    in one block."""
    ((_, D),) = verify._difference_blocks(f, X, scheme, directions.shape[1], directions)
    return D


def _full_cyclic_max(spec, X, scheme):
    """Oracle: the max over every (i, j, k) of the cyclic sum of T, and max |T|,
    per point, with T the derivative of the antisymmetric bivector along its
    rows."""
    T = _differences(spec.bivector, X, scheme, directions=spec.bivector(X))
    J = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    return np.max(np.abs(J), axis=(1, 2, 3)), np.max(np.abs(T), axis=(1, 2, 3))


@pytest.mark.parametrize("spec,scheme", MULTI_CALL)
def test_multi_call_residual_is_the_full_cyclic_max(monkeypatch, spec, scheme):
    # the residual is the cyclic max over i < j < k only: at most the full
    # one, and equal to it up to the rounding of the three cyclic sums
    assert _per_sample_entries(spec, scheme) > verify._BLOCK_ENTRIES
    X = _points(spec, 2)
    want, size = _full_cyclic_max(spec, X, scheme)
    # blocks of the default size, the last one shorter at most dims (at
    # dim 50, 13, 13, 13 and 11 rows), then blocks of one or two rows
    for cap in (verify._BLOCK_ENTRIES, 5000):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
        got = jacobi_residual(spec, X, scheme)
        assert np.all(got <= want)
        assert np.all(want - got <= 1e-15 * np.maximum(1.0, size))


@pytest.mark.parametrize("spec,scheme", REGIME_CASES)
def test_single_call_residual_is_the_full_cyclic_max(spec, scheme):
    # one call per chunk takes the same max over i < j < k only, with the
    # multi-call bound
    assert _per_sample_entries(spec, scheme) <= verify._BLOCK_ENTRIES
    X = _points(spec, 3)
    want, size = _full_cyclic_max(spec, X, scheme)
    got = jacobi_residual(spec, X, scheme)
    assert np.all(got <= want)
    assert np.all(want - got <= 1e-15 * np.maximum(1.0, size))


def test_single_call_residual_of_an_o1_jacobiator():
    # an O(1) Jacobiator, where every entry decides: the gathered max over
    # i < j < k equals the max over all of them
    spec = _Perturbed(BracketSpec("Prime", 1j, n=2, d=3))
    assert _per_sample_entries(spec, POLY) <= verify._BLOCK_ENTRIES
    X = _points(spec.spec, 3)
    want, _ = _full_cyclic_max(spec, X, POLY)
    assert np.all(want > 1e-2)
    np.testing.assert_allclose(jacobi_residual(spec, X, POLY), want, rtol=1e-14)


def _cyclic_sums(T):
    """J[i,j,k] = (T[i,j,k] - T[j,i,k]) + T[k,i,j] for i < j < k in colex
    order (k, then j, then i), from a (dim, dim, dim) T read where j < k."""
    dim = len(T)
    i, j, k = (np.array(t) for t in zip(*[(i, j, k) for k in range(dim) for j in range(k) for i in range(j)]))
    return (T[i, j, k] - T[j, i, k]) + T[k, i, j]


@pytest.mark.parametrize("dim", [3, 4, 7])
def test_packed_jacobiator_at_every_block_size(dim):
    # rows added one block at a time, of any length, give every cyclic sum
    # over i < j < k at its colex position, the same bits at every block
    # size, and nothing from the entries read below the diagonal
    rng = np.random.default_rng(dim)
    T = rng.normal(size=(dim,) * 3) + 1j * rng.normal(size=(dim,) * 3)
    want = _cyclic_sums(T)
    T[:, np.tril_indices(dim)[0], np.tril_indices(dim)[1]] = np.nan
    packed = []
    for block in range(1, dim + 1):
        J = np.zeros(verify._packed_size(dim), dtype=complex)
        for l0 in range(0, dim, block):
            verify._add_rows(J, T[l0 : l0 + block].copy(), l0)
        packed.append(J[: len(want)])
    np.testing.assert_allclose(packed[0], want, rtol=1e-15, atol=1e-15)
    for J in packed[1:]:
        np.testing.assert_array_equal(J, packed[0])


@pytest.mark.parametrize("dim", [3, 4, 7])
def test_gathered_jacobiator_is_the_packed_one(dim):
    # a chunk in one call gathers every cyclic sum over i < j < k at its
    # colex position, the bits of the packed Jacobiator that ``_add_rows``
    # accumulates from blocks of rows, and nothing from the entries read
    # below the diagonal
    rng = np.random.default_rng(dim)
    T = rng.normal(size=(2,) + (dim,) * 3) + 1j * rng.normal(size=(2,) + (dim,) * 3)
    want = [_cyclic_sums(t) for t in T]
    T[:, :, np.tril_indices(dim)[0], np.tril_indices(dim)[1]] = np.nan
    got = verify._gather_jacobiator(T)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(got, want)
    for t, g in zip(T, got):
        for block in (1, 2, dim):
            J = np.zeros(verify._packed_size(dim), dtype=complex)
            for l0 in range(0, dim, block):
                verify._add_rows(J, t[l0 : l0 + block].copy(), l0)
            np.testing.assert_array_equal(J[: len(g)], g)


def test_uneven_row_blocks_of_the_packed_jacobiator(monkeypatch):
    # an O(1) Jacobiator, where every entry decides: the residual from
    # blocks of one, two, three and all the rows of each sample is the max
    # over every (i, j, k) of the cyclic sum
    spec = _Perturbed(BracketSpec("Prime", 1j, n=2, d=3))
    X = _points(spec.spec, 3)
    T = _differences(spec.bivector, X, POLY, directions=spec.bivector(X))
    J = T + T.transpose(0, 2, 3, 1) + T.transpose(0, 3, 1, 2)
    want = np.max(np.abs(J), axis=(1, 2, 3))
    per_direction = 2 * spec.dim**2
    got = []
    for rows in (1, 2, 3, spec.dim):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", rows * per_direction)
        got.append(jacobi_residual(spec, X, POLY))
    np.testing.assert_allclose(got[0], want, rtol=1e-14)
    for r in got[1:]:
        np.testing.assert_array_equal(r, got[0])


def test_inadmissible_zak_fails_in_multi_call_regime():
    # F = 1, G = 0 is not Poisson; at n = 17 (dim 34) its residual takes
    # blocks of rows and must still exceed the zakrzewski suite's 1e-8 bound
    F_one, G_zero = HoloFn1.affine(1, 0, "F"), HoloFn1.affine(0, 0, "G")
    spec = BracketSpec("ZakC", 1.0, n=17, F=F_one, G=G_zero)
    assert _per_sample_entries(spec, POLY) > verify._BLOCK_ENTRIES
    assert np.all(jacobi_residual(spec, _points(spec, 5), POLY) > 1e-8)


class _SingleEntryDefect:
    """The bracket plus eps x_0 x_(dim-1)^2 at the one entry (0, dim-1)."""

    def __init__(self, spec, eps):
        self.spec, self.dim, self.eps = spec, spec.dim, eps

    def _term(self, x):
        E = np.zeros(x.shape + (self.dim,), dtype=complex)
        E[..., 0, -1] = self.eps * x[..., 0] * x[..., -1] ** 2
        return E

    def bivector(self, x):
        x = np.asarray(x, dtype=complex)
        return self.spec.bivector(x) + antisymmetrize(self._term(x))

    def upper(self, x):
        x = np.asarray(x, dtype=complex)
        return self.spec.upper(x) + self._term(x)


def test_single_entry_defect_fails_in_multi_call_regime(monkeypatch):
    # a defect in one entry pair, the weakest case for a residual that reads
    # only i < j < k: at eps = 1e-6 on S at dim 32 it gave 8.1e-8 to 1.6e-6
    # over these five samples, 2.2e6 to 3.5e7 times the exact floor, the same
    # as the max over every (i, j, k); half a sample's probes per call, so
    # each sample takes two blocks of 16 rows
    spec = BracketSpec("S", 1.0, n=4, d=4)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", _per_sample_entries(spec, POLY) // 2)
    X = _points(spec, 5)
    floor = jacobi_residual(spec, X, POLY)
    got = jacobi_residual(_SingleEntryDefect(spec, 1e-6), X, POLY)
    assert np.all(floor < suites.TOL_EXACT)
    assert np.all(got > 100 * suites.TOL_EXACT)


# the matrix-group charts take any entries; the point containers of the
# others reject non-finite coordinates
NAN_CHARTS = ("GLmult", "Double", "STS")


@pytest.mark.parametrize("spec", [s for s in SPECS if s.kind in NAN_CHARTS], ids=_label)
def test_nan_sample_stays_in_its_row(monkeypatch, spec):
    # chunks of two samples, so the NaN sample shares its bivector calls with
    # a finite one; then one entry less than one sample's probes, so each
    # sample's rows take calls of their own
    per_sample = _per_sample_entries(spec, POLY)
    for cap in (2 * per_sample, per_sample - 1):
        monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
        X = _points(spec, 5)
        want = jacobi_residual(spec, X, POLY)
        X[2, 0] = np.nan
        got = jacobi_residual(spec, X, POLY)
        assert np.isnan(got[2])
        np.testing.assert_array_equal(np.delete(got, 2), np.delete(want, 2))


def test_nan_sample_fails_the_suite_in_multi_call_regime(monkeypatch):
    # at ell = 5 the Double kind (dim 50) takes blocks of rows; a NaN in one
    # of its samples must give that sample a NaN residual and fail the suite
    cfg = suites.RunConfig("jacobi", n=2, d=2, ell=5, samples=3)
    assert _per_sample_entries(BracketSpec("Double", 1.0, ell=5), POLY) > verify._BLOCK_ENTRIES
    real = sampling.sample_vector

    def with_nan(seed, indices, dim, radius):
        X = real(seed, indices, dim, radius)
        if dim == 50:
            X[1, 0] = np.nan
        return X

    monkeypatch.setattr(sampling, "sample_vector", with_nan)
    _, _, check = suites._BUILDERS["jacobi"](cfg)
    got = check(np.arange(3))["Double"]
    assert np.isnan(got[1]) and np.all(np.isfinite(np.delete(got, 1)))
    report = suites.run_suite(cfg)
    assert not report.ok and np.isnan(report.max_residual)
    assert [i for i, _, _ in report.failures] == [1]


@pytest.mark.parametrize("spec", [s for s in SPECS if s.kind not in NAN_CHARTS], ids=_label)
def test_nan_sample_rejected_by_point_chart(spec):
    X = _points(spec, 3)
    X[1, 0] = np.nan
    with pytest.raises(ValueError):
        jacobi_residual(spec, X, POLY)
    with pytest.raises(ValueError):  # one point, through the bivector alone
        spec.bivector(X[1])


def test_residual_rejects_wrong_shapes():
    spec = BracketSpec("S", 1.0, n=2, d=2)
    for bad in (np.zeros(7), np.zeros((2, 7)), np.zeros((2, 3, 8))):
        with pytest.raises(ValueError):
            jacobi_residual(spec, bad, POLY)


@pytest.mark.parametrize("dim,radius", [(1, 1.0), (8, 0.3), (32, 1.0)])
def test_sample_vectors_rows_equal_sample_vector(dim, radius):
    indices = np.array([0, 5, 1, 99])
    X = sampling.sample_vector(42, indices, dim, radius)
    assert X.shape == (4, dim)
    for row, i in zip(X, indices):
        np.testing.assert_array_equal(row, sampling.sample_vector(42, i, dim, radius))


def _reference_disk(rng, shape, radius):
    u = rng.random(shape)
    v = rng.random(shape)
    return radius * np.sqrt(u) * np.exp(2j * np.pi * v)


def _reference_dual(rng):
    hp = np.triu(_reference_disk(rng, (3, 3), 0.4), 1)
    hm = np.tril(_reference_disk(rng, (3, 3), 0.4), -1)
    diag = 1.0 + _reference_disk(rng, 3, 0.4)
    hp[np.diag_indices(3)] = diag
    hm[np.diag_indices(3)] = 1.0 / diag
    return [hp, hm]


# each sampler at one index array, its output as a list of arrays, and the
# per-index draw it replaces, written out from NumPy's generator
SAMPLERS = {
    "vector": (
        lambda i: [sampling.sample_vector(42, i, 5, 0.3)],
        lambda rng: [_reference_disk(rng, 5, 0.3)],
    ),
    "spoint": (
        lambda i: (lambda p: [p.A, p.B])(sampling.sample_spoint(42, i, 2, 3, 0.3)),
        lambda rng: [_reference_disk(rng, (2, 3), 0.3), _reference_disk(rng, (3, 2), 0.3)],
    ),
    "spin": (
        lambda i: (lambda s: [s.a, s.b])(sampling.sample_spin(42, i, 3, 0.3)),
        lambda rng: [_reference_disk(rng, 3, 0.3), _reference_disk(rng, 3, 0.3)],
    ),
    "tuple": (
        lambda i: [v for s in sampling.sample_tuple(42, i, 2, 3, 0.3) for v in (s.a, s.b)],
        lambda rng: [_reference_disk(rng, 2, 0.3) for _ in range(6)],
    ),
    "gl": (
        lambda i: [sampling.sample_gl(42, i, 3, 0.3)],
        lambda rng: [_reference_disk(rng, (3, 3), 0.3)],
    ),
    "double": (
        lambda i: list(sampling.sample_double(42, i, 3, 0.3)),
        lambda rng: [_reference_disk(rng, (3, 3), 0.3), _reference_disk(rng, (3, 3), 0.3)],
    ),
    "dual": (
        lambda i: (lambda p: [p.hplus, p.hminus])(sampling.sample_dual(42, i, 3, 0.4)),
        _reference_dual,
    ),
}


@pytest.mark.parametrize("name", SAMPLERS)
@pytest.mark.parametrize("indices", [np.array([0, 5, 1, 99]), np.arange(6).reshape(2, 3)], ids=["flat", "2x3"])
def test_sampler_rows_equal_per_index_draws(name, indices):
    sample, reference = SAMPLERS[name]
    stacked = sample(indices)
    for idx in np.ndindex(*indices.shape):
        i = int(indices[idx])
        want = reference(np.random.default_rng([42, i]))
        for got, one, ref in zip(stacked, sample(i), want):
            assert got.shape == indices.shape + ref.shape and one.shape == ref.shape
            np.testing.assert_array_equal(got[idx], ref)
            np.testing.assert_array_equal(one, ref)


# --- call counts of the suites --------------------------------------------------


def test_jacobi_suite_bivector_calls_do_not_grow_with_samples(monkeypatch):
    # outermost bivector and raw-fill calls of every kind (SPECS[0] is a BracketSpec)
    calls = _count_bivector_calls(monkeypatch, SPECS[0])
    counts = []
    for samples in (2, 6):
        calls.clear()
        assert suites.run_suite(suites.RunConfig("jacobi", n=2, d=2, ell=2, samples=samples)).ok
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1], f"bivector calls grow with the sample count: {counts}"


def test_moment_suite_takes_three_jacobians_per_sample(monkeypatch):
    # the Jacobians of every sample, of 1 + AB, 1 - AB, g+- and 1 + kappa AB, are
    # taken together, on the stack of all samples
    cfg = suites.RunConfig("moment", n=3, d=2, samples=4)
    params, count, check = suites._BUILDERS["moment"](cfg)
    real = verify.jacobian_fd
    calls = []

    def counted(f, x, scheme):
        calls.append(np.shape(x)[0])
        return real(f, x, scheme)

    monkeypatch.setattr(verify, "jacobian_fd", counted)
    got = check(np.arange(count))
    assert calls == [count] * 4
    monkeypatch.setattr(verify, "jacobian_fd", real)
    # each key as the two whole-set calls, one per scheme, give it
    for i in range(count):
        p = sampling.sample_spoint(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        exact = verify.moment_residuals(cfg.kappa, p, suites._POLY)
        fine = verify.moment_residuals(cfg.kappa, p, suites._RATIONAL)
        for key in params["bounds"]:
            want = (fine if key.startswith("mom1_") else exact)[key]
            assert got[key][i] == want, key


def test_decouple_F_suite_differentiates_map_F_once(monkeypatch):
    # one Jacobian of x -> [F(x), theta(F(x))], on the stack of all samples,
    # gives both Poisson-map keys the bits of a Jacobian of each map alone
    n, d = 3, 2
    cfg = suites.RunConfig("decouple-F", n=n, d=d, kappa=2.0 - 1.0j, samples=4)
    _, count, check = suites._BUILDERS["decouple-F"](cfg)
    real = verify.jacobian_fd
    calls = []

    def counted(f, x, scheme):
        calls.append(np.shape(x)[0])
        return real(f, x, scheme)

    monkeypatch.setattr(verify, "jacobian_fd", counted)
    got = check(np.arange(count))
    assert calls == [count]
    monkeypatch.undo()
    x = charts.pack_tuple(sampling.sample_tuple(cfg.seed, np.arange(count), n, d, cfg.radius))

    def fmap(xx):
        return dc.map_F(charts.unpack_tuple(xx, n, d))

    maps = {
        "poisson_map_F": ("Prime", lambda xx: charts.pack_spoint(fmap(xx))),
        "poisson_map_thetaF": (
            "AOplus",
            lambda xx: charts.pack_spoint(dc.map_theta(fmap(xx), 1.0, -1.0 / cfg.kappa, cfg.kappa)),
        ),
    }
    src = BracketSpec("Sprod", cfg.kappa, n=n, d=d)
    for key, (kind, f) in maps.items():
        tgt = BracketSpec(kind, cfg.kappa, n=n, d=d)
        np.testing.assert_array_equal(got[key], verify.poisson_map_residual(src, tgt, f, x, suites._RATIONAL))


def test_spoint_stack_validation():
    with pytest.raises(ValueError):
        SPoint(np.zeros((2, 3, 2)), np.zeros((3, 2, 3)))
    p = SPoint(np.zeros((4, 3, 2)), np.zeros((4, 2, 3)))
    assert (p.n, p.d) == (3, 2)


# --- factorization and decoupling maps on stacks ---------------------------------

N, D = 3, 3
SCHEMES = [
    DiffScheme(step=1e-5, richardson=True),
    DiffScheme(step=1e-5, richardson=False),
]
SCHEME_IDS = ["richardson", "plain"]


def _tuple_stack(batch, seed=5):
    """Packed tuples at sample indices 0, 1, ..., of shape batch + (2 N D,)."""
    X = np.stack([charts.pack_tuple(sampling.sample_tuple(seed, i, N, D, 0.3)) for i in range(int(np.prod(batch)))])
    return X.reshape(batch + (-1,))


def _theta_F(t):
    return dc.map_theta(dc.map_F(t), 1.0, -1.0 / (2.0 - 1.0j), 2.0 - 1.0j)


def _pair(p):
    return np.concatenate([p.hplus, p.hminus], axis=-1)


TUPLE_MAPS = {
    "g_functions": lambda t: fc.g_functions(t[1]),
    "g_pm": lambda t: _pair(fc.g_pm(t[1])),
    "calG_pm": lambda t: _pair(fc.calG_pm(t)),
    "map_m": lambda t: charts.pack_spoint(dc.map_m(t)),
    "map_F": lambda t: charts.pack_spoint(dc.map_F(t)),
    "map_theta_F": lambda t: charts.pack_spoint(_theta_F(t)),
}


@pytest.mark.parametrize("name", TUPLE_MAPS)
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_map_stack_equals_points_stacked(name, batch):
    f = TUPLE_MAPS[name]
    X = _tuple_stack(batch)
    got = f(charts.unpack_tuple(X, N, D))
    assert got.shape[: len(batch)] == batch
    for idx in np.ndindex(*batch):
        np.testing.assert_allclose(got[idx], f(charts.unpack_tuple(X[idx], N, D)), rtol=0, atol=1e-15)


def test_closed_form_inverses():
    gp, gm, gp_inv, gm_inv = fc.g_factors(charts.unpack_tuple(_tuple_stack((5,)), N, D)[0])
    eye = np.eye(N)
    for prod in (gp @ gp_inv, gm @ gm_inv):
        np.testing.assert_allclose(prod, np.broadcast_to(eye, prod.shape), rtol=0, atol=1e-15)


def _jacobian_per_probe(f, x, scheme):
    """One map call per probe x +- delta e_l, kept as the oracle of the one-call Jacobian."""
    x = np.asarray(x, dtype=complex)
    dim = x.size

    def once(delta):
        cols = []
        for l in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[l] = delta
            cols.append((np.asarray(f(x + e)) - np.asarray(f(x - e))) / (2 * delta))
        return np.stack(cols, axis=-1)

    J = once(scheme.step)
    if scheme.richardson:
        J = (4.0 * once(scheme.step / 2) - J) / 3.0
    return J


DIFF_MAPS = {
    "map_F": lambda x: charts.pack_spoint(dc.map_F(charts.unpack_tuple(x, N, D))),
    "lemma4_full": lambda x: verify._h_map(x, N, D),
}


@pytest.mark.parametrize("scheme", SCHEMES, ids=SCHEME_IDS)
@pytest.mark.parametrize("name", DIFF_MAPS)
def test_one_call_jacobian_matches_per_probe(name, scheme):
    f = DIFF_MAPS[name]
    x = charts.pack_tuple(sampling.sample_tuple(7, 0, N, D, 0.3))
    calls = []

    def counted(X):
        calls.append(X.shape)
        return f(X)

    got = jacobian_fd(counted, x, scheme)
    want = _jacobian_per_probe(f, x, scheme)
    assert calls == [((4 if scheme.richardson else 2) * x.size, x.size)]
    assert got.shape == want.shape
    # equal maps up to rounding, divided by the step: a few ulps over the step
    np.testing.assert_allclose(got, want, rtol=0, atol=16 * np.finfo(float).eps / scheme.step)


def test_jacobian_rejects_per_point_callable():
    x = sampling.sample_vector(1, 0, 4, 0.3)
    with pytest.raises(ValueError):
        jacobian_fd(lambda v: v[0], x, SCHEMES[0])
    with pytest.raises(ValueError):
        jacobian_fd(lambda v: np.sum(v, axis=-1), x, SCHEMES[0])


def _last_spin_replaced(a, b):
    """A stack of five valid spins of size 2 whose last one is (a, b)."""
    ok = [sampling.sample_spin(3, i, 2, 0.3) for i in range(4)]
    return SpinPoint(np.stack([s.a for s in ok] + [np.asarray(a)]), np.stack([s.b for s in ok] + [np.asarray(b)]))


def test_zero_g_in_last_point_of_stack():
    with pytest.raises(ZeroG) as exc:
        fc.g_pm(_last_spin_replaced([0.5, 1.0], [0.1, -1.0]))
    assert exc.value.index == 2


def test_branch_cut_in_last_point_of_stack():
    with pytest.raises(BranchCut) as exc:
        fc.g_pm(_last_spin_replaced([1.0, 0.0], [-2.0, 0.0]))  # G_1 = -1
    assert exc.value.index == 1


@pytest.mark.parametrize("fn", [dc.map_m, dc.map_F], ids=["map_m", "map_F"])
def test_branch_cut_in_last_point_of_decoupling_stack(fn):
    X = _tuple_stack((5,))
    X[-1, : 2 * N] = 0.0
    X[-1, 0], X[-1, N] = 1.0, -2.0  # copy 1 of the last tuple, which both maps factor: G_1 = -1
    fn(charts.unpack_tuple(X[:-1], N, D))
    with pytest.raises(BranchCut) as exc:
        fn(charts.unpack_tuple(X, N, D))
    assert exc.value.index == 1


def test_spin_tuple_rejects_mixed_batch_axes():
    with pytest.raises(ValueError):
        SpinTuple([SpinPoint(np.zeros(2), np.zeros(2)), SpinPoint(np.zeros((3, 2)), np.zeros((3, 2)))])


# --- every suite's check on a stack ------------------------------------------------

RESTACKED = ("decouple-m", "decouple-F", "factorization", "ao-maps", "moment", "lemma4", "symplectic", "rank", "actions")


def test_every_builder_is_covered():
    assert set(RESTACKED) | {"jacobi", "zakrzewski"} == set(suites._BUILDERS)


@pytest.mark.parametrize("suite", RESTACKED)
def test_suite_check_on_stack_equals_one_sample_calls(suite):
    cfg = suites.RunConfig(suite, n=3, d=2, kappa=2.0 - 1.0j, samples=3, seed=7)
    params, _, check = suites._BUILDERS[suite](cfg)
    got = check(np.arange(3))
    singles = [check(np.array([i])) for i in range(3)]
    assert list(got) == list(singles[0])
    for key, values in got.items():
        assert values.shape == (3,), key
        want = np.concatenate([one[key] for one in singles])
        # up to rounding: a thousandth of the check's bound
        np.testing.assert_allclose(values, want, rtol=0, atol=1e-3 * params["bounds"][key], err_msg=key)


def test_chunked_run_equals_one_chunk(monkeypatch):
    cfg = suites.RunConfig("lemma4", n=2, d=2, samples=5)
    whole = suites.run_suite(cfg)
    calls = []
    real = suites._BUILDERS["lemma4"]

    def builder(c):
        params, count, check = real(c)
        return params, count, lambda indices: calls.append(len(indices)) or check(indices)

    monkeypatch.setitem(suites._BUILDERS, "lemma4", builder)
    m = 2 * 2 * 2 * 3  # lemma4's functions at n = d = 2
    monkeypatch.setattr(suites, "_STACK_ENTRIES", 2 * m * m)
    chunked = suites.run_suite(cfg)
    assert calls == [2, 2, 1]
    assert chunked == whole


def _indices(batch):
    return np.arange(int(np.prod(batch))).reshape(batch)


MATRIX_MAPS = {
    "gauss": lambda h: np.concatenate(fc.gauss(h), axis=-1),
    "chi_inverse_local": lambda h: _pair(fc.chi_inverse_local(h)),
}


@pytest.mark.parametrize("name", MATRIX_MAPS)
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_factorization_stack_equals_points_stacked(name, batch):
    f = MATRIX_MAPS[name]
    H = np.eye(N) + sampling.sample_gl(3, _indices(batch), N, 0.3)
    got = f(H)
    for idx in np.ndindex(*batch):
        np.testing.assert_allclose(got[idx], f(H[idx]), rtol=0, atol=1e-15)


POINT_MAPS = {
    "map_m_inverse": lambda X: charts.pack_tuple(dc.map_m_inverse(charts.unpack_spoint(X, N, D))),
    "map_F_inverse": lambda X: charts.pack_tuple(dc.map_F_inverse(charts.unpack_spoint(X, N, D))),
    "symplectic_matrix": lambda X: verify.symplectic_matrix(2.0 - 1.0j, charts.unpack_spin(X[..., : 2 * N], N)),
}


@pytest.mark.parametrize("name", POINT_MAPS)
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_inverse_and_symplectic_stack_equals_points_stacked(name, batch):
    f = POINT_MAPS[name]
    X = sampling.sample_vector(4, _indices(batch), 2 * N * D, 0.3)
    got = f(X)
    for idx in np.ndindex(*batch):
        np.testing.assert_allclose(got[idx], f(X[idx]), rtol=0, atol=1e-15)


@pytest.mark.parametrize("product", ["lmul1", "rmul1", "lmul2", "rmul2"])
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_tensor4_products_on_stacks(product, batch):
    t = r_pm(N, +1)
    M = sampling.sample_gl(6, _indices(batch), N, 1.0)
    T = t.rmul2(M)  # a constant tensor times a stack of matrices: a stack of tensors
    assert T.array.shape == batch + (N,) * 4
    P = getattr(T, product)(M)  # a stack of tensors times a stack of matrices
    for idx in np.ndindex(*batch):
        one = t.rmul2(M[idx])
        np.testing.assert_allclose(T.array[idx], one.array, rtol=0, atol=1e-15)
        np.testing.assert_allclose(P.array[idx], getattr(one, product)(M[idx]).array, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(T.flatten()[idx], one.flatten())
        np.testing.assert_array_equal(T.swap_legs().array[idx], one.swap_legs().array)


def test_zero_g_in_last_point_of_symplectic_stack():
    s = _last_spin_replaced([0.5, 1.0], [0.1, -1.0])  # G_2 = 0
    verify.symplectic_matrix(1.0, SpinPoint(s.a[:-1], s.b[:-1]))
    with pytest.raises(ZeroG) as exc:
        verify.symplectic_matrix(1.0, s)
    assert exc.value.index == 2


def test_branch_cut_in_last_matrix_of_stack():
    H = np.eye(2) + sampling.sample_gl(3, np.arange(4), 2, 0.3)
    H[-1] = np.diag([-1.0, 1.0])
    fc.chi_inverse_local(H[:-1])
    with pytest.raises(BranchCut):
        fc.chi_inverse_local(H)


def test_radius_one_decouple_m_stack_evaluates_every_sample():
    # at radius 1 some copies have ||a|| ||b|| >= 0.9, yet no G_j reaches (-inf, 0]:
    # every sample lies in the domain of map_m and passes
    cfg = suites.RunConfig("decouple-m", n=3, d=2, radius=1.0, samples=30)
    params, count, check = suites._BUILDERS["decouple-m"](cfg)
    t = sampling.sample_tuple(cfg.seed, np.arange(count), cfg.n, cfg.d, cfg.radius)
    assert any(np.any(np.linalg.norm(s.a, axis=-1) * np.linalg.norm(s.b, axis=-1) >= 0.9) for s in t)
    for key, values in check(np.arange(count)).items():
        assert values.shape == (count,), key
        assert np.all(values <= params["bounds"][key]), key
