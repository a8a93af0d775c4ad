"""Tests for the batched evaluation core: stacks of points through every
bracket kind, the kernel fills, the factorization and decoupling maps, the
one-call Jacobian, the blocked Jacobi residual on sample stacks, and the
suites' call counts."""

import numpy as np
import pytest

from plie import charts, decoupling as dc, factorization as fc, kernels, sampling, suites, verify
from plie.brackets import BracketSpec, HoloFn1, s_bivector_tensor
from plie.errors import BranchCut, DomainEscape, ZeroG
from plie.points import SPoint, SpinPoint, SpinTuple
from plie.verify import DiffScheme, jacobi_residual, jacobian_fd

F_AFF = HoloFn1(lambda t: 2 + t, lambda t: 1 + 0 * t, "F")
G_AFF = HoloFn1(lambda t: -1 + 0 * t, lambda t: 0 * t, "G")

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
    BracketSpec("ZakR", epsilon=0.5, n=3, F=F_AFF, G=G_AFF),
]


def _points(spec, count, seed=5):
    if spec.kind == "DualGroup":
        return np.stack([charts.pack_dual(sampling.sample_dual(seed, i, spec.ell, 0.4)) for i in range(count)])
    return np.stack([sampling.sample_vector(seed, i, spec.dim, 1.0) for i in range(count)])


def test_every_kind_is_covered():
    assert sorted(s.kind for s in SPECS) == sorted(
        ("S", "AOplus", "AOminus", "Prime", "Sprod", "GLmult", "Double", "DualGroup", "STS", "ZakC", "ZakR")
    )


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
@pytest.mark.parametrize("batch", [(4,), (2, 3)])
def test_stack_equals_points_stacked(spec, batch):
    X = _points(spec, int(np.prod(batch))).reshape(batch + (spec.dim,))
    got = spec.bivector(X)
    assert got.shape == batch + (spec.dim, spec.dim)
    for idx in np.ndindex(*batch):
        np.testing.assert_array_equal(got[idx], spec.bivector(X[idx]))


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
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
    M = kernels.fill_s(np.stack([p.A for p in pts]), np.stack([p.B for p in pts]), kappa)
    for k, p in enumerate(pts):
        np.testing.assert_allclose(M[k], s_bivector_tensor(kappa, p), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n,d", [(2, 3), (3, 1)])
def test_fill_hat_stack_equals_points_stacked(n, d):
    pts = [sampling.sample_spoint(4, i, n, d, 1.0) for i in range(3)]
    M = kernels.fill_hat(np.stack([p.A for p in pts]), np.stack([p.B for p in pts]), 1j, -1.0)
    for k, p in enumerate(pts):
        np.testing.assert_array_equal(M[k], kernels.fill_hat(p.A, p.B, 1j, -1.0))


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


@pytest.mark.parametrize("pack,unpack,sample", [
    (charts.pack_spoint, lambda x: charts.unpack_spoint(x, 2, 3), lambda i: sampling.sample_spoint(1, i, 2, 3, 1.0)),
    (charts.pack_tuple, lambda x: charts.unpack_tuple(x, 2, 3), lambda i: sampling.sample_tuple(1, i, 2, 3, 1.0)),
    (charts.pack_dual, lambda x: charts.unpack_dual(x, 4), lambda i: sampling.sample_dual(1, i, 4, 0.4)),
], ids=["spoint", "tuple", "dual"])
def test_chart_roundtrip_on_stacks(pack, unpack, sample):
    X = np.stack([pack(sample(i)) for i in range(6)]).reshape(2, 3, -1)
    np.testing.assert_array_equal(pack(unpack(X)), X)


# --- the per-probe Jacobi residual, kept as an oracle ---------------------------


def _jacobi_per_probe(spec, x, scheme):
    """One bivector call per probe, contracted with a plain einsum."""
    x = np.asarray(x, dtype=complex)
    dim = spec.dim
    Pi0 = spec.bivector(x)

    def dmat(delta):
        dPi = np.empty((dim, dim, dim), dtype=complex)
        for l in range(dim):
            e = np.zeros(dim, dtype=complex)
            e[l] = delta
            dPi[l] = (spec.bivector(x + e) - spec.bivector(x - e)) / (2 * delta)
        return dPi

    dPi = dmat(scheme.step)
    if scheme.richardson:
        dPi = (4.0 * dmat(scheme.step / 2) - dPi) / 3.0
    T = np.einsum("il,ljk->ijk", Pi0, dPi)
    J = T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)
    return float(np.max(np.abs(J)))


class _Perturbed:
    """S(n,d) plus an antisymmetric cubic term: a bivector far from Poisson,
    so its Jacobiator is O(1) and two evaluations can be compared relatively."""

    def __init__(self, spec):
        self.spec = spec
        self.dim = spec.dim

    def bivector(self, x):
        x = np.asarray(x, dtype=complex)
        E = 0.3 * x[..., :, None] * (x * x)[..., None, :]
        return self.spec.bivector(x) + E - E.swapaxes(-1, -2)


BIG = BracketSpec("S", 2.0 - 1.0j, n=7, d=7)


def test_big_probe_stack_spans_several_blocks():
    assert 2 * BIG.dim * BIG.dim * BIG.dim > verify._BLOCK_ENTRIES


def test_blocked_residual_matches_per_probe_on_poisson_bracket():
    x = sampling.sample_vector(42, 0, BIG.dim, 1.0)
    POLY = DiffScheme(step=1e-2, richardson=False)
    got, want = jacobi_residual(BIG, x, POLY), _jacobi_per_probe(BIG, x, POLY)
    assert got < 1e-10 and want < 1e-10
    assert abs(got - want) < 1e-11


@pytest.mark.parametrize(
    "scheme",
    [
        DiffScheme(step=1e-2, richardson=False),
        DiffScheme(step=1e-3, richardson=True),
    ],
    ids=["real-axis", "richardson"],
)
def test_blocked_residual_matches_per_probe(scheme):
    spec = _Perturbed(BIG)
    x = sampling.sample_vector(42, 1, BIG.dim, 1.0)
    got, want = jacobi_residual(spec, x, scheme), _jacobi_per_probe(spec, x, scheme)
    assert want > 1e-2
    assert got == pytest.approx(want, rel=1e-12)


def test_blocked_residual_matches_per_probe_small_blocks(monkeypatch):
    # blocks of two probe pairs at dim 8: uneven last block, every kind of block edge
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 2 * 2 * 8 * 8)
    spec = _Perturbed(BracketSpec("Prime", 1j, n=2, d=2))
    x = sampling.sample_vector(3, 0, spec.dim, 1.0)
    for scheme in (DiffScheme(step=1e-2, richardson=False), DiffScheme(step=1e-3, richardson=True)):
        assert jacobi_residual(spec, x, scheme) == pytest.approx(_jacobi_per_probe(spec, x, scheme), rel=1e-12)


# --- the Jacobi residual on sample stacks -------------------------------------

POLY = DiffScheme(step=1e-2, richardson=False)
RATIONAL = DiffScheme(step=1e-3, richardson=True)
STACK_SCHEMES = [POLY, RATIONAL]
STACK_SCHEME_IDS = ["poly", "rational"]


def _per_sample_entries(spec, scheme):
    """Bivector entries of one sample's probes and its point, as jacobi_residual counts them."""
    return ((4 if scheme.richardson else 2) * spec.dim + 1) * spec.dim**2


@pytest.mark.parametrize("scheme", STACK_SCHEMES, ids=STACK_SCHEME_IDS)
@pytest.mark.parametrize("count", [1, 3, 7])
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_stacked_residual_equals_per_point(spec, count, scheme):
    X = _points(spec, count)
    got = jacobi_residual(spec, X, scheme)
    assert got.shape == (count,)
    assert type(jacobi_residual(spec, X[0], scheme)) is float
    np.testing.assert_array_equal(got, [jacobi_residual(spec, x, scheme) for x in X])


@pytest.mark.parametrize("split", ["two-samples", "coordinate-blocks"])
@pytest.mark.parametrize("scheme", STACK_SCHEMES, ids=STACK_SCHEME_IDS)
@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.kind)
def test_stacked_residual_equals_per_point_small_blocks(monkeypatch, spec, scheme, split):
    X = _points(spec, 7)
    want = [jacobi_residual(spec, x, scheme) for x in X]
    per_coordinate = (4 if scheme.richardson else 2) * spec.dim**2
    if split == "two-samples":  # chunks of two samples, the last one alone, each in one call
        cap, calls_wanted = 2 * _per_sample_entries(spec, scheme), 4
    else:  # one sample at a time, in blocks of two coordinates
        cap, calls_wanted = 2 * per_coordinate, 7 * -(-spec.dim // 2)
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", cap)
    real = type(spec).bivector
    calls = []

    def counted(self, x):
        calls.append(len(x))
        return real(self, x)

    monkeypatch.setattr(type(spec), "bivector", counted)
    np.testing.assert_array_equal(jacobi_residual(spec, X, scheme), want)
    assert len(calls) == calls_wanted


# the matrix-group charts take any entries; the point containers of the
# others reject non-finite coordinates
NAN_CHARTS = ("GLmult", "Double", "STS")


@pytest.mark.parametrize("spec", [s for s in SPECS if s.kind in NAN_CHARTS], ids=lambda s: s.kind)
def test_nan_sample_stays_in_its_row(monkeypatch, spec):
    # chunks of two samples, so the NaN sample shares its bivector calls with a finite one
    monkeypatch.setattr(verify, "_BLOCK_ENTRIES", 2 * _per_sample_entries(spec, POLY))
    X = _points(spec, 5)
    want = jacobi_residual(spec, X, POLY)
    X[2, 0] = np.nan
    got = jacobi_residual(spec, X, POLY)
    assert np.isnan(got[2])
    np.testing.assert_array_equal(np.delete(got, 2), np.delete(want, 2))


@pytest.mark.parametrize("spec", [s for s in SPECS if s.kind not in NAN_CHARTS], ids=lambda s: s.kind)
def test_nan_sample_rejected_by_point_chart(spec):
    X = _points(spec, 3)
    X[1, 0] = np.nan
    with pytest.raises(ValueError):
        jacobi_residual(spec, X, POLY)


def test_residual_rejects_wrong_shapes():
    spec = BracketSpec("S", 1.0, n=2, d=2)
    for bad in (np.zeros(7), np.zeros((2, 7)), np.zeros((2, 3, 8))):
        with pytest.raises(ValueError):
            jacobi_residual(spec, bad, POLY)


@pytest.mark.parametrize("dim,radius", [(1, 1.0), (8, 0.3), (32, 1.0)])
def test_sample_vectors_rows_equal_sample_vector(dim, radius):
    indices = np.array([0, 5, 1, 99])
    X = sampling.sample_vectors(42, indices, dim, radius)
    assert X.shape == (4, dim)
    for row, i in zip(X, indices):
        np.testing.assert_array_equal(row, sampling.sample_vector(42, i, dim, radius))


# --- call counts of the suites --------------------------------------------------


def test_jacobi_suite_bivector_calls_do_not_grow_with_samples(monkeypatch):
    real = BracketSpec.bivector
    calls = []

    def counted(self, x):
        calls.append(self.kind)
        return real(self, x)

    monkeypatch.setattr(BracketSpec, "bivector", counted)
    counts = []
    for samples in (2, 6):
        calls.clear()
        assert suites.run_suite(suites.RunConfig("jacobi", n=2, d=2, ell=2, samples=samples)).ok
        counts.append(len(calls))
    assert counts[0] > 0
    assert counts[0] == counts[1], f"bivector calls grow with the sample count: {counts}"


def test_moment_suite_takes_three_jacobians_per_sample(monkeypatch):
    cfg = suites.RunConfig("moment", n=3, d=2, samples=4)
    params, count, check = suites._BUILDERS["moment"](cfg)
    real = verify.jacobian_fd
    calls = []

    def counted(f, x, scheme=DiffScheme()):
        calls.append(scheme)
        return real(f, x, scheme)

    monkeypatch.setattr(verify, "jacobian_fd", counted)
    got = check(np.arange(count))
    assert len(calls) == 3 * count
    monkeypatch.setattr(verify, "jacobian_fd", real)
    # each key as the two whole-set calls, one per scheme, give it
    for i in range(count):
        p = sampling.sample_spoint(cfg.seed, i, cfg.n, cfg.d, cfg.radius)
        exact = verify.moment_residuals(cfg.kappa, p, suites._POLY)
        fine = verify.moment_residuals(cfg.kappa, p, suites._FD)
        for key in params["bounds"]:
            want = (fine if key.startswith("mom1_") else exact)[key]
            assert got[key][i] == want, key


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


@pytest.mark.parametrize("fn", [dc.guard_tuple, dc.map_m, dc.map_F], ids=["guard", "map_m", "map_F"])
def test_domain_escape_in_last_point_of_stack(fn):
    X = _tuple_stack((5,))
    X[-1, -2 * N :] = 0.8  # last copy of the last tuple: ||a||*||b|| = 3 * 0.64
    fn(charts.unpack_tuple(X[:-1], N, D))
    with pytest.raises(DomainEscape):
        fn(charts.unpack_tuple(X, N, D))


def test_spin_tuple_rejects_mixed_batch_axes():
    with pytest.raises(ValueError):
        SpinTuple([SpinPoint.zero(2), SpinPoint(np.zeros((3, 2)), np.zeros((3, 2)))])
