import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst
from hypothesis.extra import numpy as hnp

from wulffkit import (
    DomainError,
    EuclideanNorm,
    InputError,
    QuadraticNorm,
    WeightedSum,
)
from wulffkit.integrand import _row_norm, _row_sum, tangential_hessian
from wulffkit.spheregrid import tangent_frames

from oracles import fd_jacobian

E2 = EuclideanNorm(2)
Q2 = QuadraticNorm(np.diag([4.0, 1.0]))
W2 = WeightedSum(((0.5, E2), (1.0, Q2)))
FAMILIES = [E2, Q2, W2, EuclideanNorm(3), QuadraticNorm(np.diag([4.0, 1.0, 1.0]))]


def random_points(f, n, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, f.dim)) * rng.uniform(0.2, 3.0, size=(n, 1))
    return x[np.linalg.norm(x, axis=1) > 1e-3]


def test_evaluate_examples():
    assert E2.value([[3.0, 4.0]])[0] == pytest.approx(5.0, abs=1e-15)
    assert Q2.value([[1.0, 0.0]])[0] == pytest.approx(2.0, abs=1e-15)
    assert E2.value([[0.0, 0.0]])[0] == 0.0


def test_evaluate_rejects_nonfinite():
    with pytest.raises(InputError):
        E2.value([[np.nan, 1.0]])
    with pytest.raises(InputError):
        Q2.value([[np.inf, 0.0]])


@pytest.mark.parametrize("f", FAMILIES)
def test_homogeneity(f):
    rng = np.random.default_rng(1)
    x = random_points(f, 1000, seed=1)
    lam = rng.uniform(-4.0, 4.0, size=len(x))
    lam[np.abs(lam) < 1e-3] = 1.0
    fx = f.value(x)
    flx = f.value(lam[:, None] * x)
    assert np.all(np.abs(flx - np.abs(lam) * fx) <= 1e-12 * np.abs(lam) * fx)


@given(hst.floats(-5, 5), hst.floats(-5, 5), hst.floats(-8, 8))
@settings(max_examples=200, deadline=None)
def test_homogeneity_hypothesis(x1, x2, lam):
    x = np.array([[x1, x2]])
    if np.linalg.norm(x) < 1e-3:
        return
    assert Q2.value(lam * x)[0] == pytest.approx(abs(lam) * Q2.value(x)[0], rel=1e-12, abs=1e-12)


ENTRIES = hst.one_of(
    hst.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-300, 1e-160, 1e160, 1e300, -1.7e308]),
    hst.floats(allow_nan=False),
)


@given(
    hst.sampled_from([2, 3]).flatmap(
        lambda d: hnp.arrays(float, hst.tuples(hst.integers(0, 40), hst.just(d)), elements=ENTRIES)
    )
)
@settings(max_examples=300, deadline=None)
def test_row_reductions_are_numpys_bit_for_bit(x):
    # zero, subnormal, tiny and huge rows, whose squares underflow or
    # overflow, on C-ordered rows and on the transposed view of a
    # component-major array
    with np.errstate(over="ignore", invalid="ignore"):
        for rows in (x, np.ascontiguousarray(x.T).T):
            assert _row_sum(rows).tobytes() == rows.sum(axis=1).tobytes()
            assert _row_norm(rows).tobytes() == np.linalg.norm(rows, axis=1).tobytes()


@pytest.mark.parametrize("dim", [2, 3])
def test_value_of_a_transposed_view_is_that_of_its_rows(dim):
    # the variation push evaluates a component-major (d, N) array as its
    # transposed (N, d) view; the quadratic form keeps that layout
    e, q = EuclideanNorm(dim), QuadraticNorm(np.diag([4.0, 1.0, 2.5][:dim]) + 0.3)
    rng = np.random.default_rng(dim)
    view = rng.standard_normal((dim, 1000)).T
    rows = np.ascontiguousarray(view)
    for f in (e, q, WeightedSum(((0.4, e), (0.6, q)))):
        assert np.array_equal(f.value(view), f.value(rows))


def test_gradient_examples():
    assert E2.grad([[3.0, 4.0]])[0] == pytest.approx([0.6, 0.8], abs=1e-15)
    assert Q2.grad([[1.0, 0.0]])[0] == pytest.approx([2.0, 0.0], abs=1e-15)


@pytest.mark.parametrize("f", FAMILIES)
def test_euler_relation(f):
    x = random_points(f, 1000, seed=2)
    fx = f.value(x)
    dots = np.einsum("ni,ni->n", x, f.grad(x))
    assert np.all(np.abs(dots - fx) <= 1e-12 * fx)


def test_gradient_at_origin_is_domain_error():
    with pytest.raises(DomainError):
        E2.grad([[0.0, 0.0]])
    with pytest.raises(DomainError):
        Q2.hess([[0.0, 0.0]])


def test_hessian_examples():
    assert E2.hess([[1.0, 0.0]])[0] == pytest.approx(np.array([[0.0, 0.0], [0.0, 1.0]]), abs=1e-15)
    assert Q2.hess([[1.0, 0.0]])[0] == pytest.approx(np.array([[0.0, 0.0], [0.0, 0.5]]), abs=1e-15)


@pytest.mark.parametrize("f", [Q2, W2])
def test_hessian_matches_finite_difference_gradient(f):
    # closed form cross-checked against central differences with step 1e-5
    x = np.array([0.7, -1.3])[: f.dim]
    fd = fd_jacobian(lambda y: f.grad(y[None])[0], x, h=1e-5)
    assert np.abs(f.hess(x[None])[0] - 0.5 * (fd + fd.T)).max() < 1e-9


@pytest.mark.parametrize("f", FAMILIES)
def test_hessian_kernel_and_scaling(f):
    x = random_points(f, 200, seed=3)
    h = f.hess(x)
    kernel = np.einsum("nij,nj->ni", h, x)
    bound = 1e-10 * np.linalg.norm(h, axis=(1, 2)) * np.linalg.norm(x, axis=1)
    assert np.all(np.linalg.norm(kernel, axis=1) <= bound + 1e-15)
    lam = 2.5
    assert np.allclose(f.hess(lam * x), h / lam, rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("f", FAMILIES)
def test_gradient_hessian_fd_order(f):
    rng = np.random.default_rng(4)
    x = rng.standard_normal(f.dim) * 1.7
    errs = []
    for h in (1e-3, 1e-4):
        fd = fd_jacobian(lambda y: f.grad(y[None])[0], x, h=h)
        errs.append(np.abs(fd - f.hess(x[None])[0]).max())
    order = np.log10(errs[0] / errs[1])
    assert order >= 1.9


def test_ellipticity_is_the_least_tangential_eigenvalue_in_3d():
    # at u = +-e1 the tangent plane holds e2 and e3, where D^2 of 0.4|x| is 1
    # and D^2 of sqrt(x'Mx) is diag(1, 2) / sqrt(3)
    f = WeightedSum(
        ((0.4, EuclideanNorm(3)), (0.6, QuadraticNorm(np.diag([3.0, 1.0, 2.0]))))
    )
    u = np.array([[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]])
    least = np.linalg.eigvalsh(tangential_hessian(f, u, tangent_frames(u)))[:, 0]
    assert least == pytest.approx(0.4 + 0.6 / np.sqrt(3.0), abs=1e-12)


def test_weighted_sum_validation():
    with pytest.raises(InputError):
        WeightedSum(((-1.0, E2),))
    with pytest.raises(InputError):
        WeightedSum(())
    with pytest.raises(InputError):
        WeightedSum(((1.0, E2), (1.0, EuclideanNorm(3))))


def test_weighted_sum_checks_its_rows_once_per_call(monkeypatch):
    from wulffkit import integrand

    calls = []
    finite_rows = integrand._finite_rows

    def counted(x, dim):
        calls.append(dim)
        return finite_rows(x, dim)

    monkeypatch.setattr(integrand, "_finite_rows", counted)
    nested = WeightedSum(((2.0, W2), (0.25, QuadraticNorm(np.array([[2.0, 0.5], [0.5, 1.0]])))))
    x = random_points(W2, 50)
    for f in (W2, nested):
        for method in ("value", "grad"):
            calls.clear()
            got = getattr(f, method)(x)
            assert calls == [2]
            # the bits of the sum of the terms' own checked calls
            assert np.array_equal(got, sum(w * getattr(t, method)(x) for w, t in f.terms))
        with pytest.raises(InputError):
            f.value([[np.nan, 1.0]])
        with pytest.raises(DomainError):
            f.grad([[1.0, 0.0], [0.0, 0.0]])


@pytest.mark.parametrize("dim", [2.5, np.nan, np.inf])
def test_euclidean_dimension_must_be_whole(dim):
    # a fractional dimension would construct, then refuse every input
    with pytest.raises(InputError, match="ambient dimension must be a whole number"):
        EuclideanNorm(dim)
    assert EuclideanNorm(3.0).dim == 3


def test_quadratic_validation():
    with pytest.raises(InputError):
        QuadraticNorm(np.array([[1.0, 2.0], [0.0, 1.0]]))  # not symmetric
    with pytest.raises(InputError):
        QuadraticNorm(np.diag([1.0, -1.0]))  # not positive definite
    with pytest.raises(InputError):
        EuclideanNorm(1)
