"""Numeric layer: zeros, quadrature, moments, transforms, erratum audit.

Independent references used here: a dense LAPACK eigensolve of the same
tridiagonal matrix, closed-form radicals for the sizes whose characteristic
polynomials are biquadratic, exact trace identities, and the zeta closed
forms from the scalar layer.
"""

import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from mlpoly.analysis import (_spectra, ft_numeric, ft_numeric_grid, gram_deviation,
                             member_values, moment, orthogonality_matrix, zeros, zeros_range,
                             _gram_envelope, _interlaces_below, _panel_points, _panel_sum,
                             _unit_panel, _weight_array)
from mlpoly.floats import (_off_diagonal, ft_closed, make_quad_config, _bracket, _coeff_norm,
                           _ft_sinh_form, _log_envelope, _tail_sum)
from mlpoly.report import CheckStatus
from mlpoly.sequences import RECURRENCES, SeqKind, generate
from mlpoly.suite import _FT_S_GRID, audit_suite

F = Fraction


def test_jacobi_matrix_entries():
    assert _off_diagonal(4) == pytest.approx(
        [math.sqrt(2) / 2, math.sqrt(6) / 2, math.sqrt(3)])
    with pytest.raises(ValueError):
        _off_diagonal(0)


def test_zeros_closed_form_members():
    assert zeros(1) == [0.0]
    assert zeros(2) == pytest.approx([-math.sqrt(0.5), math.sqrt(0.5)], abs=1e-9)
    assert zeros(3) == pytest.approx([-math.sqrt(2), 0.0, math.sqrt(2)], abs=1e-9)
    # sizes 4 and 5 factor through a quadratic in x^2
    assert zeros(4)[-1] == pytest.approx(math.sqrt((5 + math.sqrt(19)) / 2), abs=1e-9)
    assert zeros(5)[-1] == pytest.approx(math.sqrt(5 + 1.5 * math.sqrt(6)), abs=1e-9)


def test_zeros_match_dense_eigensolver():
    for n in (2, 3, 6, 9, 13):
        b = [math.sqrt(k * (k + 1)) / 2 for k in range(1, n)]
        dense = np.sort(np.linalg.eigvalsh(np.diag(b, 1) + np.diag(b, -1)))
        assert zeros(n) == pytest.approx(list(dense), abs=1e-9)


def test_zeros_are_exactly_antisymmetric():
    for n in (4, 7, 10):
        zs = zeros(n)
        for k in range(n):
            assert zs[k] == -zs[n - 1 - k]
        if n % 2 == 1:
            assert zs[n // 2] == 0.0


def test_zeros_trace_identity():
    # sum of squared zeros = trace of J^2 = sum k(k+1)/2
    for n in (3, 8, 16):
        expected = sum(k * (k + 1) for k in range(1, n)) / 2.0
        assert sum(z * z for z in zeros(n)) == pytest.approx(expected, rel=1e-10)


def test_zeros_annihilate_the_polynomial():
    tab = generate(SeqKind.PHI_MONIC, 12)
    for n in (2, 5, 8, 12):
        p = tab[n]
        scale = max(abs(float(c)) for c in p.coeffs)
        for z in zeros(n):
            assert abs(p(z)) < 1e-6 * scale


def test_zeros_bound_and_interlacing_hold_up_to_24():
    previous = zeros(1)
    for n in range(2, 25):
        zs = zeros(n)  # internal bound and interlacing checks run here
        assert max(abs(z) for z in zs) < math.sqrt(n * (n - 1))
        for k in range(n - 1):
            assert zs[k] < previous[k] < zs[k + 1]
        previous = zs


def test_zeros_input_validation():
    with pytest.raises(ValueError):
        zeros(0)
    for tol in (0.0, math.nan, math.inf, 10.0):  # 10 is too wide to separate the zeros
        with pytest.raises(ValueError):
            zeros(3, tol=tol)
    with pytest.raises(ValueError, match="empty size range"):
        zeros_range(5, 4)


def _scalar_zeros(n, tol, guarded=None):
    """Reference: the one-eigenvalue-at-a-time Sturm bisection the lane sweep replaced.

    `guarded`, if given, collects the bisection step of every pivot the guard replaces.
    """
    off_sq = [b * b for b in _off_diagonal(n)]
    pivmin = max(1e-290, 2.3e-16 * max(off_sq, default=1.0))
    bound = math.sqrt(n * (n - 1)) + 1.0 if n > 1 else 1.0

    def count_below(x, step):  # the number of negative pivots of J - x I
        count = 0
        d = -x
        if abs(d) < pivmin:
            d = -pivmin
            if guarded is not None:
                guarded.append(step)
        if d < 0:
            count += 1
        for bsq in off_sq:
            d = -x - bsq / d
            if abs(d) < pivmin:
                d = -pivmin
                if guarded is not None:
                    guarded.append(step)
            if d < 0:
                count += 1
        return count

    out = []
    for k in range(n):
        lo, hi = -bound, bound
        for step in range(200):
            if hi - lo <= tol:
                break
            mid = 0.5 * (lo + hi)
            if count_below(mid, step) <= k:
                lo = mid
            else:
                hi = mid
        out.append(0.5 * (lo + hi))
    out = [0.5 * (out[k] - out[n - 1 - k]) for k in range(n)]
    if n % 2 == 1:
        out[n // 2] = 0.0
    return out


@pytest.mark.parametrize("tol", [1e-12, 1e-9])
def test_zeros_equal_the_scalar_bisection_bit_for_bit(tol):
    for n in range(1, 61):
        assert zeros(n, tol) == _scalar_zeros(n, tol), n


@pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-3])
def test_the_lane_sweep_equals_the_scalar_bisection(tol):
    # every size 1..40 in one sweep, so lanes of many sizes share each block of pivots
    found = _spectra(range(1, 41), tol)
    assert all(found[n] == _scalar_zeros(n, tol) for n in range(1, 41))
    # at 137 the guard fires after step 0, so the sweep reruns blocks with it
    guarded = []
    assert _spectra([137], tol)[137] == _scalar_zeros(137, tol, guarded)
    if tol < 1e-3:
        assert max(guarded) > 0


def test_the_guard_reruns_only_the_lanes_it_may_fire_in(monkeypatch):
    # at odd n >= 293 the interlacing count's points -d and +d around the middle zero 0
    # make pivots below pivmin in every block of 32 pivot rows of size 292: at -d (lane 146)
    # in all 10 blocks, at +d (lane 439) in the first; only those lanes are rerun with the
    # guard, the other 584 of the 586 keep their unguarded pivots
    from mlpoly import analysis
    zs = zeros(293)
    reruns = []
    true_rerun = analysis._SturmLanes._guarded_lane

    def recorded(lanes, bare, lane):
        reruns.append(lane)
        true_rerun(lanes, bare, lane)

    monkeypatch.setattr(analysis._SturmLanes, "_guarded_lane", recorded)
    assert _interlaces_below(zs, 1e-12)
    assert reruns == [146, 439] + [146] * 9  # the lanes rerun, block by block
    # the zeros of a lane sweep in which the guard fires are the scalar bisection's
    reruns.clear()
    for n in (137, 293):
        assert _spectra([n], 1e-12)[n] == _scalar_zeros(n, 1e-12), n
    assert reruns


def _scalar_count(off_sq, x):
    """Reference: the Sturm count of J - x I, the guarded pivots one at a time."""
    pivmin = max(1e-290, 2.3e-16 * max(off_sq, default=1.0))
    count, d = 0, 1.0
    for bsq in (0.0, *off_sq):
        d = -x - bsq / d
        if abs(d) < pivmin:
            d = -pivmin
        count += d < 0
    return count


def test_the_lane_count_is_the_scalar_count_where_guards_fire():
    # lanes of many sizes, ending in several blocks, at points where the guard fires in
    # some lanes of a block and not in others: 0 and +-tiny (the middle zero of odd
    # sizes), zeros themselves and their float neighbours
    from mlpoly import analysis
    sizes = np.repeat(np.arange(140, 1, -9), 9)
    points = np.tile([0.0, -0.0, 5e-324, -1e-300, 1e-14, -1e-9, 1.0, -2.5, 40.0], 16)
    for n in (32, 77, 140):
        at = np.flatnonzero(sizes == n)
        z = np.array(zeros(n))[:at.size]
        points[at] = np.where(np.arange(at.size) % 2, np.nextafter(z, np.inf), z)
    off = np.array(_off_diagonal(int(sizes[0])))
    lanes = analysis._SturmLanes(off, sizes, np.zeros(sizes.size, dtype=np.int64))
    expected = [_scalar_count([b * b for b in _off_diagonal(int(m))], float(x))
                for m, x in zip(sizes, points)]
    assert lanes.count(points).tolist() == expected


def test_zeros_digests_are_frozen():
    # sha256 of repr([zeros(n) ...]) as the one-eigenvalue-at-a-time bisection printed them
    sizes = (24, 51, 78, 105, 131, 158, 185, 212, 239, 266, 293, 319, 346, 373, 400)
    digest = hashlib.sha256(repr([zeros(n) for n in sizes]).encode()).hexdigest()
    assert digest == "4185cabdeaa31f91ba7d1d2b74740647cc2c041aad77812ba61a071fd68c8e80"
    digest = hashlib.sha256(repr([zeros(n) for n in range(1, 81)]).encode()).hexdigest()
    assert digest == "a5f716ecd61667926813258618218fed53ba26077ab44ce1742c6fa74e9f5e7c"


def test_zeros_digests_at_the_ceiling_are_frozen():
    # the eigenvalue estimates drift further from the zeros as n grows (14 eps * bound at
    # 2000), so the largest sizes are pinned too; sha256 as the bisection without
    # estimates printed them
    for n, expected in ((1000, "58d4a5b6ee6c8dd57e30ae8fc3d27767db5ffe16166406cb15748e8bc2d0ec8d"),
                        (2000, "da435e4a64818cd94eb2eb587c2b555818daa0af1b0ea503c6178dd921a18701")):
        assert hashlib.sha256(repr(zeros(n)).encode()).hexdigest() == expected, n


def _lane_bounds(sizes):
    """The bound of each lane of a sweep of sizes, in the order of _eigen_estimates."""
    sizes = sorted(set(sizes), reverse=True)
    return np.repeat([_bracket(n) for n in sizes], [n - n % 2 for n in sizes])


@pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-3])
def test_a_wrong_estimate_costs_counts_and_never_bits(monkeypatch, tol):
    # at 0.0 and shifted by 1 no lane certifies, so every step counts; scaled by
    # 1 + 2^-40 the largest eigenvalues miss both brackets and count at every step,
    # while the smallest still certify; moved by 20 eps * bound, a few lanes miss the
    # tight bracket and the wide one certifies them, on a Sturm count of those lanes alone
    from mlpoly import analysis
    true_estimates, true_init = analysis._eigen_estimates, analysis._SturmLanes.__init__
    expected = {n: _scalar_zeros(n, tol) for n in (*range(1, 41), 137)}
    eps = np.finfo(float).eps

    def picked(lanes):  # the lanes the moved estimate misses the tight bracket at
        return [0, 7, lanes // 2, lanes - 1]

    def moved(sizes, off):
        est = true_estimates(sizes, off)
        est[picked(est.size)] += 20.0 * eps * _lane_bounds(sizes)[picked(est.size)]
        return est

    for wrong in (lambda sizes, off: np.zeros_like(true_estimates(sizes, off)),
                  lambda sizes, off: true_estimates(sizes, off) + 1.0,
                  lambda sizes, off: true_estimates(sizes, off) * (1.0 + 2.0**-40),
                  moved):
        monkeypatch.setattr(analysis, "_eigen_estimates", wrong)
        found = _spectra(range(1, 41), tol)
        assert all(found[n] == expected[n] for n in range(1, 41))
        assert _spectra([137], tol)[137] == expected[137]

    built = []  # the size and rank of the lanes of each _SturmLanes

    def recorded(lanes, off, size, rank):
        built.append((size.copy(), rank.copy()))
        true_init(lanes, off, size, rank)

    monkeypatch.setattr(analysis._SturmLanes, "__init__", recorded)
    for sizes in (range(1, 41), [137]):
        built.clear()
        _spectra(sizes, tol)
        (size, rank), (fallback_size, fallback_rank) = built  # all lanes, then the missed
        assert np.array_equal(fallback_size, size[picked(size.size)]), sizes
        assert np.array_equal(fallback_rank, rank[picked(size.size)]), sizes


def test_the_estimates_spare_most_counts(monkeypatch):
    # a broken estimate costs counts and no bit, so only the work can show it: the tight
    # bracket certifies every lane of the digest sizes and of the numeric suite's sweep,
    # some bracket every lane at the ceiling, and zeros(400) counts at most 5 times (5
    # measured), where the bisection without estimates counts at each of its 50 steps;
    # the 15 digest sizes count 65 times in all (102 with the wide bracket alone), and
    # zeros(1000) and zeros(2000) count all their lanes at most 6 times (8 and 9 with the
    # wide bracket alone)
    from mlpoly import analysis
    true_count = analysis._SturmLanes.count
    calls = []

    def recorded(lanes, x):
        out = true_count(lanes, x)
        calls.append((lanes, out.copy()))
        return out

    def missed():  # the lanes the tight bracket's two counts, the first of a call, miss
        (lanes, at_lower), (_, at_upper) = calls[:2]
        return ~((at_lower <= lanes.rank) & (at_upper > lanes.rank))

    def wide_certifies(missed):  # the next two counts, on the missed lanes alone, hold them
        lanes, (wide, at_lower), (same, at_upper) = calls[0][0], *calls[2:4]
        return (wide is same is not lanes and np.array_equal(wide.rank, lanes.rank[missed])
                and np.all(at_lower <= wide.rank) and np.all(at_upper > wide.rank))

    monkeypatch.setattr(analysis._SturmLanes, "count", recorded)
    zeros(400)
    assert len(calls) <= 5 and not missed().any()
    total = len(calls)
    for n in (24, 51, 78, 105, 131, 158, 185, 212, 239, 266, 293, 319, 346, 373):
        calls.clear()
        zeros(n)
        total += len(calls)
        assert not missed().any(), n
    assert total <= 65
    calls.clear()
    zeros_range(1, 24)
    assert not missed().any()
    for n in (1000, 2000):  # the steps left once only missed lanes wait count those alone
        calls.clear()
        zeros(n)
        assert not missed().any() or wide_certifies(missed()), n
        assert sum(lanes.rank.size == n for lanes, _ in calls) <= 6, n  # 5 and 6 measured


def test_zeros_digests_below_the_float_spacing_are_frozen():
    # tols below the spacing of the larger zeros, where a lane's bracket stops moving;
    # sha256 as the sweep printed them when it ran every such lane for all 200 steps
    digest = hashlib.sha256(repr(zeros(400, 1e-15)).encode()).hexdigest()
    assert digest == "6e8d28ab73f868bd16020bab8c442abde9fb790f131d695de26d5ceb319d3d75"
    found = zeros_range(1, 80, 1e-14)
    digest = hashlib.sha256(repr([found[n] for n in range(1, 81)]).encode()).hexdigest()
    assert digest == "a07b3e218c155f998ea1bd68760c2912d7814fbd269f361db0da7c5c1c9e1b70"


@pytest.mark.parametrize("tol", [1e-15, 1e-300])
def test_zeros_below_the_float_spacing_equal_the_scalar_bisection(tol):
    for n in (39, 40):
        assert zeros(n, tol) == _scalar_zeros(n, tol), n


def test_zeros_range_agrees_with_zeros_size_by_size():
    # up to 80, so that sizes end inside a later block of pivot rows of the sweep
    found = zeros_range(1, 80)
    assert list(found) == list(range(1, 81))
    assert all(found[n] == zeros(n) for n in found)


def test_zeros_bisects_each_size_once_over_a_run(monkeypatch):
    from mlpoly import floats
    from mlpoly.suite import run_suite
    sweeps = []
    true_spectra = floats._spectra

    def recorded(hi, tol):
        sweeps.append(hi)
        return true_spectra(hi, tol)

    monkeypatch.setattr(floats, "_spectra", recorded)
    run_suite("numeric")
    assert sweeps == [24]  # the zeros-reference sizes 1..24, in one sweep


def test_zeros_hands_out_a_list_of_its_own():
    zs = zeros(5)
    zs[0] = 99.0
    assert zeros(5)[0] != 99.0


def _outcome(fn, *args):
    try:
        return fn(*args)
    except (ValueError, RuntimeError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tol", [1e-300, 1e-15, 1e-12, 1e-6, 1e-3, 0.3, 10.0])
def test_the_counted_interlacing_gives_what_bisecting_both_sizes_gives(monkeypatch, tol):
    # zeros(n) proves its interlacing with size n - 1 by one count where it can; without
    # the count it bisects n - 1 and compares, and zeros_range(n - 1, n) bisects both
    from mlpoly import analysis
    sizes = (*range(2, 65), 137, 400)
    counted = {n: _outcome(zeros, n, tol) for n in sizes}
    analysis._zeros.cache_clear()
    monkeypatch.setattr(analysis, "_interlaces_below", lambda zs, tol: False)
    for n in sizes:
        assert _outcome(zeros, n, tol) == counted[n], n
        swept = _outcome(lambda: zeros_range(n - 1, n, tol)[n])
        if swept != counted[n]:  # zeros_range refused size n - 1, which zeros(n) never checks
            assert swept[0] is ValueError and f"sizes {n - 2} and {n - 1} " in swept[1], n


def test_zeros_bisects_the_size_it_prints_and_falls_back_where_no_count_proves_it(monkeypatch):
    from mlpoly import analysis
    sweeps = []
    true_spectra = analysis._spectra

    def recorded(sizes, tol):
        sweeps.append(list(sizes))
        return true_spectra(sizes, tol)

    monkeypatch.setattr(analysis, "_spectra", recorded)
    zeros(400)
    assert sweeps == [[400]]
    sweeps.clear()
    with pytest.raises(ValueError, match="cannot separate the zeros of sizes 2 and 3"):
        zeros(3, 10.0)
    assert sweeps == [[3], [2]]


def test_a_zero_past_the_bound_is_refused(monkeypatch):
    from mlpoly import analysis
    true_spectra = analysis._spectra

    def doubled(sizes, tol):  # still antisymmetric, and past sqrt(20) at size 5
        return {n: [2.0 * z for z in zs] for n, zs in true_spectra(sizes, tol).items()}

    monkeypatch.setattr(analysis, "_spectra", doubled)
    with pytest.raises(RuntimeError, match=r"zero bound sqrt\(n\(n-1\)\) violated at n = 5"):
        zeros(5)


def test_weight_values():
    w = _weight_array(np.array([0.0, 0.5, -1.25, 1.25, 250.0]))
    assert w[0] == 1.0 / math.pi
    assert w[1] == pytest.approx(0.5 / math.sinh(math.pi / 2), rel=1e-15)
    assert w[2] == w[3]
    assert w[4] == 0.0  # sinh overflows, and t/inf = 0


def test_weight_array_overflow_is_silent():
    # sinh(250 pi) overflows to inf, and t/inf = 0 is the correct weight
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _weight_array(np.array([250.0]))[0] == 0.0


def _monomial(degree, coeff=1.0):
    """The tail envelope of coeff * t^degree."""
    return (0.0,) * degree + (coeff,)


def _two_sided(f, truncation):
    """Reference: the rule's sum of a vectorized integrand over both halves of [-T, T],
    T = truncation."""
    pts, allw = _panel_points(truncation)
    return _panel_sum(allw, np.asarray(f(pts), dtype=float))


def test_weight_total_mass():
    cfg = make_quad_config(_monomial(2), abs_tol=1e-11)
    total = _two_sided(_weight_array, cfg)
    assert total == pytest.approx(0.5, abs=1e-10)


def test_make_quad_config_grows_with_degree():
    small = make_quad_config(_monomial(1))
    large = make_quad_config(_monomial(25))
    assert large >= small
    assert small >= 4.0
    for envelope in ((), (1.0, -1.0), (0.0, math.nan), (math.inf,)):
        with pytest.raises(ValueError, match="invalid quadrature envelope"):
            make_quad_config(envelope)
    with pytest.raises(ValueError):
        make_quad_config(_monomial(2), abs_tol=0.0)


def _scanned_truncation(envelope, abs_tol, rate):
    """Reference: the first T = 4, 5, ..., 399 whose tail bound clears abs_tol/2."""
    log_envelope = _log_envelope(envelope)
    for upper in range(4, 400):
        sinh_bound = 2.0 / (1.0 - math.exp(-2.0 * rate * upper))
        if 2.0 * sinh_bound * _tail_sum(log_envelope, rate, float(upper)) < 0.5 * abs_tol:
            return float(upper)
    return None


def test_make_quad_config_equals_the_linear_scan():
    # every parameter set the package reaches: moments, quad (the Gram envelope), ft
    cases = [(_monomial(n), 1e-10, 1.0) for n in range(1, 63)]
    cases += [(_gram_envelope(n), 1e-10, math.pi) for n in range(114)]
    monic = generate(SeqKind.PHI_MONIC, 120)
    cases += [(_monomial(n + 1, _coeff_norm(monic[n])), 1e-9, math.pi) for n in range(121)]
    # the two ends of the range: T = 4, and a bound that clears at 399 but not at 398
    cases += [((1.0,), 1.0, math.pi), (_monomial(300, 3.7e-247), 1e-10, math.pi)]
    for case in cases:
        assert make_quad_config(*case) == _scanned_truncation(*case), case
    assert make_quad_config((1.0,), 1.0) == 4.0
    assert make_quad_config(_monomial(300, 3.7e-247)) == 399.0
    # T = 399 fails, so every smaller T does too
    assert _scanned_truncation(_monomial(250), 1e-10, math.pi) is None
    with pytest.raises(ValueError, match="no truncation below 400"):
        make_quad_config(_monomial(250))


def test_the_panel_sum_rejects_a_non_finite_integrand():
    cfg = make_quad_config(_monomial(2))
    for bad in (np.inf, -np.inf, np.nan):
        with pytest.raises(ValueError, match="non-finite"):
            _two_sided(lambda t: np.full_like(t, bad), cfg)


def test_orthogonality_matrix_13x13():
    mat = orthogonality_matrix(12)
    for i in range(13):
        for j in range(13):
            target = 2.0 / (i + 1.0) if i == j else 0.0
            assert abs(mat[i, j] - target) < 1e-8, (i, j)


def test_orthogonality_matrix_is_exactly_symmetric():
    for n in (1, 12, 45):
        mat = orthogonality_matrix(n)
        assert np.array_equal(mat, mat.T), n


def test_a_patched_family_gets_a_gram_matrix_and_zeros_of_its_own(monkeypatch, perturb):
    # the memo keys each result by the RECURRENCES entry it reads, and a frozen
    # Recurrence hashes by its fields, so a replaced entry is never served the old result
    intact_gram, intact_zeros = orthogonality_matrix(12), zeros(24)
    perturb(SeqKind.PHI, "b", 1, 3)
    broken = perturb(SeqKind.PHI_MONIC, "b", -1, 3)
    assert gram_deviation(orthogonality_matrix(12)) > 1e-3  # p_4 onward are not orthogonal
    off = [math.sqrt(-broken.b(k)) for k in range(1, 24)]
    dense = np.linalg.eigvalsh(np.diag(off, 1) + np.diag(off, -1))
    assert zeros(24) == pytest.approx(list(dense), abs=1e-9)
    assert zeros(24) != pytest.approx(intact_zeros, abs=1e-3)
    monkeypatch.undo()
    assert orthogonality_matrix(12) is intact_gram and zeros(24) == intact_zeros


def test_a_second_gram_matrix_or_zero_set_does_no_work(monkeypatch):
    from mlpoly import analysis
    rows, counts = [], []
    true_values, true_count = analysis.member_values, analysis._SturmLanes.count

    def values(kind, n_max, t):
        rows.append(t.size)
        return true_values(kind, n_max, t)

    def count(lanes, x):
        counts.append(x.size)
        return true_count(lanes, x)

    monkeypatch.setattr(analysis, "member_values", values)
    monkeypatch.setattr(analysis._SturmLanes, "count", count)
    gram, zs = orthogonality_matrix(80), zeros(400)
    assert rows and counts
    rows.clear()
    counts.clear()
    assert orthogonality_matrix(80) is gram and zeros(400) == zs
    assert rows == [] and counts == []
    with pytest.raises(ValueError, match="read-only"):  # every caller gets this one array
        gram[0, 0] = 1.0
    # a refused size raises every time, and nothing is kept for it
    for _ in range(2):
        with pytest.raises(ValueError, match="at max_n = 114 leaves the float range"):
            orthogonality_matrix(114)
    assert analysis._gram.cache_info().currsize == 1
    # every tol is a key of its own, and the zero sets kept are bounded
    for k in range(analysis._ZEROS_KEPT + 8):
        zeros(2, 1e-12 * (k + 1))
    assert analysis._zeros.cache_info().currsize == analysis._ZEROS_KEPT


# The truncation T the tail bound picks for every size served: quad --max-n 0..113,
# ft --n 0..120 and moments n = 1..62 (quad and ft refuse the next size, moments from 63).
# Frozen: neither evaluating members by their recurrence, which must not move the
# coefficients the envelopes read, nor the order of the tail sum moves one.  The ft and
# moments envelopes have one term each, and their lists equal those of the direct sum of
# the one tail integral by log k!.
FROZEN_TRUNCATIONS = {
    "quad": [9, 11, 12, 14, 15, 16, 18, 19, 20, 22, 23, 24, 26, 27, 28, 29, 31, 32, 33, 34,
        36, 37, 38, 39, 41, 42, 43, 44, 45, 47, 48, 49, 50, 52, 53, 54, 55, 57, 58, 59, 60,
        62, 63, 64, 65, 66, 68, 69, 70, 71, 73, 74, 75, 76, 78, 79, 80, 81, 83, 84, 85, 86,
        88, 89, 90, 91, 92, 94, 95, 96, 97, 99, 100, 101, 102, 104, 105, 106, 107, 109,
        110, 111, 112, 114, 115, 116, 117, 119, 120, 121, 122, 123, 125, 126, 127, 128,
        130, 131, 132, 133, 135, 136, 137, 138, 140, 141, 142, 143, 145, 146, 147, 148,
        150, 151],
    "ft": [8, 9, 10, 11, 12, 13, 15, 16, 18, 20, 21, 23, 25, 27, 29, 31, 34, 36, 38, 40, 42,
        45, 47, 50, 52,
        54, 57, 59, 62, 65, 67, 70, 72, 75, 78, 80, 83, 86, 89, 91, 94, 97, 100,
        103, 105, 108, 111, 114, 117, 120, 123, 126, 129, 132, 135, 138, 141,
        144, 147, 150, 153, 156, 159, 162, 166, 169, 172, 175, 178, 181, 185,
        188, 191, 194, 197, 201, 204, 207, 210, 214, 217, 220, 224, 227, 230,
        233, 237, 240, 243, 247, 250, 254, 257, 260, 264, 267, 271, 274, 277,
        281, 284, 288, 291, 295, 298, 301, 305, 308, 312, 315, 319, 322, 326,
        329, 333, 336, 340, 344, 347, 351, 354],
    "moments": [29, 33, 36, 40, 45, 49, 54, 58, 63, 68, 73, 78, 83, 88, 94, 99, 105, 110,
        116, 122, 128, 133, 139, 145, 151, 157, 163, 169, 176, 182, 188, 194, 201, 207, 213,
        220, 226, 233, 239, 246, 252, 259, 266, 272, 279, 286, 293, 299, 306, 313, 320, 327,
        334, 341, 347, 354, 361, 368, 375, 383, 390, 397],
}


def test_quadrature_truncations_are_unchanged(monkeypatch):
    # the numpy lanes and the Python floats of verify take the same truncations, from the
    # one Gram envelope, squared by math.fsum
    from mlpoly import analysis, floats

    class Picked(Exception):
        pass

    def truncation(fn, *args):
        with pytest.raises(Picked) as info:
            fn(*args)
        return info.value.args[0]

    for mod in (analysis, floats):
        true_config = mod.make_quad_config

        # the truncation itself, not the rule that reads it: moments of even n read none
        def stop_at_the_truncation(*args, _true=true_config, **kwargs):
            raise Picked(_true(*args, **kwargs))

        with monkeypatch.context() as patch:
            patch.setattr(mod, "make_quad_config", stop_at_the_truncation)
            assert ([truncation(mod.orthogonality_matrix, n) for n in range(114)]
                    == FROZEN_TRUNCATIONS["quad"]), mod
            assert ([truncation(mod.ft_numeric, n, 1.0) for n in range(121)]
                    == FROZEN_TRUNCATIONS["ft"]), mod
            assert ([truncation(mod.moment, n) for n in range(1, 63)]
                    == FROZEN_TRUNCATIONS["moments"]), mod


def test_member_values_follow_the_exact_members():
    t = np.linspace(-3.0, 3.0, 13)
    for kind in (SeqKind.G, SeqKind.PHI, SeqKind.PHI_MONIC):
        vals = member_values(kind, 12, t)
        tab = generate(kind, 12)
        assert vals.shape == (13, 13)
        for n in range(13):
            exact = [float(tab[n](Fraction(x))) for x in t]
            assert list(vals[n]) == pytest.approx(exact, rel=1e-12, abs=1e-12), (kind, n)


def test_member_values_are_the_expression_form_bit_for_bit():
    # the rows are written in place, in the operation order of (a t + d) p_n + b p_{n-1}
    t = _panel_points(301.0)[0]  # the 12040 nodes of quad --max-n 80
    for kind, rec in RECURRENCES.items():
        expected = np.empty((82, t.size))
        expected[0], expected[1] = 0.0, rec.p0
        for k in range(80):
            expected[k + 2] = ((float(rec.a(k)) * t + float(rec.d(k))) * expected[k + 1]
                               + float(rec.b(k)) * expected[k])
        assert member_values(kind, 80, t).tobytes() == expected[1:].tobytes(), kind


def _gram_at(n, truncation):
    """Reference: the Gram matrix to size n over [-T, T], T = truncation, summed row by row
    in blocks of 2048 nodes, the lower triangle mirrored."""
    pts, allw = _panel_points(truncation)
    wts = allw * _weight_array(pts)
    out = np.zeros((n + 1, n + 1))
    for lo in range(0, pts.size, 2048):
        block = slice(lo, lo + 2048)
        phi = member_values(SeqKind.PHI, n, pts[block])
        for i in range(n + 1):
            out[i, : i + 1] += np.einsum("k,jk->j", phi[i] * wts[block], phi[: i + 1])
    upper = np.triu_indices(n + 1, 1)
    out[upper] = out.T[upper]
    return out


def _gram_half_at(n, truncation):
    """Reference: the Gram matrix to size n from the nodes t > 0 of [-T, T], T = truncation,
    each weight doubled, summed row by row over every pair j <= i in blocks of 2048 nodes;
    the pairs of odd i + j are then set to 0 and the lower triangle mirrored."""
    pts, allw = _panel_points(truncation)
    positive = pts > 0.0
    pts, wts = pts[positive], 2.0 * (allw[positive] * _weight_array(pts[positive]))
    out = np.zeros((n + 1, n + 1))
    for lo in range(0, pts.size, 2048):
        block = slice(lo, lo + 2048)
        phi = member_values(SeqKind.PHI, n, pts[block])
        for i in range(n + 1):
            out[i, : i + 1] += np.einsum("k,jk->j", phi[i] * wts[block], phi[: i + 1])
    i, j = np.indices(out.shape)
    out[(i + j) % 2 == 1] = 0.0
    upper = np.triu_indices(n + 1, 1)
    out[upper] = out.T[upper]
    return out


def _gram_truncation(n):
    return make_quad_config(_gram_envelope(n), abs_tol=1e-10)


def test_gram_matrix_is_the_per_row_weighted_sum_bit_for_bit():
    for n in (0, 12, 61, 80, 113):
        expected = _gram_half_at(n, _gram_truncation(n))
        assert orthogonality_matrix(n).tobytes() == expected.tobytes(), n


def test_panel_nodes_are_antisymmetric_and_their_weights_symmetric():
    # the premise of the half-line Gram sum: the node at -t is exactly -(the node at t),
    # with the same weight, and no node sits at 0, so the second half holds the nodes t > 0
    for truncation in range(4, 400):
        pts, allw = _panel_points(float(truncation))
        assert pts.size == 40 * truncation, truncation
        assert pts[::-1].tobytes() == (-pts).tobytes(), truncation
        assert allw[::-1].tobytes() == allw.tobytes(), truncation
        assert pts[pts.size // 2] > 0.0, truncation


def test_the_families_without_a_d_term_have_their_parity_bit_for_bit():
    # with d = 0 each row is (a t + 0) p_n + b p_(n-1), and IEEE negation is exact
    t = _panel_points(151.0)[0]  # the 6040 nodes of quad --max-n 113
    signs = np.where(np.arange(114) % 2 == 0, 1.0, -1.0)[:, None]
    for kind in (SeqKind.G, SeqKind.PHI, SeqKind.PHI_MONIC, SeqKind.G_MONIC):
        assert not any(RECURRENCES[kind].d.terms(113)[0]), kind
        expected = signs * member_values(kind, 113, t)
        assert member_values(kind, 113, -t).tobytes() == expected.tobytes(), kind


def test_the_half_line_gram_matrix_is_the_two_sided_sum_to_rounding():
    # the odd pairs are exact zeros; the even pairs move by rounding only (8.9e-16 at most
    # over n = 0..113 on x86-64 with AVX-512)
    for n in range(114):
        mat = orthogonality_matrix(n)
        i, j = np.indices(mat.shape)
        assert not mat[(i + j) % 2 == 1].any(), n
        moved = np.max(np.abs(mat - _gram_at(n, _gram_truncation(n))))
        assert moved <= 2e-15, (n, moved)


def test_a_family_with_a_d_term_gets_the_two_sided_sum(perturb):
    # a d term breaks the parity, so every pair is summed over both halves of [-T, T] ...
    perturb(SeqKind.PHI, "d", 1, 3)
    for n in (4, 12, 40):
        expected = _gram_at(n, _gram_truncation(n))
        assert orthogonality_matrix(n).tobytes() == expected.tobytes(), n
    # ... from the first size whose members read it: p_0 .. p_3 do not read d(3)
    assert orthogonality_matrix(3).tobytes() == _gram_half_at(3, _gram_truncation(3)).tobytes()


def _one_norm_truncation(n):
    """The Gram truncation of the envelope that puts the whole coefficient 1-norm squared at
    the top degree, |p_i p_j t| <= max_i ||c_i||_1^2 t^(2n+1) for t >= 1."""
    norm = max(_coeff_norm(p) for p in generate(SeqKind.PHI, n))
    return make_quad_config(_monomial(2 * n + 1, norm * norm), abs_tol=1e-10)


def test_the_term_by_term_truncation_keeps_the_gram_of_the_one_norm_truncation():
    # the term-by-term envelope never asks for more panels than the 1-norm one ...
    for n in range(103):
        assert _gram_truncation(n) <= _one_norm_truncation(n), n
    # ... and the fewer it asks for move the matrix by less than the 1e-10 tail bound
    for n in (5, 12, 40, 80, 102):
        moved = np.max(np.abs(orthogonality_matrix(n) - _gram_at(n, _one_norm_truncation(n))))
        assert moved <= 5e-11, (n, moved)


def test_jacobi_matrix_reads_the_monic_recurrence_bit_for_bit():
    # sqrt(-b(k)) = sqrt(k(k+1)/4) rounds exactly like sqrt(k(k+1))/2
    assert _off_diagonal(401) == [math.sqrt(k * (k + 1)) / 2.0 for k in range(1, 401)]


def test_monic_norms():
    # h_n = integral of w p_n^2 = n! (n+1)! / 2^(2n+1) for the monic family
    cfg = make_quad_config(_monomial(7, 30.0), abs_tol=1e-11)
    for n in range(4):
        val = _two_sided(lambda t: member_values(SeqKind.PHI_MONIC, 3, t)[n] ** 2
                        * _weight_array(t), cfg)
        expected = math.factorial(n) * math.factorial(n + 1) / 2.0 ** (2 * n + 1)
        assert val == pytest.approx(expected, abs=1e-10)


def test_moment_closed_forms():
    # the coefficient of pi^(n+1)
    assert moment(1).closed == F(1, 2)
    assert moment(3).closed == F(1, 4)
    assert moment(5).closed == F(1, 2)
    assert moment(2).closed == F(0)
    assert moment(1).closed_float == pytest.approx(math.pi**2 / 2, rel=1e-15)
    assert moment(2).closed_float == 0.0
    with pytest.raises(ValueError):
        moment(0)


def test_moment_quadrature_agreement():
    for n in range(1, 62, 2):
        assert moment(n).deviation < 1e-8, f"n = {n}"


def _two_sided_moment(n):
    """Reference: moment(n)'s sum over both halves of [-T, T], with t^n by np.power."""
    limit = 1.0 if n == 1 else 0.0

    def integrand(t):
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(t == 0.0, limit, t**n / np.sinh(t))

    return _two_sided(integrand, make_quad_config(_monomial(n), abs_tol=1e-10, rate=1.0))


def test_the_half_line_moment_is_the_two_sided_sum_to_rounding():
    # the integrand of odd n is even, so the rule's sum is twice its sum over t > 0; only
    # the rounding moves (2.3e-15 relative at most on x86-64 with AVX-512)
    for n in range(1, 62, 2):
        reference = _two_sided_moment(n)
        assert abs(moment(n).numeric - reference) <= 1e-14 * abs(reference), n


def test_an_even_moment_is_the_symmetric_rule_s_exact_zero():
    # the integrand of even n is odd: the closed form is 0 and the rule's sum exactly 0.0
    for n in range(2, 63, 2):
        assert moment(n) == (F(0), 0.0, 0.0, 0.0), n
    # the truncation is still the refusal: no even n past the tail bound is served
    with pytest.raises(ValueError, match="no truncation below 400"):
        moment(64)


def test_each_moment_is_integrated_once_per_process(monkeypatch):
    from mlpoly import analysis
    calls = []
    half_line = analysis._half_line_points

    def counted(truncation):
        calls.append(truncation)
        return half_line(truncation)

    monkeypatch.setattr(analysis, "_half_line_points", counted)
    first = [moment(n) for n in range(1, 62, 2)]
    assert calls == FROZEN_TRUNCATIONS["moments"][::2]  # the half-line sum reads each n's
    assert [moment(n) for n in range(1, 62, 2)] == first
    assert moment(9) is first[4]
    assert len(calls) == 31
    with pytest.raises(ValueError, match="no truncation below 400"):
        moment(63)
    assert moment.__wrapped__(9) == first[4]  # a fresh computation, past the memo
    assert len(calls) == 32


def test_ft_closed_frozen_values():
    assert ft_closed(0, 0.0) == pytest.approx(1 / (2 * math.sqrt(2 * math.pi)),
                                                    rel=1e-15)
    assert ft_closed(0, 0.0) == pytest.approx(0.19947114020071635, rel=1e-14)
    assert ft_closed(1, 1.0) == pytest.approx(0.07249399409756802, rel=1e-14)
    with pytest.raises(ValueError):
        ft_closed(-1, 0.0)


def test_ft_closed_rejects_nan_s():
    with pytest.raises(ValueError, match="got nan"):
        ft_closed(3, math.nan)


def test_ft_closed_matches_sinh_form():
    for n in range(7):
        for s in (0.3, 0.9, 1.7, 3.1):
            assert ft_closed(n, s) == pytest.approx(_ft_sinh_form(n, s), rel=1e-12)


def test_ft_quadrature_agreement_on_grid():
    for n in range(9):
        for s in (0.25, 0.5, 1.0, 2.0, 4.0):
            dev = abs(ft_numeric(n, s) - ft_closed(n, s))
            assert dev < 1e-6, (n, s)


def _ft_numeric_one_at_a_time(n, s):
    """ft_numeric by one two-sided sum, whose integrand evaluates the weighted member at
    this s alone."""
    norm = _coeff_norm(generate(SeqKind.PHI_MONIC, n)[n])
    trig = np.cos if n % 2 == 0 else np.sin

    def integrand(t):
        return member_values(SeqKind.PHI_MONIC, n, t)[n] * _weight_array(t) * trig(s * t)

    with np.errstate(over="ignore", invalid="ignore"):
        total = _two_sided(integrand, make_quad_config(_monomial(n + 1, norm), abs_tol=1e-9))
    return (-1) ** (n // 2) * total / math.sqrt(2.0 * math.pi)


def test_the_shared_fourier_grid_gives_the_bits_of_one_s_at_a_time():
    for n in range(9):
        alone = [_ft_numeric_one_at_a_time(n, s) for s in _FT_S_GRID]
        assert ft_numeric_grid(n, _FT_S_GRID) == alone, n
        assert [ft_numeric(n, s) for s in _FT_S_GRID] == alone, n
    sampled = (0.0, -0.375, 0.625, 1.5, 7.25, 40.0)
    for n in range(25):  # the sizes of FROZEN_TRUNCATIONS["ft"]
        alone = [_ft_numeric_one_at_a_time(n, s) for s in sampled]
        assert ft_numeric_grid(n, sampled) == alone, n
        assert [ft_numeric(n, s) for s in sampled] == alone, n
    with pytest.raises(ValueError, match="non-finite"):
        _ft_numeric_one_at_a_time(3, 1e308)
    with pytest.raises(ValueError, match="non-finite"):
        ft_numeric_grid(3, (1.0, 1e308))


def test_unit_panel_is_half_the_20_node_gauss_legendre_rule():
    nodes, wts = _unit_panel()
    x, w = np.polynomial.legendre.leggauss(20)
    for got, ref in ((nodes, 0.5 * x), (wts, 0.5 * w)):
        assert got.dtype == np.float64 and got.shape == (20,) and not got.flags.writeable
        if np.__version__.startswith("2.4."):  # the build the quad digests were recorded on
            assert got.tobytes() == ref.tobytes()
        assert np.all(np.abs(got - ref) <= 2 * np.spacing(np.abs(ref)))


def test_ft_numeric_odd_member_vanishes_at_origin():
    assert ft_numeric(1, 0.0) == 0.0
    assert ft_numeric(0, 0.0) == pytest.approx(ft_closed(0, 0.0), abs=1e-9)


def test_erratum_audit_shape():
    reports = audit_suite()
    assert len(reports) == 5
    assert all(r.status is CheckStatus.AUDITED for r in reports)
    by_id = {r.identity: r for r in reports}
    assert set(by_id) == {
        "g-recurrence-sign",
        "fourier-tanh-constant",
        "fourier-n0-display",
        "derivative-expansion-reduced",
        "rodrigues-formula",
    }
    assert by_id["g-recurrence-sign"].n_range == (3, 3)
    assert "factor of 2" in by_id["fourier-tanh-constant"].note
    assert "low by a factor" in by_id["fourier-n0-display"].note
    assert "MISMATCH" in by_id["rodrigues-formula"].note
    assert by_id["derivative-expansion-reduced"].residual is not None


def test_zeros_interlacing_violation_at_a_resolving_tol_stays_an_error(monkeypatch):
    # zeros(3) bisects size 3 alone, so the fault is put on its zeros: with the smallest
    # moved up by 1 they are no longer antisymmetric, no count proves them, and size 2 is
    # bisected to compare with
    from mlpoly import analysis
    true_spectra = analysis._spectra

    def shifted(sizes, tol):
        out = true_spectra(sizes, tol)
        if 3 in out:
            out[3][0] += 1.0
        return out

    monkeypatch.setattr(analysis, "_spectra", shifted)
    with pytest.raises(RuntimeError, match="interlacing violated"):
        zeros(3)
    with pytest.raises(ValueError, match="cannot separate"):
        zeros(3, 0.5)


def test_gamma_tail_overflow_is_an_unmet_bound():
    assert _tail_sum(_log_envelope(_monomial(301)), math.pi, 4.0) == math.inf


def _direct_gamma_tail(degree, rate, upper):
    """Reference: the tail integral of t^degree e^(-rate t) as the finite sum
    (d!/r^(d+1)) e^(-rT) sum_{k<=d} (rT)^k/k!, every term taken in log space."""
    rt = rate * upper
    log_front = math.lgamma(degree + 1) - (degree + 1) * math.log(rate)
    total = 0.0
    try:
        for k in range(degree + 1):
            total += math.exp(log_front + k * math.log(rt) - math.lgamma(k + 1) - rt)
    except OverflowError:
        return math.inf
    return total


def test_tail_sum_is_the_direct_sum_to_rounding():
    for degree in (61, 0, 1, 205, 20, 121, 227, 301):
        for rate in (1.0, math.pi):
            for upper in (4.0, 10.0, 50.0, 150.0, 399.0):
                expected = _direct_gamma_tail(degree, rate, upper)
                got = _tail_sum(_log_envelope(_monomial(degree, 3.5)), rate, upper)
                assert got == pytest.approx(3.5 * expected, rel=1e-12, abs=0.0), \
                    (degree, rate, upper)
    # a whole envelope is its terms' sum, the zero terms skipped
    for n, upper in ((12, 26.0), (80, 110.0), (113, 151.0)):
        envelope = _gram_envelope(n)
        expected = math.fsum(e * _direct_gamma_tail(m, math.pi, upper)
                             for m, e in enumerate(envelope) if e)
        got = _tail_sum(_log_envelope(envelope), math.pi, upper)
        assert got == pytest.approx(expected, rel=1e-12), n


def test_ft_closed_past_the_float_range():
    from mlpoly.floats import _ft_closed_log
    # the log-space form agrees with the direct product where both exist
    for n, s in ((5, -2.0), (160, 0.3), (169, 40.0)):
        assert _ft_closed_log(n, 0.5 * s) == pytest.approx(ft_closed(n, s), rel=1e-12)
    assert math.isfinite(ft_closed(170, 1.0)) and ft_closed(170, 1.0) > 0
    assert ft_closed(171, -1.0) < 0
    assert ft_closed(2, 1e308) == 0.0
    assert ft_closed(300, 0.0) == 0.0
    with pytest.raises(ValueError, match="exceeds the float range"):
        ft_closed(1000, 10.0)
    for s in (math.inf, math.nan, 1e308):
        with pytest.raises(ValueError, match="non-finite"):
            ft_numeric(2, s)


# The numeric plan of verify and the erratum audit on Python floats (mlpoly.floats).

@pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-3])
def test_the_scalar_zeros_are_the_lanes_bit_for_bit(tol):
    from mlpoly import floats
    lanes = _spectra(range(1, 25), tol)
    scalar = floats._spectra(24, tol)
    assert list(scalar) == list(range(1, 25))
    for n in range(1, 25):
        assert scalar[n] == lanes[n] == _scalar_zeros(n, tol), n
    assert floats.zeros_range(1, 24, tol) == zeros_range(1, 24, tol)


def _counting(monkeypatch, floats):
    """Patch floats' Sturm count to count its calls; returns the list it appends to."""
    calls = []
    true_count = floats._sturm_count

    def counted(bsqs, pivmin, x):
        calls.append(len(bsqs))
        return true_count(bsqs, pivmin, x)

    monkeypatch.setattr(floats, "_sturm_count", counted)
    return calls


@pytest.mark.parametrize("tol", [1e-12, 1e-15, 1e-3])
def test_a_wrong_newton_estimate_costs_counts_and_never_bits(monkeypatch, tol):
    # at 0.0 and shifted by 1 no bracket certifies but those of zeros near them, so most
    # steps count; scaled by 1 + 2^-40 the largest zeros miss their brackets
    from mlpoly import floats
    calls = _counting(monkeypatch, floats)
    expected = floats._spectra(24, tol)
    counts = len(calls)
    true_newton = floats._newton
    for wrong in (lambda bsqs, x, small: 0.0,
                  lambda bsqs, x, small: true_newton(bsqs, x, small) + 1.0,
                  lambda bsqs, x, small: true_newton(bsqs, x, small) * (1.0 + 2.0**-40)):
        monkeypatch.setattr(floats, "_newton", wrong)
        calls.clear()
        assert floats._spectra(24, tol) == expected
        assert len(calls) > counts


def test_the_newton_estimates_certify_every_eigenvalue_of_the_numeric_plan(monkeypatch):
    # two counts certify each of the 288 eigenvalues of sizes 1..24 (the middle zero of an
    # odd size has none), and 22 midpoints fall inside their brackets at tol 1e-12; the
    # bisection without estimates counts at each of its 35-42 steps
    from mlpoly import floats
    calls = _counting(monkeypatch, floats)
    floats.zeros_range(1, 24)
    assert len(calls) == 598


def _two_sided_fsum(wts, vals):
    return math.fsum(w * v for w, v in zip(wts, vals))


def test_the_scalar_half_line_sums_are_the_two_sided_sums_bit_for_bit():
    # the terms at -t and t are equal, so the exact two-sided sum is twice the exact
    # half-line sum and fsum rounds both alike; the odd Gram entries are exact zeros.  The
    # Gram sizes are the default numeric plan's, every size up to 24, and 40
    from mlpoly import floats
    for n in (*range(25), 40):
        pts, wts = floats._panel_points(_gram_truncation(n), half_line=False)
        wts = [w * floats._weight(t) for w, t in zip(wts, pts)]
        rows = floats._member_rows(SeqKind.PHI, n, pts)
        # the lower triangle, each row weighted first, mirrored
        lower = [[_two_sided_fsum([r * w for r, w in zip(rows[i], wts)], rows[j])
                  for j in range(i + 1)] for i in range(n + 1)]
        expected = [[lower[max(i, j)][min(i, j)] for j in range(n + 1)] for i in range(n + 1)]
        assert floats.orthogonality_matrix(n) == expected, n
    for n in range(9):
        norm = _coeff_norm(generate(SeqKind.PHI_MONIC, n)[n])
        pts, wts = floats._panel_points(make_quad_config(_monomial(n + 1, norm), abs_tol=1e-9),
                                        half_line=False)
        p = floats._member_rows(SeqKind.PHI_MONIC, n, pts)[n]
        trig = math.cos if n % 2 == 0 else math.sin
        expected = [(-1) ** (n // 2) * _two_sided_fsum(
            wts, [v * floats._weight(t) * trig(s * t) for v, t in zip(p, pts)])
            / math.sqrt(2.0 * math.pi) for s in _FT_S_GRID]
        assert floats.ft_numeric_grid(n, _FT_S_GRID) == expected, n


def test_the_scalar_quadratures_are_the_numpy_ones_to_rounding():
    # fsum and math.sinh against einsum and np.sinh; the largest gaps measured on x86-64
    # with AVX-512 were 4.4e-16 (a Gram entry), 7.2e-16 relative (a moment) and 8.9e-16
    # relative (a Fourier value), bounded here at about 4 times; 4.4e-16 is also the largest
    # Gram gap over all 114 sizes verify serves, of which the smallest and the largest run here
    from mlpoly import floats
    for n in (*range(25), 113):
        scalar = np.array(floats.orthogonality_matrix(n))
        assert np.max(np.abs(scalar - orthogonality_matrix(n))) <= 2e-15, n
        assert floats.gram_deviation(scalar.tolist()) == gram_deviation(scalar), n
    for n in range(1, 10):
        got, ref = floats.moment(n), moment(n)
        assert got._replace(numeric=0.0, deviation=0.0) == ref._replace(numeric=0.0, deviation=0.0)
        assert abs(got.numeric - ref.numeric) <= 3e-15 * max(1.0, abs(ref.numeric)), n
    for n in range(9):
        for got, ref in zip(floats.ft_numeric_grid(n, _FT_S_GRID), ft_numeric_grid(n, _FT_S_GRID)):
            assert abs(got - ref) <= 4e-15 * max(1.0, abs(ref)), n
