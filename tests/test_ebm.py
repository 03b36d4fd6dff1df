import csv
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from glassbox_credit.data import Dataset
from glassbox_credit.ebm import (
    EbmConfig,
    EbmModel,
    _H_EPS,
    _boost_terms,
    _holdout_mask,
    _pair_index,
    _best_regions_2d_rows,
    _best_segments_1d,
    _cut_layout,
    _grid_sums,
    _region_numbers,
    _sorted_quantiles,
    build_bins,
    detect_pairs,
    export_pair_grid,
    export_shape,
    fit_ebm,
    fit_pairs,
    import_shape,
    importance_ebm,
    pair_importance,
)
from glassbox_credit.errors import DataError
from glassbox_credit.linear import sigmoid
from glassbox_credit.metrics import log_loss


def test_build_bins_small_column_uses_midpoints():
    X = np.array([[1.0], [2.0], [2.0], [4.0]])
    cuts = build_bins(X)[0]
    assert cuts.tolist() == [1.5, 3.0]


def test_build_bins_cap():
    rng = np.random.default_rng(0)
    X = rng.standard_normal((10_000, 1))
    cuts = build_bins(X)[0]
    assert len(cuts) <= 255
    assert np.all(np.diff(cuts) > 0)


def reference_build_bins(X):
    """The cuts as build_bins made them with np.unique and np.quantile."""
    cuts = []
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        if uniq.size > 256:
            uniq = np.unique(np.quantile(X[:, j], np.linspace(0.0, 1.0, 257)[1:-1]))
        cuts.append(0.5 * (uniq[1:] + uniq[:-1]) if uniq.size > 1 else np.empty(0))
    return cuts


def _bin_column(n, kind, seed):
    rng = np.random.default_rng(seed)
    if kind == "distinct":
        return rng.standard_normal(n) * 10.0 ** rng.integers(-6, 7)
    if kind == "constant":
        return np.full(n, rng.standard_normal())
    # ties, with -0.0 and 0.0 among them
    pool = np.concatenate([[-0.0, 0.0], np.round(rng.standard_normal(rng.integers(1, 600)), 2)])
    return rng.choice(pool, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 3000), st.sampled_from(["distinct", "ties", "constant"]),
       st.integers(0, 2**32 - 1))
def test_sorted_quantiles_and_bins_match_numpy(n, kind, seed):
    x = _bin_column(n, kind, seed)
    qs = np.concatenate([[0.0], np.linspace(0.0, 1.0, 257)[1:-1], [1.0]])
    got, want = _sorted_quantiles(np.sort(x), qs), np.quantile(x, qs)
    assert np.array_equal(got, want)
    assert got[want != 0].tobytes() == want[want != 0].tobytes()  # zeros may differ in sign
    assert build_bins(x[:, None])[0].tobytes() == reference_build_bins(x[:, None])[0].tobytes()


def test_bin_index_convention():
    X = np.array([[1.0], [2.0], [4.0], [8.0]])
    cuts = build_bins(X)[0]
    data = Dataset(X, np.array([0.0, 1.0, 0.0, 1.0]), np.ones(4), ["x"])
    model = fit_ebm(data, EbmConfig(rounds=1))
    # values below the first cut land in bin 0; each cut opens a new bin
    assert model.bin_index(0, np.array([-100.0]))[0] == 0
    assert model.bin_index(0, np.array([100.0]))[0] == len(cuts)


def test_zero_cycles_intercept_is_base_rate(tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=0))
    rate = tiny_data.y.mean()
    assert model.intercept == pytest.approx(np.log(rate / (1 - rate)))
    assert np.allclose(model.predict_proba(tiny_data.X), rate)


def test_training_loss_monotone_without_early_stop(tiny_data):
    # with early stopping off, every cycle must not increase the fit loss
    config = EbmConfig(rounds=60, early_stopping=False)
    model = fit_ebm(tiny_data, config)
    assert model.config["cycles_run"] >= 1
    probs = model.predict_proba(tiny_data.X)
    base = fit_ebm(tiny_data, EbmConfig(rounds=1, early_stopping=False))
    assert log_loss(probs, tiny_data.y, tiny_data.w) < log_loss(
        base.predict_proba(tiny_data.X), tiny_data.y, tiny_data.w
    )


def test_shapes_are_train_mean_centered(tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=40))
    for j in range(model.d):
        weighted = float(model.bin_counts[j] @ model.shapes[j])
        assert weighted == pytest.approx(0.0, abs=1e-8)


def test_term_contributions_sum_to_margin(tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=40))
    margins = model.predict_margin(tiny_data.X)
    for i in range(5):
        terms = model.term_contributions(tiny_data.X[i])
        assert sum(v for _, v in terms) == pytest.approx(margins[i], abs=1e-12)


def test_early_stopping_restores_best(additive_small):
    train, test, _ = additive_small
    top = train.select_features(train.feature_names[:10])
    stopped = fit_ebm(top, EbmConfig(rounds=4000))
    assert stopped.config["cycles_run"] < 4000


def test_single_class_rejected():
    data = Dataset(np.zeros((6, 1)), np.zeros(6), np.ones(6), ["x"])
    with pytest.raises(DataError):
        fit_ebm(data, EbmConfig(rounds=1))


def test_detect_pairs_finds_planted_xor(xor_small):
    train, _, truth = xor_small
    top = train.select_features(train.feature_names[:10])
    mains = fit_ebm(top, EbmConfig())
    pairs = detect_pairs(top, mains, 3)
    assert tuple(pairs[0]) == truth.xor_pair


def test_fit_pairs_zero_is_identity(tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=30))
    same = fit_pairs(tiny_data, model, [])
    assert np.array_equal(
        model.predict_margin(tiny_data.X), same.predict_margin(tiny_data.X)
    )


def test_fit_pairs_validation(tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=5))
    with pytest.raises(DataError):
        fit_pairs(tiny_data, model, [(0, 0)])
    with pytest.raises(DataError):
        fit_pairs(tiny_data, model, [(0, 1), (0, 1)])


def test_pair_term_improves_xor_fit(xor_small):
    train, test, truth = xor_small
    keep = [train.feature_names[j] for j in truth.xor_pair]
    small_train = train.select_features(keep)
    small_test = test.select_features(keep)
    mains = fit_ebm(small_train, EbmConfig())
    with_pair = fit_pairs(small_train, mains, [(0, 1)])
    from glassbox_credit.metrics import auroc

    before = auroc(mains.predict_proba(small_test.X), test.y)
    after = auroc(with_pair.predict_proba(small_test.X), test.y)
    assert after > before + 0.05


def test_importance_ebm_ordering(additive_small):
    train, _, truth = additive_small
    top = train.select_features(train.feature_names[:12])
    model = fit_ebm(top, EbmConfig())
    ranked = importance_ebm(model, top)
    assert list(ranked.scores) == sorted(ranked.scores, reverse=True)
    assert set(ranked.top(6)) <= {f"f{j:02d}" for j in truth.informative}


def test_shape_export_round_trip(tmp_path, tiny_data):
    model = fit_ebm(tiny_data, EbmConfig(rounds=40))
    path = tmp_path / "shape.csv"
    export_shape(model, 0, path)
    cuts, scores, counts = import_shape(path)
    assert np.array_equal(cuts, model.bin_cuts[0])
    assert np.array_equal(scores, model.shapes[0])
    assert np.array_equal(counts, model.bin_counts[0])


def test_pair_grid_export(tmp_path, xor_small):
    train, _, truth = xor_small
    keep = [train.feature_names[j] for j in truth.xor_pair]
    small = train.select_features(keep)
    model = fit_pairs(small, fit_ebm(small, EbmConfig(rounds=50)), [(0, 1)])
    path = tmp_path / "grid.csv"
    export_pair_grid(model, (0, 1), path)
    assert path.read_text().count("\n") == model.pairs[0].grid.shape[0] + 1
    names = pair_importance(model, small)
    assert len(names) == 1 and names[0][1] > 0


# Reference cut searches, kept as oracles: the scalar implementation the
# vectorized ``_best_segments_1d`` replaced, and the dense-grid search the
# row-based ``_best_regions_2d_rows`` replaced.

def reference_segments_1d(Gb, Hb, max_leaves, counts, min_leaf=1):
    segments = [(0, len(Gb))]
    Gc = np.concatenate([[0.0], np.cumsum(Gb)])
    Hc = np.concatenate([[0.0], np.cumsum(Hb)])
    Cc = np.concatenate([[0], np.cumsum(counts)])
    min_leaf = max(min_leaf, 1)

    def seg_score(lo, hi):
        G, H = Gc[hi] - Gc[lo], Hc[hi] - Hc[lo]
        return G * G / (H + _H_EPS)

    def best_split(lo, hi):
        best = None
        base = seg_score(lo, hi)
        for s in range(lo + 1, hi):
            if Cc[s] - Cc[lo] < min_leaf or Cc[hi] - Cc[s] < min_leaf:
                continue
            gain = seg_score(lo, s) + seg_score(s, hi) - base
            if best is None or gain > best[0] + 1e-15:
                best = (gain, s)
        return best

    while len(segments) < max_leaves:
        candidates = []
        for i, (lo, hi) in enumerate(segments):
            found = best_split(lo, hi)
            if found is not None and found[0] > 0.0:
                candidates.append((found[0], i, found[1]))
        if not candidates:
            break
        _, i, s = max(candidates, key=lambda c: (c[0], -c[1]))
        lo, hi = segments[i]
        segments[i : i + 1] = [(lo, s), (s, hi)]
    return segments


def reference_regions_2d(G2, H2, C2, min_leaf=1):
    def marginals(r0, r1, c0, c1, axis):
        g = G2[r0:r1, c0:c1].sum(axis=1 - axis)
        h = H2[r0:r1, c0:c1].sum(axis=1 - axis)
        c = C2[r0:r1, c0:c1].sum(axis=1 - axis)
        return g, h, c

    def score(g, h):
        return g * g / (h + _H_EPS)

    def best_split(r0, r1, c0, c1):
        Gt = G2[r0:r1, c0:c1].sum()
        Ht = H2[r0:r1, c0:c1].sum()
        base = score(Gt, Ht)
        best = None
        for axis in (0, 1):
            g, h, c = marginals(r0, r1, c0, c1, axis)
            gl, hl, cl = np.cumsum(g)[:-1], np.cumsum(h)[:-1], np.cumsum(c)[:-1]
            valid = (cl >= min_leaf) & (c.sum() - cl >= min_leaf)
            if not valid.any():
                continue
            gains = score(gl, hl) + score(Gt - gl, Ht - hl) - base
            gains[~valid] = -np.inf
            k = int(np.argmax(gains))
            if gains[k] > 0 and (best is None or gains[k] > best[0]):
                best = (float(gains[k]), axis, k + 1)
        return best

    regions = [(0, G2.shape[0], 0, G2.shape[1])]
    total_gain = 0.0
    found = best_split(*regions[0])
    if found is None:
        return regions, 0.0
    gain, axis, k = found
    total_gain += gain
    r0, r1, c0, c1 = regions[0]
    if axis == 0:
        regions = [(r0, r0 + k, c0, c1), (r0 + k, r1, c0, c1)]
    else:
        regions = [(r0, r1, c0, c0 + k), (r0, r1, c0 + k, c1)]
    final = []
    for reg in regions:
        found = best_split(*reg)
        if found is None:
            final.append(reg)
            continue
        gain, axis, k = found
        total_gain += gain
        r0, r1, c0, c1 = reg
        if axis == 0:
            final.extend([(r0, r0 + k, c0, c1), (r0 + k, r1, c0, c1)])
        else:
            final.extend([(r0, r1, c0, c0 + k), (r0, r1, c0 + k, c1)])
    return final, total_gain


def bin_sums(cells):
    """Per-bin (G, H, count) from (count, g, h) draws: small integers, so
    many cut gains tie exactly; a bin with no rows has zero sums."""
    counts = np.array([c for c, _, _ in cells])
    G = np.array([float(g) if c else 0.0 for c, g, _ in cells])
    H = np.array([float(h) if c else 0.0 for c, _, h in cells])
    return G, H, counts


def grid_rows(cells, shape):
    """Rows whose per-cell sums are ``bin_sums(cells)``: one row carries a
    cell's g and h, and its other ``count - 1`` rows carry zeros. Sums of
    small integers are exact in any order."""
    flat, g, h = [], [], []
    for i, (count, gi, hi) in enumerate(cells):
        for r in range(count):
            flat.append(i)
            g.append(float(gi) if r == 0 else 0.0)
            h.append(float(hi) if r == 0 else 0.0)
    rows, cols = divmod(np.array(flat, dtype=np.intp), shape[1])
    return (rows, cols), np.array(g), np.array(h)


CELL = st.tuples(st.integers(0, 3), st.integers(-3, 3), st.integers(0, 3))


@settings(max_examples=400)
@given(st.lists(CELL, min_size=1, max_size=14), st.integers(1, 5), st.integers(0, 5))
def test_segments_1d_match_scalar_reference(cells, max_leaves, min_leaf):
    G, H, counts = bin_sums(cells)
    got = _best_segments_1d(G, H, max_leaves, _cut_layout(counts, min_leaf))
    assert [(r.start, r.stop) for r in got] == reference_segments_1d(
        G, H, max_leaves, counts, min_leaf
    )


# The vectorised search that scored every segment's cuts afresh each round,
# kept as an oracle for the search that reuses one-sided scores.
def reference_vectorised_segments_1d(Gb, Hb, max_leaves, counts, min_leaf=1):
    segments = [(0, len(Gb))]
    Gc = np.concatenate([[0.0], np.cumsum(Gb)])
    Hc = np.concatenate([[0.0], np.cumsum(Hb)])
    Cc = np.concatenate([[0], np.cumsum(counts)])
    min_leaf = max(min_leaf, 1)

    def score(g, h):
        return g * g / (h + _H_EPS)

    def best_split(lo, hi):
        s = np.arange(lo + 1, hi)
        s = s[(Cc[s] - Cc[lo] >= min_leaf) & (Cc[hi] - Cc[s] >= min_leaf)]
        if not s.size:
            return None
        left = score(Gc[s] - Gc[lo], Hc[s] - Hc[lo])
        right = score(Gc[hi] - Gc[s], Hc[hi] - Hc[s])
        gains = left + right - score(Gc[hi] - Gc[lo], Hc[hi] - Hc[lo])
        earlier = np.maximum.accumulate(np.concatenate([[-np.inf], gains[:-1]]))
        best = None
        for i in np.flatnonzero(gains > earlier):
            if best is None or gains[i] > best[0] + 1e-15:
                best = (gains[i], s[i])
        return best

    while len(segments) < max_leaves:
        candidates = []
        for i, (lo, hi) in enumerate(segments):
            found = best_split(lo, hi)
            if found is not None and found[0] > 0.0:
                candidates.append((found[0], i, found[1]))
        if not candidates:
            break
        _, i, s = max(candidates, key=lambda c: (c[0], -c[1]))
        lo, hi = segments[i]
        segments[i : i + 1] = [(lo, s), (s, hi)]
    return segments


@st.composite
def float_bins(draw):
    """Per-bin sums as boosting makes them: float gradients (rounded to one
    decimal when drawn so, which makes cut gains tie), non-negative
    hessians, empty bins, and repeated blocks of bins."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(1, 40))
    G = rng.standard_normal(n) * rng.choice([1e-3, 1.0, 50.0])
    H = rng.random(n) * rng.choice([1e-3, 1.0, 50.0])
    counts = rng.integers(0, 6, n)
    if draw(st.booleans()):
        G, H = np.round(G, 1), np.round(H, 1)
    if draw(st.booleans()):
        block = draw(st.integers(1, 4))
        G, H, counts = (np.resize(a[:block], n) for a in (G, H, counts))
    G[counts == 0] = 0.0
    H[counts == 0] = 0.0
    return G, H, counts


# Two segments whose best cuts gain exactly the same, with one split left:
# the tie goes to the lower segment.
SEGMENT_TIE = (np.array([5.0, 6.0, -1.0, -5.0, -6.0]), np.ones(5), np.array([2, 1, 2, 1, 2]))


@settings(max_examples=600)
@given(float_bins(), st.integers(2, 5), st.integers(0, 6))
@example(SEGMENT_TIE, 4, 1)
def test_segments_1d_match_vectorised_reference(bins, max_leaves, min_leaf):
    G, H, counts = bins
    got = _best_segments_1d(G, H, max_leaves, _cut_layout(counts, min_leaf))
    assert [(r.start, r.stop) for r in got] == reference_vectorised_segments_1d(
        G, H, max_leaves, counts, min_leaf
    )


GRID = st.tuples(st.integers(1, 5), st.integers(1, 5)).flatmap(
    lambda shape: st.tuples(st.just(shape), st.lists(CELL, min_size=shape[0] * shape[1],
                                                     max_size=shape[0] * shape[1]))
)


@settings(max_examples=400)
@given(GRID, st.integers(1, 5))
def test_regions_2d_match_scalar_reference(grid, min_leaf):
    shape, cells = grid
    G, H, C = (a.reshape(shape) for a in bin_sums(cells))
    coords, g, h = grid_rows(cells, shape)
    got, gain = _best_regions_2d_rows(coords, shape, g, h, min_leaf)
    want, want_gain = reference_regions_2d(G, H, C, min_leaf)
    assert [(r.start, r.stop, c.start, c.stop) for r, c in got] == want
    assert gain == want_gain


@settings(max_examples=200)
@given(GRID, st.integers(1, 5), st.integers(0, 3))
def test_regions_2d_accept_wider_first_level_tables(grid, min_leaf, pad):
    """``detect_pairs`` passes first-level tables padded to the widest
    feature; the padding changes neither the regions nor the gain."""
    shape, cells = grid
    coords, g, h = grid_rows(cells, shape)
    width = max(shape) + pad
    stacked = np.concatenate((coords[0], coords[1] + width))
    level1 = [_grid_sums(stacked, (2, width), w) for w in (np.tile(g, 2), np.tile(h, 2), None)]
    assert _best_regions_2d_rows(coords, shape, g, h, min_leaf, level1) == (
        _best_regions_2d_rows(coords, shape, g, h, min_leaf)
    )


@st.composite
def binned_values(draw):
    """Two features' strictly increasing cuts (possibly none) and values on
    the cuts, on their float neighbours and in between."""
    cuts, values = [], []
    for _ in range(2):
        c = sorted(draw(st.lists(st.floats(-100.0, 100.0), unique=True, max_size=6)))
        near = [v for t in c for v in (np.nextafter(t, -np.inf), t, np.nextafter(t, np.inf))]
        pick = st.floats(-200.0, 200.0)
        if c:
            pick = st.one_of(st.sampled_from(near), pick)
        cuts.append(np.array(c, dtype=float))
        values.append(draw(st.lists(pick, min_size=1, max_size=20)))
    n = min(map(len, values))
    X = np.column_stack([np.array(v[:n]) for v in values])
    model = EbmModel(
        intercept=0.0,
        bin_cuts=cuts,
        shapes=[np.arange(len(c) + 1.0) for c in cuts],
        bin_counts=[np.ones(len(c) + 1, dtype=int) for c in cuts],
        pairs=[],
        feature_names=["a", "b"],
    )
    return model, X


@pytest.fixture(scope="module")
def shape_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("shapes")


@settings(max_examples=300)
@given(binned_values())
def test_bin_edges_agree_everywhere(shape_dir, case):
    """bin_index sends x == cut right, the pair index is the two bin indices,
    and each exported shape row [bin_low, bin_high) holds exactly the values
    bin_index maps to it."""
    model, X = case
    B = np.column_stack([model.bin_index(j, X[:, j]) for j in range(2)])
    for j, cuts in enumerate(model.bin_cuts):
        assert model.bin_index(j, cuts).tolist() == list(range(1, len(cuts) + 1))
        assert np.array_equal(B[:, j], [np.sum(cuts <= v) for v in X[:, j]])
    flat, shape = _pair_index(B, model, 0, 1)
    assert np.array_equal(np.column_stack(np.unravel_index(flat, shape)), B)
    for j in range(2):
        path = shape_dir / "shape.csv"
        export_shape(model, j, path)
        with open(path, newline="") as fh:
            rows = [(float(lo), float(hi)) for lo, hi, _, _ in list(csv.reader(fh))[1:]]
        for v, b in zip(X[:, j], B[:, j]):
            assert [i for i, (lo, hi) in enumerate(rows) if lo <= v < hi] == [b]


@settings(max_examples=300)
@given(GRID, st.integers(1, 5))
def test_region_numbers_locate_every_row(grid, min_leaf):
    """The rectangles partition the grid, and each row's region number
    names the rectangle that holds its two bin coordinates."""
    shape, cells = grid
    coords, g, h = grid_rows(cells, shape)
    regions, _ = _best_regions_2d_rows(coords, shape, g, h, min_leaf)
    cover = np.zeros(shape, dtype=int)
    for region in regions:
        cover[region] += 1
    assert np.all(cover == 1)
    number = _region_numbers(coords, regions)
    for r, c, k in zip(*coords, number):
        rows, cols = regions[k]
        assert rows.start <= r < rows.stop and cols.start <= c < cols.stop


# The booster before pair visits were summed from the rows, kept as the
# oracle: dense per-bin G, H and ``delta`` on every visit, terms updated in
# place and snapshot at each holdout improvement.
def reference_boost_terms(data, index, terms, margins, rounds, config) -> int:
    val = _holdout_mask(data.n, config)
    fit = ~val
    yf, wf, yv, wv = data.y[fit], data.w[fit], data.y[val], data.w[val]
    index_f = [ix[fit] for ix in index]
    index_v = [ix[val] for ix in index]
    layout = [
        _grid_sums(ix, t.shape) if t.ndim == 1 else divmod(ix, t.shape[1])
        for ix, t in zip(index_f, terms)
    ]
    margins_f, margins_v = margins[fit], margins[val]
    lr = config.learning_rate
    prev_loss = log_loss(sigmoid(margins_f), yf, wf)
    best_val, best_terms, best_cycle = np.inf, None, 0
    cycle = 0
    for cycle in range(1, rounds + 1):
        for t, term in enumerate(terms):
            p = sigmoid(margins_f)
            g, h = wf * (p - yf), wf * p * (1.0 - p)
            G = _grid_sums(index_f[t], term.shape, g)
            H = _grid_sums(index_f[t], term.shape, h)
            if term.ndim == 1:
                regions = _best_segments_1d(
                    G, H, config.max_leaves, _cut_layout(layout[t], config.min_samples_leaf)
                )
            else:
                regions, _ = _best_regions_2d_rows(
                    layout[t], term.shape, g, h, config.min_samples_leaf
                )
            delta = np.zeros(term.shape)
            for region in regions:
                Gs, Hs = G[region].sum(), H[region].sum()
                if Hs > 0:
                    delta[region] = -lr * Gs / (Hs + _H_EPS)
            term += delta
            margins_f += delta.take(index_f[t])
            if margins_v.size:
                margins_v += delta.take(index_v[t])
        loss = log_loss(sigmoid(margins_f), yf, wf)
        if margins_v.size:
            val_loss = log_loss(sigmoid(margins_v), yv, wv)
            if val_loss < best_val - 1e-7:
                best_val = val_loss
                best_terms = [term.copy() for term in terms]
                best_cycle = cycle
            elif cycle - best_cycle > config.patience:
                break
        if abs(prev_loss - loss) < config.tol:
            break
        prev_loss = loss
    if best_terms is None:
        return cycle
    for term, best in zip(terms, best_terms):
        term[...] = best
    return best_cycle


@st.composite
def boosting_problems(draw):
    """Rows binned into 1-D shapes or into pair grids from 1 x 1 to 6 x 6,
    with weights that may be 0 (a region can then have H = 0) and a config
    whose holdout, patience and tol can each end or restore the boosting."""
    n = draw(st.integers(6, 48))
    if draw(st.booleans()):
        shapes = draw(st.lists(st.integers(1, 8).map(lambda b: (b,)), min_size=1, max_size=3))
    else:
        side = st.integers(1, 6)
        shapes = draw(st.lists(st.tuples(side, side), min_size=1, max_size=3))
    index = [
        np.array(draw(st.lists(st.integers(0, math.prod(s) - 1), min_size=n, max_size=n)))
        for s in shapes
    ]
    y = np.array(draw(st.lists(st.sampled_from([0.0, 1.0]), min_size=n, max_size=n)))
    pool = draw(st.sampled_from([[0.5, 1.0, 2.0], [0.0, 0.5, 1.0, 2.0], [0.0, 0.0, 0.0, 1.0], [0.0]]))
    w = np.array(draw(st.lists(st.sampled_from(pool), min_size=n, max_size=n)))
    margins = np.array(draw(st.lists(st.floats(-2.0, 2.0), min_size=n, max_size=n)))
    config = EbmConfig(
        # at 1e-6 the holdout gains less than 1e-7 a cycle, so several
        # cycles' visits wait for the next improvement
        learning_rate=draw(st.sampled_from([1e-6, 0.1, 0.5, 1.0])),
        max_leaves=draw(st.integers(1, 4)),
        min_samples_leaf=draw(st.integers(1, 5)),
        early_stopping=draw(st.booleans()),
        validation_stride=draw(st.integers(2, 4)),
        patience=draw(st.integers(0, 6)),
        tol=draw(st.sampled_from([0.0, 1e-4, 1e-2])),
    )
    if draw(st.booleans()):
        # a holdout of zero weight scores NaN and never improves, so every
        # cycle's visits wait until the stop
        w[_holdout_mask(n, config)] = 0.0
    # the booster reads only n, y and w; a Dataset would refuse zero weights
    data = SimpleNamespace(n=n, y=y, w=w)
    return data, index, shapes, margins, draw(st.integers(0, 25)), config


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # all-zero weights: NaN loss
@settings(max_examples=400)
@given(boosting_problems())
def test_boost_terms_matches_dense_reference(problem):
    """Shapes and the cycle count equal the dense booster's exactly; pair
    grids, whose leaf sums are now taken row by row, within 1e-12."""
    data, index, shapes, margins, rounds, config = problem
    got = [np.zeros(s) for s in shapes]
    want = [np.zeros(s) for s in shapes]
    cycles = _boost_terms(data, index, got, margins.copy(), rounds, config)
    assert cycles == reference_boost_terms(data, index, want, margins.copy(), rounds, config)
    if len(shapes[0]) == 1:
        assert [t.tobytes() for t in got] == [t.tobytes() for t in want]
    else:
        for a, b in zip(got, want):
            assert np.max(np.abs(a - b)) <= 1e-12


def test_fit_pairs_memory_stays_near_its_grids():
    """Boosting eight 255 x 255 pair grids holds little beyond the grids
    it returns: no dense per-visit sums and no snapshots."""
    rng = np.random.default_rng(11)
    X = rng.standard_normal((1000, 5))
    y = (rng.random(1000) < sigmoid(X[:, 0] * X[:, 1] + X[:, 2])).astype(float)
    data = Dataset(X, y, np.ones(1000), [f"x{j}" for j in range(5)])
    config = EbmConfig(learning_rate=0.05, rounds=5, pair_rounds=40, patience=40)
    mains = fit_ebm(data, config)
    pairs = list(itertools.combinations(range(5), 2))[:8]
    tracemalloc.start()
    try:
        model = fit_pairs(data, mains, pairs, config)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [t.grid.shape for t in model.pairs] == [(255, 255)] * 8
    assert peak < 2 * sum(t.grid.nbytes for t in model.pairs)
