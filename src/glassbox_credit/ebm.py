"""Glass-box additive model trained by cyclic gradient boosting.

Each feature gets a binned shape function (piecewise-constant, at most 256
bins from train quantiles); optional pairwise terms get a 2-D grid over two
features' bins. One booster, ``_boost_terms``, trains both kinds of term:
it cycles the terms in order, and per visit fits a tiny tree on the term's
bins to the current second-order residuals of the weighted logistic loss
(a greedy segmentation of the bin axis with at most ``max_leaves`` leaves
for a shape, a depth-2 axis-aligned tree for a grid), then folds its leaf
values in with a small learning rate. Every row carries a flat bin index
into each term, so per-bin sums, region values and margin updates are the
same code for both. A deterministic stride holdout stops boosting early and
restores the best cycle. Main effects are boosted first and mean-centred;
pairs are then boosted on the residuals with the main effects frozen.

A pair grid has up to 256 × 256 cells but sees only as many rows as the
fit, so almost all of its cells are empty. A pair visit therefore works
from the rows, never the grid: each candidate cut's left sums are 1-D
``np.bincount`` sums of the region's rows along the cut's axis
(``_best_regions_2d_rows``), each row's region number comes from a few
compares of its bin coordinates with the cuts (``_region_numbers``), and
the leaf sums are bincounts of the rows by region number, so a visit costs
O(rows + bins), however sparse the grid. Pair detection scores every pair
this way from per-feature sums shared by all partners. The grids are not
touched while boosting: each visit's leaf values are logged and written
into the grids once, for the cycles kept.
"""

from __future__ import annotations

import csv
import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .data import Dataset, check_matrix, write_atomic
from .errors import DataError
from .linear import sigmoid
from .metrics import log_loss
from .ranking import RankedFeatures, rank_from_scores

MAX_CUTS = 255
_H_EPS = 1e-12


@dataclass
class EbmConfig:
    rounds: int = 5000
    learning_rate: float = 0.01
    max_leaves: int = 3
    n_pairs: int = 0
    pair_rounds: int = 1000
    tol: float = 1e-8
    # deterministic 1-in-stride row holdout scored every cycle; boosting
    # stops (and the best shapes are restored) when the holdout loss has not
    # improved for `patience` cycles. The unbagged model overfits its
    # per-bin shapes without this.
    early_stopping: bool = True
    validation_stride: int = 8
    patience: int = 25
    min_samples_leaf: int = 4

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, obj: dict) -> "EbmConfig":
        known = {k: v for k, v in obj.items() if k in cls.__dataclass_fields__}
        return cls(**known)


@dataclass
class PairTerm:
    pair: tuple[int, int]  # feature indices, j < q
    grid: np.ndarray  # (bins_j, bins_q) additive scores


@dataclass
class EbmModel:
    intercept: float
    bin_cuts: list[np.ndarray]  # per feature, strictly increasing cut points
    shapes: list[np.ndarray]  # per feature, len(cuts)+1 scores
    bin_counts: list[np.ndarray]  # train occupancy per bin
    pairs: list[PairTerm]
    feature_names: list[str]
    config: dict = field(default_factory=dict)

    @property
    def d(self) -> int:
        return len(self.feature_names)

    def bin_index(self, j: int, values) -> np.ndarray:
        """values < first cut -> bin 0; cuts[i-1] <= v < cuts[i] -> bin i."""
        return np.searchsorted(self.bin_cuts[j], np.asarray(values, float), side="right")

    def _bin_matrix(self, X) -> np.ndarray:
        X = check_matrix(X, self.d)
        return np.column_stack([self.bin_index(j, X[:, j]) for j in range(self.d)])

    def predict_margin(self, X) -> np.ndarray:
        B = self._bin_matrix(X)
        margin = np.full(B.shape[0], self.intercept)
        for j in range(self.d):
            margin += self.shapes[j][B[:, j]]
        for term in self.pairs:
            j, q = term.pair
            margin += term.grid[B[:, j], B[:, q]]
        return margin

    def predict_proba(self, X) -> np.ndarray:
        return sigmoid(self.predict_margin(X))

    def term_contributions(self, x) -> list[tuple[str, float]]:
        """Every addend of the margin separately; they sum to it exactly."""
        B = self._bin_matrix(x)[0]
        terms = [("intercept", float(self.intercept))]
        for j, name in enumerate(self.feature_names):
            terms.append((name, float(self.shapes[j][B[j]])))
        for term in self.pairs:
            j, q = term.pair
            terms.append(
                (
                    f"{self.feature_names[j]} x {self.feature_names[q]}",
                    float(term.grid[B[j], B[q]]),
                )
            )
        return terms


def build_bins(X: np.ndarray) -> list[np.ndarray]:
    """Cut points per feature: midpoints between consecutive distinct values
    when few enough, otherwise midpoints of quantile-derived values."""
    cuts = []
    for j in range(X.shape[1]):
        uniq = np.unique(X[:, j])
        if uniq.size > MAX_CUTS + 1:
            qs = np.linspace(0.0, 1.0, MAX_CUTS + 2)[1:-1]
            uniq = np.unique(np.quantile(X[:, j], qs))
        cuts.append(0.5 * (uniq[1:] + uniq[:-1]) if uniq.size > 1 else np.empty(0))
    return cuts


def _grid_sums(index, shape, weights=None) -> np.ndarray:
    """Per-bin sums of ``weights`` (row counts when None) for a term of the
    given shape; ``index`` is each row's flat bin index into that shape."""
    return np.bincount(index, weights=weights, minlength=math.prod(shape)).reshape(shape)


def _score(g, h):
    return g * g / (h + _H_EPS)


def _best_segments_1d(Gb, Hb, max_leaves, counts, min_leaf=1):
    """Greedy segmentation of the bin axis maximizing second-order gain.

    Returns half-open bin ranges ``np.s_[lo:hi]`` covering the axis. Splits
    leaving fewer than ``min_leaf`` samples on a side are skipped; a later
    cut beats an earlier one only by more than 1e-15.
    """
    segments = [(0, len(Gb))]
    Gc = np.concatenate([[0.0], np.cumsum(Gb)])
    Hc = np.concatenate([[0.0], np.cumsum(Hb)])
    Cc = np.concatenate([[0], np.cumsum(counts)])
    min_leaf = max(min_leaf, 1)

    def best_split(lo, hi):
        s = np.arange(lo + 1, hi)
        s = s[(Cc[s] - Cc[lo] >= min_leaf) & (Cc[hi] - Cc[s] >= min_leaf)]
        if not s.size:
            return None
        left = _score(Gc[s] - Gc[lo], Hc[s] - Hc[lo])
        right = _score(Gc[hi] - Gc[s], Hc[hi] - Hc[s])
        gains = left + right - _score(Gc[hi] - Gc[lo], Hc[hi] - Hc[lo])
        # a cut can beat every earlier one by more than 1e-15 only if it is
        # a strict running maximum, so the scalar walk visits only those
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
    return [np.s_[lo:hi] for lo, hi in segments]


def _best_cuts(sums, lengths, totals, min_leaf):
    """First best cut along each row of zero-padded per-bin sums.

    Row i of each ``(rows, L)`` table in ``sums`` holds the (g, h, count)
    sums of one region along one axis, ``lengths[i]`` bins long; ``totals``
    are the (G, H, count) of each row's region. Returns each row's best gain
    (-inf where no cut leaves ``min_leaf`` rows on both sides) and the bins
    before that cut. The cumulative sums are sequential, so the padding
    changes no bit of them.
    """
    G, H, C = (t[:, None] for t in totals)
    gl, hl, cl = (np.cumsum(s, axis=1)[:, :-1] for s in sums)
    cuts = np.arange(1, gl.shape[1] + 1)
    valid = (cl >= min_leaf) & (C - cl >= min_leaf) & (cuts < lengths[:, None])
    gains = _score(gl, hl) + _score(G - gl, H - hl) - _score(G, H)
    gains[~valid] = -np.inf
    best = np.argmax(gains, axis=1)
    return gains[np.arange(len(best)), best], cuts[best]


def _pick_axis(gains, cuts):
    """A region's split from its two axes' best cuts: (gain, axis, bins
    before the cut), or None. Axis 1 must beat axis 0 strictly."""
    best = None
    for axis in (0, 1):
        if gains[axis] > 0 and (best is None or gains[axis] > best[0]):
            best = (float(gains[axis]), axis, int(cuts[axis]))
    return best


def _best_regions_2d_rows(coords, shape, g, h, min_leaf=1, level1=None):
    """Depth-2 axis-aligned tree on a pair's bin grid, scored from its rows.

    ``coords`` holds each row's bin along both axes of the ``shape`` grid;
    ``g`` and ``h`` are the rows' gradients and hessians. Each level of the
    tree scores all its candidate cuts at once: one ``np.bincount`` per
    quantity (g, h, row count) gives, for every region and axis, the per-bin sums of the
    region's rows along that axis, as one row of a table padded to
    ``L = max(shape)`` bins. A search so costs O(rows + bins), however
    sparse the grid. ``level1`` is the first level's ``(2, L')`` tables,
    ``L' >= L``, when the caller has them. A region's totals are those of
    its rows. The first maximum wins within an axis, and axis 1 must beat
    axis 0 strictly. Returns (regions, gain): regions are
    ``np.s_[r0:r1, c0:c1]`` rectangles; gain is the total objective
    reduction relative to the unsplit grid.
    """
    whole = np.s_[0 : shape[0], 0 : shape[1]]
    if max(shape) < 2:
        return [whole], 0.0
    L = max(shape)
    g2, h2 = np.concatenate((g, g)), np.concatenate((h, h))
    if level1 is None:
        stacked = np.concatenate((coords[0], coords[1] + L))
        level1 = [_grid_sums(stacked, (2, L), w) for w in (g2, h2, None)]
    totals = [np.array([t]) for t in (g.sum(), h.sum(), len(g))]
    gains, cuts = _best_cuts(level1, np.array(shape), totals, min_leaf)
    found = _pick_axis(gains, cuts)
    if found is None:
        return [whole], 0.0
    total_gain, a, cut = found
    o = 1 - a
    halves = [
        whole[:a] + (part,) + whole[a + 1 :]
        for part in (slice(0, cut), slice(cut, shape[a]))
    ]
    # level 2: row 2k + axis of the tables holds half k's sums along that
    # axis, its bins counted from the half's own start
    side = (coords[a] >= cut).astype(np.intp)
    stacked = np.concatenate(
        ((2 * side + a) * L + coords[a] - side * cut, (2 * side + o) * L + coords[o])
    )
    sums = [_grid_sums(stacked, (4, L), w) for w in (g2, h2, None)]
    lengths = np.array(shape * 2)
    lengths[a], lengths[2 + a] = cut, shape[a] - cut
    totals = [np.repeat(np.bincount(side, w, 2), 2) for w in (g, h, None)]
    gains, cuts = _best_cuts(sums, lengths, totals, min_leaf)
    regions = []
    for k, region in enumerate(halves):
        found = _pick_axis(gains[2 * k : 2 * k + 2], cuts[2 * k : 2 * k + 2])
        if found is None:
            regions.append(region)
            continue
        gain, b, n_low = found
        total_gain += gain
        lo, hi = region[b].start, region[b].stop
        for piece in (slice(lo, lo + n_low), slice(lo + n_low, hi)):
            regions.append(region[:b] + (piece,) + region[b + 1 :])
    return regions, total_gain


def _region_numbers(coords, regions) -> np.ndarray:
    """Each row's index into ``regions``, the rectangles of a pair grid's
    depth-2 tree in ``_best_regions_2d_rows``' order.

    ``coords`` holds each row's bin along both axes. In that order (the
    first half's pieces, then the second's) a row belongs to the last
    rectangle whose lower corner it is at or past, so each rectangle costs
    a compare per nonzero start: the level-1 cut and each half's cut.
    """
    number = np.zeros(len(coords[0]), dtype=np.intp)
    for k, region in enumerate(regions[1:], 1):
        past = True
        for c, s in zip(coords, region):
            if s.start:
                past = past & (c >= s.start)
        np.putmask(number, past, k)
    return number


def _holdout_mask(n: int, config: EbmConfig) -> np.ndarray:
    if not config.early_stopping or n < 4 * config.validation_stride:
        return np.zeros(n, dtype=bool)
    return np.arange(n) % config.validation_stride == config.validation_stride - 1


def _leaf_values(Gs, Hs, lr) -> np.ndarray:
    """Each region's shrunk Newton step; 0 where its hessian sum is 0."""
    Gs, Hs = np.asarray(Gs), np.asarray(Hs)
    return np.where(Hs > 0, -lr * Gs / (Hs + _H_EPS), 0.0)


def _write_visits(visits) -> None:
    """Add each logged visit's leaf values to its term, in visit order,
    and empty the log."""
    for term, regions, values in visits:
        for region, value in zip(regions, values):
            term[region] += value
    visits.clear()


def _boost_terms(data, index, terms, margins, rounds, config) -> int:
    """Cyclic boosting of additive terms in place; returns the cycles kept.

    ``terms`` are 1-D shapes or 2-D pair grids, visited in order each cycle;
    ``index[t]`` is each row's flat bin index into ``terms[t]`` and
    ``margins`` the rows' starting margins. Each visit fits a tiny tree on
    the term's bins to the second-order residuals of the weighted logistic
    loss and moves every row's margin by its region's shrunk leaf value. A
    shape's cuts and leaf sums come from its per-bin sums; a pair grid's
    from its rows, whose bin coordinates are split from the flat index once
    per fit, so a pair visit costs O(rows + bins) and allocates nothing of
    the grid's size.

    The terms are not touched while boosting: each visit's (term, regions,
    values) is logged, and the log is written into the terms, in visit
    order, whenever a cycle becomes the best on the holdout (every cycle
    when there is none). Visits after the best cycle are dropped, so the
    terms end at the cycle kept without snapshots. A term starting at +0.0
    gets the same bits from these region adds as from adding a dense delta
    each visit. Stops on ``tol`` or, when a holdout exists, after
    ``patience`` cycles without holdout gain.
    """
    val = _holdout_mask(data.n, config)
    fit = ~val
    yf, wf, yv, wv = data.y[fit], data.w[fit], data.y[val], data.w[val]
    coords_f = [np.unravel_index(ix[fit], t.shape) for ix, t in zip(index, terms)]
    coords_v = [np.unravel_index(ix[val], t.shape) for ix, t in zip(index, terms)]
    # a shape's cut search also needs its bin counts
    counts = [_grid_sums(c[0], t.shape) if t.ndim == 1 else None for c, t in zip(coords_f, terms)]
    margins_f, margins_v = margins[fit], margins[val]
    lr = config.learning_rate
    prev_loss = log_loss(sigmoid(margins_f), yf, wf)
    best_val, best_cycle = np.inf, 0
    pending = []  # visits since the cycle the terms hold
    cycle = 0
    for cycle in range(1, rounds + 1):
        for t, term in enumerate(terms):
            p = sigmoid(margins_f)
            g, h = wf * (p - yf), wf * p * (1.0 - p)
            if term.ndim == 1:
                G = _grid_sums(coords_f[t][0], term.shape, g)
                H = _grid_sums(coords_f[t][0], term.shape, h)
                regions = _best_segments_1d(
                    G, H, config.max_leaves, counts[t], config.min_samples_leaf
                )
                values = _leaf_values(
                    [G[r].sum() for r in regions], [H[r].sum() for r in regions], lr
                )
                # a row's region is its bin's: look its value up per bin
                step = values.repeat([r.stop - r.start for r in regions])
                margins_f += step.take(coords_f[t][0])
                margins_v += step.take(coords_v[t][0])
            else:
                regions, _ = _best_regions_2d_rows(
                    coords_f[t], term.shape, g, h, config.min_samples_leaf
                )
                number = _region_numbers(coords_f[t], regions)
                values = _leaf_values(
                    np.bincount(number, g, len(regions)), np.bincount(number, h, len(regions)), lr
                )
                margins_f += values.take(number)
                margins_v += values.take(_region_numbers(coords_v[t], regions))
            pending.append((term, regions, values))
        loss = log_loss(sigmoid(margins_f), yf, wf)
        if not margins_v.size:
            _write_visits(pending)
        else:
            val_loss = log_loss(sigmoid(margins_v), yv, wv)
            if val_loss < best_val - 1e-7:
                best_val, best_cycle = val_loss, cycle
                _write_visits(pending)
            elif cycle - best_cycle > config.patience:
                break
        if abs(prev_loss - loss) < config.tol:
            break
        prev_loss = loss
    if not best_cycle:
        _write_visits(pending)
        return cycle
    return best_cycle


def fit_ebm(data: Dataset, config: EbmConfig | None = None) -> EbmModel:
    config = config or EbmConfig()
    if data.y.min() == data.y.max():
        raise DataError("EBM needs both classes present")
    base_rate = float((data.w * data.y).sum() / data.w.sum())
    cuts = build_bins(data.X)
    model = EbmModel(
        intercept=float(np.log(base_rate / (1.0 - base_rate))),
        bin_cuts=cuts,
        shapes=[np.zeros(len(c) + 1) for c in cuts],
        bin_counts=[],
        pairs=[],
        feature_names=list(data.feature_names),
        config=config.as_dict(),
    )
    B = model._bin_matrix(data.X)
    index = [B[:, j] for j in range(model.d)]
    model.bin_counts = [_grid_sums(ix, s.shape) for ix, s in zip(index, model.shapes)]
    margins = np.full(data.n, model.intercept)
    model.config["cycles_run"] = _boost_terms(
        data, index, model.shapes, margins, config.rounds, config
    )
    # mean-center each shape over train; the mass moves into the intercept
    for counts, shape in zip(model.bin_counts, model.shapes):
        mean = float(counts @ shape) / data.n
        shape -= mean
        model.intercept += mean
    if config.n_pairs > 0:
        pairs = detect_pairs(data, model, config.n_pairs)
        model = fit_pairs(data, model, pairs, config)
    return model


def _pair_index(B, model: EbmModel, j: int, q: int):
    """Flat bin index of each row into the (bins_j, bins_q) pair grid, and
    that grid's shape."""
    shape = (len(model.bin_cuts[j]) + 1, len(model.bin_cuts[q]) + 1)
    return B[:, j] * shape[1] + B[:, q], shape


def detect_pairs(data: Dataset, model: EbmModel, m: int) -> list[tuple[int, int]]:
    """Rank all feature pairs by the objective reduction of one depth-2 tree
    fitted to the main-effects residuals; return the top m."""
    d = model.d
    max_pairs = d * (d - 1) // 2
    m = min(m, max_pairs)
    if m <= 0:
        return []
    margins = model.predict_margin(data.X)
    p = sigmoid(margins)
    g = data.w * (p - data.y)
    h = data.w * p * (1.0 - p)
    bins = np.ascontiguousarray(model._bin_matrix(data.X).T)
    n_bins = [len(c) + 1 for c in model.bin_cuts]
    # A pair's first-level sums along each axis are that feature's,
    # whatever the partner: one table row per feature, computed once.
    L = max(n_bins)
    flat = (bins + L * np.arange(d)[:, None]).ravel()
    per_feature = [_grid_sums(flat, (d, L), w) for w in (np.tile(g, d), np.tile(h, d), None)]
    scored = []
    for j in range(d):
        for q in range(j + 1, d):
            _, gain = _best_regions_2d_rows(
                (bins[j], bins[q]),
                (n_bins[j], n_bins[q]),
                g,
                h,
                level1=[s[[j, q]] for s in per_feature],
            )
            scored.append((gain, (j, q)))
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [pair for _, pair in scored[:m]]


def fit_pairs(data: Dataset, model: EbmModel, pairs, config: EbmConfig | None = None) -> EbmModel:
    """Boost pair grids round-robin on residuals with main effects frozen.

    Each grid is allocated once, written once per kept visit and then
    mean-centred; a visit's sums and margin updates come from the rows
    (``_boost_terms``), so beyond the grids it returns the fit holds
    O(rows × pairs) memory.
    """
    config = config or EbmConfig.from_dict(model.config)
    pairs = [tuple(p) for p in pairs]
    if len(set(pairs)) != len(pairs):
        raise DataError("duplicate pairs")
    for j, q in pairs:
        if not 0 <= j < q < model.d:
            raise DataError(f"bad pair ({j},{q})")
    new = EbmModel(
        intercept=model.intercept,
        bin_cuts=[c.copy() for c in model.bin_cuts],
        shapes=[s.copy() for s in model.shapes],
        bin_counts=[c.copy() for c in model.bin_counts],
        pairs=[PairTerm(t.pair, t.grid.copy()) for t in model.pairs],
        feature_names=list(model.feature_names),
        config=dict(model.config),
    )
    if not pairs:
        return new
    B = new._bin_matrix(data.X)
    index, shapes = zip(*(_pair_index(B, new, j, q) for j, q in pairs))
    grids = [np.zeros(shape) for shape in shapes]
    _boost_terms(data, index, grids, new.predict_margin(data.X), config.pair_rounds, config)
    for pq, ix, grid in zip(pairs, index, grids):
        mean = float((_grid_sums(ix, grid.shape) * grid).sum()) / data.n
        grid -= mean
        new.intercept += mean
        new.pairs.append(PairTerm(pq, grid))
    return new


def importance_ebm(model: EbmModel, data: Dataset) -> RankedFeatures:
    """Mean |shape score| over the sample; pair terms are excluded from the
    main ranking (see ``pair_importance``)."""
    B = model._bin_matrix(data.X)
    scores = [
        float(np.abs(model.shapes[j][B[:, j]]).mean()) for j in range(model.d)
    ]
    return rank_from_scores(model.feature_names, scores, method="ebm")


def pair_importance(model: EbmModel, data: Dataset) -> list[tuple[str, float]]:
    B = model._bin_matrix(data.X)
    out = []
    for term in model.pairs:
        j, q = term.pair
        score = float(np.abs(term.grid[B[:, j], B[:, q]]).mean())
        out.append((f"{model.feature_names[j]} x {model.feature_names[q]}", score))
    out.sort(key=lambda t: (-t[1], t[0]))
    return out


def export_shape(model: EbmModel, j: int, path):
    """CSV of (bin lower edge, bin upper edge, score, train count) per bin."""
    if not 0 <= j < model.d:
        raise DataError(f"unknown feature index {j}")
    cuts = model.bin_cuts[j]
    lows = np.concatenate([[-np.inf], cuts])
    highs = np.concatenate([cuts, [np.inf]])
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(["bin_low", "bin_high", "score", "train_count"])
        for lo, hi, s, c in zip(lows, highs, model.shapes[j], model.bin_counts[j]):
            writer.writerow([repr(float(lo)), repr(float(hi)), repr(float(s)), int(c)])


def import_shape(path):
    """Rebuild (cuts, scores, counts) from an exported shape CSV, exactly."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        next(reader)
        rows = [(float(a), float(b), float(s), int(c)) for a, b, s, c in reader]
    cuts = np.array([r[1] for r in rows[:-1]])
    scores = np.array([r[2] for r in rows])
    counts = np.array([r[3] for r in rows])
    return cuts, scores, counts


def export_pair_grid(model: EbmModel, pair: tuple[int, int], path):
    """Grid CSV: first row/column carry the two features' bin edges."""
    for term in model.pairs:
        if term.pair == tuple(pair):
            break
    else:
        raise DataError(f"unknown pair {pair}")
    j, q = term.pair
    with write_atomic(path) as fh:
        writer = csv.writer(fh)
        writer.writerow(
            [f"{model.feature_names[j]}\\{model.feature_names[q]}"]
            + [str(i) for i in range(term.grid.shape[1])]
        )
        for r in range(term.grid.shape[0]):
            writer.writerow([str(r)] + [repr(float(v)) for v in term.grid[r]])
