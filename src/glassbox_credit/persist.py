"""Model persistence: a versioned JSON envelope for all four model kinds.

Floats are written with ``repr`` (shortest round-trip decimal), so a
save/load cycle reproduces predictions bit for bit. The envelope carries
a format version, the model kind, and creation metadata (toolkit version,
config echo, optional hash of the training manifest).
"""

from __future__ import annotations

import json

import numpy as np

from . import __version__
from .data import read_json, write_atomic
from .errors import ModelFormatError
from .ebm import EbmModel, PairTerm
from .gbdt import _LEAF, TREE_FIELDS, GbdtModel, Tree
from .linear import LinearModel
from .pltr import PairSplitSpec, PltrModel, StumpSpec

FORMAT_VERSION = 1


def _floats(arr) -> list[float]:
    return [float(v) for v in np.asarray(arr, dtype=float).ravel()]


def _require_finite(what: str, values) -> None:
    """Python's json reads NaN, Infinity and 1e999; no model holds them."""
    if not np.isfinite(np.asarray(values, dtype=float)).all():
        raise ModelFormatError(f"{what} must be finite")


def _lr_payload(model: LinearModel) -> dict:
    return {
        "intercept": model.intercept,
        "coef": _floats(model.coef),
        "feature_names": list(model.feature_names),
        "means": None if model.means is None else _floats(model.means),
        "stds": None if model.stds is None else _floats(model.stds),
        "diagnostics": dict(model.diagnostics),
    }


def _lr_restore(body: dict) -> LinearModel:
    coef = np.array(body["coef"], dtype=float)
    names = list(body["feature_names"])
    if coef.shape != (len(names),):
        raise ModelFormatError(f"lr model has {coef.size} coefficients for {len(names)} features")
    scaling = {}
    for key in ("means", "stds"):
        if body[key] is not None:
            scaling[key] = np.array(body[key], dtype=float)
            _require_finite(f"lr {key}", scaling[key])
            if scaling[key].shape != coef.shape:
                raise ModelFormatError(
                    f"lr {key} has {scaling[key].size} entries for {coef.size} coefficients"
                )
    if len(scaling) == 1:
        raise ModelFormatError("lr means and stds must both be set or both be null")
    return LinearModel(
        intercept=body["intercept"],
        coef=coef,
        feature_names=names,
        means=scaling.get("means"),
        stds=scaling.get("stds"),
        diagnostics=dict(body.get("diagnostics", {})),
    )


def _gbdt_payload(model: GbdtModel) -> dict:
    return {
        "base_score": model.base_score,
        "eta": model.eta,
        "reg_lambda": model.reg_lambda,
        "reg_gamma": model.reg_gamma,
        "max_depth": model.max_depth,
        "feature_names": list(model.feature_names),
        "trees": [
            {name: getattr(t, name).tolist() for name, _, _ in TREE_FIELDS} for t in model.trees
        ],
        "config": dict(model.config),
    }


def _check_trees(model: GbdtModel) -> None:
    """Reject trees that routing would index out of range or loop in, or
    that hold a non-finite number. Trees are stored in preorder, so both
    children of an internal node lie after it; requiring that rules out
    cycles. The checks read the model's node table, which holds the nodes
    of every tree, child indices offset by the tree's first node."""
    table, d = model.table, model.d
    node = np.arange(len(table.feature))
    first = table.start[table.tree]  # the first node of each node's tree
    bad = (table.feature < _LEAF) | (table.feature >= d)
    if bad.any():
        k = bad.argmax()
        raise ModelFormatError(
            f"tree {table.tree[k]} node {k - first[k]} splits on {table.feature[k]}, outside [0, {d})"
        )
    left, right, end = table.left, table.right, first + table.size[table.tree]
    bad = (table.feature != _LEAF) & ((np.minimum(left, right) <= node) | (np.maximum(left, right) >= end))
    if bad.any():
        k = bad.argmax()
        i, n = k - first[k], table.size[table.tree[k]]
        raise ModelFormatError(f"tree {table.tree[k]} node {i} has children outside ({i}, {n})")
    floats = [f for f, dtype, _ in TREE_FIELDS if dtype is np.float64]
    _require_finite(f"tree {', '.join(floats)}", [getattr(table, f) for f in floats])


def _gbdt_restore(body: dict) -> GbdtModel:
    _require_finite("gbdt base_score and eta", [body["base_score"], body["eta"]])
    trees = [Tree(nodes) for nodes in body["trees"]]
    shapes = [(t.n_nodes,) for t in trees]
    if (0,) in shapes or any([getattr(t, f).shape for t in trees] != shapes for f, *_ in TREE_FIELDS):
        raise ModelFormatError("tree node arrays are empty or of unequal length")
    model = GbdtModel(
        trees=trees,
        base_score=body["base_score"],
        eta=body["eta"],
        reg_lambda=body["reg_lambda"],
        reg_gamma=body["reg_gamma"],
        max_depth=body["max_depth"],
        feature_names=list(body["feature_names"]),
        config=dict(body.get("config", {})),
    )
    _check_trees(model)
    return model


def _ebm_payload(model: EbmModel) -> dict:
    return {
        "intercept": model.intercept,
        "feature_names": list(model.feature_names),
        "bin_cuts": [_floats(c) for c in model.bin_cuts],
        "shapes": [_floats(s) for s in model.shapes],
        "bin_counts": [[int(v) for v in c] for c in model.bin_counts],
        "pairs": [
            {"pair": [int(t.pair[0]), int(t.pair[1])],
             "shape": [int(t.grid.shape[0]), int(t.grid.shape[1])],
             "grid": _floats(t.grid)}
            for t in model.pairs
        ],
        "config": dict(model.config),
    }


def _ebm_restore(body: dict) -> EbmModel:
    cuts = [np.array(c, dtype=float) for c in body["bin_cuts"]]
    shapes = [np.array(s, dtype=float) for s in body["shapes"]]
    counts = [np.array(c, dtype=int) for c in body["bin_counts"]]
    d = len(body["feature_names"])
    if not len(cuts) == len(shapes) == len(counts) == d:
        raise ModelFormatError("ebm needs one cut list, shape and count list per feature")
    numbers = np.concatenate([[body["intercept"]], *cuts, *shapes])
    _require_finite("ebm intercept, cuts and shapes", numbers)
    for j in range(d):
        if not len(shapes[j]) == len(cuts[j]) + 1 == len(counts[j]):
            raise ModelFormatError(f"ebm feature {j}: shape and counts need len(cuts) + 1 bins")
        if not (cuts[j][1:] > cuts[j][:-1]).all():
            raise ModelFormatError(f"ebm feature {j}: cuts must be strictly increasing")
    pairs = []
    for p in body["pairs"]:
        j, q = (int(v) for v in p["pair"])
        if not 0 <= j < q < d:
            raise ModelFormatError(f"ebm pair ({j}, {q}) is not 0 <= j < q < {d}")
        shape = (len(cuts[j]) + 1, len(cuts[q]) + 1)
        if [int(v) for v in p["shape"]] != list(shape):
            raise ModelFormatError(f"ebm pair ({j}, {q}) grid shape is not {list(shape)}")
        grid = np.array(p["grid"], dtype=float).reshape(shape)
        _require_finite(f"ebm pair ({j}, {q}) grid", grid)
        pairs.append(PairTerm(pair=(j, q), grid=grid))
    return EbmModel(
        intercept=body["intercept"],
        bin_cuts=cuts,
        shapes=shapes,
        bin_counts=counts,
        pairs=pairs,
        feature_names=list(body["feature_names"]),
        config=dict(body.get("config", {})),
    )


def _pltr_payload(model: PltrModel) -> dict:
    return {
        "feature_names": list(model.feature_names),
        "include_original": model.include_original,
        "stumps": [
            {"feature": s.feature, "threshold": s.threshold, "gain": s.gain}
            for s in model.stumps
        ],
        "pair_splits": [
            {
                "root_feature": p.root_feature,
                "root_threshold": p.root_threshold,
                "second_feature": p.second_feature,
                "second_threshold": p.second_threshold,
            }
            for p in model.pair_splits
        ],
        "linear": _lr_payload(model.linear),
        "skipped": list(model.skipped),
    }


def _pltr_restore(body: dict) -> PltrModel:
    model = PltrModel(
        stumps=[StumpSpec(**s) for s in body["stumps"]],
        pair_splits=[PairSplitSpec(**p) for p in body["pair_splits"]],
        linear=_lr_restore(body["linear"]),
        feature_names=list(body["feature_names"]),
        include_original=body.get("include_original", True),
        skipped=list(body.get("skipped", [])),
    )
    d = len(model.feature_names)
    features = [s.feature for s in model.stumps] + [
        f for p in model.pair_splits for f in (p.root_feature, p.second_feature)
    ]
    for f in features:
        if not (isinstance(f, int) and 0 <= f < d):
            raise ModelFormatError(f"pltr rule splits on feature {f!r}, outside [0, {d})")
    numbers = [v for s in model.stumps for v in (s.threshold, s.gain)]
    numbers += [v for p in model.pair_splits for v in (p.root_threshold, p.second_threshold)]
    _require_finite("pltr rule thresholds and gains", numbers)
    width = (d if model.include_original else 0) + len(model.stumps) + len(model.pair_splits)
    if len(model.linear.coef) != width:
        raise ModelFormatError(
            f"pltr linear model has {len(model.linear.coef)} coefficients for {width} columns"
        )
    return model


# model kind -> (model class, payload writer, payload reader)
_CODECS = {
    "lr": (LinearModel, _lr_payload, _lr_restore),
    "gbdt": (GbdtModel, _gbdt_payload, _gbdt_restore),
    "ebm": (EbmModel, _ebm_payload, _ebm_restore),
    "pltr": (PltrModel, _pltr_payload, _pltr_restore),
}
MODEL_KINDS = tuple(_CODECS)


def model_kind(model) -> str:
    for kind, (cls, _, _) in _CODECS.items():
        if isinstance(model, cls):
            return kind
    raise ModelFormatError(f"unsupported model type {type(model).__name__}")


def envelope(model, train_manifest_hash: str | None = None) -> dict:
    kind = model_kind(model)
    return {
        "format_version": FORMAT_VERSION,
        "model_kind": kind,
        "created_by": f"glassbox-credit {__version__}",
        "train_manifest_hash": train_manifest_hash,
        "payload": _CODECS[kind][1](model),
    }


def dumps(model, train_manifest_hash: str | None = None) -> str:
    """Serialize a model to its JSON envelope string.

    ``json.dump`` uses ``repr`` for floats, which is the shortest decimal
    that round-trips, so no precision is lost.
    """
    return json.dumps(envelope(model, train_manifest_hash), indent=2) + "\n"


def save_model(model, path, train_manifest_hash: str | None = None) -> None:
    with write_atomic(path) as fh:
        fh.write(dumps(model, train_manifest_hash))


def from_envelope(env: dict):
    if not isinstance(env, dict):
        raise ModelFormatError("envelope must be a JSON object")
    version = env.get("format_version")
    if version != FORMAT_VERSION:
        raise ModelFormatError(f"unsupported format_version {version!r}")
    kind = env.get("model_kind")
    if kind not in MODEL_KINDS:
        raise ModelFormatError(f"unknown model_kind {kind!r}")
    payload = env.get("payload")
    if not isinstance(payload, dict):
        raise ModelFormatError("missing payload")
    try:
        return _CODECS[kind][2](payload)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ModelFormatError(f"malformed {kind} payload: {exc}") from exc


def load_model(path):
    return from_envelope(read_json(path, ModelFormatError))
