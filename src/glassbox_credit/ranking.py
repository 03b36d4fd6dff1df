"""Ordered feature rankings produced by the different importance methods."""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

from .errors import DataError

METHODS = ("coef", "shap", "ebm")


@dataclass
class RankedFeatures:
    """Feature names with non-increasing importance scores.

    ``method`` is one of ``coef``, ``shap``, ``ebm``; ``source`` identifies
    the model the ranking came from.
    """

    names: list[str]
    scores: list[float]
    method: str
    source: str = ""
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.method not in METHODS:
            raise DataError(f"unknown ranking method {self.method!r}")
        if len(self.names) != len(self.scores):
            raise DataError("names and scores must have equal length")
        if len(set(self.names)) != len(self.names):
            raise DataError("ranked feature names must be unique")
        for a, b in zip(self.scores, self.scores[1:]):
            if b > a + 1e-12:
                raise DataError("scores must be non-increasing")

    def top(self, k: int) -> list[str]:
        if not 1 <= k <= len(self.names):
            raise DataError(f"k={k} out of range 1..{len(self.names)}")
        return self.names[:k]

    def to_json(self) -> str:
        return json.dumps(
            {
                "method": self.method,
                "source": self.source,
                "features": [
                    {"name": n, "score": s} for n, s in zip(self.names, self.scores)
                ],
                "meta": self.meta,
            },
            sort_keys=True,
        )

    @classmethod
    def from_json(cls, text: str) -> "RankedFeatures":
        return cls.from_dict(json.loads(text))

    @classmethod
    def from_dict(cls, obj) -> "RankedFeatures":
        """The ranking in an object ``to_json`` wrote. DataError naming the
        key, or the index in ``features``, of a value that is missing or of
        another type: every feature needs a str name and a finite score."""
        if not isinstance(obj, dict):
            raise DataError(f"a ranking must be an object, got {type(obj).__name__}")
        for key in ("method", "features"):
            if key not in obj:
                raise DataError(f"ranking lacks key {key!r}")
        for key, want in (("method", str), ("features", list), ("source", str), ("meta", dict)):
            if key in obj and not isinstance(obj[key], want):
                raise DataError(f"ranking key {key!r} must be {want.__name__}, "
                                f"got {type(obj[key]).__name__}")
        for i, f in enumerate(obj["features"]):
            # type(), not isinstance: a JSON true is no score; the bound
            # rejects NaN, the infinities and ints too large for a float
            if not (isinstance(f, dict) and isinstance(f.get("name"), str)
                    and type(f.get("score")) in (int, float)
                    and abs(f["score"]) <= sys.float_info.max):
                raise DataError(f"ranking features[{i}] must be an object with a str 'name' "
                                f"and a finite number 'score', got {f!r}")
        return cls(
            names=[f["name"] for f in obj["features"]],
            scores=[f["score"] for f in obj["features"]],
            method=obj["method"],
            source=obj.get("source", ""),
            meta=obj.get("meta", {}),
        )


def rank_from_scores(names, scores, method, source="", meta=None) -> RankedFeatures:
    """Sort descending by score, ties broken by original feature index."""
    order = sorted(range(len(names)), key=lambda i: (-scores[i], i))
    return RankedFeatures(
        names=[names[i] for i in order],
        scores=[float(scores[i]) for i in order],
        method=method,
        source=source,
        meta=meta or {},
    )
