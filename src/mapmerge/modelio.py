"""Serialization of learned models: alphabet, extraction parameters, the
prior pseudo-count matrix, observation model, and marginal view frequencies
travel together so they can never be mixed across alphabets."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields

import numpy as np

from .views import ExtractionParams, ViewAlphabet


@dataclass(frozen=True)
class PriorBundle:
    alphabet: ViewAlphabet
    alpha: np.ndarray
    obs_model: np.ndarray
    marginals: np.ndarray
    extraction: ExtractionParams

    def __post_init__(self):
        nu = self.alphabet.nu
        for name in ("alpha", "obs_model"):
            arr = getattr(self, name)
            if arr.shape != (nu, nu):
                raise ValueError(f"{name} must be {nu}x{nu}")
        if self.marginals.shape != (nu,):
            raise ValueError("marginals must have length nu")


def dump_prior(bundle: PriorBundle) -> str:
    doc = {
        "nu": bundle.alphabet.nu,
        "alphabet": list(bundle.alphabet.entries),
        "alphabet_hash": bundle.alphabet.content_hash(),
        "alpha": bundle.alpha.tolist(),
        "observation_model": bundle.obs_model.tolist(),
        "marginals": bundle.marginals.tolist(),
        "extraction_params": asdict(bundle.extraction),
    }
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


def _field(doc: dict, name: str, check, what: str):
    """doc[name], which check accepts; a ValueError names a missing or
    wrongly typed field."""
    if name not in doc:
        raise ValueError(f"prior file has no {name!r} field")
    if not check(doc[name]):
        raise ValueError(f"prior field {name!r} must be {what}")
    return doc[name]


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _array(doc: dict, name: str, valid, rule: str) -> np.ndarray:
    """doc[name] as an array of finite numbers that valid accepts (rule
    says in words what it asks for)."""
    what = "a (nested) list of finite numbers"
    value = _field(doc, name, lambda v: isinstance(v, list), what)
    try:
        arr = np.asarray(value)
    except ValueError:  # ragged
        raise ValueError(f"prior field {name!r} must be {what}") from None
    if arr.dtype.kind not in "iuf" or not np.isfinite(arr).all():
        raise ValueError(f"prior field {name!r} must be {what}")
    arr = arr.astype(float)
    if not valid(arr):
        raise ValueError(f"prior field {name!r} must be {rule}")
    return arr


def load_prior(text: str) -> PriorBundle:
    """Parse a dump_prior file; a missing, wrongly typed or unusable field
    raises a ValueError that names it.  Other keys, such as the transition
    counts older files carry, are ignored."""
    doc = json.loads(text)
    if not isinstance(doc, dict):
        raise ValueError("prior file must hold a JSON object")
    entries = _field(doc, "alphabet",
                     lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
                     "a list of strings")
    alphabet = ViewAlphabet(tuple(entries))
    if _field(doc, "alphabet_hash", lambda v: isinstance(v, str),
              "a string") != alphabet.content_hash():
        raise ValueError("alphabet hash mismatch: corrupt or mixed model file")
    if _field(doc, "nu", lambda v: isinstance(v, int) and not isinstance(v, bool),
              "an integer") != alphabet.nu:
        raise ValueError("declared nu disagrees with the alphabet")
    names = {f.name for f in fields(ExtractionParams)}
    extraction = _field(
        doc, "extraction_params",
        lambda v: isinstance(v, dict) and set(v) <= names
        and all(map(_is_number, v.values())),
        "an object of numbers with keys among " + ", ".join(sorted(names)))
    return PriorBundle(
        alphabet=alphabet,
        alpha=_array(doc, "alpha", lambda a: np.all(a > 0), "positive"),
        obs_model=_array(doc, "observation_model", lambda a: np.all(a > 0)
                         and np.allclose(a.sum(axis=0), 1.0, rtol=0.0, atol=1e-9),
                         "positive with every column summing to 1"),
        marginals=_array(doc, "marginals", lambda a: np.all(a > 0)
                         and np.allclose(a.sum(), 1.0, rtol=0.0, atol=1e-9),
                         "positive and summing to 1"),
        extraction=ExtractionParams(**extraction),
    )
