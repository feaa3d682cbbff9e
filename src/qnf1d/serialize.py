"""Spec (de)serialization: a key-value schema with a ``type`` discriminator.

Example document (YAML; JSON works too since the loader accepts it):

    type: eckart
    V_minus: 0.0
    V_plus: 2.0
    V0: -1.0
    a: 1.0
    constants: {hbar: 1.0, mass: 1.0, mode: nonrelativistic}

Field names are exactly the potential parameters; unknown keys are rejected.
"""

from __future__ import annotations

import dataclasses

from .errors import DomainError
from . import potentials as P

__all__ = ["TYPE_NAMES", "spec_to_dict", "dict_to_spec", "loads", "load_file", "dumps"]

TYPE_NAMES = {
    "delta": P.Delta,
    "double_delta": P.DoubleDelta,
    "asym_double_delta": P.AsymDoubleDelta,
    "step": P.Step,
    "rect_barrier": P.RectBarrier,
    "asym_rect_barrier": P.AsymRectBarrier,
    "tanh": P.Tanh,
    "sech2": P.Sech2,
    "poschl_teller": P.PoschlTellerSech2,
    "eckart": P.Eckart,
    "rosen_morse": P.RosenMorse,
    "morse_feshbach": P.MorseFeshbach,
    "mobius2": P.Mobius2,
    "morse": P.Morse,
    "manning_rosen": P.ManningRosen,
    "hulthen": P.Hulthen,
    "tietz": P.Tietz,
    "hua": P.Hua,
}
_CLASS_NAMES = {cls: name for name, cls in TYPE_NAMES.items()}


def _norm_type(name: str) -> str:
    return str(name).strip().lower().replace("-", "_")


def spec_to_dict(spec) -> dict:
    cls = type(spec)
    if cls not in _CLASS_NAMES:
        raise DomainError(f"unknown spec class {cls.__name__}")
    out = {"type": _CLASS_NAMES[cls]}
    for f in dataclasses.fields(spec):
        out[f.name] = getattr(spec, f.name)
    return out


def dict_to_spec(doc: dict):
    if not isinstance(doc, dict):
        raise DomainError("spec document must be a mapping")
    doc = dict(doc)
    tname = doc.pop("type", None)
    if tname is None:
        raise DomainError("spec document is missing the 'type' key")
    tkey = _norm_type(tname)
    if tkey not in TYPE_NAMES:
        raise DomainError(
            f"unknown potential type {tname!r}; known: {', '.join(sorted(TYPE_NAMES))}"
        )
    cls = TYPE_NAMES[tkey]
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in doc.items():
        if key not in fields:
            raise DomainError(
                f"unknown key {key!r} for type {tkey}; expected {sorted(fields)}"
            )
        kwargs[key] = value if key == "kind" else float(value)
    missing = [
        name for name, f in fields.items()
        if name not in kwargs and f.default is dataclasses.MISSING
    ]
    if missing:
        raise DomainError(f"missing keys for type {tkey}: {missing}")
    return cls(**kwargs)


def constants_to_dict(c: P.PhysicalConstants) -> dict:
    return {"hbar": c.hbar, "mass": c.mass, "mode": c.mode}


def dict_to_constants(doc) -> P.PhysicalConstants:
    if doc is None:
        return P.PhysicalConstants()
    if not isinstance(doc, dict):
        raise DomainError("'constants' must be a mapping")
    allowed = {"hbar", "mass", "mode"}
    unknown = set(doc) - allowed
    if unknown:
        raise DomainError(f"unknown constants keys: {sorted(unknown)}")
    return P.PhysicalConstants(
        hbar=float(doc.get("hbar", 1.0)),
        mass=float(doc.get("mass", 1.0)),
        mode=str(doc.get("mode", "nonrelativistic")),
    )


def loads(text: str):
    """Parse a config document -> (spec, constants)."""
    import yaml  # on first use: most commands read no config

    # libyaml's C parser where pyyaml was built with it: the same documents
    # at a sixth of the cost
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        doc = yaml.load(text, Loader=loader)
    except yaml.YAMLError as exc:
        raise DomainError(f"config parse error: {exc}") from exc
    if not isinstance(doc, dict):
        raise DomainError("config must be a key-value mapping")
    doc = dict(doc)
    constants = dict_to_constants(doc.pop("constants", None))
    return dict_to_spec(doc), constants


def load_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(fh.read())


def dumps(spec, constants: P.PhysicalConstants | None = None) -> str:
    import yaml

    doc = spec_to_dict(spec)
    if constants is not None:
        doc["constants"] = constants_to_dict(constants)
    return yaml.safe_dump(doc, sort_keys=False)
