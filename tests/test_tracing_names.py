"""The benchmark's per-layer tracer looks program functions up by name;
a rename in the package must fail here, not as a KeyError in a traced run."""

import importlib
import sys
from pathlib import Path

import groupoidlab.cli  # noqa: F401  (loads every module the spans name)

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _load_spans(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    try:
        return importlib.import_module("tracing").SPANS
    finally:
        sys.modules.pop("tracing", None)
        sys.modules.pop("checks", None)


def test_every_traced_name_resolves(monkeypatch):
    spans = _load_spans(monkeypatch)
    assert spans
    missing = []
    for mod_name, cls_name, attrs, _key, _extra in spans:
        mod = sys.modules.get(f"groupoidlab.{mod_name}")
        if mod is None:
            missing.append(f"groupoidlab.{mod_name}")
            continue
        # the tracer patches a method in the class's own namespace and a
        # function in the module's
        owner = getattr(mod, cls_name, None) if cls_name else mod
        names = vars(owner) if owner is not None else {}
        where = f"{mod_name}.{cls_name}" if cls_name else mod_name
        missing += [f"{where}.{attr}" for attr in attrs if not callable(names.get(attr))]
    assert not missing, missing
