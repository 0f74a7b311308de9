"""Output checks.  They run after each timed op, never inside it."""

from __future__ import annotations

import json
from pathlib import Path


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(cond: bool, message: str, *args) -> None:
    if not cond:
        raise CheckFailed(message % args if args else message)


class Schemas:
    """Validators for the program's JSON payloads, from ``src/szk/schemas``."""

    def __init__(self, schema_dir: Path):
        # imported here, so that importing this module costs set-up nothing
        from jsonschema import Draft202012Validator
        from referencing import Registry, Resource
        docs = [json.loads(p.read_text()) for p in sorted(schema_dir.glob("*.json"))]
        expect(bool(docs), "no schemas under %s", schema_dir)
        registry = Registry().with_resources(
            (d["$id"], Resource.from_contents(d)) for d in docs)
        self._validators = {
            d["$id"].rsplit("/", 1)[-1][:-len(".json")]:
                Draft202012Validator(d, registry=registry)
            for d in docs}

    def validate(self, name: str, payload) -> None:
        errors = list(self._validators[name].iter_errors(payload))
        expect(not errors, "%s payload invalid: %s", name,
               errors[0].message if errors else "")
