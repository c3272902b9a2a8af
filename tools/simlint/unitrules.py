"""SIM301-SIM305: dimensional-consistency rules (the units layer).

Descriptors and message templates for the unit half of the fourth
simlint layer.  The inference engine itself lives in
:mod:`tools.simlint.units`; this module deliberately has no dependency
on it so the CLI can list rules without building a project.

The rules police the invariant the gap harness silently relies on: every
scalar flowing between the lower-bound theory, the max-min allocator,
and the runtime is either ``Seconds``, ``Bytes``, ``BytesPerSec`` or a
dimensionless ``Fraction`` — and arithmetic moves between those kinds
only along the physical derivation table (``Bytes / Seconds →
BytesPerSec`` and friends).  A bytes-vs-seconds mixup corrupts measured
JCTs and lower bounds *together*, which is exactly the failure class the
fingerprint goldens cannot catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple


@dataclass(frozen=True)
class UnitRule:
    """Descriptor of one dimensional-analysis rule."""

    code: str
    name: str
    description: str


UNIT_RULES: Tuple[UnitRule, ...] = (
    UnitRule(
        code="SIM301",
        name="mixed-unit-arithmetic",
        description=(
            "Addition or subtraction mixes two different physical units "
            "(e.g. Seconds + Bytes), or a value contradicts its declared "
            "unit annotation / unit[...] pragma. Units must agree exactly "
            "for +/-; convert through the derivation table first "
            "(volume / rate, rate * time)."
        ),
    ),
    UnitRule(
        code="SIM302",
        name="cross-unit-comparison",
        description=(
            "A comparison mixes two different physical units, or compares "
            "two Seconds values with ==/!= outside the blessed "
            "repro.simulator.timecmp helpers. Cross-unit ordering is "
            "meaningless; float-time equality must go through "
            "times_close/time_before."
        ),
    ),
    UnitRule(
        code="SIM303",
        name="unit-mismatched-sink",
        description=(
            "A value of one unit reaches a parameter or return annotated "
            "with another — classically a Bytes volume flowing into a "
            "Seconds-typed sink without the rate division. Divide by a "
            "BytesPerSec rate (or fix the annotation) so the dimensions "
            "line up."
        ),
    ),
    UnitRule(
        code="SIM304",
        name="unitless-literal-sink",
        description=(
            "A bare numeric literal (other than 0/±1) is passed directly "
            "into a unit-annotated parameter. Name the constant with a "
            "unit-annotated binding (or assert the unit in place with "
            "'# simlint: unit[...]') so the quantity's dimension is "
            "checkable."
        ),
    ),
    UnitRule(
        code="SIM305",
        name="unit-erasure",
        description=(
            "A value read back from a dict/JSON round-trip (json.load/"
            "loads and subscripts of it) reaches a unit-annotated sink "
            "with its unit erased. Recover the unit at the read site with "
            "'# simlint: unit[...]' so the dimension survives "
            "serialization."
        ),
    ),
)

UNIT_RULES_BY_CODE: Dict[str, UnitRule] = {rule.code: rule for rule in UNIT_RULES}


# ----------------------------------------------------------------------
# Message templates (the engine fills in inferred units and call targets)
# ----------------------------------------------------------------------
def msg_mixed_arith(op: str, left: str, right: str) -> str:
    return (
        f"mixed-unit arithmetic: {left} {op} {right} — convert through a "
        "rate (Bytes / BytesPerSec -> Seconds) instead of mixing units"
    )


def msg_annotation_conflict(declared: str, inferred: str) -> str:
    return (
        f"value inferred as {inferred} contradicts its declared unit "
        f"{declared}"
    )


def msg_cross_compare(left: str, right: str) -> str:
    return (
        f"cross-unit comparison: {left} vs {right} — comparing different "
        "physical units is meaningless"
    )


def msg_time_equality() -> str:
    return (
        "Seconds compared with ==/!= outside repro.simulator.timecmp — "
        "use times_close/time_before"
    )


def msg_sink_mismatch(arg_unit: str, param: str, param_unit: str, target: str) -> str:
    hint = (
        " (missing rate division: divide the volume by a BytesPerSec rate)"
        if (arg_unit, param_unit) == ("Bytes", "Seconds")
        else ""
    )
    return (
        f"{arg_unit} value passed to {param_unit}-typed parameter "
        f"{param!r} of {target}{hint}"
    )


def msg_return_mismatch(inferred: str, declared: str, target: str) -> str:
    return (
        f"{inferred} value returned from {target}, which is annotated to "
        f"return {declared}"
    )


def msg_unitless_literal(literal: str, param: str, param_unit: str, target: str) -> str:
    return (
        f"unit-less literal {literal} passed to {param_unit}-typed "
        f"parameter {param!r} of {target} — bind it to a unit-annotated "
        "name or assert with '# simlint: unit[...]'"
    )


def msg_erased(param: str, param_unit: str, target: str) -> str:
    return (
        f"unit erased by a dict/JSON round-trip reaches {param_unit}-typed "
        f"parameter {param!r} of {target} — recover it with "
        "'# simlint: unit[...]' at the read site"
    )
