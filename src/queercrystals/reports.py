"""Uniform check records for verifiers: {check, instance, status, witness?}.

The record rule: a record's status is "pass" when its condition holds and
"fail" otherwise, and only a failed record carries a witness.  ``check``
applies that rule to one condition; ``record`` builds a record whose
status is already known, such as an "info" record.
"""


def record(check: str, instance: str, status: str, witness=None) -> dict:
    rec = {"check": check, "instance": instance, "status": status}
    if witness is not None:
        rec["witness"] = witness
    return rec


def check(name: str, instance: str, ok: bool, witness=None) -> dict:
    """The record of one condition: "pass" when ok, else "fail" with the
    witness, if any."""
    return record(name, instance, "pass" if ok else "fail",
                  None if ok else witness)


def passed(records) -> bool:
    """At least one record and none failed: an empty report checked nothing."""
    return bool(records) and all(r["status"] != "fail" for r in records)


def report(records, **extra) -> dict:
    records = list(records)
    out = {"records": records, "passed": passed(records)}
    out.update(extra)
    return out
