"""Uniform check records for verifiers: {check, instance, status, witness?}."""


def record(check: str, instance: str, status: str, witness=None) -> dict:
    rec = {"check": check, "instance": instance, "status": status}
    if witness is not None:
        rec["witness"] = witness
    return rec


def passed(records) -> bool:
    """At least one record and none failed: an empty report checked nothing."""
    return bool(records) and all(r["status"] != "fail" for r in records)


def report(records, **extra) -> dict:
    records = list(records)
    out = {"records": records, "passed": passed(records)}
    out.update(extra)
    return out
