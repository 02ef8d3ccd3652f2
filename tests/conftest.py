"""Every test runs with the limit variables unset: a value the caller set
for HKKIT_QCAP, HKKIT_NLIMIT or HKKIT_PLIMIT changes no result."""

import pytest


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    for name in ("HKKIT_QCAP", "HKKIT_NLIMIT", "HKKIT_PLIMIT"):
        monkeypatch.delenv(name, raising=False)
