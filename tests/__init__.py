"""Tier-1 test suite (a package so ``tests.reference`` is importable)."""
