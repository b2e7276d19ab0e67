"""Seeded, oracle-checked, layer-attributed benchmark of the package
(see README.md in this directory)."""
