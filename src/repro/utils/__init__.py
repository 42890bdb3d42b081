"""Shared low-level utilities: RNG handling, bit operations, statistics,
and random distributions used across the PlanetP reproduction."""
