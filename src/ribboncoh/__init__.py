"""Ribbon graph complexes: enumeration, differentials, exact cohomology."""

from .complexes import ComplexSpec, build, cohomology

__version__ = "0.1.0"
