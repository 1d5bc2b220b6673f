"""Calibrated correctness probabilities for logged text-to-SQL candidates."""

__version__ = "0.1.0"
