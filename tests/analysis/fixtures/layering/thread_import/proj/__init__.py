"""Synthetic package whose serving layer starts a thread."""
