"""Synthetic package whose utils layer hands work to a thread pool."""
