"""Slow reference implementations the fast product paths are pinned to."""
