"""Coherent and classical continuous-time transport on Apollonian networks."""
