"""Webcam-based heart rate and respiration rate estimation.

Pipeline: video ingest -> face tracking -> color/motion features ->
band-limited spectral rate estimation, plus ECG/respiration-belt ground
truth extraction, synthetic scene generation, and report emission.
"""
