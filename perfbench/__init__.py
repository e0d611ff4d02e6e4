"""End-to-end and per-layer benchmark for the ``cdlab`` command-line front door.

``run.py`` is the entry point; ``workloads`` generates seeded requests,
``oracle`` checks every report against closed forms, ``tracing`` wraps the
library's public functions for the per-layer run, and ``provenance`` records
the machine and software the numbers come from.
"""
