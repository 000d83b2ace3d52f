"""End-to-end benchmark of the repro package (see ``perfbench/run.py``)."""
