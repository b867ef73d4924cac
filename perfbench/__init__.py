"""Host-cost benchmark of the simulator; entry point ``perfbench/run.py``."""
