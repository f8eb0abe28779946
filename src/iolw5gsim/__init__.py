"""Deterministic latency simulator for an IO-Link Wireless + 5G control loop.

Models a sensor-to-edge pipeline (wireless sensors -> W-Master -> Ethernet/5G
-> software PLC -> actuators), reproduces its latency distributions and
computes the worst-case safety function response time and the resulting
minimum safety distance.
"""

__version__ = "0.1.0"
