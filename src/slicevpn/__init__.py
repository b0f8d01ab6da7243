"""Desk-scale VPN-as-a-Service orchestration: descriptor catalog, simulated
infrastructure, a cryptokey-routed encrypted datapath, and a KPI harness."""

__version__ = "0.1.0"
