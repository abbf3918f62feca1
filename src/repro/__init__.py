"""PDAgent reproduction.

A from-scratch Python implementation of *"PDAgent: A Platform for Developing
and Deploying Mobile Agent-enabled Applications for Wireless Devices"*
(Jiannong Cao, Daniel C.K. Tse, Alvin T.S. Chan — ICPP 2004), together with
every substrate the paper's system depends on:

=====================  ======================================================
:mod:`repro.simnet`     deterministic discrete-event network simulator
:mod:`repro.device`     wireless-handheld hardware model + era profiles
:mod:`repro.rms`        J2ME Record Management System substitute
:mod:`repro.xmlcodec`   kXML-substitute XML writer/parser/DOM
:mod:`repro.compressor` Huffman / LZSS / null codecs behind one frame format
:mod:`repro.crypto`     RFC-1321 MD5, RSA, hybrid envelope, key registries
:mod:`repro.mas`        complete mobile-agent system (Aglets substitute)
:mod:`repro.core`       **PDAgent itself**: device platform, gateway,
                        central server, packed information, §3.6 API
:mod:`repro.baselines`  client-server / web-based / client-agent-server
:mod:`repro.apps`       e-banking, food search, m-commerce, workflow,
                        newswire, ride dispatch, auction sniping and job
                        farming; :mod:`repro.apps.mix` deploys six at once
:mod:`repro.telemetry`  causal spans, the metrics registry, JSONL export
:mod:`repro.simtest`    seeded scenario swarm with global invariants
:mod:`repro.experiments` Figure 12/13 + claims + ablation harness
=====================  ======================================================

Quickstart::

    from repro.core import DeploymentBuilder
    from repro.core.api import dispatch_agent, collect_result, run_api_call
    # see examples/quickstart.py for a complete runnable scenario
"""

__version__ = "1.0.0"

__all__ = ["__version__"]
