"""Docstring examples must stay runnable (they are the API's first docs)."""

import doctest

import pytest

import repro.compressor
import repro.mas.itinerary
import repro.mas.serializer
import repro.simnet.kernel
import repro.xmlcodec
import repro.xmlcodec.writer

MODULES = [
    repro.xmlcodec,
    repro.xmlcodec.writer,
    repro.compressor,
    repro.mas.itinerary,
    repro.mas.serializer,
    repro.simnet.kernel,
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_doctests(module):
    results = doctest.testmod(module, verbose=False)
    assert results.failed == 0, f"{results.failed} doctest failures in {module.__name__}"
    assert results.attempted > 0, f"no doctests found in {module.__name__}"
