"""Shared fixtures: the paper's Fig. 1 data model, seeded RNGs and a
build counter."""

from __future__ import annotations

import random

import pytest

from repro.model import (
    Blob, Block, Crc32Fixup, DataModel, Number, attach_fixup, size_of,
)


@pytest.fixture
def rng():
    return random.Random(0xDAC2020)


@pytest.fixture
def fig1_model():
    """The paper's Figure 1 model M: ID, Size(sizeof Data), Data, CRC.

    Data contains CompressionCode, SampleRate and ExtraData; Size carries
    sizeof(Data) via a Relation and CRC is a Crc32Fixup over the rest.
    """
    data = Block("Data", [
        Number("CompressionCode", 2, default=1),
        Number("SampleRate", 4, default=44_100),
        Blob("ExtraData", default=b"\x01\x02\x03"),
    ])
    return DataModel("fig1", Block("root", [
        Number("ID", 1, default=0x7F, token=True),
        size_of(Number("Size", 2), "Data"),
        data,
        attach_fixup(Number("CRC", 4), Crc32Fixup(["ID", "Size", "Data"])),
    ]))


@pytest.fixture
def build_calls(monkeypatch):
    """The model name of every ``DataModel.build`` call made while the
    test runs, in call order."""
    calls = []
    original = DataModel.build

    def counted(self, *args, **kwargs):
        calls.append(self.name)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(DataModel, "build", counted)
    return calls
