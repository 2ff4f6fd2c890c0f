"""Every output of the toolkit, replayed against the committed goldens.

``tests/golden/regen.py`` defines the cases and wrote the goldens; its
docstring says what they cover and how a change that moves one says so.
"""

import hashlib
import json
from types import SimpleNamespace

import pytest

from golden import regen
from transduce import MillerChain, MixingBands, second_order_photoelasticity

CLI = json.loads((regen.HERE / "cli.json").read_text(encoding="utf-8"))
DEMOS = json.loads((regen.HERE / "demos.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    regen.make_fixtures(path)
    return path


def test_every_case_has_a_golden():
    assert list(CLI) == list(regen.CLI_CASES)
    assert list(DEMOS) == [demo.name for demo in regen.DEMOS]


@pytest.mark.parametrize("case", [*regen.CLI_CASES, *regen.DEMOS],
                         ids=lambda c: getattr(c, "name", c))
def test_output_matches_golden(case, workdir):
    if case in regen.CLI_CASES:
        assert regen.cli_golden(workdir, case) == CLI[case]
    else:
        assert regen.replay(workdir, demo=case) == DEMOS[case.name]


def test_library_corpus_matches_golden():
    texts = regen.corpus()
    head = (regen.HERE / "library_head.txt").read_text(encoding="utf-8")
    assert "".join(texts[:regen.HEAD_DESIGNS]).splitlines() == head.splitlines()
    assert regen.sha256(texts) == (regen.HERE / "library.sha256").read_text().strip()


def test_corpus_bands_keep_their_derived_bits(monkeypatch):
    # omega_t and the wavelengths of every corpus design's bands, as derived
    # attributes, hash as they did when omega_t was a stored field; a rebuilt
    # copy derives the same bits again.
    built = []

    def spy(*args, **kw):
        built.append(MixingBands.from_vacuum_wavelengths(*args, **kw))
        return built[-1]
    monkeypatch.setattr(regen, "MixingBands", SimpleNamespace(from_vacuum_wavelengths=spy))
    regen.corpus()
    assert len(built) == regen.N_DESIGNS
    text = "".join(f"{b.omega_t!r} {b.wavelengths!r}\n" for b in built)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "8ffdab10e7b871ef26a82c5b87a7c202107033deccdec211ac1304c894caa096")
    for b in built:
        again = b.replace()
        assert (again.omega_t, again.wavelengths) == (b.omega_t, b.wavelengths)


def test_corpus_chains_are_rebuilt_from_their_fields(monkeypatch):
    # The chain a corpus design reports is what its (n_bands, p_entries,
    # d_eff) give: the record runs the chain, so vars(), and with it the
    # corpus text, are those of a chain built from the three fields alone.
    built = []

    def spy(*args, **kw):
        built.append(second_order_photoelasticity(*args, **kw))
        return built[-1]
    monkeypatch.setattr(regen, "second_order_photoelasticity", spy)
    texts = regen.corpus()
    # Every chain that did not raise, 2527 of the 3000.
    assert len(built) == sum(text.count("  chain: MillerChain(") for text in texts) == 2527
    for c in built:
        assert vars(MillerChain(c.n_bands, c.p_entries, c.d_eff)) == vars(c)
