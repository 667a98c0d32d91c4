"""The compression report's order-0 entropies, computed on first read.

``empirical_H`` and ``shannon_H0`` describe the input, not the
compression, so ``compress`` leaves the byte histogram to the first read
of either one.  These tests pin that the deferred values and renderings
equal the eager ones, that ``compress`` itself never counts, that the
histogram is built once, and that the report keeps its own copy of a
mutable input.
"""

import hashlib
import math
from collections import Counter

import pytest

from fbar import metrics
from fbar.codec import FORMAT_HONEST, FORMAT_PAPER, CompressJob, compress
from fbar.gridfile import MODE_1TT, MODE_4TT
from test_golden import INPUTS

TIMING_KEYS = ("elapsed_s=", "throughput_Bps=")

# SHA-256 of render_kv() without its two timing lines, recorded with the
# eager report that counted the input inside build_report.
RENDER_KV_SHA256 = {
    "empty.1tt.paper": "8dbd8bcd982214540866a19f60315613cfce815befbf3edc3363be857e7a71d7",
    "empty.1tt.honest": "9f27238595e96fba9fee72dedcb5ac5c7cf4355696fe583b4b9f27c4ef94c645",
    "empty.4tt.paper": "aa74952942e272fc19eb060e8844c8e2ce1b626be1d5eb855e93165411cd0605",
    "empty.4tt.honest": "eae3f823c177d57b1dd9f5ba6c8f73a6d3896c065ed23fb0555f321125244d51",
    "one.1tt.paper": "490387114917638bfc4e84bbc003d456a74ac9cc1ded7b6c404ce03953b9e0e5",
    "one.1tt.honest": "94aaa446a95f5d6d96cde979fbe40894be876e26fd2b9bdcbf585f38d96f1568",
    "one.4tt.paper": "47f79758ec890342cfc661f706fb81093203f6e854c51d2103c771af24cdb90c",
    "one.4tt.honest": "afd634cd2830d007b2da353a3efb1942c3924b1bdf0ddc054c7c09c52c951d84",
    "odd.1tt.paper": "8aae034b73af76669c7b10a23f62586e3dfd245eb9181a18612570ad7cac32a0",
    "odd.1tt.honest": "35f880f6e32a4fbe351b3d0ba4ebebcfb027e6cb032ff24f8f7b2063b9b29ecc",
    "odd.4tt.paper": "b33a32f5eabf3636ecc35563363dae78aa2fc343b555fe0fde6923122633a327",
    "odd.4tt.honest": "2279500f54558b37d4eef95c0ae938cf93e050fbb4e2d36d2d0298fe66d35cf3",
    "text.1tt.paper": "0bf7a1066a292f200deff9ce820a5d7bcff3f67b490c9d4a2c4be6c109e2c5a9",
    "text.1tt.honest": "b2d9113655b6c666adc1ff616b520593f71124edc644a93eb45f5296c61386b1",
    "text.4tt.paper": "69c12231488a1137598f5b821dc7d0d8c485d30a0effe78f3eb63ae8ee8aa931",
    "text.4tt.honest": "915fd3ab2c10b81eb083e3ebc8bc52ad97590768994b5b51e3ca34873c9ed40a",
    "zeros.1tt.paper": "0173fec9ab433366ab17d164cf439bc0daf767ea4fb14998c1e37527b1210c8c",
    "zeros.1tt.honest": "f3ec28a0ef54c9ac5c489c5917394050a9af9bae63bcb5472184281d17b15c98",
    "zeros.4tt.paper": "93611b4c420b7d09ee200b1b2919149160da3116cf67ab2e42767082b981ed40",
    "zeros.4tt.honest": "931bcbd5bc7417f9eedf626eed9176352a34dd2e2037283e07795011fe9b4c07",
    "random200k.1tt.paper": "65410ced75a78c833a4f7252008ba2f553299d3112c730462bcafcf839e23c0b",
    "random200k.1tt.honest": "fbc10e2e7dd8ae9b53613563b044076990d3bb05ffee9d7fece6deb147ca2ef8",
    "random200k.4tt.paper": "d5bcfb58b14995f5a3b9d73247bfb807441f417b1b9734350a462eb3751d828d",
    "random200k.4tt.honest": "99595ba365b874a9964d7b8a55f145aad7335a103e6c5623da63c81a959e7d6f",
}


def eager_entropies(data):
    """(log2 of the distinct byte count, entropy of the byte frequencies),
    counted here from the input; both 0.0 for empty input."""
    if not data:
        return 0.0, 0.0
    counts, n = Counter(data).values(), len(data)
    return math.log2(len(counts)), -sum(c / n * math.log2(c / n) for c in counts)


CASES = [(mode, fmt) for mode in (MODE_1TT, MODE_4TT) for fmt in (FORMAT_PAPER, FORMAT_HONEST)]


@pytest.fixture()
def tables(tt, set4):
    return {MODE_1TT: tt, MODE_4TT: set4}


def _report(data, tables, mode, fmt):
    return compress(CompressJob(data=data, tables=tables[mode], mode=mode, fmt=fmt)).report


@pytest.mark.parametrize("mode,fmt", CASES)
@pytest.mark.parametrize("name", sorted(INPUTS))
def test_lazy_report_equals_eager(name, mode, fmt, tables):
    data = INPUTS[name]
    report = _report(data, tables, mode, fmt)
    lines = report.render_kv().splitlines()
    assert lines[-2].startswith(TIMING_KEYS[0]) and lines[-1].startswith(TIMING_KEYS[1])
    kept = "\n".join(line for line in lines if not line.startswith(TIMING_KEYS))
    assert hashlib.sha256(kept.encode()).hexdigest() == RENDER_KV_SHA256[f"{name}.{mode}.{fmt}"]
    assert (report.shannon_H0, report.empirical_H) == eager_entropies(data)


class CountingRefused(Exception):
    pass


@pytest.mark.parametrize("mode,fmt", CASES)
def test_compress_never_counts(mode, fmt, tables, monkeypatch):
    def refuse(*args):
        raise CountingRefused

    monkeypatch.setattr(metrics, "Counter", refuse)
    report = _report(b"resolved!", tables, mode, fmt)
    assert report.input_size == 9
    with pytest.raises(CountingRefused):
        report.render_kv()


def test_histogram_built_once(tt, monkeypatch):
    calls = []
    order0 = metrics.order0

    def counted(data):
        calls.append(bytes(data))
        return order0(data)

    monkeypatch.setattr(metrics, "order0", counted)
    report = _report(b"resolved!", {MODE_1TT: tt}, MODE_1TT, FORMAT_PAPER)
    assert calls == []
    for _ in range(2):
        assert report.empirical_H == eager_entropies(b"resolved!")[1]
        assert report.shannon_H0 == 3.0
        assert "shannon_H0_bpc" in report.render_table()
    assert calls == [b"resolved!"]


@pytest.mark.parametrize("fmt", (FORMAT_PAPER, FORMAT_HONEST))
def test_report_keeps_its_own_copy_of_a_bytearray(fmt, tt):
    data = bytearray(b"resolved!")
    report = _report(data, {MODE_1TT: tt}, MODE_1TT, fmt)
    data[:] = bytes(len(data))
    assert report.empirical_H == eager_entropies(b"resolved!")[1]
    assert report.shannon_H0 == 3.0
