"""Pins the exact bytes of every artifact kind and of the binary table.

The artifact and binary-table hashes were recorded with the per-pair
implementation that preceded the byte-permutation kernel, and the text
table's with the per-row formatter that preceded the table-driven one,
so any change in the bytes written, for any mode, format or layout,
fails here.
"""

import hashlib
import io
import random

import pytest

from fbar import addressing, codec, transtable
from fbar.codec import CompressJob
from test_transtable import text_row

INPUTS = {
    "empty": b"",
    "one": b"\x5a",
    "odd": b"resolved!",
    "text": b"the quick brown fox jumps over the lazy dog; " * 91 + b"!",
    "zeros": bytes(4097),
    "random200k": random.Random(2011).randbytes(200 * 1024),
}

SHA256 = {
    "tt.interleaved": "e317c9c400a403b092ff2053b01053e4821fefacc45ecb2826ecc2d33e74d597",
    "empty.1tt.paper.interleaved": "f982deb57a7e14705a7cf61445c574bb36558a82ebaaf36a8b5f54b12e3a3e45",
    "empty.1tt.honest.interleaved": "f88aaa284254452bab34ca77e13d8da93acb8f85198e54edcd7f99217866f735",
    "empty.4tt.paper.interleaved": "9584540cb1a5a1cbfe8f3684071d26a62570dae08a455b65cca155e029a6ebd7",
    "empty.4tt.honest.interleaved": "f88aaa284254452bab34ca77e13d8da93acb8f85198e54edcd7f99217866f735",
    "one.1tt.paper.interleaved": "488fdef972ead934df5cf43901455c9c4ee11ac76d235ced70ea85715b5dada1",
    "one.1tt.honest.interleaved": "2d791afe0a1ef9eb7fec785110351c8adb075ef763face9182223906dd6ae34a",
    "one.4tt.paper.interleaved": "67015735d25feb7146e8e2990ae8d32c8e921150aeb34e92dc1eb92e3b9e6019",
    "one.4tt.honest.interleaved": "2d791afe0a1ef9eb7fec785110351c8adb075ef763face9182223906dd6ae34a",
    "odd.1tt.paper.interleaved": "4ab17e3acc3782e0243aa96f9fa957859160ad665d009f21066c2ef2fa274086",
    "odd.1tt.honest.interleaved": "443cf494c3b9fa6bbf6698e82014ed24b346f4c8fd21777618616461efe88a80",
    "odd.4tt.paper.interleaved": "28bc7239d80bfa642cb60b62b451fa22a0a570a0e4f6ef9278dfb7a3f1777e86",
    "odd.4tt.honest.interleaved": "443cf494c3b9fa6bbf6698e82014ed24b346f4c8fd21777618616461efe88a80",
    "text.1tt.paper.interleaved": "c60da1f704aa2423ac3e47c0984b2be4e23d7e0f73c7e320a9159dc8bc681ce5",
    "text.1tt.honest.interleaved": "b7253654784610141b250c8e70e00018659554cfab8b5a5425a611ec8356425a",
    "text.4tt.paper.interleaved": "ad41f5def7b3cabbe4e4ef8529289a201f09a851aaba4904581baf3ec1753be7",
    "text.4tt.honest.interleaved": "b7253654784610141b250c8e70e00018659554cfab8b5a5425a611ec8356425a",
    "zeros.1tt.paper.interleaved": "fabb88c055dc56a71a48a745cb444203eef8bc444e5d7d4e873f84af98cc13a5",
    "zeros.1tt.honest.interleaved": "79f0c519bf04fecccfc1ecdf20a41d71f6f4af8e9ceb9d3df4bee7b6e81cfb46",
    "zeros.4tt.paper.interleaved": "5e0404f30613c0c350a6b7e24dfcbea13f8f51ec8f045016e84b6b0ff80e4528",
    "zeros.4tt.honest.interleaved": "79f0c519bf04fecccfc1ecdf20a41d71f6f4af8e9ceb9d3df4bee7b6e81cfb46",
    "random200k.1tt.paper.interleaved": "8ebeb4d12c52470c544786cb28ae3dd2136812eba0e22b7b73a41af577c5e360",
    "random200k.1tt.honest.interleaved": "d6d2e8e4456fc55e37a09bf0475dbabb38f21be3ff5ecdadd89f88f8875a8872",
    "random200k.4tt.paper.interleaved": "4aef0cfd10fd01da0373f49fc35ed315689f8f84a8354b704b278aa51ae46b3d",
    "random200k.4tt.honest.interleaved": "d6d2e8e4456fc55e37a09bf0475dbabb38f21be3ff5ecdadd89f88f8875a8872",
    "tt.grouped": "98f3bbeeed2591ab17a88cc0ded1df7c530b7d5d0ce72739d37a4e20057acc44",
    "empty.1tt.paper.grouped": "f982deb57a7e14705a7cf61445c574bb36558a82ebaaf36a8b5f54b12e3a3e45",
    "empty.1tt.honest.grouped": "f88aaa284254452bab34ca77e13d8da93acb8f85198e54edcd7f99217866f735",
    "empty.4tt.paper.grouped": "9584540cb1a5a1cbfe8f3684071d26a62570dae08a455b65cca155e029a6ebd7",
    "empty.4tt.honest.grouped": "f88aaa284254452bab34ca77e13d8da93acb8f85198e54edcd7f99217866f735",
    "one.1tt.paper.grouped": "488fdef972ead934df5cf43901455c9c4ee11ac76d235ced70ea85715b5dada1",
    "one.1tt.honest.grouped": "2d791afe0a1ef9eb7fec785110351c8adb075ef763face9182223906dd6ae34a",
    "one.4tt.paper.grouped": "67015735d25feb7146e8e2990ae8d32c8e921150aeb34e92dc1eb92e3b9e6019",
    "one.4tt.honest.grouped": "2d791afe0a1ef9eb7fec785110351c8adb075ef763face9182223906dd6ae34a",
    "odd.1tt.paper.grouped": "178f7fcfc33daa984338118b19d1d7dbc04d06800d6a90f3f29aecab7639b308",
    "odd.1tt.honest.grouped": "7db4b72569e37c2ff150b82ea5ae9630c08a6620f1d6a6227099126939fdc507",
    "odd.4tt.paper.grouped": "63fc2d147194137f688baee151ef1b21ea249efb8ac69ca3732fc42975764a07",
    "odd.4tt.honest.grouped": "7db4b72569e37c2ff150b82ea5ae9630c08a6620f1d6a6227099126939fdc507",
    "text.1tt.paper.grouped": "9350293b4dcf075205aa9855a136899eb0423ff3858b7a2d9645164aa2b2c3ec",
    "text.1tt.honest.grouped": "8809a436e641933a6091d68fdce4156a9e1df0c63c2bfb1e201697f067e33d69",
    "text.4tt.paper.grouped": "5aef7f0ef607b61de12c09c222c4e9feb27f87c10d0ad13fb26ecd237a181821",
    "text.4tt.honest.grouped": "8809a436e641933a6091d68fdce4156a9e1df0c63c2bfb1e201697f067e33d69",
    "zeros.1tt.paper.grouped": "fabb88c055dc56a71a48a745cb444203eef8bc444e5d7d4e873f84af98cc13a5",
    "zeros.1tt.honest.grouped": "79f0c519bf04fecccfc1ecdf20a41d71f6f4af8e9ceb9d3df4bee7b6e81cfb46",
    "zeros.4tt.paper.grouped": "5e0404f30613c0c350a6b7e24dfcbea13f8f51ec8f045016e84b6b0ff80e4528",
    "zeros.4tt.honest.grouped": "79f0c519bf04fecccfc1ecdf20a41d71f6f4af8e9ceb9d3df4bee7b6e81cfb46",
    "random200k.1tt.paper.grouped": "78fe7b854d248f73250751e0049ef5c892d91c69bae371b1c0da602e3c1da1d7",
    "random200k.1tt.honest.grouped": "4bc389ac1fd8b04512aec637e752c4bec0eb5dd78c4a38b006edbe23c1b06d7e",
    "random200k.4tt.paper.grouped": "dc60908c64544fa393069b4156ecae455322fc46226b187731e7338144b79716",
    "random200k.4tt.honest.grouped": "4bc389ac1fd8b04512aec637e752c4bec0eb5dd78c4a38b006edbe23c1b06d7e",
}

TEXT_SHA256 = {
    "interleaved": "3b4db8f327d2782e0d197817e923d3184445829a064acfe791a7f863412bb544",
    "grouped": "70687cfd4049626fd944e54021cf87efc96048d05b29f626800068e6bd681e43",
}


def _sha(data):
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("layout", ["interleaved", "grouped"])
def test_artifacts_are_byte_identical(layout):
    tt = transtable.generate_tt(layout)
    tables = {"1tt": tt, "4tt": transtable.TtSet4((tt, tt, tt, tt))}
    sink = io.BytesIO()
    transtable.serialize_binary(tt, sink)
    assert _sha(sink.getvalue()) == SHA256[f"tt.{layout}"]
    for name, data in INPUTS.items():
        for mode in ("1tt", "4tt"):
            for fmt in ("paper", "honest"):
                job = CompressJob(data=data, tables=tables[mode], mode=mode, fmt=fmt)
                artifact = codec.compress(job).artifact
                assert _sha(artifact) == SHA256[f"{name}.{mode}.{fmt}.{layout}"], (
                    name, mode, fmt,
                )


@pytest.mark.parametrize("layout", ["interleaved", "grouped"])
def test_text_table_is_byte_identical(layout):
    tt = transtable.generate_tt(layout)
    sink = io.BytesIO()
    transtable.serialize_text(tt, sink)
    text = sink.getvalue()
    assert _sha(text) == TEXT_SHA256[layout]
    width = transtable.TEXT_ROW_BYTES
    fragments = {
        0: b" 1x1x1x1 ",
        addressing.row_of_pair(0x00, 0x00, layout): b" %00%00 ",
        addressing.row_of_pair(0x25, 0x41, layout): b" %25A ",
        65535: b"65536 16x16x16x16 ",
    }
    for row, fragment in fragments.items():
        line = text_row(tt, row)
        assert line == text[row * width : (row + 1) * width], row
        assert fragment in line, row
