"""Golden digests of the front end's output on the 16 benchmark sources.

Each entry is the SHA-256 of one source's token stream (kind, value, line,
column per token) and of its parsed AST's ``repr``, which includes every
node's source location.  A lexer or parser change that alters a single
token, node or location changes a digest, so these pin the front end's
observable behaviour while its implementation changes.
"""

import hashlib

import pytest

from repro.bench import NAS, SPEC, load_all
from repro.lang import parse_program, tokenize

load_all()
SOURCES = {spec.name: spec.source for spec in [*SPEC.all(), *NAS.all()]}

DIGESTS = {
    "303.ostencil": (
        "8938765b6e6822bc9878ee6ad3691b8d2d46b2e3891795c10e8c900bef0a9f5c",
        "441702350527a9632080791f1ee4aeefa8097e97f61c739070d0b86f9d8afaa7",
    ),
    "304.olbm": (
        "72704472af5acbf4a9e141f1d075e9e957c8d6d5122ee66cc7a31a41434bb6ae",
        "465866f81d411d8d7d826e193e74cd115d76e9827b7b93ff5c9b3972132024df",
    ),
    "314.omriq": (
        "2ccc1a95c074533de3950937e91278798b08af2c39aed7b190e74376f525220e",
        "580e211954d3fd0168f29d3b263792847d4ad99ee1b5bc95315d1f5a7400cadf",
    ),
    "350.md": (
        "d6e7dd05d9c7f9f03fe80e9460091debf3b221a6fa6d3777d2d2eb5a4f1a5d77",
        "2f84b1ccd779e78f107ce3960e9738ffdecdc7975516077fd5f3e308bb621799",
    ),
    "351.palm": (
        "90cd59f63ff9efc88c868db74a85c1445130bd26db72e13fdff6ca85ee104158",
        "a61f5ffd694683feb3cdd9d1de9ff68919bf780f15a21514e5f43f8da6ca84d4",
    ),
    "352.ep": (
        "b671d1c1796a55658bc26773dd4c0029b9c6b42b1d013a493d2eaf0d52ccfed6",
        "e19d9641ff2effc231dd5c023002486381810c5a80e715d5f30b2b08022dea95",
    ),
    "354.cg": (
        "3d4148dcf15da98f237ef2440041ba805aee6da24242918b53f4663db956c8f8",
        "ecbb0899e79757af8e4dbc252aec33f496c96d2b20b38b658ddc66f0ed1b0b13",
    ),
    "355.seismic": (
        "8492cd609b4b3dd0d9f263aaab2d4160138f543182760a83c59f37a498e8c771",
        "396edcf8027999ed551685a3c7edbcd4393e0a359657d500f881162e43615cf4",
    ),
    "356.sp": (
        "fd8b34feea90c6cd66b71280c323067f13b2c470fa1ea2ebc6cefa358255e4f8",
        "b88546ae76fb74e8a06795d4e74b4f31c15e40a558beb7cfdf725ba5ccefdde3",
    ),
    "357.csp": (
        "8870c7ec11e5d61c22a39cf207e97bc6f9eb2f6eeb7f68f2d5f286d4d5a4fead",
        "b8b7fc042aca96c958c7dfee7832651b581498d283a0b19154c6e6bb0889efc6",
    ),
    "BT": (
        "8197ccd2a4712e8acc5e409fa3cc7491f09f2fae8301e7f5f63c37fadd99162b",
        "beac35273aafd401806ed49d026789eac14c0cd4665dc2173fd9fed0e52501ed",
    ),
    "CG": (
        "0b666fc5dfd8325f164df5f26e296a26440da8eb89b16f289f0d64b675d41ea0",
        "126ae6df5675e7f40ec4d104f4151963de97e31950c0fe108b218a0cec4c24ca",
    ),
    "EP": (
        "475e7141837f3947221b64bd87d8fdad5bc677107b27365c629bfdcfc4f69a80",
        "71b703a921b4586d3caa307518181eaefc96ae24549ecf550e21c1f89c5b134b",
    ),
    "LU": (
        "f4df43afd5290144d55a10f120e211dbebce2e78a019872e55a00d47294299da",
        "aeaff799fc98724678a6b6d5a79ba9bdff8aec7262acba545178242ca367ed15",
    ),
    "MG": (
        "f500e6e676ec9fd7c1396ea04e1cc34d3f102f28b99554c5100755c359462818",
        "b00ba442592b421a58d8bd6a0b8503baf52c60345c30f90625d88461e05eb938",
    ),
    "SP": (
        "d5206ddceb949efd5b823ba90959eb9164a7473d6651aad7081ceb7268e14599",
        "607edcad3d05f8c9be5a8ec1555d1660efc4048d1d311eb32a508fb2e14d5aa8",
    ),
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def token_stream(source: str) -> str:
    return "\n".join(
        repr((t.kind.name, t.value, t.loc.line, t.loc.column)) for t in tokenize(source)
    )


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_token_stream_digest(name):
    assert sha256(token_stream(SOURCES[name])) == DIGESTS[name][0]


@pytest.mark.parametrize("name", sorted(DIGESTS))
def test_ast_digest(name):
    assert sha256(repr(parse_program(SOURCES[name]))) == DIGESTS[name][1]
