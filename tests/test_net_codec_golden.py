"""Golden digests: every byte of the wire format, pinned.

SHA-256 of ``encode(m)`` for each of the 64 canonical instances in
``tests/test_net_codec.py::MESSAGES`` (all 43 message types) and of both
rumor payloads, taken on the commit *before* the codec became a table
walk (``5912cd6``).  A codec edit that moves one byte on the wire fails
here first — run this file before anything else after touching
``repro.gossip.wire`` or ``repro.net.codec``.  A deliberate wire change
bumps ``NET_CODEC_VERSION`` and regenerates the literals.
"""

import hashlib

import pytest

from repro.net.codec import encode, encode_member_payload, encode_update_payload
from tests.test_net_codec import MESSAGES, RECORD

#: (type name, SHA-256 of the encoded frame), in ``MESSAGES`` order.
GOLDEN = [
    ("RumorPush", "94353a54cec412dd1d268659bb53681382c6b68c722bb43fc7cd4517125f384c"),
    ("RumorReply", "25ca70d523ad367dbccd132e7b614d3ccb7a3d4d247af364774a441fa16bffd2"),
    ("RumorData", "f45c95e98cea08aca12f1cc165698a42594ffb916ee8384ccdd136b15d4aae62"),
    ("AERequest", "c5bb6f79464e640de3b180db6ee5bb6ad26a3c55451d10c39b7a1d267fe80e68"),
    ("AENothing", "bc5959f43bc6e47175374b6716e53c9a7d72c59424c821336995bad760d9aeb3"),
    ("AERecent", "d9915d3e44f9b75b8fb7bcc5959fed54f106e99dd8cc3f273715cb749f952828"),
    ("AESummary", "26aea273fef01f60dd327939fdb0bd15c39169c8ccda9fc1d2f962edd5d12e1a"),
    ("PullRequest", "d4b60b6e89bf8944087fcc38c3122c9f4163cfb8671a952a8f44f37c30f3a037"),
    ("PullRequest", "76b724e6dcf0ce1fba246b4dfe1b63c0e2d0d71531f36f223186f4e41190b164"),
    ("JoinRequest", "8946ea55b16acf3171eaae03c83625ff4b56b12616df47ccb364ad9481fd3d4d"),
    ("JoinSnapshot", "d4426529aa2db3c496c0e5be4528ebd758c5f2e8f4f54b38c7f7fdce729f9c8b"),
    ("RankedQuery", "0de2fef6009914defb2acd3bf5bd8e64926f3cb5e4acbf1ea23ddb22590a498d"),
    ("RankedResponse", "b6002261cacc81d3ab8c7b5d416bb04daac1404f5cc80318346b5ba7eb002934"),
    ("ExhaustiveQuery", "536960dbfd62f68d3006029151a3ccaf078b38db81c0d8124a0ea37cb36a2097"),
    ("ExhaustiveResponse", "9d5339aac84ea885b092f24aeac059b492372c4df529263fdafd04eff093959e"),
    ("SnippetFetch", "70b591bce13482ec0097891ebccf872274fc9de2930c5001d7c6c8f98fc361f7"),
    ("SnippetResponse", "6d191f8169ec185b2e9c1d9481421f234eabc9c3087f4d7bd98058cb9d0205b3"),
    ("SnippetResponse", "e81a5609c5fb2a083bcaf94b70c845e736899ad6339652190224dad90a864e07"),
    ("PublishRequest", "996b4b9f6e2ec00b065f6845d5c35c54efdd1fd9abe97ba0b3f0cfba7d699406"),
    ("PublishRequest", "1ec236a7be67276f5770f9a02af16d868648f8948bb0618adfebc14b543325e7"),
    ("PublishAck", "9d83b1c6ad73b288d894f6b5b763a6701f29945ccb939ec3b7a98b55a5db7699"),
    ("PublishAck", "81fc5eb4ffdf431eef46db1a3bdcb276ed80a7033ce51623bc864d757e451236"),
    ("StatsRequest", "dce37f3512b6337d27290436ba9289e2fd6c775494c33668dd177cf811fbd47a"),
    ("StatsResponse", "0fb11c90d8e631e5248a3590695311f6c589ffc4bb330f4e66f899be18662123"),
    ("StatsResponse", "a682378dabfa2580de564ba529bb5e62304c2760ea34d943804200828b4d5312"),
    ("SubscribeRequest", "49a33c5b42521331253d93642a1564f5947b6e51e32932e2916a231ddc8e4e4e"),
    ("SubscribeRequest", "83bd2cba05a6ce20494f4fc46ce3251d3d73eb34b5c4230dc852069b52016c9d"),
    ("SubscribeAck", "a1d9c122be4dc98c490fc269e4397f8bd667faf225d84890c8cf455bd59d15dc"),
    ("SubscribeAck", "4af4c3b084619092f840a927186a03a6caa1c033e3fb7b0140888cd58b1ada94"),
    ("Notify", "6ca83c1fd78ea44c8ae417ec0cde21f88a683ef192af89d414d85199f132b9fe"),
    ("Unsubscribe", "5d594c1e87dbd89c7541718f2adc33521ce094881e558452a8b141e4e61c9208"),
    ("ShardSummaryRequest", "61e46b66a9368011d6505e08cddd560b7f62c353bcf44c8ee34c15149fcd6e57"),
    ("ShardSummaryRequest", "f4442686eeee37298a8d9edfaebfaa9a00a356ecbf5695706a8be6e66336ccbb"),
    ("ShardSummaryRequest", "de35aab06e4b84e2c6e27743c163c310d69daade5483be717d7ea5be9b57dd56"),
    ("ShardSummaryReply", "b60991736bb40102570489a61fa43e13175bbd000974fb981b80a7a1176aeb33"),
    ("ShardSummaryReply", "1677c765591d23866e83c3c961d49b977b1b510fb2f6e94f8025f52eb549438d"),
    ("ViewExchange", "147d2ea7e1c2faefe331f316747fc530e8ef777d98724e71d019d7ab479a0f27"),
    ("ViewExchange", "9c34cf40a69718ddd9f1a9dfb50a08aaea948233bfcf6765a35127fa0009762c"),
    ("ShardMatchQuery", "c49b09697fbae83cd3401854b2ac7cf36c8503364b13dc6e17b9bf3f4b9af771"),
    ("ShardMatchResponse", "2f3a0e8fc79cc52175178660a271eaa821d26be12745213ae7d20ca40ffabecb"),
    ("ShardMatchResponse", "fc82d33af388db90ed18752fe62c9eee7d9b5681915e18fd6e030cbed609e7fb"),
    ("ManifestRequest", "b99596bb1505094f869909ff25bbdb14e2e7bfa26fbab9c8541365bd0d641ada"),
    ("ManifestReply", "7ac9351e6ec15007c85a46fbafcdc0da974f76f58c26643f6ac29784c66fbcb7"),
    ("ManifestReply", "19030f1bfb95e3a9e66d96155cf07de0838417af28533505eb89cff354035504"),
    ("ManifestReply", "bc493e95aa9532685f4d67559759f92bea7d149f6608993b4cf498027560e8ec"),
    ("ChunkRequest", "cf75b50068a447e53c73e22ac59bca7e788d200477ff91fc76baa8e371c74470"),
    ("ChunkReply", "7f7eefcfc266d11e9286a7aa40543a15f22f908e36e9c3e7a35c910980479b10"),
    ("ChunkReply", "0c8899f8ffd62e421bc41c682a7690eb57713681b3aa131bd9b0b965439f5b51"),
    ("ManifestPush", "881ab21e8957b046ef34cbd94d022de14c0bbce1447feea80ee3b2c84262a9e6"),
    ("ManifestAck", "7be1457bd2f2e87058930189f8010e8e467b2996fc0035a52df7afb59f24003c"),
    ("ManifestAck", "be6812d66afc67800b824a54d7c2702bc97ed6146d8f6dacbaff3c607d3c9c84"),
    ("ManifestAck", "6828309da574738b445b2fd03f7938810bbfae13c759eab819c50421f7f90e0e"),
    ("ChunkPush", "03d7f9fcfa96bcd59dec108be9b88322d27d1c7b8c034d7490e6ffc30e518a9d"),
    ("SketchExchange", "8d9ce5be7d6ee478fc7dc877fdb5bff2b1e0a9c1c9bbe051661cdd1fe78b893b"),
    ("SketchExchange", "277391f9b994efbfde7a2dbfd314660b60c370599f9c040275ae7102445ed7c1"),
    ("SketchReply", "c0ecb9f915da559043829d6c1328d9c0e85811a162552798b7079818b37835b8"),
    ("SketchReply", "1a17cc36edd587124b24506afa2a81b2221c76fc73d908633f988d6f751f0241"),
    ("TopTermsRequest", "551d3322fdca42b905561a916ce08f72cd8582da29875aa1077110a3a74d7270"),
    ("TopTermsReply", "3040b4b8400666449809030ce2d9664603601fcc151f4e020958c60418e4b339"),
    ("TopTermsReply", "72dfe7ee65b97f12b7fba36e26eab6161ce5b42b0a353c02d2b523061537aa3d"),
    ("BrowseRequest", "ab4ccfe0d62512cf18be0bb31fc54ea0764ef728a11913db346e6bbcf1635c4f"),
    ("BrowseResponse", "c794ee1a2a904b731f8537d492ee71ac290875ff29c4f6af3bd9492ccc36d52a"),
    ("BrowseResponse", "2e595bfe0941fb13e5cc07994eb27c35ee868f697c32ce1d4541930ef483c82a"),
    ("ErrorReply", "ee7e2a4858db4b22846443730526281c967ac1bfcf7bac99d86ebe9183530d0a"),
]

#: SHA-256 over the 64 frames concatenated in order.
GOLDEN_ALL = "bf742c7a6d8f2a95460cc2f0c3e967ba6357ce9cf680f74bf22a7eff1de56fc8"


def test_golden_list_matches_the_canonical_instances():
    assert [type(m).__name__ for m in MESSAGES] == [name for name, _ in GOLDEN]


@pytest.mark.parametrize(
    ("msg", "digest"),
    [(m, d) for m, (_, d) in zip(MESSAGES, GOLDEN, strict=True)],
    ids=[f"{i}-{name}" for i, (name, _) in enumerate(GOLDEN)],
)
def test_frame_bytes_are_pinned(msg, digest):
    assert hashlib.sha256(encode(msg)).hexdigest() == digest


def test_all_frames_concatenated_are_pinned():
    blob = b"".join(encode(m) for m in MESSAGES)
    assert hashlib.sha256(blob).hexdigest() == GOLDEN_ALL


def test_rumor_payload_bytes_are_pinned():
    member = encode_member_payload(RECORD, b"bloom")
    assert hashlib.sha256(member).hexdigest() == (
        "237188c171aa5715d20ff4eabb9f6099e7b7e07d80ef29cbe6c2255492518f8d"
    )
    update = encode_update_payload(5, b"golomb-diff")
    assert hashlib.sha256(update).hexdigest() == (
        "1b560ed80de9c7f170a0241989b4cfba9ea8ce35678e03546d123e7cc6a04485"
    )
