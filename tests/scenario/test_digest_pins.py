"""Digest pins and the key table's flag walk.

``ScenarioSpec.digest()`` is a sweep-cache key component and the name a
corpus report gives each spec, so a change to parsing or canonicalisation
that moves any digest invalidates caches and reports.  The hexes below are
pinned for every checked-in document and a generated corpus of 20; move
one only on purpose.  The second half walks :data:`repro.scenario_keys.KEYS`:
every flag a verb declares must reach its ``[section] key``.
"""

import pytest

from repro.cli import build_parser, _lower
from repro.corpus import CorpusConfig, generate_corpus
from repro.platforms import PLATFORMS
from repro.scenario import load_scenario
from repro.scenario_keys import KEYS

DOCUMENT_DIGESTS = {
    "examples/scenarios/fig5_cell_zcu102.toml":
        "606bf63d445a1ab8c1ae0bbf82c035015f5c22bb2d0766daf4d6361e67febcc9",
    "examples/scenarios/jetson_faults.toml":
        "67f5f9741dca31f83394ea8b90fc6efeacaac55b58971952e5927bcddc6bb512",
    "examples/scenarios/radar_zcu102.toml":
        "0f748f4bac8cef93d14147d36018677b2d5a286956628d1ca13321fbf1c81c75",
    "examples/scenarios/serve_poisson.toml":
        "e68e5776f9318fdc9ba50103781ec935382dbee87f63d6bd7165dd86231a2651",
    "benchmarks/e2e/specs/batch_api.toml":
        "af656f54e34b6bb6195a7964996cfcfc29ced1fc88e24381436605f55fd07a13",
    "benchmarks/e2e/specs/batch_dag.toml":
        "16afa5e4a6fddaf952f763aa9971cac88a8d1a1845997ceda064d0bbf9e6ead3",
    "benchmarks/e2e/specs/faulty_jetson.toml":
        "1bb5e67844577cc958fb6fb0999dcf985844e7e31251d0aa3442ee514c43443a",
    "benchmarks/e2e/specs/serve_knee.toml":
        "662076c9c208a73ad48a362febaac21245c4c94e6611ba2f849035fd30d168d9",
    "benchmarks/e2e/specs/corpus/corpus-0-0000.json":
        "d71cefff10eced42d6db640bdb544db203ab487c1c6ef641902e4e6dce4b61db",
    "benchmarks/e2e/specs/corpus/corpus-0-0001.json":
        "1d93e327d6ffed817fa950f146287e10d3fc2eeea76ffe9b8d12271bc85507c5",
    "benchmarks/e2e/specs/corpus/corpus-0-0002.json":
        "2043111b5233f3a77f74066470be1bd1e13069d5ead40000966c077335a4322d",
    "benchmarks/e2e/specs/corpus/corpus-0-0003.json":
        "c5273788883b2ed0da578db9a8098edcc6ea176bfa23546ae6bbe0da260d2830",
    "benchmarks/e2e/specs/corpus/corpus-0-0004.json":
        "9e0b30fec1c7fdeb9fba965d4d39b0770c8b9b0d99517930ec974041350c8e01",
    "benchmarks/e2e/specs/corpus/corpus-0-0005.json":
        "c4996da2eb710b3e52848591b117fa755e21449fe427b2516c4650340d3da9bf",
    "benchmarks/e2e/specs/corpus/corpus-0-0006.json":
        "613182442687945665401698c64ce9210360a50c0fb652bd6033c4db203cf0a1",
    "benchmarks/e2e/specs/corpus/corpus-0-0007.json":
        "2c76fd402899aa1d2be6520bff39ed33620ca5b8a13a69629e9c266778302711",
    "examples/corpus/corpus-0-0000.json":
        "d71cefff10eced42d6db640bdb544db203ab487c1c6ef641902e4e6dce4b61db",
    "examples/corpus/corpus-0-0001.json":
        "1d93e327d6ffed817fa950f146287e10d3fc2eeea76ffe9b8d12271bc85507c5",
    "examples/corpus/corpus-0-0002.json":
        "2043111b5233f3a77f74066470be1bd1e13069d5ead40000966c077335a4322d",
    "examples/corpus/corpus-0-0003.json":
        "c5273788883b2ed0da578db9a8098edcc6ea176bfa23546ae6bbe0da260d2830",
    "examples/corpus/corpus-0-0004.json":
        "9e0b30fec1c7fdeb9fba965d4d39b0770c8b9b0d99517930ec974041350c8e01",
    "examples/corpus/corpus-0-0005.json":
        "c4996da2eb710b3e52848591b117fa755e21449fe427b2516c4650340d3da9bf",
    "examples/corpus/corpus-0-0006.json":
        "613182442687945665401698c64ce9210360a50c0fb652bd6033c4db203cf0a1",
    "examples/corpus/corpus-0-0007.json":
        "2c76fd402899aa1d2be6520bff39ed33620ca5b8a13a69629e9c266778302711",
}

CORPUS_20_DIGESTS = [
    "e15472a9d8a5babde10dc8132eaa56430243cbe198cf3283f46666bce6011e76",
    "41620ad6bc493ecb1a45459d2ea4644ae92f7d5ecbf97852c225853b7d9dccf5",
    "d9ac820980390543d397b3a365bee37be21ad10bedf122830c54a393323f3c28",
    "50e3f92e9234acd1d33a5f942a935ada87224efa209bb069d239966a0a2eb343",
    "5a87ad97c503806a4d3752c641f502d2c03366432a45a4238a37b62778f3385b",
    "cf28c433b97062f3074be1f580c1b0764fd8893f6c4b345c247b76eae929080f",
    "aadaf3bdbcaac17d6b1ad996e8285d309e0d6b7ead5298e0dcb68caec8fdda87",
    "eccf7067c3614b599a4e32aba86670efc4f6dafdc48a0788d0f2b51cd862b99d",
    "308e02ded479a656e12b2a4bb768a2e20e3f5304ccb10642f12e5a8597906959",
    "bf4a5f7147d41dd9d8a5b7e7762c0dc44b5bcfa8726484aa549e078135a9a680",
    "46463e4a592611561fd082ac297703dd0521fe2b21fb726b7227d0838b3ce18e",
    "8c77442d23f63216a5af653381dfd58184ff9d839080a24281b336505f1293bf",
    "2ea5e12e5a0a880a52e6412b80fb179f64edc3999c2a7a0b133f7869d47b183c",
    "f97e40d275375bcb3a551dddbc9041d4529204974fcb0f450fd7780232d54d6a",
    "dcb94205202d9a08758cc2261280a761914e04bbef3d287d43e0d0f9d5fec3fc",
    "9b19dd331062fe37a99340f6a3ba5db58b32c55cb98b915ab21d169dcebd8637",
    "33d6568884eb2bd6bbae8484469e8a8b7b3e5e9e3f4ac679ab5804e7758bc2b7",
    "f3555b266eec87d331b4e5e54fee2e631d726f79466b73809bbe3ab8bce43c6c",
    "50f871a1db1b23733d31dead77dfb9d4c008978bd0ca1d2a51b7f3529c401b40",
    "08180c193cfd505b89b657b90ab290c7518d042ede1d54794bcacbc9682eb4cd",
]


@pytest.mark.parametrize("path,digest", sorted(DOCUMENT_DIGESTS.items()))
def test_checked_in_document_digest_is_pinned(repo_root, path, digest):
    assert load_scenario(repo_root / path).digest() == digest


def test_every_checked_in_document_is_pinned(repo_root):
    patterns = ("examples/scenarios/*.toml", "benchmarks/e2e/specs/*.toml",
                "benchmarks/e2e/specs/corpus/*.json", "examples/corpus/*.json")
    found = {
        str(p.relative_to(repo_root)) for pattern in patterns
        for p in repo_root.glob(pattern)
    }
    assert found == set(DOCUMENT_DIGESTS)


def test_generated_corpus_digests_are_pinned():
    specs = generate_corpus(CorpusConfig(n=20), seed=0)
    assert [spec.digest() for spec in specs] == CORPUS_20_DIGESTS


# ------------------------------------------------------------------ #
# every flag row lowers to its key
# ------------------------------------------------------------------ #

#: a non-default value per structured type, and what the canonical form holds
STRUCTURED = {
    "apps": ("PD:3", [{"name": "PD", "count": 3}]),
    "kinds": ("hang", ["hang"]),
}


def _flag_cases():
    for verb in ("run", "serve", "audit"):
        for row in KEYS:
            if verb in row.verbs:
                yield pytest.param(verb, row, id=f"{verb}-{row.flag}-{row.section}")


def _other_value(row, default):
    """A value for *row*'s flag that differs from the verb's default."""
    if row.type in STRUCTURED:
        return STRUCTURED[row.type]
    if row.choices or isinstance(row.check, tuple):
        options = row.choices() if row.choices else row.check
        value = next(o for o in options if o != default)
    elif row.key == "arrival":
        value = "poisson:rate=50"
    elif row.key == "name":  # the scheduler
        value = "rr"
    elif row.type == "float":
        value = (default or 0.0) + 0.5
    else:
        value = 2 if default is None else default + 1
    return str(value), value


@pytest.mark.parametrize("verb,row", _flag_cases())
def test_every_flag_reaches_its_key(verb, row):
    parser = build_parser()
    argv = [verb] + (["diff"] if verb == "audit" else [])
    if verb == "audit" and row.section.startswith("serve"):
        argv.append("--serve")
    if row.section.startswith("platform") and row.key != "name":
        # a platform that declares the parameter
        argv += ["--platform", next(n for n in PLATFORMS.names()
                                    if row.key in PLATFORMS.get(n).params)]
    if row.section == "faults" and row.key != "rate":
        argv += ["--fault-rate", "1"]  # [faults] is gated on a positive rate
    default = parser.parse_args(argv).__dict__[row.dest]
    if row.type == "bool":
        argv.append(row.flag)
        expected = True
    else:
        text, expected = _other_value(row, default)
        argv += [row.flag, text]
    spec = _lower(parser.parse_args(argv))
    table = spec.canonical()
    for part in row.section.split("."):
        table = table[part]
    assert table[row.key] == expected
