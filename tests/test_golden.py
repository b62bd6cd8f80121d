"""Golden output: the sha256 of stdout for fixed CLI runs.

The hashes were recorded from the program before the mirrored bar/cobar
and W/co-W constructions were folded into shared skeletons. `--verbose`
prints every differential indexed by basis order, so a relabeled or
reordered basis changes a hash even where the dimension tables agree.
"""
import hashlib
import json

import pytest

from opdual.cli import main

TRIVIAL = {"gens": {"2": [0, 1]}}
FREE = {"gens": {"2": [1]}}

GOLDEN = {
    ("bar", "com"):
        "eadd4e5b0a82a02e6ba8f9e39982620378aa7753f61da61b9b6483a10405f2c8",
    ("bar", "ass"):
        "f569b3f9141bf417d6e7f5c337df7beab4d9c714aec4eb7b8d661c3d874cc85b",
    ("bar", "trivial"):
        "fa2c8b3a734ace1f1a64df156914f74fe7596dbe707ff4a5afa11fb46a34cc4c",
    ("bar", "free"):
        "eb8221f6354eb6a66dc10ed0d75e2541e8413216b7bb272944420dcb03c569f6",
    ("w", "com"):
        "a7456c33927c3c6accbc29e53aa47e9f7db73966240f3c46c3cc12465fb10a21",
    ("w", "ass"):
        "605991ab4bc9cfb13b1e6423e5a9f652f1e56fce29e481dd980abbbd91a32df6",
    ("w", "trivial"):
        "a8ea3a24527526999af7893053b5df00b20bb3a80b11342a59eb4f9f6ec144ed",
    ("w", "free"):
        "7e7859166d4dd043b96684017b03e1b180af9197e7625dbe3c64e7499ffa6eed",
    ("cobar", "com"):
        "4a57ca322c0c11968eab127f6800b688262347beb49220d4540f10f37602c4a2",
    ("cobar", "ass"):
        "34eff384569a2c61e764cfde48d1d831522b54ae996c54d31b4803750042e32b",
    ("cobar", "trivial"):
        "616480cf48f4136641f7aec2d400684fcdc2e1649dd51854d710936b917cdf9d",
    ("cobar", "free"):
        "c5d625d0869f88d281062b939a17bfac8e9d16d5aa21ee3d3eec79d56aa14768",
    ("koszul", "com"):
        "c6c14832c69da74aacae35e0810572759fbfb826d3b4dfd78ff9b192a56f7ff8",
    ("koszul", "ass"):
        "1d6de5dff2104cf769e9fb5f4d7c94087ce32064130d3835c28b7ae2c4189419",
    ("koszul", "trivial"):
        "11cbadb7a547dafd847ec03a39c964aa385cb7459c29dc964ce0a63737f795a3",
    ("koszul", "free"):
        "02483111f4d1725b955702658f8ed540156dfa2705eb45462367900e6fb38c58",
    ("kk", "com"):
        "3a44b903304117a8d62c642ca54eda1f6a728bb9729fba420d30b518544604a3",
    ("kk", "trivial"):
        "91bf790c6c3ae358c476924a7b4b3b11db6c7eb1479be983744b5da29ef8de9a",
    ("check theta", "com"):
        "ae858a45c514be378b4cd661a1713d1d770d1d04fa2dcd85410510c81a696911",
    ("check theta", "trivial"):
        "2c2ac83b03ce683237e316013b13e8fa0714a3127ec951bb0c95d6e43c3ba493",
    # recorded before the composites along a tree merged one edge at a time
    ("check w", "com"):
        "479c7bf1c97fd2738c194b62c8f93d22a78c0cedeebf5ecd19385060c31ec41e",
    ("check w", "ass"):
        "b1836f12253a9d21f8cde0b89d67e6564186145f77157063f898ebd441e2070e",
    ("check w", "trivial"):
        "71c61ed65a1e59cdfe3a626920ad551a3376834f830892306e579766994bf2ff",
}


def _operad_arg(name, tmp_path):
    if name in ("com", "ass"):
        return name
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(TRIVIAL if name == "trivial" else FREE))
    return f"{name}:{path}"


@pytest.mark.parametrize("verb,operad", sorted(GOLDEN))
def test_stdout_matches_golden_hash(verb, operad, tmp_path, capsys):
    argv = verb.split() + ["--operad", _operad_arg(operad, tmp_path)]
    if verb in ("bar", "w", "cobar", "koszul"):
        argv += ["--verbose", "--max-arity", "3"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN[(verb, operad)]


# the cobar verb prints cobar_engine's ends; these hashes, one arity
# above the table, were recorded before the ends read their slot maps one
# label at a time
GOLDEN_COBAR4 = {
    "com": "1d9afa9c084c8e889b79a034cad44f2b8fb4ca077381645c446213d68536affb",
    "ass": "eaa6b26e06104792cb1b6613c2d3e435580d455a35e08049b4901ea95109cd3e",
}


@pytest.mark.parametrize("operad", sorted(GOLDEN_COBAR4))
def test_cobar_arity_4_matches_golden_hash(operad, capsys):
    argv = ["cobar", "--operad", operad, "--verbose", "--max-arity", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == GOLDEN_COBAR4[operad]


# over F3, where -1 is 2 and not 1, so a sign left unreduced shows: the
# entries above run over Q, where the field's operations are bare
# operators; recorded before the rules emitted plain integer signs
GOLDEN_F3 = {
    ("bar", "trivial"):
        "08174aec0f982077bafeddef056356b47634a414cf04b6e741093ac7b0ab8c89",
    ("bar", "free"):
        "4abe383363dd626068b79ec00e1affa8d5d6ebf65e419e30e4d22a1555fee340",
    ("w", "trivial"):
        "f916f83ad34464227fa4bf6fef40f2eb13a11c9731e48499b1a485196a711044",
    ("w", "free"):
        "60ebe09f93e6cbf18524d370ae8b1f58f14a3164f2f3a8fee5c16122d0e44ccc",
    ("cobar", "trivial"):
        "7a4c764ce48f8d730992632c9cb4c2403d46ed4da72d5f0836d003cc49a513a8",
    ("cobar", "free"):
        "c1eb8a991eddbcd4114a66660f18cda832f3a216fe3c29805fc6e3801dc140c9",
    ("koszul", "trivial"):
        "57cfc8ca57a4f644f454242803e4a55909326d9c434ce5464aecd99828f82b4f",
    ("koszul", "free"):
        "3183a274d6919fe1e9019fda456943e93b6518243a46419b9579d32b9b5eac49",
    ("kk", "trivial"):
        "b75984fc98c0031a14b6a7b4eb4339ed84dbe4b9a6fd81ccdf848489dd4d1f6a",
    ("kk", "ass"):
        "5679b238e49641a7260944a7eec3f78189692de53a8657357ffd5bf412880bbc",
    ("check theta", "free"):
        "5805f72c8a18776ab0417ab564ffdfa483c8e6763e13d00a42f367420b8e1d64",
}


@pytest.mark.parametrize("verb,operad", sorted(GOLDEN_F3))
def test_stdout_over_f3_matches_golden_hash(verb, operad, tmp_path, capsys):
    argv = verb.split() + ["--operad", _operad_arg(operad, tmp_path),
                           "--field", "f3"]
    if verb in ("bar", "w", "cobar", "koszul"):
        argv += ["--verbose", "--max-arity", "3"]
    else:
        argv += ["--max-arity", "4"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == \
        GOLDEN_F3[(verb, operad)]
