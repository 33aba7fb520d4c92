"""Golden digests of whole CLI reports: the exit code and the stdout bytes.

Every sampled check evaluates its rows in blocks of tolerance.BLOCK_ROWS and
reduces across blocks with max/any/first, which must give the bytes the
whole-array evaluation gave. The requests are the benchmark's 10^6-sample
commands run at 40003 samples, so each check spans several blocks and ends
in a ragged one, plus the overflow, NaN and non-ordered cases. The digests
were recorded from the whole-array evaluation; those of `catalog` and the
two law descriptors, from the per-class descriptor methods the law fields
replaced; that of the `e_c` overflow, from the classifier that dispatched
on the law's type before classification read the bracket tables. Those of
the six `classify` and two `witness-verify` reports were re-recorded when
the witness object lost its two verdict flags: each is the earlier report
with only those keys deleted, and its verification states the verdict once.
"""

import contextlib
import hashlib
import io
import json

import pytest

from ordgroups.cli import main

SAMPLES = "40003"


def _law(family, **params):
    return json.dumps({"family": family, "params": params}, sort_keys=True)


_SD300 = _law("semidirect_rr", c=300.0)
_NESTED = _law("product", a={"family": "semidirect_rr", "params": {"c": -2.0}},
               b={"family": "additive", "params": {"n": 1}})

REQUESTS = {
    "axioms t_k": ("axioms", "--law", _law("t_k", k=1.0)),
    "order-check k_cd conj": ("order-check", "--law", _law("k_cd", c=1.0, d=1.0),
                              "--order", "0,1,2", "--normal-coords", "1,2"),
    "order-check semidirect_rr": ("order-check", "--law", _law("semidirect_rr", c=1.0),
                                  "--order", "1,0"),
    "classify e_c": ("classify", "--law", _law("e_c", c=-4.0), "--order", "0,1,2"),
    "classify g_cd": ("classify", "--law", _law("g_cd", c=1.0, d=2.0), "--order", "0,1,2"),
    "classify t_k": ("classify", "--law", _law("t_k", k=1.0), "--order", "2,1,0"),
    # charts whose order lists the coordinates out of chart order
    "classify e_c swapped": ("classify", "--law", _law("e_c", c=-4.0), "--order", "1,0,2"),
    "classify g_cd swapped": ("classify", "--law", _law("g_cd", c=1.0, d=2.0),
                              "--order", "1,0,2"),
    "classify k_cd swapped": ("classify", "--law", _law("k_cd", c=1.0, d=2.0),
                              "--order", "0,2,1"),
    # the bracket 2c overflows: the translation check fails first, exit 3
    "classify e_c overflow": ("classify", "--law", _law("e_c", c=1e308), "--order", "0,1,2"),
    "witness-verify": ("witness-verify", "--source", _law("semidirect_rr", c=2.0),
                       "--target", _law("semidirect_rr", c=1.0), "--matrix", "[[1,0],[0,2]]",
                       "--source-order", "1,0", "--target-order", "1,0"),
    "cocycle-check g3": ("cocycle-check", "--cocycle", '{"cocycle":"g3","k":1}'),
    # the non-ordered control: its counterexample is the first failing pair
    "order-check control": ("order-check", "--law", _law("semidirect_rr", c=1.0),
                            "--order", "0,1"),
    # e^{300 y} overflows: the axioms report overflow, the witness a NaN residual
    "axioms overflow": ("axioms", "--law", _SD300),
    "witness-verify nan": ("witness-verify", "--source", _SD300, "--target", _SD300,
                           "--matrix", "[[1,0],[0,1]]"),
    # law descriptors: 17 canonical laws, a cocycle law, a nested product
    "catalog": ("catalog",),
    "axioms from_cocycle heis": ("axioms", "--law",
                                 _law("from_cocycle", cocycle="heis", c=0.5)),
    "axioms product": ("axioms", "--law", _NESTED),
}

DIGESTS = {
    "axioms overflow": (4, "7a80f0ca49b67656bc262d3927e0419d6849264729940623cb741c9b343794ca"),
    "axioms from_cocycle heis": (0, "9b89f9e81324697e6d3d70cb1af23e4e93ac41f2fc00265cafa3b7b44a958258"),
    "axioms product": (0, "b9259b1249ebae1144dbe3f83554b43a85ed671f2c601f803c2b6e42a2a71e4c"),
    "axioms t_k": (0, "fef5a09e7abf41ddca2023e9f13008c7c2b42d408990bd88319260c75e40787b"),
    "classify e_c": (0, "f1b54f740d75a800d4fdad8954ad47506e00d784106e3845a8bdc1ca8f08810a"),
    "classify g_cd": (0, "fa7f935a46ca9774b97e4e3a6a891845a5ad2602ede5bee292ef049cb61a5b5b"),
    "classify t_k": (0, "6aa1d45b2e5cce8b7cf7ed401368352dba8c0c7ce649af124baf4635e3411914"),
    "classify e_c swapped": (0, "522d93b575b709140cb561416ac477e17e00c905542effaf169c6b160756b74b"),
    "classify g_cd swapped": (0, "bcee387bcf57e4326851a92e5e69d4829885a123e204c0af196c80eefe0adfa0"),
    "classify k_cd swapped": (0, "8c0d981ffb7fc6fd4ef6ff081898234927bc6bb7219d4bbd07f50bdadb70906f"),
    "classify e_c overflow": (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    "catalog": (0, "20c1b223dba972d1d537445fdd4f87543ce6a9a39ef2f9c1e7951c04d1c6ca52"),
    "cocycle-check g3": (0, "5b9bdc9cca3e24e4e0af8e6f0adbc239ab5c839cabfbdf9a017fdf0a12a8ba54"),
    "order-check control": (4, "079c5c6147b1507571e398428c4d80c91d836bb9d6734a8b3f55a5b12faf9256"),
    "order-check k_cd conj": (0, "9c8168924f3fe1b818b6b82b69bb8b109ab600a55d073c8670d1166c398d76c7"),
    "order-check semidirect_rr": (0, "3aa392208fcea10ad30eb135c589c185ce5110d0961929330e90c6f0e42775eb"),
    "witness-verify": (0, "d87daccedbc6ceb63179c0c13b31d831b4f3c7508e58b4ec288cfe33a1cfe1b6"),
    "witness-verify nan": (4, "64f3839d67ac04e8c8ce998ca5971866f3fa301b2905b4257be43ad8a0886986"),
}


def _report(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main([*argv, "--samples", SAMPLES, "--seed", "4242"])
    return code, hashlib.sha256(out.getvalue().encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(REQUESTS))
def test_report_bytes_match_the_recorded_digest(name):
    assert _report(REQUESTS[name]) == DIGESTS[name]
