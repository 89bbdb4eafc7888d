"""Byte-identity guard for the seeded-trial commands.

The sha256 of ``verify`` stdout and CSV for every suite, and of ``explore``
stdout and CSV for both conjectures, at seeds 0, 7 and 71, pinned from the
per-trial engine that ran one matrix at a time.  Any change to how trials
are drawn, grouped or analysed must leave these bytes as they are.
"""

import contextlib
import hashlib
import io

import pytest

from sddkit.bounds import SUITES
from sddkit.cli import main

pytestmark = pytest.mark.blas_bits

SEEDS = (0, 7, 71)
CONJECTURES = ("lower-norm", "det-upper")


def run_digests(kind: str, name: str, seed: int, tmp_path) -> tuple[int, str, str]:
    """(exit code, sha256 of stdout, sha256 of the CSV) of one CLI call."""
    path = tmp_path / f"{kind}-{name}-{seed}.csv"
    if kind == "verify":
        argv = ["verify", "--suite", name, "--n-range", "3,12", "--trials", "23"]
    else:
        argv = ["explore", "--conjecture", name, "--trials", "71"]
    argv += ["--seed", str(seed), "--csv", str(path)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return (code, hashlib.sha256(out.getvalue().encode()).hexdigest(),
            hashlib.sha256(path.read_bytes()).hexdigest())


# Exit code, stdout and CSV digests of each call.
DIGESTS = {
    ("verify", "varah", 0): (0, "9a9725f86da928221ef2e7c04daf3a31af0eda4b3d7de306cc4da9b7f28c4f2f",
                            "6575541d10f24df0906efcfaacff9309e4893933195fa93d54135af6cb4cc5f5"),
    ("verify", "varah", 7): (0, "d09f7cc8a43fe62189dbf932e62ed46c41135a9133548bd0e7b2356e708cd592",
                            "f1361cc6b422fe316468e5e088b1c6b369d1d2950cb231cfb31b2e3c5e2bae99"),
    ("verify", "varah", 71): (0, "c72412e9565ece35fed5c17a18165914c3f64c059797c9f0c5ae9b31e6ec989a",
                             "b7e4a9f4eea4f4304e678ee54e14d2435ed40de0f9e68b57cccd22405bb196e6"),
    ("verify", "main", 0): (0, "5d68adbeb97f25fe41fdbdf85fa733e297a9076db342a384409ffe5baa9bfa91",
                           "bf26f9740d1f92651f034c647b9a341da13bba9d1400e936fb915fb1658e3515"),
    ("verify", "main", 7): (0, "3e6717f8d4b5db96581e3609f8042fbb75e4880fbd599e4fc915c75736b58140",
                           "3cb1c42dd79f665d3a2de43400eb9bb5e64b05526c319674bbf9d6ba1d6dde5b"),
    ("verify", "main", 71): (0, "b325cb16f751fb567592493f92f08d545019a890b79d591758d9713f99c5fcd3",
                            "380342e63f318f00372bb2dd10571fff133852e7dc4b960f62e04db726a33b2f"),
    ("verify", "lower", 0): (0, "0e18807ad967fe4d78984bf9dbc20591a90953e474c42fc210aac8f687dfe177",
                            "081e4c205abfb29bd13c44a064644db134bc96cedf7d28d3f44e36c16a9143c3"),
    ("verify", "lower", 7): (0, "e0501ac9766a4ac882c32cf38f6b9f156e7deab0ab440e94d131e5f0eb00584b",
                            "a007355ab154e795ded244d060be5ee64ae0ce1ce0e2bf431a995bf50a772455"),
    ("verify", "lower", 71): (0, "5121527569fb9d56f738d5e5350d1ee72d8096da748c1a02f7c4d9b22bc14758",
                             "dfc6fd64327fd9ac07cd1cc2913829030d2935a3a1f253dc10f987d74a93a6e3"),
    ("verify", "spectral", 0): (0, "4c51b705d771494e6b02f5bd78a40848a83fc32de0368e2b79a7a52e74c3f036",
                               "c0a9bc022496afde8e5fa31f27a4c882374c87937c146257576bf851321499fe"),
    ("verify", "spectral", 7): (0, "1688b01775d6753a71baad37342c13adca09528cc7b532c37dc70010ffd2e57f",
                               "f71f56fd91e023bf267248754968f41e7be1f0918ab85d9bdb3ec3609530ba21"),
    ("verify", "spectral", 71): (0, "ee046cc72602d22fb2af27bff62958b5ee988b1a391bce0db48a829b96e9d0aa",
                                "e74ca4ced067972c6e13029bab55620f40534192152f18ece325c7f13e5bcc30"),
    ("verify", "cond", 0): (0, "108762a7a28a5540d1e880e69fcc3602b062e9baa3fea8f106a722364fa8648b",
                           "a7fd84a281433e401ac531a34f1bbf18ac10ed5329e1e5d056395a88138d8370"),
    ("verify", "cond", 7): (0, "c7d424effe991fab8fc40cdab67faa1e2cd90833016c18c82c7d67dc63dd51cb",
                           "aaa6249c7c44075834d37cd7fa120f83501ce29d4929111918f9ad0b3cdaf237"),
    ("verify", "cond", 71): (0, "28e28044c8e46939a4c57d0ebd149cc82a9549ea71d0a4298bdb2e3c55199406",
                            "11a43dffbb14df99ec55a8f8cbd0df0f33a07e6389fc2598c46f7d6ff4533fe0"),
    ("verify", "eig", 0): (0, "21a3030b95bf19439a3cd81d6eb4dd9c0caa194f8056ff624a38b9ba903651ac",
                          "f095130788ea9dc558504d45bd0cc7f237e0fc1e3e88e9cdc96e3561ffcdaa07"),
    ("verify", "eig", 7): (0, "7c7aa2bae96ad2031defce7b9746250b10bf022ce211f3dcb4b3cb7d7a3d2c43",
                          "d88393fe1af37a103c8e8239ec9e4b9a3a486b3ef273c90986e708d29086eeb2"),
    ("verify", "eig", 71): (0, "5a59b67b3c75d87bae71b7242306de342d7b154d7932e5538620b51b4e9b1fd2",
                           "b3a4dff48f53140ba80ea7e4f74f3e573740d9ff67871048ad4077910f64e465"),
    ("verify", "det", 0): (0, "aa51bfa2eca5ff4fbf153399d99f19802bf0464eabccd16c1bc2e9f3e490e99f",
                          "79a29db4b2a6df703c43edacce85474506832e100f6a720d85de97e28570823a"),
    ("verify", "det", 7): (0, "c5bd3a06006d505e98703dec442cc31edd758af4ac7c6318a631dc5d92742721",
                          "3549602d16d423d1d60d3eb3331098fa212bbd517dd26695765e58dd2856b3cb"),
    ("verify", "det", 71): (0, "7948223b9e4db44af1dd4f19b7ca845e5876fce5f4740940ed059d675f10772a",
                           "6c1a9d3c28ee1647c3ae9654eea9cb142c0189d55cb610913d062d51a221c39c"),
    ("verify", "adjugate", 0): (0, "89d1dc5febc87ab1e961ae67a7628316bd07d1b8f285cf27c84be29528338252",
                               "15e8c35dc464cde78e59ad67a358ffe2be0327f278b2ac0caa2580c806f2efc6"),
    ("verify", "adjugate", 7): (0, "c98c74e74afccf568d53a41213241680924bd7ae35802ba736f11608837e13be",
                               "e86c0b8d29fdba049098f67706b028d49359cd849569607bd0a4e08a84407243"),
    ("verify", "adjugate", 71): (0, "644642d1fbbeb6f572b5ba52d5deb0f2301c4e56766c1ddb679e50bbf2cdf7db",
                                "fa7d7a5e0b95d1923bdbf014a0bae60475bda6579d4a25513c689652a1a33961"),
    ("verify", "xi", 0): (0, "1b9be674b91ecad441975737f52b898e3bd68e795351e0eb20d34c977ff85b08",
                         "ca2609dd37e7241045b19c84f1566fda770c47cc6983563756b09455a00d5d3b"),
    ("verify", "xi", 7): (0, "9a8402487dbb693341f22818ba9ab20739adfe6217d73100506cbb2877258b66",
                         "6a102782c1a3a19302e30cdb5123c01ea8ef82811a3d25faf84f70c7ea944692"),
    ("verify", "xi", 71): (0, "d044e722ac400ae5039a54fe321602928f89445a605ba1d71ef7cfc64a5c999d",
                          "90d2dacedd41e6aebaebd9867bbb362e270bd09df93245f6946a6df973788056"),
    ("explore", "lower-norm", 0): (0, "4cbed275f20e455d55a687c2699f4f252d7fac080198b5c0da14f44107e325de",
                                  "20e93cb93f538bd9daf6ac2a69c37e26bb92260bb16d237b668b0476ee57d6d7"),
    ("explore", "lower-norm", 7): (0, "285c88e435612364eb9024e519ed64153c824233de1ba32e019884c8c12025ea",
                                  "d50e4c2bfc22c2690695d81cf44ff4f320b7ec4ff19c59c9b08cec9219935554"),
    ("explore", "lower-norm", 71): (0, "688ece0ed3428cf01359bfc46fae5ac2f22ee1d05e03b207f9ed19847f4daf7e",
                                   "38c5ff538b06dd2b2097ec25228558741654c3693b6d88238b92b52ccdda17d8"),
    ("explore", "det-upper", 0): (0, "d8fe6c170476a69bbec7c06875a26662cab196e880e53ebeebf7b6bd4e0eafe8",
                                 "2e5347b40c7e18d115603dff9430864c3f32a5de870942c9b890b14eda25cc42"),
    ("explore", "det-upper", 7): (0, "b80dc84f18dc69fe990a4f8039145a455c86247e25cdfac8c96a4e5d0708bc26",
                                 "9dfd0304dbf34c427e339e34b720f45a93ac374e497f9b104a5e4fcbaa9bbb43"),
    ("explore", "det-upper", 71): (0, "19998275af880862e9c58a953af08d435b6d8ef191c33a7a76c11de9d916be9b",
                                  "ccf57c1383e2b37fd114cfffef2f2c6f9232bdb0135d39758c368a2c2351c95f"),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("kind, name", [("verify", s) for s in SUITES]
                         + [("explore", c) for c in CONJECTURES])
def test_stdout_and_csv_bytes_are_pinned(kind, name, seed, tmp_path):
    assert run_digests(kind, name, seed, tmp_path) == DIGESTS[kind, name, seed]
