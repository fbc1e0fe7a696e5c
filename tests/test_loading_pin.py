"""Loading pinned by digest: every field a model document loads into, C,
the identity, the scaling field E and the twist field epsilon, of each
bundled model and each model document under ``tests/data`` (a file that is
one, or the ``document`` a test case holds), at orders 3, 4 and 8.

Each digest is the SHA-256 of the cap, ``valid_to`` and ``canonical_text``
of every series of those fields, in a fixed order, so a change to the
parser or to the series kernel that moves any stored coefficient fails
here.  The digests were taken before the parser kept polynomials as exact
coefficient maps, and ``exp_series`` moved to the graded recurrence."""

import hashlib
import json
from pathlib import Path

import pytest

from flatcirc.models import CORPUS, ModelDocument, load_model

DATA = Path(__file__).resolve().parent / "data"
ORDERS = (3, 4, 8)


def data_documents():
    """{file name: document} of each distinct model document in ``DATA``."""
    documents, seen = {}, set()
    for path in sorted(DATA.glob("*.json")):
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj = obj.get("document", obj)
        key = json.dumps(obj, sort_keys=True)
        if "schemaVersion" in obj and key not in seen:
            seen.add(key)
            documents[path.name] = obj
    return documents


def documents():
    found = {name: load_model(name) for name in CORPUS}
    found.update((name, ModelDocument.from_json_obj(obj))
                 for name, obj in data_documents().items())
    return found


def loaded_digest(document, order):
    """SHA-256 over the fields of ``document`` loaded at ``order``."""
    model = document.instantiate(order)
    fields = [("C", [s for plane in model.structure.tensor
                     for row in plane for s in row])]
    if model.identity is not None:
        fields.append(("identity", model.identity.components))
    if model.euler is not None:
        fields.append((f"E {model.euler[1]}", model.euler[0].components))
    if model.epsilon is not None:
        fields.append(("epsilon", model.epsilon.components))
    digest = hashlib.sha256()
    for name, entries in fields:
        digest.update(f"{name}\n".encode())
        for s in entries:
            digest.update(f"{s.cap} {s.valid_to}\n{s.canonical_text()}\n"
                          .encode())
    return digest.hexdigest()


PINS = {
    "one-dim/o3":
        "2ae022363b94019202bb107ce019df474bc45d6c3825b110328765d1c4032092",
    "one-dim/o4":
        "68074a3d154ac4a53be5d42ab1f0d6caca43f2ab4c6f2ebe4080c9564a49be8e",
    "one-dim/o8":
        "a41dbfab68c9040205455ac7f035f7939b8f5b9603c04a28d311bf242041fa27",
    "qc-p1/o3":
        "9157f59d2a218193f6ff09c13c09db330225df7282706e7a2831f720b5a3bebc",
    "qc-p1/o4":
        "77a9ff652f1955f6fd6539c64c6103087ae4f0743ed3fb0a844ce2413977d5ce",
    "qc-p1/o8":
        "eed364f7408d840e97dd72662480bfae12e9ae021ca1992f61130c17c162cd61",
    "nilpotent/o3":
        "d1aa67e0982715751c3b1565323f1f16ed5ba8bce735295e1e780e3e490a8d86",
    "nilpotent/o4":
        "c154445b629736155cb7e33d71342a130b7c28cf87c2bad13abecc07599527d1",
    "nilpotent/o8":
        "9a2342ace455526b1d366e5bbe4a461d41cc1d7aaee9a068aaa674e24bc870b3",
    "broken-assoc/o3":
        "f313f3a8ccdaf7813720a47ea1ab20e3a92421b29d8f9d6901a9803d161edf15",
    "broken-assoc/o4":
        "32641faacdec0e9460091905228629dfe5b89b95273ea773acda1b16427a6d84",
    "broken-assoc/o8":
        "dbf017487966284e8c1eb9878596d26867e160a7b05b7626f668c4219e5ed5b2",
    "shifted-identity/o3":
        "9157f59d2a218193f6ff09c13c09db330225df7282706e7a2831f720b5a3bebc",
    "shifted-identity/o4":
        "77a9ff652f1955f6fd6539c64c6103087ae4f0743ed3fb0a844ce2413977d5ce",
    "shifted-identity/o8":
        "eed364f7408d840e97dd72662480bfae12e9ae021ca1992f61130c17c162cd61",
    "dense-exp3.json/o3":
        "e1dbb043da6702c5b739cf8634192526fc84e24c8dcfa0c80c694742bf934072",
    "dense-exp3.json/o4":
        "bda38334f4ede96719c1c6af2d03930232766e98b2a269685c67f9d43aa28e9f",
    "dense-exp3.json/o8":
        "e8e300f346913b27fd19ffa12ea21dde151a960f6fcb294938fbfccdac3c03d8",
    "dense-quartic3.json/o3":
        "99a653b1d94735fadee1fc937411af969985940b898b4d9802792e106488e4d1",
    "dense-quartic3.json/o4":
        "3ca54d9a8e9148a2a000b0d57569e3813b4e3d77c56c58d94bd76937b004ddbc",
    "dense-quartic3.json/o8":
        "0149fcf8f380f0b3d8555aed88693f02f518d3042ad4042675131cc644310898",
    "product-qqo5-order5.json/o3":
        "5d35319705ae9fd392ab12ba0b343b6fc65edef4ca4e1f8df432e7411f78d3cd",
    "product-qqo5-order5.json/o4":
        "82feebf634e8337e9badc0b22cfe4aff7d10ade8afbb207de8d9a603b08e70a2",
    "product-qqo5-order5.json/o8":
        "bb6e49002808935f9a0c55eeb34b0cb9a63a334b18ee207c51c57c64c6a8e448",
    "table-qo3-nonsymmetric.json/o3":
        "42403c8d8f174ed1e089432f1063133766d42abfa0576cf3b0d18e4440f132e5",
    "table-qo3-nonsymmetric.json/o4":
        "08dea8719ff254e81beeb68c2218469c04b974b1020813cdb07b05a2a79961e6",
    "table-qo3-nonsymmetric.json/o8":
        "4c2179157f7a81253d36f54419f586e915ae85d862f8a3bb040793f92c6d056b",
    "table-qo3-symmetric.json/o3":
        "7ec7e176e347e438559a264ee2ee667ce66f9391963598970b35869679d649a0",
    "table-qo3-symmetric.json/o4":
        "3c88c403525af582eae34dae55ff8a1162264c0c1fe399102f161d2d2824b982",
    "table-qo3-symmetric.json/o8":
        "333102945df8b79bdf71c698ff8908f0cb5841d747405daa708aa1e12fd82047",
    "twist-one-dim-shift-minus1.json/o3":
        "2ae022363b94019202bb107ce019df474bc45d6c3825b110328765d1c4032092",
    "twist-one-dim-shift-minus1.json/o4":
        "68074a3d154ac4a53be5d42ab1f0d6caca43f2ab4c6f2ebe4080c9564a49be8e",
    "twist-one-dim-shift-minus1.json/o8":
        "a41dbfab68c9040205455ac7f035f7939b8f5b9603c04a28d311bf242041fa27",
}


def test_every_document_is_pinned():
    assert sorted(PINS) == sorted(f"{name}/o{order}" for name in documents()
                                  for order in ORDERS)


@pytest.mark.parametrize("key", sorted(PINS))
def test_loaded_fields_match_the_pin(key):
    name, order = key.rsplit("/o", 1)
    assert loaded_digest(documents()[name], int(order)) == PINS[key]
