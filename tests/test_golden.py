"""Golden digests of a small generated dataset and of measurement routes.

Every file `rssloc generate` writes for CONFIG must keep its sha256. The
digests were recorded from a grid traversal of every column, before the
penetration lengths came from clipping segments to a rectangle cover of the
buildings and before route sampling was vectorized; both changes keep the
bytes. A change that alters the bytes on purpose updates DIGESTS and says
why in its description.

CONFIG's layouts have one building region each, so their routes need no
bridge between loops. ROUTE_DIGESTS guards the bridges: the sha256 of the
float64 waypoints of `build_routes` on layouts with two or more building
regions, recorded from the Python-loop breadth-first search that
`tests/oracles.py:bfs_path_loop` keeps.
"""

import hashlib

import numpy as np
import pytest
from scipy import ndimage

from rssloc.dataset_io import DatasetConfig, generate_dataset
from rssloc.sampling import build_routes
from rssloc.scenario import EIGHT_CONNECTED, generate_layout

CONFIG = {"width": 60, "height": 60, "n_layouts": 2, "n_buildings": 2,
          "source_counts": [1, 3], "placements_per_count": 1,
          "intervals": [1, 4], "seed": 20240607,
          "split": {"train": 1, "val": 0, "test": 1}}

DIGESTS = {
    "index.json":
        "b1e42bfef3cdbaea213e78b17167cb155232a137db1a190610e82a01dba0b163",
    "layouts/l00.pgm":
        "8952cbac76648e8e23323eed21d880ec6148fdc5f1921e70185a522dcee7b2ab",
    "layouts/l01.pgm":
        "0f7bc066ce48e85b0b24651889c8628b8bd03bb8d2c9a2d5b908d54dc94db4a2",
    "maps/global/l00m01p00.lrmf":
        "907a6c228b83482a21ca6b6ef7632893ec4342a41d570a31f566715befd3f712",
    "maps/global/l00m03p00.lrmf":
        "4fbdbbdd81bddca9788dd0845a47e226ecc710e350eb6703a35282ee9ad50b3e",
    "maps/global/l01m01p00.lrmf":
        "1f1ba5e8f5894942f874e7247633743d4f7961181ec98845f8aa69f0f609a731",
    "maps/global/l01m03p00.lrmf":
        "c9a530dc3ca81e369261a96e635355c6ded466112ec4a459320b7128e491f5bd",
    "maps/local/l00m01p00.pgm":
        "8f96c0f55bdcd2840a11eab34d6454465f752e4aba32166d06aa0e620206bc19",
    "maps/local/l00m03p00.pgm":
        "ee9fc7252520d0dd72b53bbaa1d293502af993c7c2655a77bb1ae430b76e8177",
    "maps/local/l01m01p00.pgm":
        "1089e4ec3a8e9935678a7711e0ae38af19deeb8d918d313910f1e279a027657e",
    "maps/local/l01m03p00.pgm":
        "e8f8e47fbd4658080462e49d95e3f532cd6f426e461788d30fd2553dc928eb22",
    "samples/1/l00m01p00.csv":
        "9b3f71ec37df4798a4afcaa4034b4189fd5476c6b1762f6956bdf4fd84dadf4f",
    "samples/1/l00m03p00.csv":
        "bfb97ee167465a499c1f4bcaab96788dc87d947902c743fa2f3da920465c1999",
    "samples/1/l01m01p00.csv":
        "7a43cde8a5cfd0e96dd43d97b87d5151b57410517dbf96f99ddbffce3ebdc491",
    "samples/1/l01m03p00.csv":
        "f9f5491fb8cf2432ca29f5fcd6a09a6ddb759a4e4dab70f89da9964cdc394349",
    "samples/4/l00m01p00.csv":
        "3e098fc427d0fe42dc3a2884124188c86c4a55a3ec5f078d60bb81e694bde40e",
    "samples/4/l00m03p00.csv":
        "eb6672a987d53a3711308347117ceb71ab29898efadb582b322df62d62550df2",
    "samples/4/l01m01p00.csv":
        "376527b082056c8445fdd7d814bf191f85a4d7febb3e76c25dca98061b4a8795",
    "samples/4/l01m03p00.csv":
        "d2c16e8b743dcdfb9197aa9e0a1a1de9ab562717faab25c736ee70597c2c8e08",
    "scenarios/l00m01p00.json":
        "ec1814c2b195cad0cf8f53c1d3d171a2243cd2df4efbf1d0e45220932a2689a3",
    "scenarios/l00m03p00.json":
        "d5528cd212b95e621f105fed94b8ecdba9e0b419b4fcbb9cee5749242e1418e0",
    "scenarios/l01m01p00.json":
        "4bec34243a1b67b459bb75b641ba7a3d525f2e231bb48334755e7cf538fee473",
    "scenarios/l01m03p00.json":
        "1788f84b7fae5fdbbdcb26ea3e4b22d99c48214cf79f9c762c84652fc1bec646",
}


def test_generated_files_match_golden_digests(tmp_path):
    generate_dataset(DatasetConfig.from_dict(CONFIG), tmp_path)
    digests = {path.relative_to(tmp_path).as_posix():
               hashlib.sha256(path.read_bytes()).hexdigest()
               for path in sorted(tmp_path.rglob("*")) if path.is_file()}
    assert digests == DIGESTS


# generate_layout(64, 64, 4, seed, max_side=24) seed -> (building regions,
# waypoint sha256)
ROUTE_DIGESTS = {
    0: (4, "8d9ceaf47cd8ec928921a77dd3ab5916060f39cbfbfdaa72c953012da05f2aac"),
    1: (3, "0cb2cf1e0d5928bbf6295c89be28b31a2ae1311705b30bfe3714141adacc30c8"),
    2: (2, "78652bc4466cb7daa217c145023d0ea42c484f77dd482f3bc02ffbf8e72b28d9"),
    3: (2, "a9749d84096ca503501e5c95b41020c4acc02cd41578419e2e05664b23b06ca2"),
    5: (3, "37dd0869cf083d96b32b14764c63e17977353806c3c2c7dba28511a02af8d04d"),
    6: (2, "896c8a1fc2ad77292adf1333d147109d5f14d91fa9fb89370828375bfce42e41"),
    7: (2, "8fc4b45aa4e7eb6280c76e894ebc452a3ec74a889aac4ea94782a51c311e2e0f"),
    8: (3, "9a2a9dbbd026e9a83f79261c0bd28859b3dcd1a206d9ee3f2d9e4496fd292eb4"),
}


@pytest.mark.parametrize("seed", sorted(ROUTE_DIGESTS))
def test_bridged_routes_match_golden_digests(seed):
    regions, digest = ROUTE_DIGESTS[seed]
    layout = generate_layout(64, 64, 4, seed, max_side=24)
    assert ndimage.label(layout.cells, structure=EIGHT_CONNECTED)[1] == regions
    waypoints = np.asarray(build_routes(layout).waypoints, dtype=np.float64)
    assert hashlib.sha256(waypoints.tobytes()).hexdigest() == digest
