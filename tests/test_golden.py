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

PIPELINE_DIGESTS hold every file `rssloc pipeline` writes on CONFIG's dataset
for each reconstructor, and DENSE_DIGESTS every file `rssloc generate` writes
for CONFIG with one close source pair per scenario. Both were recorded before
the close-pair placement became a mode of `place_sources`. The three
report.json digests were re-recorded when `reconstructor_params` left
`PipelineConfig`, and with it the report's echo, and again when the
separation and OSPA options (`r`, `gamma`, `connectivity`, `area_factor`,
`delta_db`, `g`) left the echo; no prediction file changed either time, and
the reports without their "pipeline" key kept their bytes.

RECONSTRUCTED_DIGESTS hold the float64 dense maps that `idw_reconstruct` and
`kriging_reconstruct` return on CONFIG's samples, one stacked call per layout
and interval as the pipeline makes it. The pipeline's bitmaps survive a
last-bit change of these maps, and these digests do not: they were recorded
with `reconstruct._PAIRS_PER_BLOCK` at 1 << 15, and 1 << 14 or 1 << 16 changes
them.

SHADOW_DIGESTS hold the float64 values of `rasterize_global` and the bitmap
of `ground_truth_local` under 3 dB shadowing, which CONFIG (noise-free)
leaves out. They were recorded before the field of one source became
`propagation.source_dbm`, with the shadow draws subtracted per source.
"""

import hashlib

import numpy as np
import pytest
from scipy import ndimage

from rssloc import reconstruct
from rssloc.dataset_io import (DatasetConfig, generate_dataset, parse_file,
                               read_dataset_index, read_pgm, samples_from_csv)
from rssloc.pipeline import PipelineConfig, run_pipeline
from rssloc.propagation import (PropagationParams, ground_truth_local,
                                rasterize_global)
from rssloc.sampling import SampleSet, build_routes
from rssloc.scenario import BuildingLayout, generate_layout

from conftest import generate_scenario

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


PIPELINE_DIGESTS = {
    "oracle": {
        "predictions/l00m01p00_1.csv":
            "1777aff5073e0fdbd65c48c94e77a800376f2ad9671ccdec79d98abd0035487a",
        "predictions/l00m01p00_4.csv":
            "1777aff5073e0fdbd65c48c94e77a800376f2ad9671ccdec79d98abd0035487a",
        "predictions/l00m03p00_1.csv":
            "c48804a7431f5e4ba3a2234173512cb91556a5f3dcd75685a3feecfeb4dde844",
        "predictions/l00m03p00_4.csv":
            "c48804a7431f5e4ba3a2234173512cb91556a5f3dcd75685a3feecfeb4dde844",
        "predictions/l01m01p00_1.csv":
            "96edd2a07b1406f302e7df82aa620c821b7d5caeaec61e3e5423ec9451d5397d",
        "predictions/l01m01p00_4.csv":
            "96edd2a07b1406f302e7df82aa620c821b7d5caeaec61e3e5423ec9451d5397d",
        "predictions/l01m03p00_1.csv":
            "966a6a720dfbfa4178ad187e485aab15200a2169e14280007ea2571ef41016de",
        "predictions/l01m03p00_4.csv":
            "966a6a720dfbfa4178ad187e485aab15200a2169e14280007ea2571ef41016de",
        "report.json":
            "badc617fa9af411e37ec409eaa92428b823839aabbe5214e8b6c9f74e64e2216",
    },
    "idw": {
        "predictions/l00m01p00_1.csv":
            "5a72529cb4747033bce8a88e2350d3e95b31d8b395df4b5515aa44a0a0f9d63b",
        "predictions/l00m01p00_4.csv":
            "15eb76f3fc0f81159006a7e440c8170419b05d18b5c2f88c6e63c59f42c2bd9f",
        "predictions/l00m03p00_1.csv":
            "40dbc5c65c55b0b5e0e7ee877005dc740559379447108a4896e1cf27967d5f87",
        "predictions/l00m03p00_4.csv":
            "02becad05918d4c6490a124e9f1965bc9fb93362acd2c0dc8f2d7ba16e60f461",
        "predictions/l01m01p00_1.csv":
            "c515476e94d3b3932d2a66fd68b260b92ca311d3a1070c67b6cb15e42265955a",
        "predictions/l01m01p00_4.csv":
            "c3351d0ba15ad8868e86f7a5cda03cd4802acf6cbd7a30e082361e787428dc62",
        "predictions/l01m03p00_1.csv":
            "5e2c6abcf5c1e607cfff522cc5ca3a79c4338257e93506de29fa6df91a3c51ab",
        "predictions/l01m03p00_4.csv":
            "09ec71d250aeab0f5f42635f0b927f4470aa60d5ca033eec905763ca6c6c50e6",
        "report.json":
            "7e4ec5a8608d1cf74ab9aa2f7e490ae10aca8c2ad6674a0ccfef51aa4d0ae61a",
    },
    "kriging": {
        "predictions/l00m01p00_1.csv":
            "3546f9d8e62a91f616e05ef570548acedc87dde226e1d9fc6bfb81a4b6a9fe0a",
        "predictions/l00m01p00_4.csv":
            "25080e88c9df36c4d6a637b3ddabb8acd504fabef60aae8edc94f9bfab7df5b5",
        "predictions/l00m03p00_1.csv":
            "5656423a03043cb95a68b4a7303aa7810d38801d4b11ae3c4d3a8d10438b28c4",
        "predictions/l00m03p00_4.csv":
            "ac166a9e5bb8e42fc2de970ba08ee0ffa0635d8f74153aed34d2006ddda31242",
        "predictions/l01m01p00_1.csv":
            "3b9cb616cf3594b62f0dc9c8d8d91bbfc7eb56c3a2caf51bdec536980502cc04",
        "predictions/l01m01p00_4.csv":
            "6fce0212307361a782ee5494f93994f9d0741bc6f715fd1154d5389e55ddef3a",
        "predictions/l01m03p00_1.csv":
            "7e2b986f819ac9e0d26f3d08bbaf00790f7803b309e6292dd2882bee6873d38a",
        "predictions/l01m03p00_4.csv":
            "6633bff443a7c2af416fbf610776ff004eba8df389fdbcc7dddcddf74b6d55fe",
        "report.json":
            "fc8151d12a227fdc43ff61b931d7087951d3788882b6e506fea8eeaa90e4eb0e",
    },
}

DENSE_DIGESTS = {
    "index.json":
        "17ed15ef4df7d6c709b21981d0dd1b29e280452f5d48efb2eb006e0dbfd9e56a",
    "layouts/l00.pgm":
        "8952cbac76648e8e23323eed21d880ec6148fdc5f1921e70185a522dcee7b2ab",
    "layouts/l01.pgm":
        "0f7bc066ce48e85b0b24651889c8628b8bd03bb8d2c9a2d5b908d54dc94db4a2",
    "maps/global/l00m02p00.lrmf":
        "4c33864e4820e8c136b8439896babaf87652954ca031521e1c5a964cb3041ecd",
    "maps/global/l00m03p00.lrmf":
        "b75f495f6add608127754717c1490a67bfb79199b121afe810915044df6e9252",
    "maps/global/l01m02p00.lrmf":
        "d2cd5b0d9b6348058983fd2b2fb684beff6b85fe84be3866df4f497f866742b9",
    "maps/global/l01m03p00.lrmf":
        "5df658db0b46ff66157accce464f121a3adc539b40e69810225706f46bfad075",
    "maps/local/l00m02p00.pgm":
        "888c76c7ee0e1604e9df264db6588936da091a33cb74d60ed4dcadcd8fed4239",
    "maps/local/l00m03p00.pgm":
        "d0a0481aae11bdbff01d17c0e7ce1be8249b75b78b60be154eba2d9b14623b13",
    "maps/local/l01m02p00.pgm":
        "cda3f1ba2018f93c9b050828bc27df291401b9eac2fc0b0d07a7d9337185a0c2",
    "maps/local/l01m03p00.pgm":
        "d54651b70b8a2738d2d21690f28bc0cce20e238d16bdd7ab5555991171a3e104",
    "samples/1/l00m02p00.csv":
        "0724a8e6072e7bee04956c0a2b9b515a850bdf649ceea45776fe5cfba61279e5",
    "samples/1/l00m03p00.csv":
        "82b371e72c26ab4b0364c5f2355d7d7537394abbeaadf1c7ce383a3dbcd9052a",
    "samples/1/l01m02p00.csv":
        "97a9a50e4484b43e75ed0bbbd4b9a4dd786fc5224cbc274b7f85a9b3d394823b",
    "samples/1/l01m03p00.csv":
        "c74b9e5e735905242c33d92a9127200bec63de817c8d965d0a48924d1754c76d",
    "samples/4/l00m02p00.csv":
        "da9bf142f0ebd18bc2ad33a82b1ca0e6b5a84ddbd84bd2fcefdd2d36e9d8cc70",
    "samples/4/l00m03p00.csv":
        "97c01f4106bcf4c26e14e8adb455d23b448abcf903f726b5b3eb5d939227a1c9",
    "samples/4/l01m02p00.csv":
        "9e484cf7d80784f260c2a2a4f83063b8af5eed114a9fc768dec4618d16217090",
    "samples/4/l01m03p00.csv":
        "fc9a467cf7b2284f7626833734db71756b19f6c858f3058fbde19e2ff6f19d3e",
    "scenarios/l00m02p00.json":
        "c4f194cf579a05d0cc6092322faab697910517316949fb2c0b26155950be8968",
    "scenarios/l00m03p00.json":
        "64bab763aa6296ff0601f95c5ef8ad2831ff92a9d0dd41b4b8a521d4a6dd0cef",
    "scenarios/l01m02p00.json":
        "a3f0c2a7e0dfa78085a09d83e78476bef3384d4ba630c253eb2e1a68de357074",
    "scenarios/l01m03p00.json":
        "b720a29e1c387e92bf3b6950f09586d0a4cb3a59faced080dba7f308897461b3",
}


def _digests(root) -> dict:
    return {path.relative_to(root).as_posix():
            hashlib.sha256(path.read_bytes()).hexdigest()
            for path in sorted(root.rglob("*")) if path.is_file()}


@pytest.fixture(scope="module")
def golden_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("golden")
    generate_dataset(DatasetConfig.from_dict(CONFIG), out)
    return out


def test_generated_files_match_golden_digests(golden_dataset):
    assert _digests(golden_dataset) == DIGESTS


@pytest.mark.parametrize("reconstructor", sorted(PIPELINE_DIGESTS))
def test_pipeline_files_match_golden_digests(golden_dataset, reconstructor, tmp_path):
    run_pipeline(golden_dataset, PipelineConfig(reconstructor=reconstructor),
                 out_dir=tmp_path)
    assert _digests(tmp_path) == PIPELINE_DIGESTS[reconstructor]


def test_kriging_matrix_built_once_per_layout_and_interval(golden_dataset, tmp_path,
                                                          monkeypatch):
    # the scenarios of a layout drive one route, so at each interval they
    # share one sample geometry and one kriging matrix
    calls = []
    original = reconstruct._kriging_matrix

    def counting(positions):
        calls.append(len(positions))
        return original(positions)

    monkeypatch.setattr(reconstruct, "_kriging_matrix", counting)
    run_pipeline(golden_dataset, PipelineConfig(reconstructor="kriging"),
                 out_dir=tmp_path)
    assert len(calls) == CONFIG["n_layouts"] * len(CONFIG["intervals"])
    assert _digests(tmp_path) == PIPELINE_DIGESTS["kriging"]


# reconstructor -> (layout, interval) -> sha256 of the float64 dense maps of
# the layout's scenarios, in index order, from one stacked call
RECONSTRUCTED_DIGESTS = {
    "idw": {
        ("layouts/l00.pgm", "1"):
            "e445b864eae38afcce7a28b49f51b7f87da4b9ce32ae179a28901b51aa9d1bf9",
        ("layouts/l00.pgm", "4"):
            "4c761bec522c236d4250715fedad485a9fbeccd72d3d36a1296e237bc03d90f8",
        ("layouts/l01.pgm", "1"):
            "19ea83a70c3650714a232803f4ba6fa6a595ab56e83900a5bf86e175623d13a7",
        ("layouts/l01.pgm", "4"):
            "9b992cadff19dc66b435d2e517f1b75cd278c7ee7b8dcbb9d4d14c031b57ca54",
    },
    "kriging": {
        ("layouts/l00.pgm", "1"):
            "0665221b73dc17c9460ec63e0305873e1284d7f0ca713da080074debe97031a0",
        ("layouts/l00.pgm", "4"):
            "77213b9778de8c6f51530b014bdc0de240ad2f95e1f947056ca9e60becf87dd7",
        ("layouts/l01.pgm", "1"):
            "bc8430a7a2ee32dcc4a2bcf88d75669b9c6f50c91ce25fc34c2b751b23cea46e",
        ("layouts/l01.pgm", "4"):
            "1df34d41e7cfc5f652d61d992d62cb2b9f017a9af1d97c96e70b4c84e00036c2",
    },
}


@pytest.mark.parametrize("name", sorted(RECONSTRUCTED_DIGESTS))
def test_reconstructed_maps_match_golden_digests(golden_dataset, name):
    reconstructor = getattr(reconstruct, f"{name}_reconstruct")
    groups = {}
    for entry in read_dataset_index(golden_dataset)["entries"]:
        groups.setdefault(entry["layout"], []).append(entry)
    digests = {}
    for layout_ref, entries in groups.items():
        layout = BuildingLayout(read_pgm(golden_dataset / layout_ref))
        for interval in map(str, CONFIG["intervals"]):
            sets = [parse_file(golden_dataset / entry["samples"][interval],
                               samples_from_csv) for entry in entries]
            stack = SampleSet(sets[0].positions, [s.values for s in sets])
            maps = reconstructor(stack, layout)
            digests[layout_ref, interval] = hashlib.sha256(b"".join(
                m.values.tobytes() for m in maps)).hexdigest()
    assert digests == RECONSTRUCTED_DIGESTS[name]


def test_dense_generated_files_match_golden_digests(tmp_path):
    config = {**CONFIG, "source_counts": [2, 3], "dense_pair_spacing": 3.0}
    generate_dataset(DatasetConfig.from_dict(config), tmp_path)
    assert _digests(tmp_path) == DENSE_DIGESTS


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
    assert ndimage.label(layout.cells, structure=np.ones((3, 3)))[1] == regions
    waypoints = np.asarray(build_routes(layout).waypoints, dtype=np.float64)
    assert hashlib.sha256(waypoints.tobytes()).hexdigest() == digest


# generate_scenario(60, 60, 2, m, seed) (seed, m) -> (global map sha256,
# local map sha256) under PropagationParams(sigma_shadow=3.0), r = 2
SHADOW_DIGESTS = {
    (31, 1): ("ac148d8550bf1ffa64607718fe9fd6b6dfab8b14689b4b68ad5ea785f394a137",
              "b2a1992cc4168a71515c37056eed77e3f257d85d04427b488b34076aa06d7c7c"),
    (32, 3): ("7d97271a20862ba72d6c86eeb8b0f48f67a2632c3fbd98717945fc61c91ea190",
              "9a4a43ea34cca3b0fc1c359f7a30b78dc79a981f0e403fc6f4368a9a32a454f7"),
    (33, 5): ("6d064fef0af68348c7fd281ce446140ee0ccb21c46770ecb828c895eb6969127",
              "c3ef10fd39d443ff5b4345486b2b0bb19629d732a9c11bd226144cce0b58a701"),
    (34, 7): ("99666108df499d33331f5418546f467171325ecdcdbc1b20ddc0c2e05f3a7f10",
              "38344b3f4514bc1f14cf19a095ba1cc14d907a08320f7bc70c3f9fa1bb7bc35c"),
}


@pytest.mark.parametrize("seed,m", sorted(SHADOW_DIGESTS))
def test_shadowed_maps_match_golden_digests(seed, m):
    params = PropagationParams(sigma_shadow=3.0)
    sc = generate_scenario(60, 60, 2, m, seed=seed)
    maps = (rasterize_global(sc, params), ground_truth_local(sc, params, 2.0))
    assert tuple(hashlib.sha256(radio_map.values.tobytes()).hexdigest()
                 for radio_map in maps) == SHADOW_DIGESTS[seed, m]
