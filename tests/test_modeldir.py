"""Model directories: the bytes every writer puts on disk, and the
`key = value` codec of system.txt, meta.txt and config files."""

import hashlib
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from envgain import baseline, fanout, modeldir, neural, pipeline
from envgain.octave import LAYOUT
from envgain.stft import N_BINS, StftConfig

CFG = StftConfig()
DIM = LAYOUT.n_bands * 30


def fixed_norm(dim):
    return neural.FeatureNorm(np.linspace(-1.0, 1.0, dim), np.linspace(0.5, 2.0, dim))


def per_band_system():
    models = [neural.init_model([DIM, 4, 30], seed=j) for j in range(LAYOUT.n_bands)]
    return pipeline.EnhancementSystem(models, None, LAYOUT, CFG, fixed_norm(DIM), "elc")


def joint_system():
    model = neural.init_model([DIM, 4, DIM], seed=20)
    return pipeline.EnhancementSystem(None, model, LAYOUT, CFG, fixed_norm(DIM), "emse")


def classical_system():
    dims = [baseline.CONTEXT_FRAMES * N_BINS, 4, baseline.PREDICT_FRAMES * N_BINS]
    return baseline.ClassicalSystem(neural.init_model(dims, seed=30), CFG, fixed_norm(dims[0]))


# sha256 of every file each writer produced before the format had one owner;
# a changed digest means existing model directories stop loading
NORM_450 = "dd0be2a4c5fa15d0dab1a62d008972ae24628f2fc919fc19ac4067a3ea199f51"
DIRECTORIES = {
    "per-band": (per_band_system, pipeline.save_system, {
        "band_00.mdl": "ef5c3687b349173e02205aea1c819586fcfcabe0de5e37c4c5360c8a45e8af4d",
        "band_01.mdl": "34c4b02b1fb4b288fed05aa86372b21afadb916f2800a43d857df6c437dfe769",
        "band_02.mdl": "c996ae4771fe40e701fa063cb08c2f3292fa1fe52348e493144a93bc5af162de",
        "band_03.mdl": "0a5ec2c563a5bde7b3e940080b6c7a802e8db48d19b9f45d6aaea02e85f82af6",
        "band_04.mdl": "9bf6d553137a27be55e005a058780890bdb92538740a7efabbf65312c5ed69b1",
        "band_05.mdl": "a0c0cdbc82d74be224aaf3ae966904d35ac339e84655e6ecd042b0ddd93980a2",
        "band_06.mdl": "dfe6b48847ea2197e86015f827b596d19c09890543dd77198950032cd5f5fc92",
        "band_07.mdl": "4ecffef577925098fd35c9de1b96c81f77ef98c30b00328185b6546dc1e236ed",
        "band_08.mdl": "fdb56fc7d1637af7982fba6951ba7e521e6812f74cf18685013aa16bd0da7352",
        "band_09.mdl": "4f7051cfe5af2a335ee9d088c187ba43ceed6d7b99e9fa5ddcca58fc1a4c830f",
        "band_10.mdl": "c28ca9b4ed0efc0a1a2a85a51823c3ad9498d3623e9bca76f0f13c1251340fd1",
        "band_11.mdl": "6f648b07625c06b996b690eff659bff255c83ecfbbdd1354d1fd0105d052fabf",
        "band_12.mdl": "16cdd9952c2299e9973567d95abd364605eeed98954367a0184bd0485ef828ba",
        "band_13.mdl": "22c4679737ec14c83eca7c3daa3f1d72d05d9c29f7821a3b17eaf84b56d7908f",
        "band_14.mdl": "c10553f34e7aabee599d0c5fc25f340c478a383fa7170cc6e14907a6ddd5efa8",
        "feature_norm.bin": NORM_450,
        "system.txt": "75298e17369567afee2eacdcb40a7c1469a5c0b59d6dcb60187a6201d933b82d",
    }),
    "joint": (joint_system, pipeline.save_system, {
        "feature_norm.bin": NORM_450,
        "joint.mdl": "cbd308919aa4b2c4752df730816b2819100e49bb3c6aedfa4fdfc3dc18cb75aa",
        "system.txt": "8c9dd08cc914f2469a4a13548e606b18ce21033952955e7dbc94a5082a51fae6",
    }),
    "classical": (classical_system, baseline.save_classical, {
        "baseline.mdl": "af1ae25c526d2d84a74bcfdaf84bdef62abf6c522353617952ab4dc0839eead9",
        "feature_norm.bin": "f6af82deed1f0111606f3fb762e7380cac04f4016cbd06bce8ee58e09b88ac80",
        "system.txt": "8541878d9e7e62d458707fbd2cb7729131c9ba80547eecaaeb6a672a4932f9b2",
    }),
}


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_directory_digests_unchanged(tmp_path, kind):
    build, save, digests = DIRECTORIES[kind]
    save(build(), tmp_path / kind)
    files = sorted((tmp_path / kind).iterdir())
    assert [p.name for p in files] == sorted(digests)  # no temp files left
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files} == digests


@pytest.mark.parametrize("first, second", [("per-band", "joint"), ("joint", "classical")])
def test_save_over_another_kind_keeps_only_the_new_networks(tmp_path, first, second):
    for kind in (first, second):
        build, save, _ = DIRECTORIES[kind]
        save(build(), tmp_path / "mdl")
    files = sorted((tmp_path / "mdl").iterdir())
    digests = DIRECTORIES[second][2]  # system.txt, feature_norm.bin and the new networks
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in files} == digests


@pytest.mark.parametrize("existing", [True, False])
def test_failed_save_leaves_the_directory_as_it_was(tmp_path, monkeypatch, existing):
    # the fifth network file fails, as on a full disk, after the serial
    # loop has written the four before it
    monkeypatch.setattr(fanout, "_WORKERS", 1)
    target = tmp_path / "new" / "mdl"
    old = per_band_system()
    if existing:
        pipeline.save_system(old, target)
    models = [neural.init_model([DIM, 4, 30], seed=100 + j) for j in range(LAYOUT.n_bands)]
    norm = neural.FeatureNorm(old.feature_norm.mean + 1.0, old.feature_norm.std * 2.0)
    new = pipeline.EnhancementSystem(models, None, LAYOUT, CFG, norm, "elc")
    save_model, written = neural.save_model, []

    def failing(model, path, objective):
        if len(written) == 4:
            raise OSError(28, "No space left on device")
        save_model(model, path, objective)
        written.append(path)

    monkeypatch.setattr(neural, "save_model", failing)
    with pytest.raises(OSError):
        pipeline.save_system(new, target)
    assert len(written) == 4
    if not existing:
        assert list(tmp_path.iterdir()) == []
        return
    loaded = pipeline.load_system(target)
    assert [m.param_bytes() for m in loaded.models] == [m.param_bytes() for m in old.models]
    assert np.array_equal(loaded.feature_norm.mean, old.feature_norm.mean)
    assert np.array_equal(loaded.feature_norm.std, old.feature_norm.std)
    assert not list(target.glob(".staging-*"))


def test_failed_parallel_save_raises_the_first_failing_networks_error(tmp_path, monkeypatch):
    # the 2nd network fails slowly, so on two workers the 4th fails first;
    # the error is still the 2nd's, and the old directory still loads
    old = per_band_system()
    pipeline.save_system(old, tmp_path)
    save_model = neural.save_model

    def failing(model, path, objective):
        if path.name == "band_01.mdl":
            time.sleep(0.2)
        if path.name in ("band_01.mdl", "band_03.mdl"):
            raise OSError(28, f"No space left for {path.name}")
        save_model(model, path, objective)

    monkeypatch.setattr(neural, "save_model", failing)
    monkeypatch.setattr(fanout, "_WORKERS", 2)
    models = [neural.init_model([DIM, 4, 30], seed=100 + j) for j in range(LAYOUT.n_bands)]
    new = pipeline.EnhancementSystem(models, None, LAYOUT, CFG, fixed_norm(DIM), "elc")
    with pytest.raises(OSError, match="band_01.mdl"):
        pipeline.save_system(new, tmp_path)
    loaded = pipeline.load_system(tmp_path)
    assert [m.param_bytes() for m in loaded.models] == [m.param_bytes() for m in old.models]
    assert not list(tmp_path.glob(".staging-*"))


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_parallel_save_writes_the_serial_bytes(tmp_path, monkeypatch, kind):
    build, save, _ = DIRECTORIES[kind]
    written = []
    for workers in (1, 2):
        monkeypatch.setattr(fanout, "_WORKERS", workers)
        save(build(), tmp_path / str(workers))
        written.append({p.name: p.read_bytes() for p in (tmp_path / str(workers)).iterdir()})
    assert written[0] == written[1]


def test_save_refuses_a_network_list_of_the_wrong_length(tmp_path):
    system = per_band_system()
    with pytest.raises(ValueError, match="a per-band directory holds 15 network"):
        modeldir.save(tmp_path / "mdl", "per-band", system.feature_norm, system.models[:14], "elc")
    assert not (tmp_path / "mdl").exists()


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_feature_norm_must_fit_the_networks(tmp_path, kind):
    build, save, _ = DIRECTORIES[kind]
    save(build(), tmp_path)
    modeldir.save_norm(fixed_norm(10), tmp_path / "feature_norm.bin")
    with pytest.raises(neural.ModelFormatError, match="feature_norm.bin: dim 10 != expected"):
        modeldir.read(tmp_path, (kind,))


def test_classical_network_must_be_tagged_emse(tmp_path):
    system = classical_system()
    baseline.save_classical(system, tmp_path)
    neural.save_model(system.model, tmp_path / "baseline.mdl", "elc")
    with pytest.raises(neural.ModelFormatError, match="baseline.mdl: objective elc != emse"):
        baseline.load_classical(tmp_path)


def test_parallel_load_raises_the_first_defective_files_error(tmp_path, monkeypatch):
    # band 3 loads slowly, so on two workers band 9 fails first; the error
    # is still band 3's, as in the serial loop
    pipeline.save_system(per_band_system(), tmp_path)
    for name in ("band_03.mdl", "band_09.mdl"):
        raw = bytearray((tmp_path / name).read_bytes())
        raw[len(raw) // 2] ^= 0xFF
        (tmp_path / name).write_bytes(bytes(raw))
    load = neural.load_model

    def slow_band_03(path, *args, **kwargs):
        if path.name == "band_03.mdl":
            time.sleep(0.2)
        return load(path, *args, **kwargs)

    monkeypatch.setattr(neural, "load_model", slow_band_03)
    errors = []
    for workers in (1, 2):
        monkeypatch.setattr(fanout, "_WORKERS", workers)
        with pytest.raises(neural.ModelFormatError) as info:
            pipeline.load_system(tmp_path)
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert "band_03.mdl" in errors[0]


@pytest.mark.parametrize("kind", sorted(DIRECTORIES))
def test_parallel_load_gives_the_serial_networks(tmp_path, monkeypatch, kind):
    build, save, _ = DIRECTORIES[kind]
    save(build(), tmp_path)
    loaded = []
    for workers in (1, 2):
        monkeypatch.setattr(fanout, "_WORKERS", workers)
        loaded.append([model.param_bytes() for model in modeldir.read(tmp_path, (kind,))[2]])
    assert loaded[0] == loaded[1]
    assert len(loaded[0]) == (15 if kind == "per-band" else 1)


# a key or value the codec keeps as written: no separator, comment or line
# break inside and no whitespace that parsing strips from its edges
kv_text = st.text(
    st.characters(blacklist_categories=("Cs",), blacklist_characters="=#\n\r")
).filter(lambda text: text == text.strip())


@settings(max_examples=200, deadline=None)
@given(fields=st.dictionaries(kv_text, kv_text, max_size=8))
def test_kv_round_trip(tmp_path_factory, fields):
    path = tmp_path_factory.getbasetemp() / "round_trip.txt"
    modeldir.write_kv(path, fields)
    assert modeldir.parse_kv(path) == fields


# the required keys of each record: `kind` and the keys of its kind
SYSTEM_REQUIRED = [
    {"kind": modeldir.one_of(*modeldir.KINDS),
     **{key: value_kind for key, (value_kind, _) in modeldir.KINDS[kind].record.items()}}
    for kind in ("per-band", "classical")
]
# every required key of a record present, with any text as its value, so
# the typing runs
system_records = st.one_of(*(
    st.fixed_dictionaries({key: st.text(max_size=12) for key in required})
    for required in SYSTEM_REQUIRED
)).map(lambda fields: "".join(f"{key} = {val}\n" for key, val in fields.items()).encode("utf-8"))


@settings(max_examples=300, deadline=None)
@given(raw=st.one_of(st.binary(max_size=400), system_records))
def test_kv_bytes_parse_or_raise_the_format_error(tmp_path_factory, raw):
    path = tmp_path_factory.getbasetemp() / "fuzz.txt"
    path.write_bytes(raw)
    for required in ({}, *SYSTEM_REQUIRED):
        try:
            modeldir.typed(path, modeldir.parse_kv(path), required)
        except neural.ModelFormatError:
            pass
