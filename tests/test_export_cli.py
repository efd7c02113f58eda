"""Mesh/report emission and the command-line driver."""

import json
import os
import tempfile
from importlib import resources
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from dupin import export as ex
from dupin import cli
from dupin.cli import main

from conftest import read_obj, traced_peak
from test_golden import CASES as GOLDEN_CASES


def read_json(path):
    """The JSON document in the file at path, read with the file closed after."""
    with open(path) as fh:
        return json.load(fh)


class TestMesh:
    def grid(self):
        u = np.linspace(0, 1, 5)
        v = np.linspace(0, 1, 4)
        U, V = np.meshgrid(u, v, indexing="ij")
        return np.stack([U, V, U * V], axis=-1)

    def test_grid_mesh_counts(self):
        mesh = ex.grid_mesh(self.grid())
        assert len(mesh.vertices) == 20
        assert len(mesh.faces) == 4 * 3

    def test_periodic_wrap(self):
        mesh = ex.grid_mesh(self.grid(), periodic_u=True)
        assert len(mesh.faces) == 5 * 3

    def test_flagged_vertices_excluded(self):
        flags = np.zeros((5, 4), dtype=bool)
        flags[2, 2] = True
        mesh = ex.grid_mesh(self.grid(), flags=flags)
        mesh.validate()
        assert len(mesh.faces) == 12 - 4

    def test_obj_round_trip(self, tmp_path):
        mesh = ex.grid_mesh(self.grid())
        path = str(tmp_path / "m.obj")
        ex.write_obj(mesh, path)
        verts, faces = read_obj(path)
        assert len(verts) == len(mesh.vertices)
        assert len(faces) == len(mesh.faces)
        assert np.max(np.abs(verts - mesh.vertices)) < 1e-12
        assert faces[0] == list(mesh.faces[0])

    def test_grid_mesh_faces(self):
        """Faces run i-major, (i, j), (i+1, j), (i+1, j+1), (i, j+1), wrapping
        where periodic, and drop every cell with a flagged corner."""
        nu, nv = 5, 4
        flags = np.zeros((nu, nv), dtype=bool)
        flags[1, 2] = True
        mesh = ex.grid_mesh(np.zeros((nu, nv, 3)), flags, periodic_v=True)
        want = [[i * nv + j, (i + 1) * nv + j, (i + 1) * nv + (j + 1) % nv, i * nv + (j + 1) % nv]
                for i in range(nu - 1) for j in range(nv)]
        want = [q for q in want if not flags.reshape(-1)[q].any()]
        assert mesh.faces.dtype == np.arange(1).dtype
        assert mesh.faces.tolist() == want

    @pytest.mark.parametrize("faces", [np.zeros((2, 4)), np.zeros((2, 3), dtype=int),
                                       np.zeros(4, dtype=int), np.zeros((1, 4), dtype=bool)],
                             ids=["float", "triangles", "flat", "bool"])
    def test_validate_rejects_bad_faces(self, tmp_path, faces):
        mesh = ex.Mesh(np.zeros((4, 3)), faces, np.zeros(4, dtype=bool))
        with pytest.raises(ValueError, match=r"faces must be an integer \(F, 4\) array") as exc:
            mesh.validate()
        assert "\n" not in str(exc.value)
        with pytest.raises(ValueError):
            ex.write_obj(mesh, str(tmp_path / "m.obj"))
        assert list(tmp_path.iterdir()) == []


def reference_obj(mesh):
    """OBJ bytes with every record formatted by `str %`: the bytes write_obj
    must reproduce."""
    n, nf = len(mesh.vertices), len(mesh.faces)
    return "".join([
        f"# vertices: {n} faces: {nf}\n",
        ("v %.12g %.12g %.12g\n" * n) % tuple(mesh.vertices.ravel().tolist()),
        ("f %d %d %d %d\n" * nf) % tuple((mesh.faces + 1).ravel().tolist()),
    ]).encode()


def written_obj(mesh, block=None):
    """write_obj's bytes, streamed in blocks of `block` records if given."""
    with tempfile.TemporaryDirectory() as d, pytest.MonkeyPatch.context() as mp:
        if block is not None:
            mp.setattr(ex, "BLOCK", block)
        path = os.path.join(d, "m.obj")
        ex.write_obj(mesh, path)
        with open(path, "rb") as fh:
            return fh.read()


def random_grid_mesh(nu, nv, periodic_u=False, periodic_v=False, flag_share=0.0, pool=None):
    """Normal vertices scaled by powers of ten from 1e-8 to 1e7.  With `pool`,
    every coordinate is one of `pool` such values, so each block of records
    repeats its coordinates as sampled symmetric surfaces do."""
    rng = np.random.default_rng(nu * 1000 + nv)
    shape = (nu, nv, 3) if pool is None else pool
    pts = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 8, shape)
    if pool is not None:
        pts = rng.choice(pts, (nu, nv, 3))
    return ex.grid_mesh(pts, rng.random((nu, nv)) < flag_share, periodic_u, periodic_v)


# (nu, nv, periodic_u, periodic_v, flag_share)
OBJ_CASES = {
    "no_faces": (4, 5, False, False, 1.0),
    **{f"n{nu * nv}_{nu}x{nv}": (nu, nv, False, False, 0.0) for nu, nv in [
        (3, 3), (2, 5), (9, 11), (10, 10), (27, 37), (25, 40), (99, 101), (100, 100)]},
    "periodic_u": (6, 5, True, False, 0.0),
    "periodic_v": (6, 5, False, True, 0.0),
    "periodic_uv": (12, 9, True, True, 0.0),
    "random_flags": (20, 30, True, False, 0.2),
}

SPECIAL_VALUES = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e300, -1e300, 1e-300, -1e-300, 5e-324]


@st.composite
def obj_meshes(draw, pooled=False):
    """Grid meshes of any floats; with `pooled`, of at most 4 distinct ones."""
    nu, nv = draw(st.integers(1, 12)), draw(st.integers(1, 12))
    values = st.one_of(st.sampled_from(SPECIAL_VALUES), st.floats())
    if pooled:
        values = st.sampled_from(draw(st.lists(values, min_size=1, max_size=4)))
    pts = draw(hnp.arrays(np.float64, (nu, nv, 3), elements=values))
    flags = draw(hnp.arrays(np.bool_, (nu, nv)))
    return ex.grid_mesh(pts, flags, draw(st.booleans()), draw(st.booleans()))


class TestObjBytes:
    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share)
        assert len(mesh.faces) > 0 or case == "no_faces"
        assert written_obj(mesh) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes())
    def test_matches_reference_property(self, mesh):
        assert written_obj(mesh) == reference_obj(mesh)

    # Blocks of 7 records put block boundaries inside every case above.
    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference_small_blocks(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share)
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes())
    def test_matches_reference_property_small_blocks(self, mesh):
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @pytest.mark.parametrize("block", [7, ex.BLOCK])
    @pytest.mark.parametrize("shift", [-1, 0, 1, None], ids=["B-1", "B", "B+1", "2B+1"])
    def test_block_boundary_counts(self, block, shift):
        """n vertices and n faces with n at and around one and two blocks."""
        n = 2 * block + 1 if shift is None else block + shift
        rng = np.random.default_rng(n)
        mesh = ex.Mesh(rng.standard_normal((n, 3)), rng.integers(0, n, (n, 4)),
                       np.zeros(n, dtype=bool))
        assert written_obj(mesh, block) == reference_obj(mesh)


def formatted_keys(vertices, block):
    """The keys `_vertex_records` hands the text kernel `_g12_texts` on blocks
    of `block` vertices, as int64 bit patterns: a list of calls per block."""
    calls, g12_texts = [], ex._g12_texts

    def counted(keys, text):
        calls[-1].append(keys.view(np.int64).copy())
        return g12_texts(keys, text)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ex, "_g12_texts", counted)
        for s in range(0, len(vertices), block):
            calls.append([])
            ex._vertex_records(vertices[s:s + block])
    return calls


def distinct_counts(vertices, block):
    """Checks that the text kernel formats exactly each block's distinct bit
    patterns (0.0 and -0.0 differ, as do NaN payloads), each once, in as few
    passes of at most 3 _ROWS keys as hold them; the count per block."""
    counts = []
    for s, calls in zip(range(0, len(vertices), block), formatted_keys(vertices, block)):
        part = np.ascontiguousarray(vertices[s:s + block], dtype=np.float64)
        distinct = np.unique(part.view(np.int64))
        assert len(calls) == -(-len(distinct) // (3 * ex._ROWS))
        assert all(len(keys) <= 3 * ex._ROWS for keys in calls)
        assert np.array_equal(np.sort(np.concatenate(calls)), distinct)
        counts.append(len(distinct))
    return counts


class TestSharedCoordinates:
    """Each block formats its distinct bit patterns once and gives the bytes
    of formatting every coordinate."""

    def test_pool_of_ten(self):
        mesh = random_grid_mesh(100, 100, True, True, pool=10)
        counts = distinct_counts(mesh.vertices, ex.BLOCK)
        assert len(counts) == 2 and max(counts) <= 10
        assert written_obj(mesh) == reference_obj(mesh)

    @pytest.mark.parametrize("block", [7, ex.BLOCK])
    def test_signed_zeros(self, block):
        rng = np.random.default_rng(0)
        verts = rng.choice([0.0, -0.0], (3 * block, 3))
        mesh = ex.Mesh(verts, np.zeros((0, 4), dtype=int), np.zeros(len(verts), dtype=bool))
        assert distinct_counts(verts, block) == [2, 2, 2]
        text = written_obj(mesh, block)
        assert b" 0" in text and b" -0" in text
        assert text == reference_obj(mesh)

    @pytest.mark.parametrize("extra", [0, 1], ids=["half", "half+1"])
    def test_half_distinct(self, extra):
        """8 vertices, 24 coordinates, 12 or 13 distinct values: each is
        formatted once, in one call."""
        rng = np.random.default_rng(extra)
        values = rng.standard_normal(12 + extra)
        coords = np.concatenate([values, values[:12 - extra]])
        verts = rng.permutation(coords).reshape(8, 3)
        assert len(np.unique(verts)) == 12 + extra
        mesh = ex.Mesh(verts, np.arange(8).reshape(2, 4), np.zeros(8, dtype=bool))
        assert distinct_counts(verts, 8) == [12 + extra]
        assert written_obj(mesh, block=8) == reference_obj(mesh)

    @pytest.mark.parametrize("case", OBJ_CASES)
    def test_matches_reference_small_blocks(self, case):
        nu, nv, pu, pv, flag_share = OBJ_CASES[case]
        mesh = random_grid_mesh(nu, nv, pu, pv, flag_share, pool=4)
        assert written_obj(mesh, block=7) == reference_obj(mesh)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(mesh=obj_meshes(pooled=True))
    def test_matches_reference_property_small_blocks(self, mesh):
        assert written_obj(mesh, block=7) == reference_obj(mesh)


def assert_records_match(coords, block):
    """`_vertex_records` on blocks of `block` vertices of coords (padded with
    zeros to whole vertices) gives the bytes of `%` record by record."""
    coords = np.asarray(coords, dtype=np.float64).ravel()
    verts = np.concatenate([coords, np.zeros(-len(coords) % 3)]).reshape(-1, 3)
    for s in range(0, len(verts), block):
        part = verts[s:s + block]
        got = ex._vertex_records(part)
        want = (b"v %.12g %.12g %.12g\n" * len(part)) % tuple(part.ravel().tolist())
        if got != want:
            lines = zip(got.split(b"\n"), want.split(b"\n"))
            i, g, w = next((i, g, w) for i, (g, w) in enumerate(lines) if g != w)
            pytest.fail(f"vertex {s + i} {part[i].tolist()!r}: {g!r} != {w!r}")


def ulp_neighbours(values, reach):
    """Each finite value and the floats up to `reach` ulps either side of it."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    out = (bits[:, None] + np.arange(-reach, reach + 1)).view(np.float64).ravel()
    return out[np.isfinite(out)]


def random_bit_patterns(n=1_000_002):
    """n uniformly random 64-bit patterns read as float64: every exponent,
    subnormals, both zeros' neighbourhoods, infinities and NaN payloads."""
    rng = np.random.default_rng(30)
    bits = rng.integers(np.iinfo(np.int64).min, np.iinfo(np.int64).max, n, dtype=np.int64,
                        endpoint=True)
    bits[:6] = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan]).view(np.int64)
    return bits.view(np.float64)


def near_ties():
    """The floats nearest (k + 1/2) 10^(e - 11), three 12-digit k for each
    e in [-300, 307], and their neighbours to 64 ulps, with random signs:
    where rounding to 12 digits is closest to a tie."""
    from fractions import Fraction
    rng = np.random.default_rng(31)
    ties = [float(Fraction(2 * k + 1, 2) * Fraction(10) ** (e - 11))
            for e in range(-300, 308) for k in rng.integers(10 ** 11, 10 ** 12, 3).tolist()]
    out = ulp_neighbours(ties, 64)
    return out * rng.choice([-1.0, 1.0], len(out))


def dyadic_ties():
    """Floats exactly halfway between two 12-digit values, which %g rounds
    to even, and their neighbours to 4 ulps."""
    rng = np.random.default_rng(32)
    k = rng.integers(10 ** 11, 10 ** 12, 2000)
    ties = np.concatenate([[123456789012.5, 999999999999.5, 100000000000.5],
                           k + 0.5, (10 * k + 5) * 10.0, (10 * k + 5) * 100.0, (10 * k + 5) * 1.0])
    return np.concatenate([ulp_neighbours(ties, 4), -ties])


def decade_edges():
    """Every power of ten and every 9.999999999995eN, where the rounded
    exponent differs from the unrounded one, with neighbours to 8 ulps."""
    edges = [float(f"1e{e}") for e in range(-323, 309)]
    edges += [float(f"9.999999999995e{e}") for e in range(-300, 308)]
    out = ulp_neighbours([v for v in edges if v], 8)
    return np.concatenate([out, -out, [0.0, -0.0, 5e-324, -5e-324]])


BULK = {"random_bits": random_bit_patterns, "near_ties": near_ties,
        "dyadic_ties": dyadic_ties, "decade_edges": decade_edges}


class TestVectorisedFormat:
    """The numpy %.12g gives the bytes of Python's formatter on every kind
    of float, in blocks of 7, 4096 (one formatting pass) and BLOCK records.
    Blocks of 7 take an evenly strided sample of about 8000 vertices, which
    keeps every kind of value and the suite's run time."""

    @pytest.mark.parametrize("block", [7, 4096, ex.BLOCK])
    @pytest.mark.parametrize("case", BULK)
    def test_matches_percent(self, case, block):
        coords = BULK[case]()
        if block == 7:
            verts = np.concatenate([coords, np.zeros(-len(coords) % 3)]).reshape(-1, 3)
            coords = verts[::max(1, len(verts) // 8000)]
        assert_records_match(coords, block)


FALLBACK_CASES = {
    **{name: argv for name, argv in GOLDEN_CASES.items() if argv[0] in ("gen", "orbit", "fig7")},
    "orbit_64": ["orbit", "--C", "0.5", "--grid", "64x64"],
}


class TestFallbackShare:
    """The numpy %.12g formats all but a few keys itself: fewer than 1% of the
    nonzero distinct coordinates of each block of each CLI mesh go to
    Python's formatter (`_exact_texts`), counted as `write_obj` runs."""

    @pytest.mark.parametrize("case", FALLBACK_CASES)
    def test_fallback_share(self, case, tmp_path, monkeypatch):
        meshes, fallback = [], []
        write_obj, exact_texts = cli.write_obj, ex._exact_texts
        monkeypatch.setattr(cli, "write_obj",
                            lambda mesh, path: meshes.append(mesh) or write_obj(mesh, path))
        monkeypatch.setattr(ex, "_exact_texts", lambda v: fallback.append(len(v)) or exact_texts(v))
        monkeypatch.chdir(tmp_path)
        assert main(FALLBACK_CASES[case] + ["--out", str(tmp_path / "m.obj")]) == 0
        assert (tmp_path / "m.obj").read_bytes() == reference_obj(meshes[0])
        verts, keys = meshes[0].vertices, 0
        for s in range(0, len(verts), ex.BLOCK):
            distinct = np.unique(verts[s:s + ex.BLOCK].view(np.int64))
            keys += np.count_nonzero(distinct.view(np.float64))
        assert sum(fallback) < 0.01 * keys

    def test_distinct_blocks_take_numpy_format(self, monkeypatch):
        # every coordinate of an all-distinct mesh is a key of _g12_texts
        mesh = random_grid_mesh(64, 64)
        formatted, g12_texts = [], ex._g12_texts
        monkeypatch.setattr(ex, "_g12_texts",
                            lambda keys, text: formatted.append(len(keys)) or g12_texts(keys, text))
        assert written_obj(mesh) == reference_obj(mesh)
        assert len(np.unique(mesh.vertices)) == mesh.vertices.size
        assert sum(formatted) == mesh.vertices.size


def pooled(values, n, rng):
    """n coordinates drawn from values with repeats, every value kept."""
    return rng.permutation(np.concatenate([values, rng.choice(values, n - len(values))]))


def composition_cases():
    """Coordinates whose blocks repeat values in many layouts at once: the
    rows `_exact_texts` fills and the rows each repeat reads back."""
    rng = np.random.default_rng(34)
    n = 6 * ex.BLOCK
    ties = near_ties()[::997]           # about 3000 near-ties, every decade
    nans = np.array([0x7FF8000000000000, 0x7FF0000000000001, 0x7FFFFFFFFFFFFFFF,
                     -0x0008000000000000, -0x000FFFFFFFFFFFFF], dtype=np.int64).view(np.float64)
    special = np.concatenate([[0.0, -0.0, np.inf, -np.inf], nans])
    distinct = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 14, n)
    return {
        "repeated_near_ties": pooled(np.concatenate([ties[:300], distinct[:300]]), n, rng),
        "near_ties_and_distinct": np.where(rng.random(n) < 0.3, pooled(ties, n, rng), distinct),
        "repeated_specials": pooled(np.concatenate([special, distinct[:20]]), n, rng),
        "pooled_and_distinct": np.where(rng.random(n) < 0.5, pooled(distinct[-10:], n, rng),
                                        distinct),
        "pooled_runs": np.repeat(pooled(distinct[:50], n // 8, rng), 8),
    }


COMPOSITION = composition_cases()


class TestIndexComposition:
    """Each coordinate's row is the sort of the block's bit patterns composed
    with its key's row in layout order.  Blocks that repeat near-ties, signed
    zeros, infinities, NaN payloads and mixes of pooled and distinct values
    give the bytes of `%` record by record, with each distinct key formatted
    once.  Blocks of 7 take the first 2048 vertices."""

    @pytest.mark.parametrize("block", [7, ex.BLOCK])
    @pytest.mark.parametrize("case", COMPOSITION)
    def test_matches_percent(self, case, block, monkeypatch):
        coords = COMPOSITION[case][:3 * 2048 if block == 7 else None]
        fallback, exact_texts = [], ex._exact_texts
        monkeypatch.setattr(ex, "_exact_texts", lambda v: fallback.append(len(v)) or exact_texts(v))
        assert_records_match(coords, block)
        assert sum(fallback) > 0 or case.startswith("pooled")
        assert sum(distinct_counts(coords.reshape(-1, 3), block)) < len(coords)


class TestExportMemory:
    """At 256 x 256 the export layer's working memory is about one block of
    records and one face array, not a multiple of the mesh text."""

    def test_write_obj_transient(self, tmp_path):
        mesh = random_grid_mesh(256, 256, True, True)
        peak, _ = traced_peak(ex.write_obj, mesh, str(tmp_path / "m.obj"))
        assert peak < 4e6

    def test_write_obj_transient_shared(self, tmp_path):
        mesh = random_grid_mesh(256, 256, True, True, pool=10)
        counts = distinct_counts(mesh.vertices, ex.BLOCK)
        assert len(counts) == 8 and max(counts) <= 10
        peak, _ = traced_peak(ex.write_obj, mesh, str(tmp_path / "m.obj"))
        assert peak < 4e6

    def test_write_obj_orbit_mesh(self, tmp_path, monkeypatch):
        # the 256 x 256 orbit mesh is 55% distinct per block: 2,341,571
        # bytes traced when such blocks were formatted coordinate by coordinate
        meshes, write_obj = [], ex.write_obj
        monkeypatch.setattr(cli, "write_obj", lambda mesh, path: meshes.append(mesh))
        monkeypatch.chdir(tmp_path)
        assert main(["orbit", "--C", "0.5", "--grid", "256x256", "--out", "o.obj"]) == 0
        assert len(meshes[0].vertices) == 256 * 256
        peak, _ = traced_peak(write_obj, meshes[0], str(tmp_path / "m.obj"))
        assert peak <= 2_341_571

    def test_validate_transient(self):
        mesh = ex.grid_mesh(np.zeros((512, 512, 3)), None, True, True)
        peak, _ = traced_peak(mesh.validate)
        assert peak < 0.5e6

    def test_grid_mesh_transient(self):
        pts = np.zeros((256, 256, 3))
        flags = np.zeros((256, 256), dtype=bool)
        peak, mesh = traced_peak(ex.grid_mesh, pts, flags, True, True)
        assert len(mesh.faces) == 256 * 256
        assert peak <= 1.5 * mesh.faces.nbytes


class TestOrbitMemory:
    def test_orbit_cli_traced_peak(self, tmp_path):
        # hc_orbit fills its grid in slabs, and the OrbitResult is freed before
        # the mesh is built: 10.8 MiB at 256 x 256 with whole-grid arrays
        argv = ["orbit", "--C", "0.5", "--grid", "256x256", "--out", str(tmp_path / "o.obj")]
        peak, rc = traced_peak(main, argv)
        assert rc == 0
        assert peak <= 7.5 * 2**20


class TestAtomicWrite:
    @staticmethod
    def fail_replace(src, dst):
        raise OSError("replace failed")

    @pytest.mark.parametrize("kind", ["obj", "report"])
    def test_failed_replace_keeps_previous_file(self, tmp_path, monkeypatch, kind):
        path = tmp_path / f"out.{kind}"
        path.write_bytes(b"previous\n")
        monkeypatch.setattr(os, "replace", self.fail_replace)
        with pytest.raises(OSError, match="replace failed"):
            if kind == "obj":
                ex.write_obj(random_grid_mesh(4, 4), str(path))
            else:
                ex.write_report(ex.make_report("op", {}, [], {}), str(path))
        assert path.read_bytes() == b"previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_failed_block_keeps_previous_file(self, tmp_path, monkeypatch):
        """A record block that raises partway through the stream leaves the
        previous file as it was and no temp file."""
        class FailingBlocks(np.ndarray):
            def __getitem__(self, key):
                if isinstance(key, slice) and key.start:
                    raise RuntimeError("block failed")
                return super().__getitem__(key)

        monkeypatch.setattr(ex, "BLOCK", 7)
        mesh = random_grid_mesh(4, 4)
        mesh.vertices = mesh.vertices.view(FailingBlocks)
        path = tmp_path / "out.obj"
        path.write_bytes(b"previous\n")
        with pytest.raises(RuntimeError, match="block failed"):
            ex.write_obj(mesh, str(path))
        assert path.read_bytes() == b"previous\n"
        assert list(tmp_path.iterdir()) == [path]

    def test_report_bytes(self, tmp_path):
        rep = ex.make_report("op", {"grid": [3, 4], "name": "caf\u00e9"},
                             [ex.check("a", 1e-12, 1e-10), ex.check("b", -0.0)], {"a": 1e-10})
        path = tmp_path / "r.json"
        ex.write_report(rep, str(path))
        want = json.dumps(rep, sort_keys=True, indent=2, allow_nan=False) + "\n"
        assert path.read_bytes() == want.encode()


class TestReports:
    def test_check_records_tolerance(self):
        c = ex.check("residual", 1e-12, 1e-10)
        assert c["pass"] and c["tolerance"] == 1e-10

    def test_report_pass_aggregation(self):
        rep = ex.make_report("op", {}, [ex.check("a", 0.0, 1.0), ex.check("b", 2.0, 1.0)], {})
        assert rep["passed"] is False


# |C| so large that h_C overflows on the grid (1e8) or loses its rank (1e300)
LARGE_C = (["orbit", "--C", "1e8"], ["orbit", "--C", "1e300"])


class TestCLI:
    def test_gen_cylinder(self, tmp_path):
        out = str(tmp_path / "cyl.obj")
        assert main(["gen", "cylinder", "--radius", "1", "--grid", "24x12", "--out", out]) == 0
        verts, faces = read_obj(out)
        assert len(verts) == 24 * 12
        rep = read_json(out[:-4] + ".report.json")
        assert rep["passed"]
        assert rep["parameters"]["surface"] == "cylinder"

    def test_gen_figure1(self, tmp_path):
        out = str(tmp_path / "fig1.obj")
        rc = main(["gen", "torus", "--alpha", "0.7853981634", "--project", "stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0
        rep = read_json(out[:-4] + ".report.json")
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["isoparametric"]["pass"] is False
        assert by_name["dupin"]["pass"] is True

    @pytest.mark.parametrize("alpha", ["0.1", "0.12"])
    def test_gen_thin_torus_stereo(self, tmp_path, alpha):
        # the image has a wide range of scales; the rank test is per point
        out = str(tmp_path / "thin.obj")
        rc = main(["gen", "torus", "--alpha", alpha, "--project", "stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0
        rep = read_json(out[:-4] + ".report.json")
        by_name = {c["name"]: c for c in rep["checks"]}
        assert by_name["dupin"]["pass"] is True

    def test_gen_figure2(self, tmp_path):
        out = str(tmp_path / "fig2.obj")
        rc = main(["gen", "hyperboloid", "--a", "0.5", "--project", "hyp_stereo",
                   "--grid", "32x32", "--out", out])
        assert rc == 0

    def test_gen_bad_parameter_exit_code(self, tmp_path, capsys):
        out = str(tmp_path / "t.obj")
        rc = main(["gen", "torus", "--alpha", "2.0", "--project", "stereo", "--out", out])
        assert rc == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["orbit", "--C", "nan"], ["orbit", "--C", "inf"], ["orbit", "--C=-inf"],
        ["orbit", "--C", "0", "--span", "0"], ["orbit", "--C", "0", "--span", "-1"],
        ["orbit", "--C", "0", "--span", "nan"], ["orbit", "--C", "0", "--span", "inf"],
        ["fig7", "--t", "nan"], ["fig7", "--t", "inf"], ["fig7", "--t=-inf"],
        ["fig7", "--t", "1000"], ["fig7", "--t=-1000"],
        ["orbit", "--C", "0", "--grid", "1x1"], ["orbit", "--C", "0", "--grid", "2x2"],
        ["fig7", "--t", "1", "--grid", "2x8"], ["gen", "cylinder", "--radius", "1", "--grid", "3x2"],
        ["orbit", "--C", "1", "--span", "1e10", "--grid", "5x5"],
        ["orbit", "--C", "1.6667", "--span", "1000", "--grid", "5x5"],
        ["fig7", "--t", "100"],
        ["gen", "cylinder", "--radius", "inf"], ["gen", "cylinder", "--radius", "nan"],
        *LARGE_C,
        ["fig7", "--t", "20"], ["fig7", "--t=-20"],
        ["fig7", "--t", "20", "--grid", "33x33"], ["fig7", "--t=-20", "--grid", "33x33"],
    ])
    @pytest.mark.filterwarnings("error")  # a warning would be a second stderr line
    def test_orbit_fig7_bad_parameter_exit_code(self, tmp_path, capsys, argv):
        out = tmp_path / "bad.obj"
        # a --grid in argv comes later and overrides the default 8x8
        assert main(argv[:1] + ["--grid", "8x8"] + argv[1:] + ["--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        if argv in LARGE_C:  # the message names the cause
            assert "|C|" in err and f"C = {float(argv[2]):g}" in err
        if argv[:5] == ["orbit", "--C", "1", "--span", "1e10"]:  # and both values
            assert "C = 1, span = 1e+10" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("radius", ["1e9", "1e10"])
    @pytest.mark.filterwarnings("error")  # classify's umbilic warning is not a second line
    def test_gen_umbilic_on_every_grid_point(self, tmp_path, capsys, radius):
        # the Dupin test is undefined there: exit 2 rather than a NaN report
        out = tmp_path / "c.obj"
        argv = ["gen", "cylinder", "--radius", radius, "--grid", "5x5", "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "umbilic on every grid point" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.filterwarnings("error")  # no RuntimeWarning from the chart maps
    def test_orbit_regimes(self, tmp_path):
        for argv, regime, chart_failures, null_cone, passed in [
            (["--C", "0"], "torus", 0, True, True),
            (["--C", "1"], "cylinder", 0, True, True),
            (["--C", "1.6667"], "hyperboloid", 0, True, True),
            # lower-sheet points: flagged, written at a finite placeholder, and
            # failing the report
            (["--C", "1.6667", "--span", "50", "--grid", "5x5"], "hyperboloid", 15, True, False),
            (["--C", "-1.6667", "--span", "50", "--grid", "5x5"], "hyperboloid", 15, True, False),
            # rounding noise: the measured null-cone residual fails its check
            (["--C", "0", "--span", "1e10", "--grid", "5x5"], "torus", 0, False, False),
        ]:
            out = str(tmp_path / "orb.obj")
            assert main(["orbit", "--grid", "12x12"] + argv + ["--out", out]) == 0
            with open(out[:-4] + ".report.json") as fh:
                rep = json.load(fh)
            assert rep["parameters"]["regime"] == regime
            checks = {c["name"]: c for c in rep["checks"]}
            assert checks["chart_failures"]["value"] == chart_failures
            assert checks["chart_failures"]["pass"] is (chart_failures == 0)
            assert (checks["null_cone"]["value"] < 1e-13) is null_cone
            assert checks["null_cone"]["pass"] is null_cone and rep["passed"] is passed
            verts, _ = read_obj(out)
            assert np.isfinite(verts).all()

    def test_fig7_singular_set(self, tmp_path):
        out = str(tmp_path / "f7.obj")
        assert main(["fig7", "--t", "1", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        assert rep["degenerate"] is False
        n_sing = len(rep["singular_grid_points"])
        assert 0 < n_sing < 33 * 33
        # flagged vertices excluded from faces
        verts, faces = read_obj(out)
        used = {i for f in faces for i in f}
        flagged = {i * 33 + j for i, j in rep["singular_grid_points"]}
        assert not used & flagged

    def test_fig7_degenerate(self, tmp_path):
        out = str(tmp_path / "f70.obj")
        assert main(["fig7", "--t", "0", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        assert rep["degenerate"] is True

    @pytest.mark.parametrize("t, degenerate", [("0", True), ("1", False)])
    def test_fig7_degenerate_check(self, tmp_path, t, degenerate):
        out = str(tmp_path / "f7d.obj")
        assert main(["fig7", "--t", t, "--grid", "17x17", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        check = {c["name"]: c for c in rep["checks"]}["degenerate"]
        assert rep["degenerate"] is degenerate
        assert check["pass"] is (not rep["degenerate"]) and rep["passed"] is check["pass"]
        assert check["value"] == rep["checks"][0]["value"] / 17 ** 2
        assert check["tolerance"] == 0.5

    def test_fig7_even_grid_singular_rows(self, tmp_path):
        # the pinched circles v = +-2 fall between the nodes of a 64x64 grid;
        # the rows nearest them (v = +-1.968) are flagged and no face uses them
        out = str(tmp_path / "f64.obj")
        assert main(["fig7", "--t", "1", "--grid", "64x64", "--out", out]) == 0
        rep = read_json(out[:-4] + ".report.json")
        points = rep["singular_grid_points"]
        assert rep["checks"][0]["value"] == 128.0 == len(points)
        assert sorted({j for _, j in points}) == [16, 47]
        _, faces = read_obj(out)
        used = {i for f in faces for i in f}
        assert not used & {i * 64 + j for i, j in points}
        assert len(used) == 64 * 62

    def test_fig7_grid_vertex_count(self, tmp_path):
        out = str(tmp_path / "f7g.obj")
        assert main(["fig7", "--t", "1", "--grid", "32x32", "--out", out]) == 0
        verts, _ = read_obj(out)
        assert len(verts) == 32 * 32

    def test_verify_exit_codes(self, tmp_path):
        assert main(["verify", "framecalc"]) == 0
        # an impossible closure tolerance forces a failing suite -> exit 1
        assert main(["verify", "moebius", "--tol-closure", "1e-18"]) == 1

    def test_example_dupin_applies_its_tolerance(self, tmp_path, monkeypatch):
        # a derivative above the recorded 1e-8 fails the check even when
        # legendre_dupin_test's own verdict is Dupin
        from dupin import liesphere as ls
        monkeypatch.setattr(ls, "legendre_dupin_test",
                            lambda lm: {"dupin": True, "max_derivative": 1e-6})
        out = str(tmp_path / "v.json")
        assert main(["verify", "liesphere", "--out", out]) == 1
        checks = {c["name"]: c for c in read_json(out)["checks"]}
        assert checks["example_dupin"]["tolerance"] == 1e-8
        assert checks["example_dupin"]["pass"] is False

    def test_outdir_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DUPIN_OUTDIR", str(tmp_path / "envdir"))
        assert main(["gen", "cylinder", "--radius", "2", "--grid", "12x8",
                     "--out", "cyl.obj"]) == 0
        assert os.path.exists(tmp_path / "envdir" / "cyl.obj")

    def test_tol_flag_override(self, tmp_path):
        out = str(tmp_path / "v.json")
        assert main(["verify", "framecalc", "--tol-order", "1e-6", "--out", out]) == 0
        rep = read_json(out)
        assert rep["tolerances"]["order"] == 1e-6


class TestTolFlags:
    """Each command takes the --tol-* flags it applies, and each one changes
    a result."""

    @pytest.mark.parametrize("name", ["membership", "closure", "contact", "order"])
    def test_verify_flag_is_read(self, name):
        assert main(["verify", "all", f"--tol-{name}", "0"]) == 1

    def test_every_default_key_is_read(self):
        # defaults.cfg holds the grid sizes and the tolerances commands read, no more
        with resources.files("dupin").joinpath("defaults.cfg").open() as fh:
            keys = set(cli._parse_cfg(fh))
        read = {name for names in cli.COMMAND_TOLS.values() for name in names}
        assert keys == {"grid_nu", "grid_nv"} | read

    @pytest.mark.parametrize("argv", [
        ["gen", "cylinder", "--radius", "2", "--tol-rank", "1"],
        ["gen", "cylinder", "--radius", "2", "--tol-dupin", "1"],
        ["orbit", "--C", "0.5", "--tol-order", "1"],
        ["fig7", "--t", "1", "--tol-closure", "1"],
        ["verify", "framecalc", "--tol-rank", "1"],
        ["fig7", "--t", "1", "--tol-rank", "1"],
    ])
    def test_unread_flag_rejected(self, argv, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--out", str(tmp_path / "x.obj")])
        assert exc.value.code == 2

    def test_reports_record_only_applied_tolerances(self, tmp_path):
        out = str(tmp_path / "c.obj")
        assert main(["gen", "cylinder", "--radius", "2", "--grid", "12x8", "--out", out]) == 0
        assert read_json(out[:-4] + ".report.json")["tolerances"] == {}
        assert main(["fig7", "--t", "1", "--grid", "9x9", "--out", out]) == 0
        assert read_json(out[:-4] + ".report.json")["tolerances"] == {}
        assert main(["verify", "framecalc", "--out", out]) == 0
        assert sorted(read_json(out)["tolerances"]) == [
            "closure", "contact", "membership", "order"]


def assert_one_line_error(rc, capsys, *words):
    """rc is the exit code 2 of a rejected run, whose stderr is one error
    line containing each of words."""
    err = capsys.readouterr().err.splitlines()
    assert rc == 2 and len(err) == 1 and err[0].startswith("error: "), err
    assert all(w in err[0] for w in words), err


class TestBadTolerances:
    """A non-finite or negative tolerance, from a flag or a config file,
    exits 2 before any report is written; zero stays accepted
    (TestTolFlags.test_verify_flag_is_read)."""

    @pytest.mark.parametrize("name,value", [("membership", "nan"), ("order", "inf"),
                                            ("contact", "-1")])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_rejected(self, name, value, source, tmp_path, monkeypatch, capsys):
        out = tmp_path / "r.json"
        argv = ["verify", "framecalc", "--out", str(out)]
        if source == "flag":
            argv += [f"--tol-{name}", value]
        else:
            cfg = tmp_path / "bad.cfg"
            cfg.write_text(f"{name} = {value}\n")
            monkeypatch.setenv("DUPIN_CONFIG", str(cfg))
        assert_one_line_error(main(argv), capsys, name)
        assert not out.exists()


class TestConfigErrors:
    """A config file that cannot be read or parsed exits 2 with one line."""

    def test_unparsable_value_names_its_key(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("membership = abc\n")
        rc = main(["--config", str(cfg), "verify", "framecalc"])
        assert_one_line_error(rc, capsys, "'membership'", "'abc'")

    @pytest.mark.parametrize("text,line", [("order 0\n", 1),
                                           ("# tolerances\norder = 1e-6\ncontact\n", 3)])
    def test_line_without_equals_names_file_and_line(self, text, line, tmp_path, capsys):
        # a line that is neither blank, a comment nor key = value is an error, not skipped
        cfg, out = tmp_path / "bad.cfg", tmp_path / "r.json"
        cfg.write_text(text)
        rc = main(["--config", str(cfg), "verify", "framecalc", "--out", str(out)])
        assert_one_line_error(rc, capsys, "bad.cfg", f"line {line}")
        assert not out.exists()

    def test_missing_config_flag_file(self, tmp_path, capsys):
        rc = main(["--config", str(tmp_path / "no_such.cfg"), "verify", "framecalc"])
        assert_one_line_error(rc, capsys, "no_such.cfg")

    def test_missing_config_env_file(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("DUPIN_CONFIG", str(tmp_path / "no_such.cfg"))
        assert_one_line_error(main(["verify", "framecalc"]), capsys, "no_such.cfg")

    @pytest.mark.parametrize("text,key", [
        ("grid_nu = 2\ngrid_nv = 1\n", "'grid_nu'"),
        ("grid_nv = 1\n", "'grid_nv'"),
        ("grid_nu = 0.5\n", "'grid_nu'"),
        ("grid_nv = 1e400\n", "'grid_nv'"),
        ("grid_nu = -64\n", "'grid_nu'"),
        ("grid_nu = 64.0\n", "'grid_nu'"),
    ])
    @pytest.mark.parametrize("argv", [["gen", "cylinder", "--radius", "1"], ["orbit", "--C", "0.5"]],
                             ids=["gen", "orbit"])
    def test_grid_keys_checked_as_grid_flag(self, text, key, argv, tmp_path, capsys):
        # a default grid from the config obeys --grid's rule: an integer >= 3
        cfg, out = tmp_path / "grid.cfg", tmp_path / "m.obj"
        cfg.write_text(text)
        rc = main(["--config", str(cfg)] + argv + ["--out", str(out)])
        assert_one_line_error(rc, capsys, key, "at least 3")
        assert list(tmp_path.iterdir()) == [cfg]

    def test_grid_keys_set_default_grid(self, tmp_path):
        cfg, out = tmp_path / "grid.cfg", str(tmp_path / "m.obj")
        cfg.write_text("grid_nu = 5\ngrid_nv = 4\n")
        assert main(["--config", str(cfg), "gen", "cylinder", "--radius", "1", "--out", out]) == 0
        assert read_json(out[:-4] + ".report.json")["parameters"]["grid"] == "5x4"

    @pytest.mark.parametrize("source", ["flag", "env", "cwd"])
    def test_unknown_key_rejected(self, source, tmp_path, monkeypatch, capsys):
        # a misspelt key must not fall back silently on the default it meant to set
        cfg, out = tmp_path / "dupin.cfg", tmp_path / "r.json"
        cfg.write_text("order = 1e-6\nordr = 0\n")
        argv = ["verify", "framecalc", "--out", str(out)]
        if source == "flag":
            argv = ["--config", str(cfg)] + argv
        elif source == "env":
            monkeypatch.setenv("DUPIN_CONFIG", str(cfg))
        else:
            monkeypatch.chdir(tmp_path)
        assert_one_line_error(main(argv), capsys, "'ordr'", "unknown config key")
        assert not out.exists()


class TestDeterminism:
    def test_gen_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.obj"), str(tmp_path / "b.obj")
        args = ["gen", "cylinder", "--radius", "1", "--grid", "16x8"]
        main(args + ["--out", a])
        main(args + ["--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()
        assert (
            Path(a[:-4] + ".report.json").read_bytes()
            == Path(b[:-4] + ".report.json").read_bytes()
        )

    def test_verify_byte_identical(self, tmp_path):
        a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        main(["verify", "moebius", "--out", a])
        main(["verify", "moebius", "--out", b])
        assert Path(a).read_bytes() == Path(b).read_bytes()
