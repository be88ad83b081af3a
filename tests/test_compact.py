"""Tests for the compact frozen-table layout (repro.libm.compact).

The compact codec carries every double as its 64-bit pattern, so its
one hard contract is *bit identity*: ``decode(encode(data))`` must
reproduce the legacy ``DATA`` dict exactly.  Every shipped function is
loaded as ``function_from_dict(decode(COMPACT))``, so that dict is the
whole contract.  The batch lowering shares the freezer's padding
predicate, so the kernel tests live here too.
"""

import base64
import importlib
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.libm import compact
from repro.libm.compact import CompactError, decode, encode, render_compact
from repro.libm.serialize import (_deep_equal, function_from_dict,
                                  function_to_dict)

SHIPPED = [("float32", f) for f in ("ln", "log2", "log10", "exp", "exp2",
                                    "exp10", "sinh", "cosh", "sinpi",
                                    "cospi")] + \
          [("posit32", f) for f in ("ln", "log2", "log10", "exp", "exp2",
                                    "exp10", "sinh", "cosh")]


def _shipped_module(target: str, name: str):
    return importlib.import_module(f"repro.libm.data_{target}.{name}")


def _shipped_function(target: str, name: str):
    """A fresh function built the way ``runtime.load_function`` builds it."""
    return function_from_dict(decode(_shipped_module(target, name).COMPACT))


# ---------------------------------------------------------------------------
# generic skeleton codec


finite_floats = st.floats(allow_nan=False, width=64)
any_floats = st.floats(width=64)  # nan/inf included: the pool stores bits
leaf = st.one_of(any_floats, st.integers(-2**40, 2**40),
                 st.text(max_size=8), st.booleans(), st.none())
skeleton = st.recursive(
    leaf,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(
            st.text(min_size=1, max_size=6).filter(
                lambda s: not s.startswith("@")),
            inner, max_size=4)),
    max_leaves=24)


class TestSkeletonCodec:
    @given(st.dictionaries(st.sampled_from("abcdef"), skeleton, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_round_trip_is_bit_identical(self, data):
        assert _deep_equal(decode(encode(data)), data)

    def test_specials_survive(self):
        data = {"v": (math.inf, -math.inf, math.nan, 0.0, -0.0, 5e-324)}
        out = decode(encode(data))
        assert _deep_equal(out, data)
        # -0.0 and subnormals by bit pattern, not just value
        for got, want in zip(out["v"], data["v"]):
            assert struct.pack("<d", got) == struct.pack("<d", want)

    def test_tuple_vs_list_distinction(self):
        data = {"t": (1.0, 2.0), "l": [1.0, 2.0]}
        out = decode(encode(data))
        assert type(out["t"]) is tuple and type(out["l"]) is list

    def test_at_keys_rejected_at_encode(self):
        with pytest.raises(ValueError, match="@"):
            encode({"x": {"@f": 1}})

    def test_float_subclass_rejected(self):
        class Sneaky(float):
            pass

        with pytest.raises(ValueError):
            encode({"x": Sneaky(1.5)})

    def test_pool_deduplicates_identical_vectors(self):
        data = {"a": (1.5, 2.5, 3.5), "b": (1.5, 2.5, 3.5),
                "c": [1.5, 2.5, 3.5]}
        comp = encode(data)
        assert comp["pool_len"] == 3
        assert _deep_equal(decode(comp), data)


class TestBlobValidation:
    def _good(self):
        return encode({"x": 1.25, "v": (0.5, 0.75)})

    def test_version_mismatch(self):
        comp = self._good()
        comp["version"] = 99
        with pytest.raises(CompactError, match="version"):
            decode(comp)

    def test_torn_pool(self):
        comp = self._good()
        raw = base64.b64decode(comp["pool"])
        comp["pool"] = base64.b64encode(raw[:-3]).decode("ascii")
        with pytest.raises(CompactError):
            decode(comp)

    def test_pool_len_mismatch(self):
        comp = self._good()
        comp["pool_len"] += 1
        with pytest.raises(CompactError, match="pool_len"):
            decode(comp)

    def test_reference_outside_pool(self):
        comp = encode({"x": 1.25})
        comp["data"]["x"] = {"@f": 10_000}
        with pytest.raises(CompactError, match="outside"):
            decode(comp)

    def test_malformed_marker(self):
        comp = encode({"x": 1.25})
        comp["data"]["x"] = {"@f": 0, "extra": 1}
        with pytest.raises(CompactError, match="marker"):
            decode(comp)

    def test_pool_is_read_only(self):
        pool = compact._unpack_pool(encode({"v": (1.0, 2.0, 3.0)}))
        with pytest.raises(ValueError):
            pool[0] = 9.0


# ---------------------------------------------------------------------------
# piecewise sides: packing decision, dedup, frozen views


class TestSidePacking:
    def _side(self, polys, bits=None, shift=52):
        import math as m

        bits = bits if bits is not None else m.frexp(len(polys))[1] - 1
        assert 1 << bits == len(polys)
        return {"index_bits": bits, "shift": shift, "polys": polys}

    def _encode_side(self, side):
        data = {"approx": {"f": {"neg": None, "pos": side}}}
        comp = encode(data)
        return comp, comp["data"]["approx"]["f"]["pos"]

    def test_shared_prefix_side_is_packed(self):
        side = self._side([((0, 1, 2), (1.0, 2.0, 3.0)),
                           ((0, 1), (4.0, 5.0)),
                           ((0, 1, 2), (6.0, 7.0, 8.0)),
                           ((0,), (9.0,))])
        comp, node = self._encode_side(side)
        assert node["@pp"]["mode"] == "packed"
        assert _deep_equal(
            decode(comp)["approx"]["f"]["pos"], side)

    def test_zero_top_coefficient_forces_raw(self):
        # a shorter row ending in 0.0 is exactly the case padding may
        # not fold (0.0*u + c flips a signed zero); the codec stores it
        # raw and the batch lowering refuses it
        from repro.batch.kernels import compile_approx
        from repro.core.piecewise import ApproxFunc
        from repro.libm.serialize import _piecewise_from_dict

        side = self._side([((0, 1, 2), (1.0, 2.0, 3.0)),
                           ((0, 1), (4.0, 0.0))])
        comp, node = self._encode_side(side)
        assert node["@pp"]["mode"] == "raw"
        assert _deep_equal(decode(comp)["approx"]["f"]["pos"], side)
        af = ApproxFunc("f", None, _piecewise_from_dict(side))
        with pytest.raises(ValueError, match="'f'.*zero coefficient"):
            compile_approx(af)

    def test_non_prefix_rows_are_refused(self):
        from repro.batch.kernels import lower
        from repro.core.piecewise import ApproxFunc
        from repro.libm.serialize import _piecewise_from_dict

        side = self._side([((0, 1, 2), (1.0, 2.0, 3.0)),
                           ((0, 2), (4.0, 5.0))])
        comp, node = self._encode_side(side)
        assert node["@pp"]["mode"] == "raw"
        af = ApproxFunc("g", None, _piecewise_from_dict(side))
        with pytest.raises(ValueError, match="'g'.*prefix"):
            lower(af)

    def test_every_shipped_approximation_lowers(self):
        from repro.batch.kernels import lower

        for target, name in SHIPPED:
            fn = _shipped_function(target, name)
            for fn_name in fn.spec.rr.fn_names:
                af = fn.approx[fn_name]
                lw = lower(af)
                assert lw.cols.shape[0] == af.max_terms
                assert lw.fold == (af.neg is not None
                                   and af.pos is not None)

    def test_dedup_is_bit_exact(self):
        # 0.0 and -0.0 coefficients must NOT merge
        side = self._side([((0, 1), (1.0, 0.0)),
                           ((0, 1), (1.0, -0.0))])
        comp, node = self._encode_side(side)
        out = decode(comp)["approx"]["f"]["pos"]
        c0, c1 = out["polys"][0][1][1], out["polys"][1][1][1]
        assert struct.pack("<d", c0) != struct.pack("<d", c1)
        assert _deep_equal(out, side)

    def test_duplicate_slots_share_one_unique(self):
        row = ((0, 1, 2), (1.5, 2.5, 3.5))
        side = self._side([row, row, row, ((0, 1, 2), (4.0, 5.0, 6.0))])
        comp, node = self._encode_side(side)
        pp = node["@pp"]
        assert pp["cols"][2] == 2  # nuniq
        assert "index" in pp or "index_b64" in pp
        assert _deep_equal(decode(comp)["approx"]["f"]["pos"], side)

    def test_packed_columns_are_the_lowered_columns(self):
        # the freezer's padded matrix and the lowering's agree double
        # for double on a one-sided table
        from repro.batch.kernels import lower
        from repro.core.piecewise import ApproxFunc
        from repro.libm.serialize import _piecewise_from_dict

        side = self._side([((0, 1, 2), (1.0, 2.0, 3.0)),
                           ((0, 1), (4.0, 5.0)),
                           ((0, 1, 2), (1.0, 2.0, 3.0)),
                           ((0, 1, 2), (6.0, 7.0, 8.0))])
        comp, node = self._encode_side(side)
        off, nterms, nuniq = node["@pp"]["cols"]
        packed = compact._unpack_pool(comp)[off:off + nterms * nuniq]
        legacy = decode(comp)["approx"]["f"]["pos"]
        lw = lower(ApproxFunc("f", None, _piecewise_from_dict(legacy)))
        assert lw.cols.shape == (nterms, nuniq) == (3, 3)
        assert lw.cols.tobytes() == packed.tobytes()
        assert lw.index.tolist() == [0, 1, 0, 2]


# ---------------------------------------------------------------------------
# shipped modules: the real contract


class TestShippedModules:
    @pytest.mark.parametrize("target,name", SHIPPED)
    def test_lazy_data_matches_compact_decode(self, target, name):
        mod = _shipped_module(target, name)
        assert _deep_equal(mod.DATA, decode(mod.COMPACT))

    @pytest.mark.parametrize("target,name", SHIPPED)
    def test_render_round_trips(self, target, name):
        # render_compact self-verifies (AST scan + exec + bit compare);
        # re-render the shipped dict and prove the verifier stays green
        mod = _shipped_module(target, name)
        assert "COMPACT" in render_compact(mod.DATA)

    @pytest.mark.parametrize("target,name", SHIPPED)
    def test_certificates_still_verify(self, target, name):
        # certify smoke on every shipped cert against the compact DATA
        import json
        from pathlib import Path

        from repro.analysis.certify.verify import verify_certificate

        mod = _shipped_module(target, name)
        cert_path = Path(mod.__file__).with_suffix("").with_suffix("") \
            .parent / f"{name}.cert.json"
        cert = json.loads(cert_path.read_text())
        findings = verify_certificate(cert, mod.DATA, str(cert_path))
        assert findings == []


# ---------------------------------------------------------------------------
# tablecheck TC210


class TestTC210:
    def test_shipped_modules_pass(self):
        from repro.analysis.tablecheck import run_tablecheck

        n, findings = run_tablecheck()
        assert n == 18
        assert findings == []

    def test_torn_pool_is_flagged(self, tmp_path):
        from repro.analysis.tablecheck import (_Checker, _check_compact,
                                               load_module_from_path)

        mod = _shipped_module("float32", "exp")
        src = render_compact(mod.DATA)
        # drop one full pool line: still valid python and valid base64,
        # but the pool no longer holds pool_len doubles — a torn blob
        lines = src.splitlines(keepends=True)
        pool_lines = [i for i, l in enumerate(lines)
                      if l.startswith('    "')]
        del lines[pool_lines[len(pool_lines) // 2]]
        p = tmp_path / "exp.py"
        p.write_text("".join(lines))
        tampered = load_module_from_path(p)
        c = _Checker(str(p))
        _check_compact(c, tampered)
        assert any(f.rule == "TC210" for f in c.findings)

    def test_stale_hybrid_module_is_flagged(self, tmp_path):
        from repro.analysis.tablecheck import (_Checker, _check_compact,
                                               load_module_from_path)

        mod = _shipped_module("float32", "ln")
        src = render_compact(mod.DATA)
        # a literal DATA left beside COMPACT that disagrees with it
        src += "\nDATA = {'stale': True}\n"
        p = tmp_path / "ln.py"
        p.write_text(src)
        c = _Checker(str(p))
        _check_compact(c, load_module_from_path(p))
        assert any(f.rule == "TC210" for f in c.findings)


# ---------------------------------------------------------------------------
# kernel equivalence: the one batch route vs the scalar closure


def _slot_lanes(rng, af, per_slot=8):
    """Reduced inputs hitting every slot of both sides, plus hazards.

    Each lane starts from a value of the side's sign and has that
    side's own index field overwritten with the slot number, so the
    scalar closure selects every sub-domain polynomial at least
    ``per_slot`` times; ±0.0 and NaN ride along.
    """
    parts = [rng.uniform(-2.0, 2.0, 256),
             np.array([0.0, -0.0, np.nan, -np.nan, 1.0, -1.0])]
    for sign, pp in ((1.0, af.pos), (-1.0, af.neg)):
        if pp is None:
            continue
        nslots = 1 << pp.index_bits
        base = sign * rng.uniform(1e-3, 2.0, nslots * per_slot)
        bits = base.view(np.uint64)
        field = np.uint64(nslots - 1) << np.uint64(pp.shift)
        slots = np.repeat(np.arange(nslots, dtype=np.uint64), per_slot)
        bits[:] = (bits & ~field) | (slots << np.uint64(pp.shift))
        parts.append(base)
    return np.concatenate(parts)


def _assert_matches_scalar(af, r):
    from repro.batch.kernels import compile_approx

    scalar = af.compiled
    want = np.array([scalar(float(x)) for x in r], dtype=np.float64)
    got = compile_approx(af)(r)
    assert got.tobytes() == want.tobytes(), af.name


@pytest.mark.batch
class TestKernelEquivalence:
    def test_compile_approx_matches_scalar_on_shipped_tables(self):
        rng = np.random.default_rng(11)
        checked = 0
        for target, name in SHIPPED:
            fn = _shipped_function(target, name)
            for fn_name in fn.spec.rr.fn_names:
                af = fn.approx[fn_name]
                _assert_matches_scalar(af, _slot_lanes(rng, af))
                checked += 1
        assert checked == 24

    def test_specialized_matches_generic_on_shipped_sides(self):
        # build_kernel's straight-line code (composed indirection, scalar
        # coefficients for one-row tables) against a plain loop over the
        # Lowered table, read off its documented key/Horner contract
        from repro.batch.kernels import build_kernel, lower
        from repro.core.piecewise import ApproxFunc

        def generic(lw, r):
            key = (r.view(np.uint64) >> np.uint64(lw.shift)) \
                & np.uint64((1 << lw.width) - 1)
            key = key.astype(np.intp)
            if lw.fold:
                key[r < 0.0] += 1 << lw.width
            if lw.index is not None:
                key = lw.index[key]
            u = r
            for _ in range(lw.stride - 1):
                u = u * r
            acc = lw.cols[-1][key]
            for t in range(lw.cols.shape[0] - 2, -1, -1):
                acc = acc * u + lw.cols[t][key]
            if lw.start:
                p = r
                for _ in range(lw.start - 1):
                    p = p * r
                acc = acc * p
            return acc

        rng = np.random.default_rng(11)
        checked = 0
        for target, name in SHIPPED:
            fn = _shipped_function(target, name)
            for fn_name in fn.spec.rr.fn_names:
                full = fn.approx[fn_name]
                for af in (full, ApproxFunc(fn_name, None, full.pos),
                           ApproxFunc(fn_name, full.neg, None)):
                    if af.pos is None and af.neg is None:
                        continue
                    lw = lower(af)
                    r = _slot_lanes(rng, full)
                    a, b = build_kernel(lw)(r), generic(lw, r)
                    assert a.tobytes() == b.tobytes(), (target, name, fn_name)
                    checked += 1
        assert checked >= 24

    def test_merged_matches_sign_dispatch_on_shipped_tables(self):
        # the sign-folded kernel of a two-sided table against each side's
        # own one-sided kernel, dispatched on r < 0.0 like the scalar path
        from repro.batch.kernels import compile_approx
        from repro.core.piecewise import ApproxFunc

        rng = np.random.default_rng(13)
        merged_seen = 0
        for target, name in SHIPPED:
            fn = _shipped_function(target, name)
            for fn_name in fn.spec.rr.fn_names:
                af = fn.approx[fn_name]
                if af.neg is None or af.pos is None:
                    continue
                merged_seen += 1
                neg = compile_approx(ApproxFunc(fn_name, af.neg, None))
                pos = compile_approx(ApproxFunc(fn_name, None, af.pos))
                r = _slot_lanes(rng, af)
                want = np.empty_like(r)
                mask = r < 0.0  # -0.0 and NaN land on pos, like scalar
                want[mask] = neg(r[mask])
                want[~mask] = pos(r[~mask])
                got = compile_approx(af)(r)
                assert got.tobytes() == want.tobytes(), (target, name,
                                                         fn_name)
        assert merged_seen >= 2

    def test_wide_two_sided_table_matches_scalar(self):
        # merged field spans bits 30..44 (14 bits, plus the sign fold):
        # a 2**15-entry indirection, kept un-expanded in the kernel
        from repro.batch.kernels import lower
        from repro.core.piecewise import ApproxFunc, PiecewisePolynomial
        from repro.core.polynomials import Polynomial

        rng = np.random.default_rng(5)

        def side(bits, shift):
            polys = []
            for i in range(1 << bits):
                n = 3 if i % 3 else 2       # short rows end in nonzero
                polys.append(Polynomial((1, 3, 5)[:n],
                                        tuple(rng.uniform(0.5, 1.5, n).tolist())))
            return PiecewisePolynomial(bits, shift, tuple(polys))

        af = ApproxFunc("wide", side(3, 30), side(4, 40))
        lw = lower(af)
        assert (lw.shift, lw.width, lw.fold) == (30, 14, True)
        assert lw.index is not None and lw.index.size == 1 << 15
        _assert_matches_scalar(af, _slot_lanes(rng, af))
