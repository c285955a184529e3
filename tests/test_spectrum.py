"""Ladder tests: level values, finite differences, moment products, the
two revival time scales, the scalar entry points' inputs (a finite
float or ValueError, never NaN, inf or another exception), and the
immutable records on spectrum._Record: their repr, equality, hash,
copies and pickles, their constructor's TypeErrors against a
dataclass's, and validation messages."""

import copy
import dataclasses
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gkrevival.cli import RunConfig
from gkrevival.gkstate import build_state, evolve, normalization_sq, weight
from gkrevival.gkstate import CoherentState
from gkrevival.measure import (MomentReport, QuadratureConfig, density_rho, measure_k,
                               moment_checks)
from gkrevival.revival import (FractionalDecomposition, TimeSeries, autocorrelation,
                               rational_channels)
from gkrevival.specfun import ConvergenceError, bessel_i_ratio
from gkrevival.spectrum import (
    SpectrumParams,
    TimeScales,
    classical_period,
    energy_level,
    moment_rho,
    phase,
    revival_time,
    time_scales,
)


def test_params_validation():
    with pytest.raises(ValueError):
        SpectrumParams(mu=0.0)
    with pytest.raises(ValueError):
        SpectrumParams(mu=-1.0)
    with pytest.raises(ValueError):
        SpectrumParams(mu=2.0, alpha=0.0)
    p = SpectrumParams(mu=2.0)
    assert p.alpha == 1.0


# a record's constructor arguments, its repr (as the frozen dataclasses
# printed it) and one field with another value of it
_RECORDS = [
    (SpectrumParams, (28.0,), {}, "SpectrumParams(mu=28.0, alpha=1.0)", ("alpha", 2.0)),
    (SpectrumParams, (), dict(mu=2, alpha=0.5), "SpectrumParams(mu=2, alpha=0.5)", ("mu", 3)),
    (TimeScales, (), dict(t_classical=0.25, t_revival=175.92918860102841),
     "TimeScales(t_classical=0.25, t_revival=175.92918860102841)", ("t_revival", 1.0)),
    (RunConfig, ("weights",), {},
     "RunConfig(command='weights', j=10.0, mu=28.0, alpha=1.0, q=4, delta=0, t_max=1.0, "
     "points=2001, n_max=5, j_max=20.0, tail_tol=1e-14, abs_tol=1e-10, rel_tol=1e-08, "
     "out_path='-', figure=None)", ("points", 3)),
    (RunConfig, ("survival",), dict(q=5, delta=2, out_path="s.csv", figure=4),
     "RunConfig(command='survival', j=10.0, mu=28.0, alpha=1.0, q=5, delta=2, t_max=1.0, "
     "points=2001, n_max=5, j_max=20.0, tail_tol=1e-14, abs_tol=1e-10, rel_tol=1e-08, "
     "out_path='s.csv', figure=4)", ("delta", 1)),
    (QuadratureConfig, (), {}, "QuadratureConfig(abs_tol=1e-10, rel_tol=1e-08)",
     ("rel_tol", 1e-6)),
    (QuadratureConfig, (1e-6,), dict(rel_tol=0.5), "QuadratureConfig(abs_tol=1e-06, rel_tol=0.5)",
     ("rel_tol", 0.25)),
    (MomentReport, (1, 1.5), dict(rho_n=1.5, rel_err=0.0),
     "MomentReport(n=1, integral=1.5, rho_n=1.5, rel_err=0.0)", ("rel_err", 1e-3)),
]


@pytest.mark.parametrize("cls, args, kw, text, other", _RECORDS, ids=[
    "params", "params-int-mu", "timescales", "runconfig", "runconfig-figure", "quadrature",
    "quadrature-args", "moment-report"])
def test_records(cls, args, kw, text, other):
    record = cls(*args, **kw)
    assert repr(record) == text
    twin = cls(*args, **kw)
    assert twin == record and hash(twin) == hash(record) and twin is not record
    name, value = other
    differs = cls(*args, **{**kw, name: value})
    assert differs != record and not differs == record
    assert record != tuple(vars(record).values()) and record != text
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for dup in [record] + copies:
        assert type(dup) is cls and dup == record and hash(dup) == hash(record)
        assert repr(dup) == text
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(dup, name, value)
        with pytest.raises(AttributeError, match=f"cannot delete field '{name}'"):
            delattr(dup, name)
        with pytest.raises(AttributeError, match="cannot assign to field 'extra'"):
            dup.extra = value
        assert repr(dup) == text


# the records with identity equality and hash (eq=False dataclasses
# before): a record whose arrays and lists are not compared
_ENTITIES = {
    "state": lambda: build_state(10.0, 0.5, SpectrumParams(28.0)),
    "series": lambda: TimeSeries([0.0, 0.5], [1.0, 2.0], "x"),
    "decomposition": lambda: FractionalDecomposition(2, [TimeSeries([0.0], [1j], "P_0(t)")]),
}


@pytest.mark.parametrize("name", sorted(_ENTITIES))
def test_identity_records(name):
    record, twin = _ENTITIES[name](), _ENTITIES[name]()
    assert record == record and record != twin and not record == twin
    assert hash(record) == object.__hash__(record) and len({record, twin, record}) == 2
    fields = record._fields
    copies = [copy.copy(record), copy.deepcopy(record)]
    copies += [pickle.loads(pickle.dumps(record, protocol))
               for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for dup in copies:
        assert type(dup) is type(record) and dup != record and vars(dup).keys() == set(fields)
        assert repr(dup) == repr(record)
    for dup in [record] + copies:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{fields[0]}'"):
            setattr(dup, fields[0], 1)
        with pytest.raises(AttributeError, match=f"cannot delete field '{fields[-1]}'"):
            delattr(dup, fields[-1])


def test_record_reprs():
    # as the frozen dataclasses printed them
    assert repr(build_state(0.0, 0.5, SpectrumParams(2.0))) == (
        "CoherentState(J=0.0, gamma=0.5, params=SpectrumParams(mu=2.0, alpha=1.0), n_min=0, "
        "n_max=0, ln_weights=array([0.]), ln_norm_sq=0.0, tail_tol=1e-14)")
    assert repr(TimeSeries([0.0, 0.5], [1, 2], "x")) == (
        "TimeSeries(t_grid=array([0. , 0.5]), values=array([1, 2]), label='x')")
    # the one deliberate change: an empty tuple, where a class-level
    # list would be shared by every default instance
    assert repr(FractionalDecomposition(3)) == "FractionalDecomposition(q=3, fractions=())"


def test_shared_constructor_binds_like_a_dataclass():
    state = build_state(0.0, 0.5, SpectrumParams(2.0))
    fields = {name: getattr(state, name) for name in CoherentState._fields}
    by_position = CoherentState(*fields.values())
    mixed = CoherentState(*list(fields.values())[:3], **dict(list(fields.items())[3:]))
    for built in (by_position, mixed, CoherentState(**fields)):
        assert vars(built).keys() == fields.keys()
        assert all(vars(built)[k] is v for k, v in fields.items())
    assert TimeScales(1.0, t_revival=2.0) == TimeScales(t_classical=1.0, t_revival=2.0)
    assert FractionalDecomposition(q=3).fractions == ()


def _dataclass_twin(cls):
    # a dataclass of the record's name, fields and class-attribute defaults
    specs = [(f, object, dataclasses.field(default=getattr(cls, f))) if hasattr(cls, f) else f
             for f in cls._fields]
    return dataclasses.make_dataclass(cls.__qualname__, specs, frozen=True)


@pytest.mark.parametrize("cls", [TimeScales, CoherentState, FractionalDecomposition, MomentReport])
@pytest.mark.parametrize("call", [
    lambda cls, fields: cls(*range(len(fields) + 1)),  # a surplus positional argument
    lambda cls, fields: cls(*range(len(fields)), extra=1),  # an unknown keyword
    lambda cls, fields: cls(1, **{fields[0]: 2}),  # a field by position and by keyword
    lambda cls, fields: cls(),  # every field missing
    lambda cls, fields: cls(1),  # all but the first missing
    lambda cls, fields: cls(**{fields[-1]: 1}),  # all but the last missing
], ids=["surplus", "unknown", "twice", "none", "first-only", "last-only"])
def test_shared_constructor_type_errors(cls, call):
    # the message Python gives for a dataclass's __init__, or the same
    # fields where that call binds
    def outcome(target):
        try:
            return vars(call(target, cls._fields))
        except TypeError as exc:
            return str(exc)

    assert outcome(cls) == outcome(_dataclass_twin(cls))


@pytest.mark.parametrize("make, error, message", [
    (lambda: SpectrumParams(0.0), ValueError, "mu must be finite and > 0, got 0.0"),
    (lambda: SpectrumParams(2.0, math.inf), ValueError, "alpha must be finite and > 0, got inf"),
    (lambda: SpectrumParams(2.0, beta=1.0), TypeError, "unexpected keyword argument 'beta'"),
    (lambda: TimeScales(1.0), TypeError, "'t_revival'"),
    (lambda: RunConfig("figure", bogus=1), TypeError,
     r"^RunConfig.__init__\(\) got an unexpected keyword argument 'bogus'$"),
    (lambda: RunConfig("figure"), ValueError, "^unknown command 'figure'$"),
    (lambda: RunConfig("weights", mu=0.0, points=1), ValueError, "^--mu must be > 0, got 0.0$"),
    (lambda: RunConfig("weights", points=1), ValueError, "^--points must be >= 2, got 1$"),
    (lambda: RunConfig("weights", points=10**6 + 1), ValueError,
     "^--points must be <= 1000000, got 1000001$"),
    (lambda: RunConfig("survival", q=3, delta=3), ValueError,
     r"^--delta must lie in \[0, q\), got 3$"),
    (lambda: RunConfig("overlap", j=0.0), ValueError, "^--j must be > 0 for overlap sweeps$"),
    (lambda: SpectrumParams(10**400), ValueError,
     "^mu must be finite, got an integer past the float range$"),
    (lambda: SpectrumParams(2.0, -10**400), ValueError,
     "^alpha must be finite, got an integer past the float range$"),
])
def test_record_validation(make, error, message):
    with pytest.raises(error, match=message):
        make()


def test_run_config_defaults():
    # the class attributes are the flag defaults, which figure_bundle reads
    cfg = RunConfig("weights")
    assert (RunConfig.points, RunConfig.tail_tol, RunConfig.delta, RunConfig.figure) == (
        2001, 1e-14, 0, None)
    assert (cfg.points, cfg.tail_tol, cfg.delta, cfg.figure) == (2001, 1e-14, 0, None)


@pytest.mark.parametrize(
    "kw", [dict(mu=math.inf), dict(mu=math.nan), dict(mu=2.0, alpha=math.inf),
           dict(mu=2.0, alpha=math.nan)],
)
def test_params_reject_non_finite(kw):
    # an infinite mu would make build_state walk all 10^6 levels before failing
    with pytest.raises(ValueError, match="finite"):
        SpectrumParams(**kw)


def test_moment_rho_overflow_is_value_error():
    with pytest.raises(ValueError):
        moment_rho(3, SpectrumParams(mu=1e308))


@pytest.mark.parametrize("mu", [1.0, 28.0, 28.5, 80.0])
def test_moment_rho_array_equals_scalar(mu):
    # ln rho_n over levels 0..500, as moment checks map it, has the
    # scalar lgamma form's rounding, which the unity datasets were
    # written with
    p = SpectrumParams(mu=mu)
    lg = math.lgamma
    assert [moment_rho(n, p) for n in range(501)] == [
        lg(n + 1.0) + lg(n + 1.0 + mu) - n * math.log(mu) - lg(1.0 + mu) for n in range(501)]


@pytest.mark.parametrize("mu", [1.0, 28.0, 28.5, 80.0])
def test_moment_rho_array_matches_scipy_gammaln(mu):
    # Relative to the size of the four gamma-form terms: at n = 1,
    # mu = 80, ln rho_1 = 0.012 is the difference of terms near 273, and
    # the last-ulp gap between lgamma and gammaln is ~1e-13 absolute.
    from scipy.special import gammaln

    p = SpectrumParams(mu=mu)
    n = np.arange(501, dtype=float)
    terms = (gammaln(n + 1.0), gammaln(n + 1.0 + mu), n * math.log(mu), gammaln(1.0 + mu))
    ref = terms[0] + terms[1] - terms[2] - terms[3]
    scale = sum(np.abs(t) for t in terms)
    got = np.array([moment_rho(k, p) for k in range(501)])
    assert np.all(np.abs(got - ref) <= 1e-13 * np.maximum(scale, 1.0))


def test_level_examples():
    p = SpectrumParams(mu=2.0)
    assert energy_level(0, p) == 0.0
    assert energy_level(1, p) == 1.5
    assert energy_level(2, p) == 4.0
    with pytest.raises(ValueError):
        energy_level(-1, p)


@pytest.mark.parametrize("mu", [0.5, 1.0, 28.0, 80.0])
def test_finite_differences(mu):
    p = SpectrumParams(mu=mu)
    ns = np.concatenate([np.arange(0, 50), np.arange(9990, 10001)])
    e = np.array([energy_level(int(n), p) for n in ns[:50]])
    d1 = np.diff(e)
    expected = (2.0 * ns[:49] + 1.0 + mu) / mu
    assert np.allclose(d1, expected, rtol=1e-12, atol=1e-12)
    d2 = np.diff(d1)
    assert np.allclose(d2, 2.0 / mu, rtol=1e-9)
    # third difference identically zero: no superrevival scale
    d3 = np.diff(d2)
    assert np.max(np.abs(d3)) < 1e-9
    # spot check near n = 1e4
    n = 10000
    gap = energy_level(n + 1, p) - energy_level(n, p)
    assert math.isclose(gap, (2 * n + 1 + mu) / mu, rel_tol=1e-10)


def test_moment_rho_examples():
    p = SpectrumParams(mu=2.0)
    assert moment_rho(0, p) == 0.0
    assert math.isclose(moment_rho(1, p), math.log(1.5), rel_tol=1e-13)
    assert math.isclose(moment_rho(2, p), math.log(6.0), rel_tol=1e-13)
    assert math.isclose(moment_rho(3, p), math.log(45.0), rel_tol=1e-13)
    with pytest.raises(ValueError):
        moment_rho(-2, p)


@pytest.mark.parametrize("mu", [0.5, 1.0, 2.0, 28.0, 80.0])
def test_moment_rho_product_vs_gamma(mu):
    p = SpectrumParams(mu=mu)
    ln_prod = 0.0
    for n in range(1, 501):
        ln_prod += math.log(energy_level(n, p))
        assert abs(ln_prod - moment_rho(n, p)) < 1e-10


@pytest.mark.parametrize("mu", [0.5, 2.0, 28.0])
def test_infinite_radius(mu):
    # rho_n^(1/n) must keep growing (series converges for every J)
    p = SpectrumParams(mu=mu)
    vals = [math.exp(moment_rho(n, p) / n) for n in range(5, 200, 5)]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_revival_time_examples():
    assert math.isclose(revival_time(SpectrumParams(mu=1.0)), 2.0 * math.pi)
    assert math.isclose(revival_time(SpectrumParams(mu=28.0, alpha=2.0)), 28.0 * math.pi)
    assert math.isclose(revival_time(SpectrumParams(mu=80.0)), 160.0 * math.pi)


def test_classical_period_examples():
    assert math.isclose(classical_period(0.0, SpectrumParams(mu=2.0)), 2.0 * math.pi)
    assert math.isclose(
        classical_period(10.0, SpectrumParams(mu=80.0)), 160.0 * math.pi / 100.0
    )
    with pytest.raises(ValueError):
        classical_period(-1.0, SpectrumParams(mu=2.0))


@pytest.mark.parametrize("mu,n_bar", [(1.0, 2.4), (28.0, 7.7), (80.0, 8.9)])
def test_scale_ratio(mu, n_bar):
    p = SpectrumParams(mu=mu, alpha=1.3)
    ts = time_scales(n_bar, p)
    assert isinstance(ts, TimeScales)
    assert math.isclose(ts.t_revival / ts.t_classical, 2.0 * n_bar + mu, rel_tol=1e-12)
    if 2.0 * n_bar + mu > 1.0:
        assert ts.t_revival > ts.t_classical


# A level, mean level, time or mu as a caller may pass one: any float
# (NaN, +-inf, negatives, non-integers, subnormals), an integer, one past
# the float range included, or a bool.
_SCALARS = st.one_of(st.floats(), st.integers(), st.integers(-10**400, 10**400), st.booleans())
_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_STATE = build_state(10.0, 0.0, SpectrumParams(28.0))
_SCALAR_ENTRY_POINTS = {
    "energy_level": lambda x, y, p: energy_level(x, p),
    "moment_rho": lambda x, y, p: moment_rho(x, p),
    "classical_period": lambda x, y, p: classical_period(x, p),
    "time_scales": lambda x, y, p: time_scales(x, p),
    "phase_level_time": lambda x, y, p: phase(x, y, p.mu),
    "phase_mu": lambda x, y, p: phase(2, 0.5, x),
    "weight": lambda x, y, p: weight(x, _STATE),
    # from here on each entry draws only the inputs it names, on the ladder mu = 28
    "SpectrumParams": lambda x, y, p: revival_time(SpectrumParams(x, y)),
    "QuadratureConfig": lambda x, y, p: moment_checks([1], _STATE.params, QuadratureConfig(x))[0].rel_err,
    "build_state_J": lambda x, y, p: build_state(x, 0.0, _STATE.params).ln_norm_sq,
    "build_state_gamma": lambda x, y, p: build_state(10.0, x, _STATE.params).ln_norm_sq,
    "normalization_sq": lambda x, y, p: normalization_sq(x, _STATE.params),
    "evolve": lambda x, y, p: evolve(_STATE, x).gamma,
    # the mu = 28 weights on the ladder mu = x: the reader reads only mu
    "rational_channels_mu": lambda x, y, p: abs(complex(rational_channels(
        CoherentState(**{**_STATE.__dict__, "params": SpectrumParams(x)}), 4, 1, 4)[1])),
    "density_rho": lambda x, y, p: density_rho(x, _STATE.params),
    "measure_k": lambda x, y, p: measure_k(x, _STATE.params),
    "autocorrelation": lambda x, y, p: autocorrelation(_STATE, x).real,
    "bessel_i_ratio_order": lambda x, y, p: bessel_i_ratio(x, 1.0),
    "bessel_i_ratio_argument": lambda x, y, p: bessel_i_ratio(1.0, x),
}
# entry points whose documented failure past their served range is a
# ConvergenceError (exit 3), not a ValueError
_MAY_NOT_CONVERGE = {"QuadratureConfig", "build_state_J", "normalization_sq", "density_rho",
                     "measure_k", "bessel_i_ratio_argument"}


@pytest.mark.parametrize("entry", sorted(_SCALAR_ENTRY_POINTS))
@settings(max_examples=200, deadline=None)
@given(x=_SCALARS, y=_SCALARS, p=st.builds(SpectrumParams, _POSITIVE, _POSITIVE))
def test_scalar_entry_points_return_finite_or_raise(entry, x, y, p):
    # a finite float, or ValueError: never NaN, inf or another exception
    # (ConvergenceError only where documented)
    try:
        v = _SCALAR_ENTRY_POINTS[entry](x, y, p)
    except ValueError:
        return
    except ConvergenceError:
        assert entry in _MAY_NOT_CONVERGE, (x, y, p)
        return
    values = [v.t_classical, v.t_revival] if isinstance(v, TimeScales) else [v]
    for value in values:
        assert isinstance(value, float) and math.isfinite(value), (x, y, p, v)
