"""Every record type of the package: read-only fields and value equality."""

import copy

import numpy as np
import pytest

from flickerfloor import geometry, noise_floor, spectral, units, workbench


def _catalog():
    return workbench.load_catalog(workbench.bundled_config_text("ingaas"))


def _entry():
    return _catalog()[0][0]


def _model():
    return _entry().model("longitudinal")


_SAMPLES = np.zeros(8)  # one array for both records: array fields compare by identity

# (record type, a field, a function that builds one record of that type, the
# same each call)
RECORDS = [
    (units.Dimension, "mass_halves", lambda: units.Dimension(3, 1, -2)),
    (units.Quantity, "value", lambda: units.quantity(2.0, "cm")),
    (units.ConstantsTable, "e", lambda: units.ConstantsTable(
        units.CODATA2018.e, units.CODATA2018.m0, units.CODATA2018.hbar, units.CODATA2018.c)),
    (geometry.SampleGeometry, "l", lambda: geometry.SampleGeometry(2e-4, 1e-4, 1e-6)),
    (geometry.ProbePair, "x1", lambda: geometry.ProbePair((0.0, 0.0, 0.0), (1.0, 0.0, 0.0))),
    (geometry.GeometricFactor, "value",
     lambda: geometry.GeometricFactor(units.quantity(1.0, "cm^-1"))),
    (noise_floor.CarrierSpecies, "mass_m0", lambda: noise_floor.CarrierSpecies("e", 0.041)),
    (noise_floor.Material, "rho0", lambda: next(iter(_catalog()[1].values()))),
    (noise_floor.NoiseFloorModel, "kappa", _model),
    (noise_floor.SpectrumSeries, "f",
     lambda: noise_floor.evaluate_spectrum(_model(), units.quantity(1.0, "V"), [1.0, 2e7])),
    (workbench.CatalogEntry, "geom", _entry),
    (workbench.Report, "rows", lambda: workbench.reproduce_tables(_catalog()[0])),
    (spectral.SignalRecord, "dt", lambda: spectral.SignalRecord(_SAMPLES, 0.5)),
    (spectral.CovarianceModel, "tau0",
     lambda: spectral.CovarianceModel(kind="log-law", tau0=2.0, a_cov=0.5)),
    (spectral.WkIdentityResult, "target", lambda: spectral.WkIdentityResult(1.0, 2.0, -1.0, -3.0)),
]


@pytest.mark.parametrize("kind, field, make", RECORDS, ids=[r[0].__name__ for r in RECORDS])
def test_record_is_a_read_only_value(kind, field, make):
    record = make()
    assert type(record) is kind
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))
    with pytest.raises(AttributeError):
        record.extra = 1
    other = make()
    assert other is not record and other == record
    assert copy.copy(record) == record


def test_every_record_type_is_listed():
    layers = (units, geometry, noise_floor, spectral, workbench)
    records = {obj for layer in layers for obj in vars(layer).values()
               if isinstance(obj, type) and issubclass(obj, units.Record)
               and obj is not units.Record}
    assert {kind for kind, _, _ in RECORDS} == records
    assert len(RECORDS) == 15


def test_numpy_scalars_take_quantity_arithmetic():
    # a sequence would become an array here instead
    product = np.float64(3.0) * units.quantity(2.0, "cm")
    assert type(product) is units.Quantity and product == units.quantity(6.0, "cm")


@pytest.mark.parametrize("q", [units.quantity(2.0, "cm"), units.CHARGE],
                         ids=["Quantity", "Dimension"])
def test_quantity_and_dimension_have_no_order(q):
    with pytest.raises(TypeError):
        q < q


def test_quantity_divides_only_by_a_quantity():
    # Quantity / <plain number> had no caller; a number scales by *
    length = units.quantity(2.0, "cm")
    assert length / units.quantity(4.0, "s") == units.quantity(0.5, "cm/s")
    with pytest.raises(TypeError):
        length / 2.0
