"""The package namespace is exactly what the library modules declare."""

import importlib
import pkgutil

import pytest

import stellar

# every name the package exported when it listed them by hand
_EXPORTED_BEFORE = """
SeparabilityVerdict SeparableFactorization alt_constellation alt_polynomial
decide_separability reconstruct_from_factors separable_constellation
BlochPoint Constellation bloch_point geodesic_distance match_constellations
matching_max_distance point_from_cartesian points_from_roots to_cartesian
Spinor majorana_constellation majorana_polynomial qubit_majorana_polynomial
sqrt_binomials state_from_constellation state_from_spinors spinor_for_point
ComplexPolynomial RootFindingError RootResult evaluate find_roots
RenderSpec render_svg
EulerAngles euler_from_so3 rotate_constellation rotate_qubits
rotate_qubits_uniform rotate_separable_components rotate_spin so3_matrix
wigner_D wigner_small_d
InputFormatError constellation_from_json constellation_to_json state_from_json
state_to_json verdict_to_json
BasisLabel PureState SpinState decimal_index label_from_index make_pure_state
qubits_from_spin ray_fidelity rays_equal spin_from_qubits tensor_product
""".split()

_LIBRARY_MODULES = sorted(
    info.name for info in pkgutil.iter_modules(stellar.__path__) if info.name != "cli"
)


@pytest.mark.parametrize("name", _LIBRARY_MODULES)
def test_module_all_is_the_package_namespace(name):
    module = importlib.import_module(f"stellar.{name}")
    for public in module.__all__:
        assert getattr(stellar, public, None) is getattr(module, public), public


def test_previous_exports_still_resolve():
    assert len(_EXPORTED_BEFORE) == len(set(_EXPORTED_BEFORE)) == 58
    declared = {
        public: importlib.import_module(f"stellar.{name}")
        for name in _LIBRARY_MODULES
        for public in importlib.import_module(f"stellar.{name}").__all__
    }
    for public in _EXPORTED_BEFORE:
        assert getattr(stellar, public) is getattr(declared[public], public), public
