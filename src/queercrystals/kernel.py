"""Select the word-operator kernel: the compiled extension when it is
importable, else the pure-Python fallback."""

try:
    from . import _fastops as _impl
except ImportError:
    from . import _kernel_py as _impl  # type: ignore[no-redef]

IMPLEMENTATION = _impl.IMPLEMENTATION

weight_of = _impl.weight_of
eps_phi = _impl.eps_phi
apply_e = _impl.apply_e
apply_f = _impl.apply_f
apply_ebar1 = _impl.apply_ebar1
apply_fbar1 = _impl.apply_fbar1
weyl_s = _impl.weyl_s
apply_ebar = _impl.apply_ebar
apply_fbar = _impl.apply_fbar
is_gl_highest = _impl.is_gl_highest
is_q_highest = _impl.is_q_highest
