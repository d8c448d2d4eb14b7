"""Full-rate space-time codes for four transmit and two receive antennas.

The package builds 4x4 codeword matrices from crossed-product algebras
over biquadratic number fields, certifies the underlying algebraic
conditions exactly, and provides a reduced-complexity decoder whose
output provably matches exhaustive maximum likelihood.  Its Python API
is the submodules: import names from `midostc.algebra`,
`midostc.codebook` and the others, not from the package.
"""

from . import algebra, channel, codebook, fastdecode, numberfield

__version__ = "0.1.0"
