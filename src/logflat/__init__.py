"""Exact computer algebra for logarithmic flat connections.

Everything is computed over the rationals (or cyclotomic extensions of
them) with fractions.Fraction; there is no floating point anywhere.

Modules
-------
multipoly, univariate, cyclotomic
    Exact polynomials: one sparse graded-lex class for polynomials and
    Laurent polynomials in any number of variables, primitive-PRS gcd,
    dense univariate helpers, and arithmetic in cyclotomic quotient rings.
matrices
    The one matrix core: rational elimination, plus matrix arithmetic and
    fraction-free (Bareiss) determinants over any of the coefficient rings
    (rationals, polynomials, Laurent polynomials, cyclotomic numbers).
saito
    Logarithmic vector fields, Saito's freeness criterion, weighted
    homogeneity, flatness of connection matrices in a frame of fields,
    residues.
jordan
    Jordan-Chevalley decomposition, quasi-unipotent weight data, the
    spectral central logarithm with verified projector identities.
filtrations
    Decreasing Z-filtrations, simultaneous splitting with adapted-basis
    witnesses or NotSplittable certificates, toric extendability.
laurent, bilaurent, birkhoff
    Matrices of Laurent polynomials in one and two variables, two-chart
    transitions, Laurent matrix inverses, Birkhoff factorization, splitting types on the projective line with a
    section-counting oracle, and equivariant splitting on weighted-circle
    quotients.
extend
    Gluing chart-wise logarithmic connections on the punctured plane into
    global polynomial connections, plus a corpus generator.
castling
    Castling transforms of prehomogeneous descriptors, minor-product
    divisors, weight rescaling, and the residual special-linear
    extendability criterion.
serialize, cli
    Shared JSON formats and the `logflat` command-line tool.
"""

__version__ = "0.1.0"
