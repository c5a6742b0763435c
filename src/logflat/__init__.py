"""Exact computer algebra for logarithmic flat connections.

Everything is computed over the rationals (or cyclotomic extensions of
them); there is no floating point anywhere.  Coefficients are handed out
as fractions.Fraction, and polynomials compute on integer numerators over
one common denominator.

Modules
-------
multipoly, cyclotomic
    Exact polynomials: one sparse graded-lex class for polynomials and
    Laurent polynomials in any number of variables (univariate values
    included) on integer numerators, a heuristic gcd over Z verified by
    exact division (primitive PRS as the fallback), heap-ordered exact
    division, univariate division with remainder, cyclotomic factor
    extraction and arithmetic in quotient rings Q[t]/(g).
matrices
    The one matrix core: rational elimination, plus matrix arithmetic and
    fraction-free (Bareiss) determinants over any of the coefficient rings
    (rationals, polynomials, Laurent polynomials, quotient rings Q[t]/(g)), and
    the one builder of rational rows for polynomial linear systems.
saito
    Logarithmic vector fields, Saito's freeness criterion, weighted
    homogeneity, flatness of connection matrices in a frame of fields with
    structure constants by Cramer's rule.
jordan
    Jordan-Chevalley decomposition by Newton in Q[x]/(chi), quasi-unipotent
    weights, the spectral central logarithm with verified projectors.
filtrations
    Decreasing Z-filtrations, simultaneous splitting with adapted-basis
    witnesses or NotSplittable certificates.
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
