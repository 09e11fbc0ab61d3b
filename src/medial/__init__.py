"""Medial layer graphs of abstract 4-polytopes of type {3, q, 3}.

Build the symmetry group of a polytope either from a finitely presented
string C-group (Todd-Coxeter enumeration) or from 2x2 matrices over an
Eisenstein residue ring, extract the bipartite cubic incidence graph of its
1- and 2-faces, and classify that graph as t-transitive (with sign) or
semisymmetric of type (t1, t2).
"""
