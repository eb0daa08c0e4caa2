"""Bundled sample ontology and interpretation (a small movie domain).

These fixtures anchor the theorem harness's fixed checks and give the CLI
examples something concrete to run against.  Degrees are chosen so that
graded and crisp behavior differ in interesting ways (a slasher is a
thriller only to degree 0.5).
"""

from __future__ import annotations

from .lattice import SortGraph, SortLattice, load_ontology
from .semantics import Interpretation, load_interpretation

MOVIES = """\
sort movie thriller horror slasher person director string
feature directed_by genre title
edge bot director 1
edge bot slasher 1
edge bot string 1
edge director person 1
edge slasher thriller 0.5
edge slasher horror 1
edge horror movie 1
edge thriller movie 1
edge string top 1
edge person top 1
edge movie top 1
"""

# Two films, their directors, their titles, and a sink element.  psycho is a
# movie/horror at 1 and a slasher only to 0.7; halloween is a slasher outright
# (hence a thriller to 0.5).  Features are total: every unlisted image is the
# sink null.
MOVIE_MODEL = """\
elem psycho halloween hitchcock carpenter psycho_title halloween_title null
deg movie psycho 1
deg thriller psycho 1
deg horror psycho 1
deg slasher psycho 0.7
deg movie halloween 1
deg thriller halloween 0.5
deg horror halloween 1
deg slasher halloween 1
deg person hitchcock 1
deg director hitchcock 1
deg person carpenter 1
deg director carpenter 1
deg string psycho_title 1
deg string halloween_title 1
fun directed_by * null
fun directed_by psycho hitchcock
fun directed_by halloween carpenter
fun genre * null
fun title * null
fun title psycho psycho_title
fun title halloween halloween_title
"""


def movie_graph() -> SortGraph:
    return load_ontology(MOVIES)[0]


def movie_lattice() -> SortLattice:
    return SortLattice(movie_graph()).validate()


def movie_interpretation() -> Interpretation:
    return load_interpretation(MOVIE_MODEL, movie_graph())
