"""Table extraction from page layouts: recognition, interpretation, evaluation.

Recognition turns a page's words and ruling lines into cell grids,
handling both fully ruled tables and open-style tables whose columns
are separated only by whitespace.  Interpretation maps recognized
columns onto user-declared meanings and emits one value tuple per body
row.  Evaluation scores recognized structure and extracted tuples
against ground truth.

The submodules are the API (``tabgrid.pipeline``, ``tabgrid.evaluate``
and so on); importing the package itself loads none of them.
"""

__version__ = "0.1.0"
