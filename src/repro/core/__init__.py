"""The paper's analyses (§§4-6): the core contribution of the library.

Every figure and table in the paper's evaluation maps onto a function
here; ``repro.figures`` indexes them by figure id.
"""
