"""meltag: a self-contained music audio tagging engine.

Log-mel DSP front end, a hand-written convolutional network core with two
architecture families, a taggram-based tagger CLI, an intermediate-feature
extractor, and a PCA+SVM transfer-learning pipeline. Import each name from
its submodule, as in `from meltag import tagger`; the package root holds none.
"""

__version__ = "0.1.0"
