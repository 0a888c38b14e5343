"""Batch ML baselines (WEKA analog).

The paper compares its streaming models against batch equivalents
trained with WEKA v3.7: Decision Tree J48, Random Forest, and Logistic
Regression (§V-D). This subpackage provides from-scratch numpy
implementations of the two tree families the benches run (Fig. 13/14
retrains J48 daily), plus the grid-search harness used
for hyperparameter tuning (Table I) and the Gini feature-importance
computation behind Fig. 5.
"""

from repro.batchml.decision_tree import BatchDecisionTree
from repro.batchml.grid_search import GridSearch, ParameterGrid
from repro.batchml.random_forest import BatchRandomForest

__all__ = [
    "BatchDecisionTree",
    "GridSearch",
    "ParameterGrid",
    "BatchRandomForest",
]
