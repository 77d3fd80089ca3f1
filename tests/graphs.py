"""Graphs shared by the unit tests."""

import nlspec as nl


def path_graph(n, w=1.0, measure=None):
    edges = tuple((i, i + 1, w) for i in range(n - 1))
    return nl.WeightedGraph(n=n, edges=edges, node_measure=measure)
