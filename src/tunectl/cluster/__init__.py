"""Trial execution backends: the deterministic cluster simulator
(``cluster.sim``) and the local-process runner (``cluster.localproc``).

The package imports none of its modules, so checking a simulated
objective's name (``cluster.objectives``) loads neither backend nor numpy."""
