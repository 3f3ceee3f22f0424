"""The exact bytes of an experiment: its canonical YAML and its journal line.

The two documents below between them cover an absent and a set ``goal``,
an absent and a set ``step``, all four parameter types, both payload kinds,
a non-default ``metricStrategy`` and algorithm settings given out of order.
"""

from __future__ import annotations

from tunectl.cluster.sim import SimBackend, SimWorld
from tunectl.controller.reconcile import ControllerContext, reconcile_experiment, submit_experiment
from tunectl.controller.store import FileResourceStore
from tunectl.metrics import InMemoryObservationStore
from tunectl.resources import canonical_yaml, parse_experiment

SIMULATED = """
name: sim-exp
namespace: team
objective: {type: minimize, objectiveMetricName: loss}
algorithm:
  algorithmName: hyperband
  settings: {random_state: 3, max_resource: 9, eta: 3}
parallelTrialCount: 2
maxTrialCount: 4
parameters:
  - {name: x, parameterType: double, feasibleSpace: {min: -1, max: 1.5}}
  - {name: n, parameterType: int, feasibleSpace: {min: 1, max: 9, step: 2}}
trialTemplate:
  kind: simulated
  payload: {functionName: sphere, durationTicks: 2}
"""

LOCAL = """
name: local-exp
namespace: team
objective:
  type: maximize
  goal: 1
  objectiveMetricName: acc
  additionalMetricNames: [loss]
  metricStrategy: max
algorithm: {algorithmName: random}
parallelTrialCount: 1
maxTrialCount: 3
maxFailedTrialCount: 1
metricCollectorKind: push
parameters:
  - {name: lr, parameterType: double, feasibleSpace: {min: 0.0, max: 1.0, step: 0.25}}
  - {name: d, parameterType: discrete, feasibleSpace: {values: [1, 2.5]}}
  - {name: opt, parameterType: categorical, feasibleSpace: {values: [sgd, "yes"]}}
trialTemplate:
  kind: local-process
  workerCount: 2
  cpuPerWorker: 2
  restartPolicy: on-temporary-failure
  payload: "train --lr=${lr} ${hyperparameters}"
"""

SIMULATED_YAML = """\
name: sim-exp
namespace: team
objective:
  type: minimize
  objectiveMetricName: loss
  additionalMetricNames: []
  metricStrategy: latest
algorithm:
  algorithmName: hyperband
  settings:
    eta: 3
    max_resource: 9
    random_state: 3
parallelTrialCount: 2
maxTrialCount: 4
maxFailedTrialCount: 0
metricCollectorKind: pull
parameters:
- name: x
  parameterType: double
  feasibleSpace:
    min: -1
    max: 1.5
- name: n
  parameterType: int
  feasibleSpace:
    min: 1
    max: 9
    step: 2
trialTemplate:
  kind: simulated
  workerCount: 1
  cpuPerWorker: 1.0
  restartPolicy: never
  payload:
    functionName: sphere
    durationTicks: 2
    noiseStdDev: 0.0
    rngSeedOffset: 0
"""

LOCAL_YAML = """\
name: local-exp
namespace: team
objective:
  type: maximize
  goal: 1.0
  objectiveMetricName: acc
  additionalMetricNames:
  - loss
  metricStrategy: max
algorithm:
  algorithmName: random
  settings: {}
parallelTrialCount: 1
maxTrialCount: 3
maxFailedTrialCount: 1
metricCollectorKind: push
parameters:
- name: lr
  parameterType: double
  feasibleSpace:
    min: 0.0
    max: 1.0
    step: 0.25
- name: d
  parameterType: discrete
  feasibleSpace:
    values:
    - 1
    - 2.5
- name: opt
  parameterType: categorical
  feasibleSpace:
    values:
    - sgd
    - 'yes'
trialTemplate:
  kind: local-process
  workerCount: 2
  cpuPerWorker: 2.0
  restartPolicy: on-temporary-failure
  payload: train --lr=${lr} ${hyperparameters}
"""

_CREATED = (
    '"status":{"phase":"Created","trialsPending":0,"trialsRunning":0,"trialsSucceeded":0,'
    '"trialsFailed":0,"totalSpawned":0,"currentOptimal":null},"generation":1}'
)

SIMULATED_LINE = (
    '{"kind":"experiment","name":"sim-exp","namespace":"team","spec":{"name":"sim-exp","namespace":"team",'
    '"objective":{"type":"minimize","objectiveMetricName":"loss","additionalMetricNames":[],'
    '"metricStrategy":"latest"},'
    '"algorithm":{"algorithmName":"hyperband","settings":{"eta":3,"max_resource":9,"random_state":3}},'
    '"parallelTrialCount":2,"maxTrialCount":4,"maxFailedTrialCount":0,"metricCollectorKind":"pull",'
    '"parameters":[{"name":"x","parameterType":"double","feasibleSpace":{"min":-1,"max":1.5}},'
    '{"name":"n","parameterType":"int","feasibleSpace":{"min":1,"max":9,"step":2}}],'
    '"trialTemplate":{"kind":"simulated","workerCount":1,"cpuPerWorker":1.0,"restartPolicy":"never",'
    '"payload":{"functionName":"sphere","durationTicks":2,"noiseStdDev":0.0,"rngSeedOffset":0}}},' + _CREATED
)

LOCAL_LINE = (
    '{"kind":"experiment","name":"local-exp","namespace":"team","spec":{"name":"local-exp","namespace":"team",'
    '"objective":{"type":"maximize","goal":1.0,"objectiveMetricName":"acc","additionalMetricNames":["loss"],'
    '"metricStrategy":"max"},'
    '"algorithm":{"algorithmName":"random","settings":{}},'
    '"parallelTrialCount":1,"maxTrialCount":3,"maxFailedTrialCount":1,"metricCollectorKind":"push",'
    '"parameters":[{"name":"lr","parameterType":"double","feasibleSpace":{"min":0.0,"max":1.0,"step":0.25}},'
    '{"name":"d","parameterType":"discrete","feasibleSpace":{"values":[1,2.5]}},'
    '{"name":"opt","parameterType":"categorical","feasibleSpace":{"values":["sgd","yes"]}}],'
    '"trialTemplate":{"kind":"local-process","workerCount":2,"cpuPerWorker":2.0,'
    '"restartPolicy":"on-temporary-failure","payload":"train --lr=${lr} ${hyperparameters}"}},' + _CREATED
)

# A suggestion's spec is its ``requested`` count only: its name is its
# experiment's, whose spec holds the algorithm.
SUGGESTION_LINE = (
    '{"kind":"suggestion","name":"sim-exp","namespace":"team","spec":{"requested":2},'
    '"status":{"produced":0,"pending":[],"exhausted":false},"generation":1}'
)


def test_canonical_yaml_bytes():
    assert canonical_yaml(parse_experiment(SIMULATED)) == SIMULATED_YAML
    assert canonical_yaml(parse_experiment(LOCAL)) == LOCAL_YAML


def test_journal_lines_of_a_stored_experiment_and_its_suggestion(tmp_path):
    store = FileResourceStore(tmp_path)
    world = SimWorld(seed=1)
    world.add_node(8.0)
    world.add_namespace("team")
    metrics = InMemoryObservationStore()
    ctx = ControllerContext(store=store, metrics=metrics, backend=SimBackend(world, metrics))
    submit_experiment(store, parse_experiment(LOCAL))
    reconcile_experiment(ctx, submit_experiment(store, parse_experiment(SIMULATED)).key)
    store.close()
    lines = (tmp_path / FileResourceStore.JOURNAL).read_text().splitlines()
    assert lines[:3] == [LOCAL_LINE, SIMULATED_LINE, SUGGESTION_LINE]
    # Loading the journal back gives the same documents.
    reloaded = FileResourceStore(tmp_path, readonly=True)
    assert sorted(reloaded.list(), key=_key) == sorted(store.list(), key=_key)


def _key(resource):
    return resource.key
