"""Each entry point imports only the stack it runs.

Every check runs in a fresh interpreter (``subprocess``), because the
test process itself has long since imported everything.  What is pinned:

- importing the package and its CLI loads no optional dependency (SciPy,
  networkx), no sqlite3, no asyncio or multiprocessing, and none of the
  comparison-model, evaluation, store or server stacks (the CLI reads
  ``repro.serve.config`` for its flags, nothing else of ``repro.serve``);
- a dense-mode fit and predict never loads SciPy or networkx;
- a sparse-mode model loads ``scipy.sparse`` when it is built or switched
  to sparse, before its first forward (so a server loads it before it
  forks its workers);
- a warmed-up server front-end imports nothing while it serves reads and
  ingests.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

OPTIONAL = ("scipy", "networkx")


def run_fresh(code: str) -> dict:
    """Run ``code`` in a new interpreter; it prints one JSON object."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in env.get("PYTHONPATH", "").split(os.pathsep)
                      if p])
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(code)],
                          env=env, capture_output=True, text=True,
                          timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def loaded(modules, names):
    """The ``names`` (packages included) present in ``modules``."""
    return sorted(name for name in names
                  if any(m == name or m.startswith(name + ".")
                         for m in modules))


def test_package_and_cli_import_is_lean():
    out = run_fresh("""
        import json, sys
        import repro, repro.cli
        print(json.dumps(sorted(sys.modules)))
    """)
    heavy = OPTIONAL + ("sqlite3", "repro.eval", "repro.baselines",
                        "repro.store", "asyncio", "multiprocessing",
                        "repro.serve.cluster")
    assert loaded(out, heavy) == []


def test_dense_fit_and_predict_load_no_optional_dependency():
    out = run_fresh("""
        import json, sys
        import numpy as np
        from repro import RTGCN, TrainConfig, Trainer, load_market

        dataset = load_market("nasdaq-mini", seed=0)
        model = RTGCN(dataset.relations, strategy="time",
                      rng=np.random.default_rng(0))
        trainer = Trainer(model, dataset,
                          TrainConfig(window=10, epochs=1, max_train_days=4))
        trainer.fit()
        _, test_days = dataset.split(10)
        trainer.predict(test_days[:1])
        print(json.dumps({"modes": sorted({m.resolved_mode() for m in
                                           model.modules()
                                           if hasattr(m, "resolved_mode")}),
                          "modules": sorted(sys.modules)}))
    """)
    assert out["modes"] == ["dense"]
    assert loaded(out["modules"], OPTIONAL) == []


def test_sparse_mode_loads_scipy_before_the_first_forward():
    out = run_fresh("""
        import json, sys
        import numpy as np
        from repro import RTGCN, load_market

        def has_scipy():
            return "scipy.sparse" in sys.modules

        dataset = load_market("csi-mini", seed=0)
        features = dataset.features(dataset.split(6)[0][0], 6)
        steps = {"start": has_scipy()}
        dense = RTGCN(dataset.relations, strategy="time", graph_mode="dense",
                      rng=np.random.default_rng(0))
        dense(features)
        steps["dense forward"] = has_scipy()
        RTGCN(dataset.relations, strategy="time", graph_mode="sparse",
              rng=np.random.default_rng(0))
        steps["sparse built"] = has_scipy()
        print(json.dumps(steps))
    """)
    assert out == {"start": False, "dense forward": False,
                   "sparse built": True}

    out = run_fresh("""
        import json, sys
        import numpy as np
        from repro import RTGCN, load_market
        from repro.nn import set_graph_mode

        dataset = load_market("csi-mini", seed=0)
        model = RTGCN(dataset.relations, strategy="time", graph_mode="dense",
                      rng=np.random.default_rng(0))
        before = "scipy.sparse" in sys.modules
        set_graph_mode(model, "sparse")
        print(json.dumps([before, "scipy.sparse" in sys.modules]))
    """)
    assert out == [False, True]


def test_warm_front_end_imports_nothing_while_serving():
    out = run_fresh("""
        import http.client, json, shutil, sys, tempfile
        from pathlib import Path
        import numpy as np
        from repro import RTGCN, TrainConfig, Trainer, load_market
        from repro.ckpt import save
        from repro.serve import ServeConfig, build

        dataset = load_market("nasdaq-mini", seed=0)
        model = RTGCN(dataset.relations, strategy="time",
                      relational_filters=4, rng=np.random.default_rng(0))
        trainer = Trainer(model, dataset,
                          TrainConfig(window=6, epochs=1, max_train_days=4))
        trainer.fit()
        checkpoint = trainer.state_dict()
        checkpoint.metadata = {"model": "RT-GCN (T)",
                               "market": "nasdaq-mini"}
        directory = Path(tempfile.mkdtemp())
        save(checkpoint, directory / "best.npz")

        handle = build(ServeConfig(checkpoint_dir=str(directory), port=0,
                                   cluster_workers=1)).start()
        host, port = handle.address
        conn = http.client.HTTPConnection(host, port, timeout=60)

        def call(method, path, payload=None):
            body = None if payload is None else json.dumps(payload).encode()
            conn.request(method, path, body=body,
                         headers={"Content-Type": "application/json"})
            response = conn.getresponse()
            data = json.loads(response.read())
            assert response.status == 200, (path, data)
            return data

        try:
            # what a load generator's warm-up sends: a read, an empty ingest
            last = call("GET", "/v1/top_k?k=10")["day"]
            call("POST", "/v1/ingest", {"day": -1, "deltas": []})
            before = set(sys.modules)
            for i in range(20):
                call("GET", f"/v1/top_k?k=10&day={last - i % 5}")
            for i in range(5):
                call("POST", "/v1/ingest",
                     {"day": i, "deltas": [[i, i + 1, 0.5], [i, i + 2, 0.0]]})
            after = set(sys.modules)
        finally:
            conn.close()
            handle.close()
            shutil.rmtree(directory)
        print(json.dumps({"new": sorted(after - before),
                          "modules": sorted(after)}))
    """)
    assert out["new"] == []
    assert loaded(out["modules"], OPTIONAL + ("sqlite3", "repro.store")) == []
