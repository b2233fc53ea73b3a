#!/usr/bin/env python
"""Boot the prediction service, query it over HTTP, shut it down.

The paper's models answer scheduling questions *on-line* — "what would
this co-run cost?", "where should these processes go?" — so
:mod:`repro.serve` wraps them in a long-running asyncio HTTP service
with a versioned model registry and dynamic micro-batching.  This
example is the end-to-end smoke path CI runs:

1. profile a small suite and train a power model (quick scale),
2. start the server on an ephemeral port with both published,
3. hit every read endpoint, run one prediction and both assignment
   endpoints (legacy ``/v1/assign`` and the declarative ``/v2/assign``),
4. show that the served results are bit-identical to the in-process
   :func:`repro.api.predict_mix` and :func:`repro.api.solve_assignment`,
   and
5. stop gracefully (in-flight batches drain before exit).

Run:
    python examples/serve_and_query.py
"""

from repro.api import (
    AssignmentRequest,
    predict_mix,
    profile_suite,
    serve,
    solve_assignment,
    train_power,
)
from repro.serve import ServeClient

MACHINE = "2-core-workstation"
NAMES = ["mcf", "gzip", "art"]
MIX = ["mcf", "gzip"]
WAYS = 8


def main() -> None:
    print("profiling suite and training power model (quick scale)...")
    suite = profile_suite(NAMES, machine=MACHINE, sets=32, seed=7, quick=True)
    power = train_power(MACHINE, sets=32, seed=7, quick=True)

    with serve({"default": suite, "power": power}) as handle:
        print(f"server up at {handle.url}\n")
        with ServeClient(handle.host, handle.port) as client:
            print(f"GET /healthz -> {client.healthz()}")
            print(f"GET /readyz  -> ready={client.readyz()}")

            print("\nGET /v1/models ->")
            for entry in client.models():
                print(
                    f"  {entry['name']}@{entry['version']} "
                    f"({entry['kind']}, sha256 {entry['digest'][:12]}...)"
                )

            response = client.predict(MIX, ways=WAYS)
            served = response["prediction"]
            local = predict_mix(MIX, suite, ways=WAYS).to_dict()
            print(f"\nPOST /v1/predict {MIX} (model {response['model']}):")
            for process in served["prediction"]["processes"]:
                print(
                    f"  {process['name']:>6}: size {process['effective_size']:.3f} "
                    f"ways, mpa {process['mpa']:.5f}"
                )
            print(f"  bit-identical to api.predict_mix: {served == local}")

            response = client.assign(NAMES, machine=MACHINE, objective="power")
            print(f"\nPOST /v1/assign {NAMES} ({response['suite']} + "
                  f"{response['power_model']}):")
            print(f"  assignment: {response['pick']['decision']['assignment']}")

            request = AssignmentRequest(
                processes=tuple(NAMES), machine=MACHINE, sets=32
            )
            response = client.assign_v2(request.to_dict())
            local = solve_assignment(request, suite, power.model)
            assignment = response["assignment"]
            print(f"\nPOST /v2/assign {NAMES} "
                  f"(solver {assignment['solver']}):")
            print(f"  score: {assignment['score']:.4f} "
                  f"({assignment['objective']})")
            print(
                "  bit-identical to api.solve_assignment: "
                f"{assignment == local.to_dict()}"
            )

            metrics = client.metrics()
            print("\nGET /metrics (selected):")
            for key in sorted(metrics["counters"]):
                if key.startswith(("serve.predict", "serve.batch", "serve.assign")):
                    print(f"  {key} = {metrics['counters'][key]:g}")

    print("\nserver drained and stopped")


if __name__ == "__main__":
    main()
