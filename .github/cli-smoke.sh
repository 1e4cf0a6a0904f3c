#!/bin/sh
# End-to-end run of the installed specpole console script, in cli-smoke/
# under the current directory: simulate -> transform (from the path CSV)
# -> estimate, on a path that covers the lattice window [-34, 51] of this
# tiny schedule.  Then the transform's manifest config is fed back
# through transform, which must write the same panel.csv byte for byte.
# Then a 2-replication montecarlo run is replayed from its manifest into
# another directory, which must hold the same three tables.  Last, the
# indicator model's covariance at 2049 lags, one Filon column, is written
# by spectrum and replayed from its manifest to the same covariance.csv.
#
#     sh .github/cli-smoke.sh
set -eu
mkdir -p cli-smoke && cd cli-smoke
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "n_points": 120, "t0": -40.0, "dt": 1.0, "seed": 5}' > simulate.json
echo '{"path_csv": "sim/path.csv", "seed": 5, "filter": {"name": "mexican-hat"}, "schedule": {"rule": "linear", "j_max": 4, "kappa": 2.0}}' > transform.json
echo '{"panel_csv": "tr/panel.csv", "filter": {"name": "mexican-hat"}, "seed": 5}' > estimate.json
specpole simulate --config simulate.json --out sim
specpole transform --config transform.json --out tr
specpole estimate --config estimate.json --out est
test -s est/estimates.csv
python -c 'import json, sys; json.dump(json.load(open("tr/manifest.json"))["config"], sys.stdout)' > replay.json
specpole transform --config replay.json --out tr-replay
cmp tr/panel.csv tr-replay/panel.csv
echo '{"model": {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}, "filter": {"name": "shannon-father"}, "schedule": {"rule": "geometric", "j_max": 2, "a0": 4.0, "rho": 2.0, "kappa": 2.0, "m_cap": 32}, "backend": "exact-gaussian", "replications": 2, "base_seed": 1}' > mc.json
specpole montecarlo --config mc.json --out mc
python -c 'import json, sys; json.dump(json.load(open("mc/manifest.json"))["config"], sys.stdout)' > mc-replay.json
specpole montecarlo --config mc-replay.json --out mc-replay
for f in replications.csv mse_table.csv summary.json; do cmp mc/$f mc-replay/$f; done
specpole spectrum --family indicator --s0 1.2661 --alpha 0.1 --M 3 --cov-lags 2048 --out spec
python -c 'import json, sys; json.dump(json.load(open("spec/manifest.json"))["config"], sys.stdout)' > spec-replay.json
specpole spectrum --config spec-replay.json --out spec-replay
cmp spec/covariance.csv spec-replay/covariance.csv
