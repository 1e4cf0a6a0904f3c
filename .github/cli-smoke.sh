#!/bin/sh
# End-to-end run of the installed specpole console script, in cli-smoke/
# under the current directory: simulate -> transform (from the path CSV)
# -> estimate, on a path that covers the lattice window [-34, 51] of this
# tiny schedule, and again on a 20,000-sample path and a 20,515-row panel,
# each read in three blocks of the CSV readers.  Then a 2-replication
# montecarlo run, and the density
# and covariances written by spectrum: the indicator model's at 2049 lags
# (one Filon column) and the Gegenbauer moving average's at 65.
# Each run's manifest config is fed back through its subcommand into
# another directory, which must hold the same outputs byte for byte.
# Last, spectrum given model flags instead of a config, and simulate
# given a directory as its config, must each exit 2.
#
#     sh .github/cli-smoke.sh
set -eu
mkdir -p cli-smoke && cd cli-smoke

# replay DIR SUBCOMMAND OUTPUT...: rerun DIR's manifest config into
# DIR-replay and compare each OUTPUT
replay() {
    dir=$1 cmd=$2
    shift 2
    python -c 'import json, sys; json.dump(json.load(open(sys.argv[1]))["config"], sys.stdout)' \
        "$dir/manifest.json" > "$dir-replay.json"
    specpole "$cmd" --config "$dir-replay.json" --out "$dir-replay"
    for f in "$@"; do cmp "$dir/$f" "$dir-replay/$f"; done
}

echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "n_points": 120, "t0": -40.0, "dt": 1.0, "seed": 5}' > simulate.json
echo '{"path_csv": "sim/path.csv", "seed": 5, "filter": {"name": "mexican-hat"}, "schedule": {"rule": "linear", "j_max": 4, "kappa": 2.0}}' > transform.json
echo '{"panel_csv": "tr/panel.csv", "filter": {"name": "mexican-hat"}, "seed": 5}' > estimate.json
specpole simulate --config simulate.json --out sim
specpole transform --config transform.json --out tr
specpole estimate --config estimate.json --out est
test -s est/estimates.csv
replay sim simulate path.csv
replay tr transform panel.csv
replay est estimate estimates.csv
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "n_points": 20000, "t0": -60.0, "dt": 1.0, "seed": 7}' > simulate-big.json
echo '{"path_csv": "sim-big/path.csv", "seed": 7, "filter": {"name": "mexican-hat"}, "schedule": {"rule": "linear", "j_max": 5, "kappa": 6.0}}' > transform-big.json
echo '{"panel_csv": "tr-big/panel.csv", "filter": {"name": "mexican-hat"}, "seed": 7}' > estimate-big.json
specpole simulate --config simulate-big.json --out sim-big
specpole transform --config transform-big.json --out tr-big
specpole estimate --config estimate-big.json --out est-big
test "$(wc -l < sim-big/path.csv)" -gt 16385 && test "$(wc -l < tr-big/panel.csv)" -gt 16385
replay sim-big simulate path.csv
replay tr-big transform panel.csv
replay est-big estimate estimates.csv
echo '{"model": {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}, "filter": {"name": "shannon-father"}, "schedule": {"rule": "geometric", "j_max": 2, "a0": 4.0, "rho": 2.0, "kappa": 2.0, "m_cap": 32}, "backend": "exact-gaussian", "replications": 2, "base_seed": 1}' > mc.json
specpole montecarlo --config mc.json --out mc
replay mc montecarlo replications.csv mse_table.csv summary.json
echo '{"model": {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}, "cov_lags": 2048}' > spec.json
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "cov_lags": 64}' > spec-ma.json
specpole spectrum --config spec.json --out spec
replay spec spectrum spectrum.csv covariance.csv
specpole spectrum --config spec-ma.json --out spec-ma
replay spec-ma spectrum spectrum.csv covariance.csv
# the config is spectrum's one input: the former inline model is a usage error
rc=0
specpole spectrum --family indicator --s0 1.2661 --alpha 0.1 --M 3 --out spec-flag 2> /dev/null || rc=$?
test "$rc" = 2 && test ! -e spec-flag
# a config that cannot be read as text, such as a directory, is a usage error
rc=0
specpole simulate --config sim --out sim-dir 2> /dev/null || rc=$?
test "$rc" = 2 && test ! -e sim-dir
