#!/bin/sh
# End-to-end run of the installed specpole console script, in cli-smoke/
# under the current directory: simulate -> transform (from the path CSV)
# -> estimate, on a path that covers the lattice window [-34, 51] of this
# tiny schedule, and again on a 20,000-sample path and a 20,515-row panel,
# read in five and six 4096-row blocks of the CSV readers.  Both panels,
# and one transformed from a model and seed, are written block by block
# as they are computed; each must hold the bytes that panel_to_csv writes
# of panel_from_path's panel (the big one's level 5, m_5 = 15,625, spans
# four blocks of the transform kernel).  Then 2-replication montecarlo
# runs on the exact backend and on the path backend (whose level 5 on
# that schedule again spans four blocks, summed block by block), the
# density and covariances written by spectrum (the indicator model's at
# 2049 lags, one Filon column, and the Gegenbauer moving average's at
# 65), and a filter's constants.
# Each run's manifest config is fed back through its subcommand into
# another directory, which must hold the same outputs byte for byte.
# Last, every subcommand takes only --config and --out: spectrum given
# model flags or --n-grid, simulate given --seed or a directory as its
# config, and an --out naming a file must each exit 2 and write nothing.
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

# library_panel DIR: DIR/panel.csv holds the bytes that the library writes
# of panel_from_path's panel of the same path, filter and schedule
library_panel() {
    python -c 'import json, sys, specpole as sp
c = json.load(open(sys.argv[1]))["config"]
f, s = sp.filter_from_json(c["filter"]), sp.schedule_from_json(c["schedule"])
if "path_csv" in c:
    p = sp.path_from_csv(c["path_csv"], c["seed"])
else:
    lo, hi = sp.lattice_window(f, s)
    p = sp.gegenbauer_path(sp.model_from_json(c["model"]), hi - lo + 1, float(lo), 1.0, c["seed"])
sp.panel_to_csv(sp.panel_from_path(p, f, s), sys.argv[2])' "$1/manifest.json" "$1-library.csv"
    cmp "$1/panel.csv" "$1-library.csv"
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
library_panel tr
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "seed": 9, "filter": {"name": "mexican-hat"}, "schedule": {"rule": "linear", "j_max": 3, "kappa": 8.0}}' > transform-model.json
specpole transform --config transform-model.json --out tr-model
replay tr-model transform panel.csv
library_panel tr-model
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
library_panel tr-big
echo '{"model": {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}, "filter": {"name": "shannon-father"}, "schedule": {"rule": "geometric", "j_max": 2, "a0": 4.0, "rho": 2.0, "kappa": 2.0, "m_cap": 32}, "backend": "exact-gaussian", "replications": 2, "base_seed": 1}' > mc.json
specpole montecarlo --config mc.json --out mc
replay mc montecarlo replications.csv mse_table.csv summary.json
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "filter": {"name": "mexican-hat"}, "schedule": {"rule": "linear", "j_max": 5, "kappa": 6.0}, "backend": "path-transform", "replications": 2, "base_seed": 7}' > mc-path.json
specpole montecarlo --config mc-path.json --out mc-path
replay mc-path montecarlo replications.csv mse_table.csv summary.json
echo '{"model": {"family": "indicator", "s0": 1.2661, "alpha": 0.1, "M": 3.0}, "cov_lags": 2048}' > spec.json
echo '{"model": {"family": "gegenbauer", "d": 0.1, "u": 0.3}, "cov_lags": 64}' > spec-ma.json
specpole spectrum --config spec.json --out spec
replay spec spectrum spectrum.csv covariance.csv
specpole spectrum --config spec-ma.json --out spec-ma
replay spec-ma spectrum spectrum.csv covariance.csv
echo '{"filter": {"name": "mexican-hat", "sigma": 2.0}}' > const.json
specpole constants --config const.json --out const
replay const constants constants.json
# usage_error OUT ARG...: the command exits 2 and leaves nothing at OUT
usage_error() {
    out=$1
    shift
    rc=0
    specpole "$@" 2> /dev/null || rc=$?
    test "$rc" = 2 && test ! -e "$out"
}
# the config is each command's one input: a flag copy of a key is a usage error
usage_error spec-flag spectrum --family indicator --s0 1.2661 --alpha 0.1 --M 3 --out spec-flag
usage_error spec-grid spectrum --config spec.json --out spec-grid --n-grid 9
usage_error sim-seed simulate --config simulate.json --out sim-seed --seed 1
# an --out naming a file, or a path under one, is a usage error that
# leaves the file as it was
cp const/constants.json afile
usage_error afile/path.csv simulate --config simulate.json --out afile
usage_error afile/sim simulate --config simulate.json --out afile/sim
cmp afile const/constants.json
# a config that cannot be read as text, such as a directory, is a usage error
usage_error sim-dir simulate --config sim --out sim-dir
