/**
 * @file
 * End-to-end pipeline benchmark: shared workload, pipeline and report
 * types.
 *
 * One operation is one full run of a workload's pipeline through the
 * same public entry points and config mapping elivagar_cli uses:
 * qml::make_benchmark -> dev::make_device -> core::elivagar_search ->
 * qml::train_circuit -> qml::evaluate (noiseless and noisy).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/search.hpp"
#include "device/device.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"

namespace perfbench {

/** One benchmark workload (see README.md for why each exists). */
struct Workload
{
    const char *name;
    /** qml::make_benchmark name. */
    const char *benchmark;
    /** Search and training threads (ElivagarConfig/TrainConfig). */
    int threads;
    /** False = the operation stops after the search. */
    bool trains;
};

/** The workload called `name`, or nullptr. */
const Workload *find_workload(const std::string &name);

/** Inputs of a run: generated data, device and the mapped configs. */
struct Setup
{
    const Workload *workload = nullptr;
    elv::qml::Benchmark bench;
    elv::dev::Device device;
    elv::core::ElivagarConfig search;
    elv::qml::TrainConfig train;
};

/** Seconds spent on each half of one set-up. */
struct SetupTiming
{
    double dataset_s = 0.0;
    double device_s = 0.0;
};

/**
 * Build the workload's inputs from `seed`: dataset, device and the
 * CLI's config mapping (64 candidates, scale 0.3, 40 epochs, f64).
 * The result must stay in place while operations run on it (the noisy
 * simulators keep a reference to its device).
 */
Setup make_setup(const Workload &workload, std::uint64_t seed,
                 SetupTiming &timing);

/** What an operation produced; every field is deterministic. */
struct Outcome
{
    /** ranking_digest of the full candidate ranking. */
    std::uint64_t digest = 0;
    double best_score = 0.0;
    /** Test accuracy on the noisy simulator (0 when not training). */
    double noisy_acc = 0.0;
};

/**
 * Digest of a ranking: each candidate's index, the bits of its CNR,
 * RepCap and score, and its rejection flag, in index order.
 */
std::uint64_t
ranking_digest(const std::vector<elv::core::CandidateRecord> &ranking);

/** The bits of `value`. */
std::uint64_t bits_of(double value);

/** True when the two outcomes agree bit for bit. */
bool same_outcome(const Outcome &a, const Outcome &b);

/** Timings and result of one untraced operation. */
struct OpRun
{
    double pipeline_s = 0.0;
    double search_s = 0.0;
    double cpu_s = 0.0;
    Outcome outcome;
};

/** One full pipeline operation, untraced. */
OpRun run_operation(const Setup &setup);

/** Monotonic wall-clock seconds. */
double wall_s();

/** Median of `values` (which must not be empty). */
double median(std::vector<double> values);

/** The `q` quantile of `values` by linear interpolation. */
double quantile(std::vector<double> values, double q);

/** A named metric of the result line. */
struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Counts the traced run adds to `attempted` / `failed`. */
struct Tally
{
    int attempted = 0;
    int failed = 0;
};

/** Set-up time of a run. */
struct SetupMeasurement
{
    /** Median seconds per set-up, at the nominal host speed. */
    double setup_s = 0.0;
    /** Raw medians of the two halves. */
    SetupTiming raw_median;
};

/**
 * Repeat the set-up in calibrated blocks (see measure.cpp) and leave
 * the last one in `setup`, where the run's operations use it.
 */
SetupMeasurement measure_setup(const Workload &workload, std::uint64_t seed,
                               std::optional<Setup> &setup);

/**
 * Correctness gate applied to every operation's outcome: true when it
 * matches the run's first outcome and the stored reference. `what`
 * names the pass in the failure message.
 */
using OutcomeCheck =
    std::function<bool(const Outcome &outcome, const char *what)>;

/**
 * The untraced run: cold operations (each in a forked child, plus this
 * process's first), then warm operations until `seconds` have passed.
 * Returns the end-to-end metrics, or nothing when an operation failed.
 * `setup_s` is the calibrated set-up median measured by the caller.
 */
std::vector<Metric> run_untraced(const Setup &setup, double setup_s,
                                 double seconds, const OutcomeCheck &check,
                                 Tally &tally);

/**
 * The traced run: a real operation with the metrics registry on, an
 * untraced reference operation, then the serial stage pass and the CNR
 * and RepCap probes with spans at every layer call. Returns the
 * per-layer metrics and writes the spans as a Chrome trace to
 * `trace_path`; every pass and probe mismatch counts in `tally`.
 */
std::vector<Metric> run_traced(const Setup &setup,
                               const SetupTiming &setup_median,
                               const std::string &trace_path,
                               const OutcomeCheck &check, Tally &tally);

} // namespace perfbench
