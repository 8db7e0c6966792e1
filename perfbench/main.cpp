/**
 * @file
 * elv_perfbench: the end-to-end pipeline benchmark.
 *
 *   elv_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 [--trace-out FILE] [--reference FILE]
 *   elv_perfbench --workload NAME --make-reference FIRST LAST
 *
 * --trace 0 runs cold operations (forked children, then this process's
 * first), then warm operations until S seconds have passed, and
 * reports the end-to-end metrics (see measure.cpp). --trace 1
 * runs the traced passes instead (see traced.cpp) and reports the
 * per-layer metrics. Either way every operation's outcome must repeat
 * the first one exactly and match the stored reference for the seed;
 * the last stdout line is the JSON result, and the exit status is 1
 * when any operation failed.
 *
 * --make-reference prints one reference line per seed in
 * [FIRST, LAST] (the format --reference reads).
 */
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/runinfo.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "sim/cpu_features.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

struct Args
{
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 10.0;
    bool trace = false;
    std::string trace_out = "perfbench-trace.json";
    std::string reference;
    bool make_reference = false;
    std::uint64_t first = 0, last = 0;
};

[[noreturn]] void
usage(const std::string &error)
{
    std::fprintf(stderr,
                 "error: %s\nusage: elv_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 [--trace-out FILE] "
                 "[--reference FILE]\n       elv_perfbench --workload NAME "
                 "--make-reference FIRST LAST\n",
                 error.c_str());
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload")
            args.workload = value();
        else if (arg == "--seed")
            args.seed = std::stoull(value());
        else if (arg == "--seconds")
            args.seconds = std::stod(value());
        else if (arg == "--trace")
            args.trace = value() == "1";
        else if (arg == "--trace-out")
            args.trace_out = value();
        else if (arg == "--reference")
            args.reference = value();
        else if (arg == "--make-reference") {
            args.make_reference = true;
            args.first = std::stoull(value());
            args.last = std::stoull(value());
        } else
            usage("unknown option " + arg);
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

/** Why this build must not report numbers, or "" when it may. */
std::string
build_refusal()
{
#if !defined(__OPTIMIZE__)
    return "unoptimised build";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    return "sanitizer build";
#endif
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(undefined_behavior_sanitizer)
    return "sanitizer build";
#endif
#endif
    const std::string type = PERFBENCH_BUILD_TYPE;
    if (type != "Release" && type != "RelWithDebInfo")
        return "build type '" + type + "' (need Release or RelWithDebInfo)";
    if (std::getenv("ELV_FORCE_KERNEL"))
        return "ELV_FORCE_KERNEL is set";
    return "";
}

const char *
obs_state()
{
#ifdef ELV_OBS_DISABLED
    return "off";
#else
    return "on";
#endif
}

void
print_provenance()
{
    std::printf("provenance: kernel_tier=%s nproc=%u build=%s elv_obs=%s "
                "compiler=\"%s\" version=%s\n",
                elv::sim::kernel_tier_name(elv::sim::active_tier()),
                std::thread::hardware_concurrency(), PERFBENCH_BUILD_TYPE,
                obs_state(), __VERSION__, elv::version_string());
}

std::string
reference_line(const char *workload, std::uint64_t seed,
               const Outcome &outcome)
{
    char line[160];
    std::snprintf(line, sizeof(line), "%s %" PRIu64 " %016" PRIx64 " %a %a",
                  workload, seed, outcome.digest, outcome.best_score,
                  outcome.noisy_acc);
    return line;
}

/** The stored outcome for (workload, seed), if the file has one. */
std::optional<Outcome>
load_reference(const std::string &path, const std::string &workload,
               std::uint64_t seed)
{
    std::ifstream in(path);
    if (!in)
        usage("cannot read reference file " + path);
    std::string line;
    while (std::getline(in, line)) {
        std::istringstream fields(line);
        std::string name, digest, best, acc;
        std::uint64_t line_seed = 0;
        if (!(fields >> name >> line_seed >> digest >> best >> acc))
            continue;
        if (name != workload || line_seed != seed)
            continue;
        Outcome outcome;
        outcome.digest = std::stoull(digest, nullptr, 16);
        outcome.best_score = std::strtod(best.c_str(), nullptr);
        outcome.noisy_acc = std::strtod(acc.c_str(), nullptr);
        return outcome;
    }
    return std::nullopt;
}

void
print_result(bool correct, const Tally &tally,
             const std::vector<Metric> &metrics)
{
    elv::obs::JsonWriter json;
    json.begin_object()
        .kv("correct", correct)
        .kv("attempted", tally.attempted)
        .kv("failed", tally.failed)
        .key("metrics")
        .begin_object();
    for (const Metric &metric : metrics)
        json.key(metric.name)
            .begin_object()
            .kv("value", metric.value)
            .kv("unit", metric.unit)
            .end_object();
    json.end_object().end_object();
    std::printf("%s\n", json.str().c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parse(argc, argv);
    const Workload *workload = find_workload(args.workload);
    if (!workload)
        usage("unknown workload " + args.workload);
    print_provenance();
    if (const std::string refusal = build_refusal(); !refusal.empty()) {
        std::fprintf(stderr, "perfbench: refusing to measure: %s\n",
                     refusal.c_str());
        return 2;
    }
    // End-to-end numbers are taken with tracing and metrics off.
    elv::obs::Registry::global().set_enabled(false);
    elv::obs::Tracer::global().stop();

    if (args.make_reference) {
        for (std::uint64_t seed = args.first; seed <= args.last; ++seed) {
            SetupTiming timing;
            const Setup setup = make_setup(*workload, seed, timing);
            const OpRun run = run_operation(setup);
            std::printf("%s\n",
                        reference_line(workload->name, seed, run.outcome)
                            .c_str());
            std::fflush(stdout);
        }
        return 0;
    }

    const std::optional<Outcome> stored =
        args.reference.empty()
            ? std::nullopt
            : load_reference(args.reference, workload->name, args.seed);
    std::printf("workload %s seed %" PRIu64 ": %s\n", workload->name,
                args.seed,
                stored ? "stored reference outcome found"
                       : "no stored reference outcome for this seed");

    std::optional<Setup> setup;
    const SetupMeasurement measured =
        measure_setup(*workload, args.seed, setup);

    std::optional<Outcome> first;
    auto check = [&](const Outcome &outcome, const char *what) {
        if (!first)
            first = outcome;
        bool ok = true;
        if (!same_outcome(outcome, *first)) {
            std::fprintf(stderr,
                         "perfbench: %s outcome %s differs from the "
                         "run's first %s\n",
                         what,
                         reference_line(workload->name, args.seed, outcome)
                             .c_str(),
                         reference_line(workload->name, args.seed, *first)
                             .c_str());
            ok = false;
        }
        if (stored && !same_outcome(outcome, *stored)) {
            std::fprintf(stderr,
                         "perfbench: %s outcome %s differs from the "
                         "stored reference %s\n",
                         what,
                         reference_line(workload->name, args.seed, outcome)
                             .c_str(),
                         reference_line(workload->name, args.seed, *stored)
                             .c_str());
            ok = false;
        }
        return ok;
    };

    Tally tally;
    std::vector<Metric> metrics;
    if (args.trace) {
        try {
            metrics = run_traced(*setup, measured.raw_median,
                                 args.trace_out, check, tally);
            std::printf("trace written to %s\n", args.trace_out.c_str());
        } catch (const std::exception &error) {
            std::fprintf(stderr, "perfbench: traced run failed: %s\n",
                         error.what());
            ++tally.attempted;
            ++tally.failed;
            metrics.clear();
        }
    } else {
        metrics = run_untraced(*setup, measured.setup_s, args.seconds, check,
                               tally);
    }

    for (const Metric &metric : metrics)
        std::printf("  %-26s %14.6f %s\n", metric.name.c_str(),
                    metric.value, metric.unit.c_str());
    std::printf("failed_frac %d/%d\n", tally.failed, tally.attempted);
    const bool correct = tally.failed == 0 && !metrics.empty();
    print_result(correct, tally, metrics);
    return correct ? 0 : 1;
}
