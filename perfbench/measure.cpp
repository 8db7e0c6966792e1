/**
 * @file
 * The untraced run: cold operations, warm operations and the
 * host-speed calibration that makes their timings comparable across
 * runs on a shared host.
 *
 * On a shared 4-core host the same single-threaded work runs up to 40%
 * slower for seconds to minutes at a time while neighbours are busy,
 * and process CPU time inflates with it. Each timed interval is
 * therefore bracketed by a fixed calibration kernel (the benchmark's
 * own code, unchanged by any program change), and the interval is
 * scaled by nominal / measured calibration time: the reported seconds
 * are seconds at the nominal host speed. Raw medians are printed next
 * to them.
 */
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <complex>
#include <csignal>
#include <cstdio>
#include <exception>
#include <optional>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

/**
 * Calibration kernel seconds on an idle core of the reference host
 * (4-core AVX-512 Xeon, RelWithDebInfo build). Only scales the reported
 * values; it does not change their spread.
 */
constexpr double kNominalCalibrationS = 0.0043;

/**
 * Cold operations: at least this many forked children, for at least
 * this share of --seconds.
 */
constexpr std::size_t kMinColdForks = 2;
constexpr double kColdShare = 0.5;

/**
 * Set-up blocks: at least this many, for at least this long in total;
 * each block repeats the set-up for at least kSetupBlockS between two
 * calibrations, so a set-up of microseconds is timed over many reps.
 */
constexpr std::size_t kMinSetupBlocks = 5;
constexpr double kMinSetupSeconds = 0.25;
constexpr double kSetupBlockS = 0.02;

/**
 * Complex multiply-accumulate over 256 KiB, L2-resident like the
 * simulators' states: 200 x 16384 complex updates.
 */
double
calibration_kernel(std::vector<std::complex<double>> &data)
{
    const std::complex<double> w(0.99999, 0.00001);
    std::complex<double> acc = 0.0;
    for (int rep = 0; rep < 200; ++rep)
        for (auto &z : data) {
            z = z * w + std::complex<double>(1e-7, 0.0);
            acc += z;
        }
    return acc.real();
}

/**
 * Wall seconds of the calibration kernel run once on each of `threads`
 * threads at once, so a multi-threaded workload is calibrated against
 * the cores it occupies, not against one.
 */
double
calibration_s(int threads)
{
    // Buffers live across calls: a fresh 256 KiB allocation would time
    // page faults too.
    static std::vector<std::vector<std::complex<double>>> buffers;
    const auto n = static_cast<std::size_t>(threads);
    if (buffers.size() < n)
        buffers.resize(n, std::vector<std::complex<double>>(16384, {1.0, 0.5}));
    std::vector<double> sinks(n);
    const double t0 = wall_s();
    {
        std::vector<std::jthread> helpers;
        for (std::size_t t = 1; t < n; ++t)
            helpers.emplace_back([&sinks, t] {
                sinks[t] = calibration_kernel(buffers[t]);
            });
        sinks[0] = calibration_kernel(buffers[0]);
    }
    const double seconds = wall_s() - t0;
    volatile double sink = 0.0;
    for (double value : sinks)
        sink = sink + value;
    return seconds;
}

/** Threads a workload occupies: the pool's workers plus the caller. */
int
occupied_threads(const Setup &setup)
{
    return setup.workload->threads == 1 ? 1 : setup.workload->threads + 1;
}

/** One operation's raw timings and the calibration around it. */
struct Sample
{
    double pipeline_s = 0.0;
    double search_s = 0.0;
    double cpu_s = 0.0;
    /** Mean of the calibration runs just before and after. */
    double calibration_s = 0.0;
    Outcome outcome;
    bool ok = false;
};

Sample
calibrated_operation(const Setup &setup)
{
    const int threads = occupied_threads(setup);
    const double before = calibration_s(threads);
    const OpRun run = run_operation(setup);
    const double after = calibration_s(threads);
    Sample sample;
    sample.pipeline_s = run.pipeline_s;
    sample.search_s = run.search_s;
    sample.cpu_s = run.cpu_s;
    sample.calibration_s = 0.5 * (before + after);
    sample.outcome = run.outcome;
    sample.ok = true;
    return sample;
}

/**
 * One cold operation in a forked child, so that no process-wide cache
 * (FusionCache, kernel dispatch, allocator arenas) is warm. The child
 * reports through a pipe; the parent waits for it to exit. The caller
 * must not have started any thread (no operation has run yet).
 */
Sample
forked_cold_operation(const Setup &setup)
{
    int fds[2];
    if (pipe(fds) != 0)
        return {};
    std::fflush(stdout);
    std::fflush(stderr);
    const pid_t pid = fork();
    if (pid < 0) {
        close(fds[0]);
        close(fds[1]);
        return {};
    }
    if (pid == 0) {
        // Die with the parent if it is killed before collecting us.
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        close(fds[0]);
        Sample sample;
        try {
            sample = calibrated_operation(setup);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "perfbench: cold operation failed: %s\n",
                         error.what());
        }
        const auto *bytes = reinterpret_cast<const char *>(&sample);
        std::size_t done = 0;
        while (done < sizeof(sample)) {
            const ssize_t n = write(fds[1], bytes + done, sizeof(sample) - done);
            if (n <= 0)
                break;
            done += static_cast<std::size_t>(n);
        }
        close(fds[1]);
        _exit(0);
    }
    close(fds[1]);
    Sample sample;
    auto *bytes = reinterpret_cast<char *>(&sample);
    std::size_t done = 0;
    while (done < sizeof(sample)) {
        const ssize_t n = read(fds[0], bytes + done, sizeof(sample) - done);
        if (n <= 0)
            break;
        done += static_cast<std::size_t>(n);
    }
    close(fds[0]);
    int status = 0;
    waitpid(pid, &status, 0);
    if (done != sizeof(sample) || !WIFEXITED(status) ||
        WEXITSTATUS(status) != 0)
        return {};
    return sample;
}

double
peak_rss_mb()
{
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
           1024.0;
}

} // namespace

SetupMeasurement
measure_setup(const Workload &workload, std::uint64_t seed,
              std::optional<Setup> &setup)
{
    std::vector<double> per_setup, dataset, device;
    const double start = wall_s();
    while (per_setup.size() < kMinSetupBlocks ||
           wall_s() - start < kMinSetupSeconds) {
        const double before = calibration_s(1);
        const double block_start = wall_s();
        double total = 0.0;
        int reps = 0;
        do {
            SetupTiming timing;
            setup.emplace(make_setup(workload, seed, timing));
            total += timing.dataset_s + timing.device_s;
            dataset.push_back(timing.dataset_s);
            device.push_back(timing.device_s);
            ++reps;
        } while (wall_s() - block_start < kSetupBlockS);
        const double after = calibration_s(1);
        per_setup.push_back(total / reps * 2.0 * kNominalCalibrationS /
                            (before + after));
    }
    return {median(per_setup), {median(dataset), median(device)}};
}

std::vector<Metric>
run_untraced(const Setup &setup, double setup_s, double seconds,
             const OutcomeCheck &check, Tally &tally)
{
    std::vector<Sample> cold, warm;
    auto record = [&](const Sample &sample, std::vector<Sample> &into) {
        ++tally.attempted;
        if (!sample.ok || !check(sample.outcome, "operation")) {
            ++tally.failed;
            return false;
        }
        into.push_back(sample);
        return true;
    };

    // Cold: forked children first, then this process's own first
    // operation, which is cold too.
    const double cold_start = wall_s();
    while (cold.size() < kMinColdForks ||
           wall_s() - cold_start < kColdShare * seconds)
        if (!record(forked_cold_operation(setup), cold))
            break;

    // Warm: closed loop, one operation at a time, until --seconds.
    const double warm_start = wall_s();
    bool first = true;
    while (tally.failed == 0 &&
           (warm.size() < 2 || wall_s() - warm_start < seconds)) {
        Sample sample;
        try {
            sample = calibrated_operation(setup);
        } catch (const std::exception &error) {
            std::fprintf(stderr, "perfbench: operation failed: %s\n",
                         error.what());
        }
        if (!record(sample, first ? cold : warm))
            break;
        first = false;
    }
    if (tally.failed > 0 || warm.empty())
        return {};

    // Each sample scaled by nominal / its own calibration, then the
    // median: the calibration follows the host through regime changes
    // between operations, which a run-wide factor would not.
    auto scaled = [](const std::vector<Sample> &samples,
                     double Sample::*field) {
        std::vector<double> values;
        for (const Sample &sample : samples)
            values.push_back(sample.*field * kNominalCalibrationS /
                             sample.calibration_s);
        return median(values);
    };
    auto print_list = [](const char *what, const std::vector<Sample> &samples,
                         double Sample::*field) {
        std::printf("%s:", what);
        for (const Sample &sample : samples)
            std::printf(" %.5f", sample.*field);
        std::printf("\n");
    };
    std::printf("%zu cold + %zu warm operations\n", cold.size(), warm.size());
    print_list("cold raw pipeline_s", cold, &Sample::pipeline_s);
    print_list("cold calibration_s", cold, &Sample::calibration_s);
    print_list("warm raw pipeline_s", warm, &Sample::pipeline_s);
    print_list("warm calibration_s", warm, &Sample::calibration_s);
    std::printf("noisy test accuracy %.6f (exact-repeat gated)\n",
                warm.front().outcome.noisy_acc);
    return {
        {"setup_s", setup_s, "s"},
        {"cold_pipeline_s", scaled(cold, &Sample::pipeline_s), "s"},
        {"pipeline_s", scaled(warm, &Sample::pipeline_s), "s"},
        {"search_s", scaled(warm, &Sample::search_s), "s"},
        {"pipeline_cpu_s", scaled(warm, &Sample::cpu_s), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"best_score", warm.front().outcome.best_score, "score"},
    };
}

} // namespace perfbench
