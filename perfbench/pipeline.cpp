#include "perfbench.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>

#include "noise/noise_model.hpp"

namespace perfbench {

namespace {

using namespace elv;

// All workloads: device ibm_lagos, 64 candidates, CLI scale 0.3,
// 40 epochs, f64 and the default CNR/RepCap options.
constexpr const char *kDevice = "ibm_lagos";
constexpr int kCandidates = 64;
constexpr double kScale = 0.3;
constexpr int kEpochs = 40;
/**
 * Search seed (elivagar_cli's default). The workload seed drives the
 * generated dataset only, so every seed runs the same candidate pool
 * and the same CNR work, and run-to-run spread is the host's, not the
 * pool's.
 */
constexpr std::uint64_t kSearchSeed = 7;

// Why each workload exists is recorded in BENCHMARK.json and README.md.
constexpr Workload kWorkloads[] = {
    {"moons", "moons", 1, true},
    {"mnist-4-t2", "mnist-4", 2, true},
    {"mnist-10-search", "mnist-10", 1, false},
};

void
fnv_mix(std::uint64_t &h, std::uint64_t value)
{
    for (int byte = 0; byte < 8; ++byte) {
        h ^= (value >> (8 * byte)) & 0xffU;
        h *= 1099511628211ULL;
    }
}

/** CPU seconds of the whole process, summed over threads. */
double
process_cpu_s()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           1e-9 * static_cast<double>(ts.tv_nsec);
}

} // namespace

const Workload *
find_workload(const std::string &name)
{
    for (const Workload &workload : kWorkloads)
        if (name == workload.name)
            return &workload;
    return nullptr;
}

Setup
make_setup(const Workload &workload, std::uint64_t seed,
           SetupTiming &timing)
{
    double t0 = wall_s();
    qml::Benchmark bench =
        qml::make_benchmark(workload.benchmark, seed, kScale);
    timing.dataset_s = wall_s() - t0;
    t0 = wall_s();
    dev::Device device = dev::make_device(kDevice);
    timing.device_s = wall_s() - t0;
    Setup setup{&workload, std::move(bench), std::move(device), {}, {}};

    // The elivagar_cli mapping from user knobs to ElivagarConfig and
    // TrainConfig (examples/elivagar_cli.cpp), at the workload's knobs.
    const qml::BenchmarkSpec &spec = setup.bench.spec;
    core::ElivagarConfig &config = setup.search;
    config.num_candidates = kCandidates;
    config.candidate.num_qubits = spec.qubits;
    config.candidate.num_params = spec.params;
    config.candidate.num_embeds =
        std::min(spec.params, std::max(spec.dim, spec.params / 4));
    config.candidate.num_meas = spec.meas;
    config.candidate.num_features = spec.dim;
    config.seed = kSearchSeed;
    config.threads = workload.threads;

    setup.train.epochs = kEpochs;
    setup.train.threads = workload.threads;
    setup.train.seed = kSearchSeed + 1;
    return setup;
}

std::uint64_t
bits_of(double value)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &value, sizeof(bits));
    return bits;
}

std::uint64_t
ranking_digest(const std::vector<core::CandidateRecord> &ranking)
{
    std::uint64_t h = 1469598103934665603ULL;
    for (std::size_t n = 0; n < ranking.size(); ++n) {
        const core::CandidateRecord &record = ranking[n];
        fnv_mix(h, n);
        fnv_mix(h, bits_of(record.cnr));
        fnv_mix(h, bits_of(record.repcap));
        fnv_mix(h, bits_of(record.score));
        fnv_mix(h, record.rejected_by_cnr ? 1 : 0);
    }
    return h;
}

bool
same_outcome(const Outcome &a, const Outcome &b)
{
    return a.digest == b.digest &&
           bits_of(a.best_score) == bits_of(b.best_score) &&
           bits_of(a.noisy_acc) == bits_of(b.noisy_acc);
}

OpRun
run_operation(const Setup &setup)
{
    OpRun run;
    const double cpu0 = process_cpu_s();
    const double t0 = wall_s();
    const core::SearchResult found = core::elivagar_search(
        setup.device, setup.bench.train, setup.search);
    run.search_s = wall_s() - t0;
    if (setup.workload->trains) {
        const circ::Circuit &best = found.best_circuit;
        const qml::TrainResult trained =
            qml::train_circuit(best, setup.bench.train, setup.train);
        qml::evaluate(best, trained.params, setup.bench.test);
        const noise::NoisyDensitySimulator noisy(setup.device);
        run.outcome.noisy_acc =
            qml::evaluate(best, trained.params, setup.bench.test,
                          [&noisy](const circ::Circuit &c,
                                   const std::vector<double> &p,
                                   const std::vector<double> &x) {
                              return noisy.run_distribution(c, p, x);
                          })
                .accuracy;
    }
    run.pipeline_s = wall_s() - t0;
    run.cpu_s = process_cpu_s() - cpu0;
    run.outcome.digest = ranking_digest(found.candidates);
    run.outcome.best_score = found.best_score;
    return run;
}

double
wall_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

double
quantile(std::vector<double> values, double q)
{
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + frac * (values[hi] - values[lo]);
}

} // namespace perfbench
