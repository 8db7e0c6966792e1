/**
 * @file
 * The traced run. Spans are recorded here, around the calls into each
 * layer's public functions, never inside the program: the stage pass
 * replays the search's per-candidate evaluators serially, and the CNR
 * and RepCap probes re-derive each candidate's value from its parts
 * and must match the stage pass bit for bit, so the per-layer split
 * measures the same work as the real program.
 */
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <tuple>
#include <unordered_map>

#include "circuit/clifford_replica.hpp"
#include "circuit/serialize.hpp"
#include "common/statistics.hpp"
#include "common/validate.hpp"
#include "core/repcap.hpp"
#include "exec/executor.hpp"
#include "lint/preflight.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "perfbench.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"
#include "sim/unitaries.hpp"

namespace perfbench {

namespace {

using namespace elv;

/**
 * Largest relative gap allowed between a probe's summed layer time and
 * the stage-pass time of the layer call it re-derives (the largest
 * end-to-end bound in BENCHMARK.json).
 */
constexpr double kProbeTolerance = 0.25;
/** Least share of the traced operation its stage spans must cover. */
constexpr double kMinCoverage = 0.95;

/** Operation ids: the spans of one pass share one id. */
enum PassId { kStagePass = 1, kCnrProbe = 2, kRepCapProbe = 3 };

/**
 * One recorded span; `parent` indexes Spans::all (-1 = root) and
 * `candidate` is the candidate index (-1 outside any candidate).
 */
struct Span
{
    const char *name;
    double start_us;
    double end_us;
    int parent;
    int op;
    std::int64_t candidate;
};

/** In-memory span log of one thread (the traced run is serial). */
class Spans
{
  public:
    int
    open(const char *name, int op, std::int64_t candidate)
    {
        const int parent = stack_.empty() ? -1 : stack_.back();
        if (candidate < 0 && parent >= 0)
            candidate = all[static_cast<std::size_t>(parent)].candidate;
        all.push_back({name, now_us(), 0.0, parent, op, candidate});
        stack_.push_back(static_cast<int>(all.size() - 1));
        return stack_.back();
    }

    void
    close(int index)
    {
        all[static_cast<std::size_t>(index)].end_us = now_us();
        stack_.pop_back();
    }

    std::vector<Span> all;

  private:
    double
    now_us() const
    {
        return std::chrono::duration<double, std::micro>(
                   std::chrono::steady_clock::now() - epoch_)
            .count();
    }

    std::chrono::steady_clock::time_point epoch_ =
        std::chrono::steady_clock::now();
    std::vector<int> stack_;
};

class Scope
{
  public:
    Scope(Spans &spans, const char *name, int op,
          std::int64_t candidate = -1)
        : spans_(spans), index_(spans.open(name, op, candidate))
    {
    }
    ~Scope() { spans_.close(index_); }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Spans &spans_;
    int index_;
};

double
duration_s(const Span &span)
{
    return 1e-6 * (span.end_us - span.start_us);
}

/** Self seconds of each span: its duration minus its children's. */
std::vector<double>
self_seconds(const std::vector<Span> &spans)
{
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
        self[i] = duration_s(spans[i]);
    for (const Span &span : spans)
        if (span.parent >= 0)
            self[static_cast<std::size_t>(span.parent)] -= duration_s(span);
    return self;
}

bool
named(const Span &span, const std::vector<const char *> &names)
{
    for (const char *name : names)
        if (std::strcmp(span.name, name) == 0)
            return true;
    return false;
}

/** Summed self seconds of the spans of pass `op` called any of `names`. */
double
layer_seconds(const std::vector<Span> &spans, const std::vector<double> &self,
              int op, const std::vector<const char *> &names)
{
    double total = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i)
        if (spans[i].op == op && named(spans[i], names))
            total += self[i];
    return total;
}

/**
 * Median over candidates of (self time of a probe's `parts`) / (self
 * time of the layer `call` it re-derives). Both run back to back per
 * candidate, so a burst of load on the shared host skews one ratio,
 * not the median.
 */
double
median_time_ratio(const std::vector<Span> &spans,
                  const std::vector<double> &self, int op,
                  const std::vector<const char *> &parts, const char *call)
{
    std::map<std::int64_t, std::pair<double, double>> per_candidate;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        if (span.op != op || span.candidate < 0)
            continue;
        if (named(span, parts))
            per_candidate[span.candidate].first += self[i];
        else if (std::strcmp(span.name, call) == 0)
            per_candidate[span.candidate].second += self[i];
    }
    std::vector<double> ratios;
    for (const auto &[candidate, times] : per_candidate)
        if (times.second > 0.0)
            ratios.push_back(times.first / times.second);
    return ratios.empty() ? 0.0 : median(ratios);
}

/** Durations (ms) of every span called `name`. */
std::vector<double>
span_ms(const std::vector<Span> &spans, const char *name)
{
    std::vector<double> out;
    for (const Span &span : spans)
        if (std::strcmp(span.name, name) == 0)
            out.push_back(1e3 * duration_s(span));
    return out;
}

/**
 * The search's per-(stage, candidate) RNG seed. core/search.cpp keeps
 * it internal; the probes re-derive it, and the bit-exact checks fail
 * if the two ever diverge.
 */
std::uint64_t
mix64(std::uint64_t z)
{
    z += 0x9e3779b97f4a7c15ULL;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e9b5ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

std::uint64_t
stage_seed(std::uint64_t seed, std::uint64_t stage, std::uint64_t index)
{
    return mix64(seed ^ mix64(stage) ^ mix64(index + 0x5eedULL));
}

constexpr std::uint64_t kCnrStage = 0xc14;
constexpr std::uint64_t kRepCapStage = 0x2e9ca9;

struct StageResult
{
    std::vector<core::CandidateRecord> records;
    Outcome outcome;
    std::uint64_t cnr_executions = 0;
    std::uint64_t repcap_executions = 0;
    int survivors = 0;
};

/** The pipeline with its per-candidate stage evaluators run serially. */
StageResult
stage_pass(const Setup &setup, Spans &spans)
{
    const core::ElivagarConfig &config = setup.search;
    const qml::Dataset &train = setup.bench.train;
    const dev::Device &device = setup.device;
    const auto pool = static_cast<std::size_t>(config.num_candidates);
    const int op = kStagePass;
    StageResult out;
    auto &records = out.records;

    Scope root(spans, "pipeline", op);
    {
        Scope span(spans, "core.validate", op);
        train.check();
        device.validate();
    }
    {
        Scope span(spans, "core.generate", op);
        records.resize(pool);
        for (std::size_t n = 0; n < pool; ++n)
            records[n].circuit =
                core::generate_search_candidate(device, config, n);
    }
    {
        Scope span(spans, "core.cnr", op);
        const exec::FaultConfig faults = core::prepare_fault_config(config);
        for (std::size_t n = 0; n < pool; ++n) {
            Scope cand(spans, "core.cnr.cand", op,
                       static_cast<std::int64_t>(n));
            const core::CandidateCnr cnr = core::evaluate_candidate_cnr(
                device, records[n].circuit, config, faults, n);
            records[n].cnr = cnr.cnr;
            records[n].degraded = cnr.degraded;
            records[n].retries = cnr.retries;
            out.cnr_executions += cnr.executions;
        }
    }
    {
        Scope span(spans, "core.select", op);
        core::apply_cnr_selection(records, config);
    }
    {
        Scope span(spans, "core.repcap", op);
        for (std::size_t n = 0; n < pool; ++n) {
            if (records[n].rejected_by_cnr)
                continue;
            Scope cand(spans, "core.repcap.cand", op,
                       static_cast<std::int64_t>(n));
            const core::CandidateRepCap rc = core::evaluate_candidate_repcap(
                records[n].circuit, train, config, n);
            records[n].repcap = rc.repcap;
            out.repcap_executions += rc.executions;
        }
    }
    const core::CandidateRecord *best = nullptr;
    {
        Scope span(spans, "core.rank", op);
        for (core::CandidateRecord &record : records) {
            if (record.rejected_by_cnr)
                continue;
            ++out.survivors;
            record.score =
                core::composite_score(record.cnr, record.repcap, config);
            if (!best || record.score > best->score)
                best = &record;
        }
    }
    if (!best)
        throw std::runtime_error("stage pass: no surviving candidate");
    out.outcome.best_score = best->score;
    if (setup.workload->trains) {
        const qml::Dataset &test = setup.bench.test;
        std::optional<qml::TrainResult> trained;
        {
            Scope span(spans, "qml.train", op);
            trained = qml::train_circuit(best->circuit, train, setup.train);
        }
        {
            Scope span(spans, "qml.eval_ideal", op);
            qml::evaluate(best->circuit, trained->params, test);
        }
        {
            Scope span(spans, "qml.eval_noisy", op);
            const noise::NoisyDensitySimulator noisy(device);
            out.outcome.noisy_acc =
                qml::evaluate(best->circuit, trained->params, test,
                              [&noisy](const circ::Circuit &c,
                                       const std::vector<double> &p,
                                       const std::vector<double> &x) {
                                  return noisy.run_distribution(c, p, x);
                              })
                    .accuracy;
        }
    }
    out.outcome.digest = ranking_digest(records);
    return out;
}

/** Exact reuse counts of the replica programs the CNR stage compiles. */
struct ReuseCounts
{
    /** Programs compiled (per-candidate simulator cache misses). */
    std::uint64_t programs_compiled = 0;
    /** Distinct replica programs over the whole operation. */
    std::uint64_t programs_distinct = 0;
    /** Gate+noise superoperators built by those compiles. */
    std::uint64_t superop_builds = 0;
    /** Distinct (gate kind, angles, physical qubit or edge) keys. */
    std::uint64_t superop_distinct = 0;
};

/** Bit-exact checks of one probe. */
struct ProbeResult
{
    /** Values re-derived (replica fidelities or RepCap values). */
    int checked = 0;
    /** Of those, not bit-equal to the layer call's. */
    int mismatched = 0;
    /** Candidate values not bit-equal to the stage pass's. */
    int stage_mismatched = 0;
};

/** The CNR probe's parts that DensityExecutor::replica_fidelity does. */
const std::vector<const char *> kCnrCallParts = {
    "lint.preflight", "circuit.compact", "noise.cache_key",
    "noise.compile",  "sim.density_run", "sim.ideal_run",
    "core.cnr_reduce"};
constexpr const char *kCnrCall = "exec.replica_fidelity";

const std::vector<const char *> kRepCapParts = {
    "qml.data_check", "circuit.compact", "qml.sample",
    "sim.sv_compile", "sim.sv_run",      "core.repcap_reduce"};
constexpr const char *kRepCapCall = "core.representational_capacity";

/**
 * Re-derive every candidate's CNR replica by replica from the calls
 * core::evaluate_candidate_cnr makes (density backend, no resilience):
 * replica, executor preflight, compaction, the per-simulator program
 * cache, NoisyProgram compile and run, the ideal fused run, then
 * probabilities, readout confusion and TVD. Each replica's fidelity
 * must equal the layer call's, DensityExecutor::replica_fidelity
 * (preflight plus NoisyDensitySimulator::fidelity), bit for bit.
 */
ProbeResult
cnr_probe(const Setup &setup, const StageResult &stage, Spans &spans,
          ReuseCounts &reuse)
{
    const core::ElivagarConfig &config = setup.search;
    const dev::Device &device = setup.device;
    const double scale = config.cnr.noise_scale;
    const int op = kCnrProbe;
    std::set<std::string> programs;
    std::set<std::tuple<int, std::uint64_t, std::uint64_t, std::uint64_t,
                        int, int>>
        superops;
    ProbeResult result;

    Scope root(spans, "cnr_probe", op);
    for (std::size_t n = 0; n < stage.records.size(); ++n) {
        Scope cand(spans, "probe.cnr.cand", op,
                   static_cast<std::int64_t>(n));
        const circ::Circuit &circuit = stage.records[n].circuit;
        elv::Rng rng(stage_seed(config.seed, kCnrStage, n));
        // One executor per candidate, as evaluate_candidate_cnr builds.
        exec::DensityExecutor executor(device, scale, config.cnr.precision);
        std::unordered_map<std::string,
                           std::shared_ptr<const noise::NoisyProgram>>
            cache;
        double fidelity_sum = 0.0;
        for (int m = 0; m < config.cnr.num_replicas; ++m) {
            circ::Circuit replica;
            {
                Scope span(spans, "circuit.replica", op);
                replica = circ::make_clifford_replica(circuit, rng);
            }
            {
                Scope span(spans, "lint.preflight", op);
                lint::LintOptions options;
                options.device = &device;
                options.expect_clifford_replica = true;
                lint::preflight(replica, lint::Boundary::Executor,
                                options);
            }
            std::vector<int> kept;
            circ::Circuit local;
            {
                Scope span(spans, "circuit.compact", op);
                local = replica.compacted(kept);
            }
            std::string key;
            {
                Scope span(spans, "noise.cache_key", op);
                key = circ::to_text_line(replica);
            }
            std::shared_ptr<const noise::NoisyProgram> &program = cache[key];
            if (!program) {
                {
                    Scope span(spans, "noise.compile", op);
                    program = std::make_shared<const noise::NoisyProgram>(
                        noise::NoisyProgram::compile(local, kept, device,
                                                     scale));
                }
                ++reuse.programs_compiled;
                for (const circ::Op &gate : local.ops()) {
                    if (gate.kind == circ::GateKind::AmpEmbed)
                        continue;
                    ++reuse.superop_builds;
                    const bool fixed = gate.role == circ::ParamRole::None;
                    const std::array<double, 3> angles =
                        fixed ? circ::op_angles(gate, {}, {})
                              : std::array<double, 3>{};
                    const auto physical = [&](int slot) {
                        const int q =
                            gate.qubits[static_cast<std::size_t>(slot)];
                        return q < 0 ? -1
                                     : kept[static_cast<std::size_t>(q)];
                    };
                    superops.insert({fixed ? static_cast<int>(gate.kind)
                                           : -1,
                                     bits_of(angles[0]), bits_of(angles[1]),
                                     bits_of(angles[2]), physical(0),
                                     physical(1)});
                }
            }
            programs.insert(key);

            std::optional<sim::DensityMatrix> rho;
            {
                Scope span(spans, "sim.density_run", op);
                rho.emplace(local.num_qubits());
                program->run(*rho, {}, {});
            }
            std::optional<sim::StateVector> psi;
            {
                Scope span(spans, "sim.ideal_run", op);
                psi.emplace(local.num_qubits());
                sim::FusedProgram::compile(local).run(*psi, {}, {});
            }
            double fidelity = 0.0;
            {
                Scope span(spans, "core.cnr_reduce", op);
                const auto ideal = psi->probabilities(local.measured());
                auto noisy = rho->probabilities(local.measured());
                if (scale > 0.0) {
                    std::vector<double> flips;
                    flips.reserve(local.measured().size());
                    for (int lq : local.measured()) {
                        const int pq = kept[static_cast<std::size_t>(lq)];
                        flips.push_back(std::min(
                            0.5, scale * device.readout_error
                                             [static_cast<std::size_t>(pq)]));
                    }
                    noisy = noise::apply_readout_confusion(noisy, flips);
                }
                fidelity =
                    1.0 - elv::total_variation_distance(ideal, noisy);
            }
            double expected = 0.0;
            {
                Scope span(spans, kCnrCall, op);
                expected = executor.replica_fidelity(replica, rng);
            }
            ++result.checked;
            if (bits_of(fidelity) != bits_of(expected))
                ++result.mismatched;
            fidelity_sum += fidelity;
        }
        const double cnr = fidelity_sum / config.cnr.num_replicas;
        if (bits_of(cnr) != bits_of(stage.records[n].cnr))
            ++result.stage_mismatched;
    }
    reuse.programs_distinct = programs.size();
    reuse.superop_distinct = superops.size();
    return result;
}

/**
 * Re-derive every survivor's RepCap from the calls
 * core::representational_capacity makes at f64: data check,
 * compaction, sample_per_class, one FusedProgram compile, the
 * per-sample runs, then basis rotation, probabilities and the pairwise
 * TVD and Frobenius reduction. The value must equal both the layer
 * call's under the same Rng seed and the stage pass's, bit for bit.
 */
ProbeResult
repcap_probe(const Setup &setup, const StageResult &stage, Spans &spans)
{
    const core::ElivagarConfig &config = setup.search;
    const core::RepCapOptions &options = config.repcap;
    const qml::Dataset &data = setup.bench.train;
    const int op = kRepCapProbe;
    ProbeResult result;

    Scope root(spans, "repcap_probe", op);
    for (std::size_t n = 0; n < stage.records.size(); ++n) {
        const core::CandidateRecord &record = stage.records[n];
        if (record.rejected_by_cnr)
            continue;
        Scope cand(spans, "probe.repcap.cand", op,
                   static_cast<std::int64_t>(n));
        double expected = 0.0;
        {
            Scope span(spans, kRepCapCall, op);
            elv::Rng rng(stage_seed(config.seed, kRepCapStage, n));
            expected = core::representational_capacity(record.circuit, data,
                                                       rng, options)
                           .repcap;
        }
        elv::Rng rng(stage_seed(config.seed, kRepCapStage, n));
        {
            Scope span(spans, "qml.data_check", op);
            data.check();
        }
        std::vector<int> kept;
        circ::Circuit local;
        {
            Scope span(spans, "circuit.compact", op);
            local = record.circuit.compacted(kept);
        }
        const auto &measured = local.measured();
        std::vector<std::size_t> chosen;
        {
            Scope span(spans, "qml.sample", op);
            chosen = qml::sample_per_class(data, options.samples_per_class,
                                           rng);
        }
        const std::size_t d = chosen.size();
        std::optional<sim::FusedProgram> program;
        {
            Scope span(spans, "sim.sv_compile", op);
            program = sim::FusedProgram::compile(local);
        }
        std::vector<double> r_c(d * d, 0.0);
        std::vector<sim::StateVector> states;
        states.reserve(d);
        for (int t = 0; t < options.param_inits; ++t) {
            {
                Scope span(spans, "sim.sv_run", op);
                std::vector<double> params(
                    static_cast<std::size_t>(local.num_params()));
                for (auto &p : params)
                    p = rng.uniform(-M_PI, M_PI);
                states.clear();
                for (std::size_t s = 0; s < d; ++s) {
                    sim::StateVector psi(local.num_qubits());
                    program->run(psi, params, data.samples[chosen[s]]);
                    states.push_back(std::move(psi));
                }
            }
            for (int k = 0; k < options.num_bases; ++k) {
                Scope span(spans, "core.repcap_reduce", op);
                std::vector<sim::Mat2> basis;
                basis.reserve(measured.size());
                for (std::size_t m = 0; m < measured.size(); ++m) {
                    const std::array<double, 3> angles = {
                        rng.uniform(0.0, M_PI),
                        rng.uniform(0.0, 2.0 * M_PI),
                        rng.uniform(0.0, 2.0 * M_PI)};
                    basis.push_back(
                        sim::gate_matrix_1q(circ::GateKind::U3, angles));
                }
                std::vector<std::vector<double>> dists;
                dists.reserve(d);
                for (const auto &psi : states) {
                    sim::StateVector rotated = psi;
                    for (std::size_t m = 0; m < measured.size(); ++m)
                        rotated.apply_1q(basis[m], measured[m]);
                    auto probs = rotated.probabilities(measured);
                    elv::validate_distribution(
                        probs, elv::DistributionPolicy::Renormalize,
                        "RepCap randomized measurement");
                    dists.push_back(std::move(probs));
                }
                for (std::size_t i = 0; i < d; ++i) {
                    r_c[i * d + i] += 1.0;
                    for (std::size_t j = i + 1; j < d; ++j) {
                        const double sim_ij =
                            1.0 - elv::total_variation_distance(dists[i],
                                                                dists[j]);
                        r_c[i * d + j] += sim_ij;
                        r_c[j * d + i] += sim_ij;
                    }
                }
            }
        }
        double repcap = 0.0;
        {
            Scope span(spans, "core.repcap_reduce", op);
            const double norm =
                1.0 / (static_cast<double>(options.param_inits) *
                       static_cast<double>(options.num_bases));
            double frob2 = 0.0;
            for (std::size_t i = 0; i < d; ++i) {
                for (std::size_t j = 0; j < d; ++j) {
                    const double ref =
                        data.labels[chosen[i]] == data.labels[chosen[j]]
                            ? 1.0
                            : 0.0;
                    const double diff = r_c[i * d + j] * norm - ref;
                    frob2 += diff * diff;
                }
            }
            repcap = 1.0 - frob2 / static_cast<double>(d * d);
        }
        ++result.checked;
        if (bits_of(repcap) != bits_of(expected))
            ++result.mismatched;
        if (bits_of(repcap) != bits_of(record.repcap))
            ++result.stage_mismatched;
    }
    return result;
}

std::uint64_t
counter_value(const obs::MetricsSnapshot &snap, const std::string &name)
{
    for (const auto &counter : snap.counters)
        if (counter.name == name)
            return counter.value;
    return 0;
}

void
write_trace(const std::vector<Span> &spans, const std::string &path)
{
    // Chrome-trace rows: one tid per pass, nesting by time gives the
    // parent, args.i is the candidate index.
    std::vector<obs::TraceEvent> events;
    events.reserve(spans.size());
    for (const Span &span : spans) {
        obs::TraceEvent event;
        event.name = span.name;
        event.category = "perfbench";
        event.ts_us = span.start_us;
        event.dur_us = span.end_us - span.start_us;
        event.tid = span.op;
        event.arg = span.candidate;
        event.has_arg = span.candidate >= 0;
        events.push_back(std::move(event));
    }
    if (!obs::write_chrome_trace(path, events))
        std::fprintf(stderr, "perfbench: cannot write trace %s\n",
                     path.c_str());
}

} // namespace

std::vector<Metric>
run_traced(const Setup &setup, const SetupTiming &setup_median,
           const std::string &trace_path, const OutcomeCheck &check,
           Tally &tally)
{
    const Workload &workload = *setup.workload;
    auto gate = [&tally](bool ok) {
        ++tally.attempted;
        if (!ok)
            ++tally.failed;
    };

    // 1. The real pipeline, cold, with the metrics registry on.
    obs::Registry &registry = obs::Registry::global();
    registry.reset();
    registry.set_enabled(true);
    const OpRun counted = run_operation(setup);
    registry.set_enabled(false);
    const obs::MetricsSnapshot snap = registry.snapshot();
    gate(check(counted.outcome, "counted operation"));

    // 2. Untraced warm searches for the overhead and efficiency
    // ratios: at the workload's threads, then serially.
    auto timed_search = [&](int threads, double &seconds) {
        core::ElivagarConfig config = setup.search;
        config.threads = threads;
        const double t0 = wall_s();
        const core::SearchResult found =
            core::elivagar_search(setup.device, setup.bench.train, config);
        seconds = wall_s() - t0;
        const bool same =
            ranking_digest(found.candidates) == counted.outcome.digest;
        if (!same)
            std::fprintf(stderr,
                         "perfbench: threads=%d search ranking differs "
                         "from the counted operation's\n",
                         threads);
        gate(same);
    };
    double search_s = 0.0;
    timed_search(setup.search.threads, search_s);
    double serial_search_s = search_s;
    if (setup.search.threads != 1)
        timed_search(1, serial_search_s);

    // 3. The traced passes.
    Spans spans;
    const StageResult stage = stage_pass(setup, spans);
    gate(check(stage.outcome, "traced stage pass"));
    ReuseCounts reuse;
    const ProbeResult cnr = cnr_probe(setup, stage, spans, reuse);
    const ProbeResult rep = repcap_probe(setup, stage, spans);
    write_trace(spans.all, trace_path);

    const std::vector<Span> &all = spans.all;
    const std::vector<double> self = self_seconds(all);
    auto layer = [&](int op, const char *name) {
        return layer_seconds(all, self, op, {name});
    };
    const double cnr_stage_s = layer(kStagePass, "core.cnr") +
                               layer(kStagePass, "core.cnr.cand");
    const double repcap_stage_s = layer(kStagePass, "core.repcap") +
                                  layer(kStagePass, "core.repcap.cand");
    const double search_stage_s =
        layer(kStagePass, "core.validate") +
        layer(kStagePass, "core.generate") + cnr_stage_s +
        layer(kStagePass, "core.select") + repcap_stage_s +
        layer(kStagePass, "core.rank");
    const double cnr_probe_s =
        layer_seconds(all, self, kCnrProbe, kCnrCallParts) +
        layer(kCnrProbe, "circuit.replica");

    // Coverage: the stage spans' share of the traced operation.
    double root_s = 0.0, covered_s = 0.0;
    for (const Span &span : all) {
        if (span.op != kStagePass)
            continue;
        if (span.parent < 0)
            root_s += duration_s(span);
        else if (all[static_cast<std::size_t>(span.parent)].parent < 0)
            covered_s += duration_s(span);
    }
    const double coverage = covered_s / root_s;

    auto report_probe = [&](const char *name, const ProbeResult &probe,
                            double ratio) {
        const bool ok = probe.mismatched == 0 && probe.stage_mismatched == 0 &&
                        std::fabs(ratio - 1.0) <= kProbeTolerance;
        std::printf("%s probe: %d/%d values bit-exact against the layer "
                    "call, %d candidate mismatches against the stage "
                    "pass, time ratio to the layer call %.3f (median over "
                    "candidates, tolerance %.2f)%s\n",
                    name, probe.checked - probe.mismatched, probe.checked,
                    probe.stage_mismatched, ratio, kProbeTolerance,
                    ok ? "" : "  FAILED");
        gate(ok);
    };
    const double cnr_ratio =
        median_time_ratio(all, self, kCnrProbe, kCnrCallParts, kCnrCall);
    const double repcap_ratio = median_time_ratio(
        all, self, kRepCapProbe, kRepCapParts, kRepCapCall);
    report_probe("CNR", cnr, cnr_ratio);
    report_probe("RepCap", rep, repcap_ratio);
    std::printf("trace coverage %.4f (minimum %.2f)%s\n", coverage,
                kMinCoverage, coverage >= kMinCoverage ? "" : "  FAILED");
    gate(coverage >= kMinCoverage);

    const auto cnr_ms = span_ms(all, "core.cnr.cand");
    const auto repcap_ms = span_ms(all, "core.repcap.cand");
    auto pct = [](const std::vector<double> &v, double q) {
        return v.empty() ? 0.0 : quantile(v, q);
    };
    auto count = [](std::uint64_t v) { return static_cast<double>(v); };
    const double candidates =
        static_cast<double>(setup.search.num_candidates);

    std::vector<Metric> m = {
        {"qml.dataset_s", setup_median.dataset_s, "s"},
        {"device.build_s", setup_median.device_s, "s"},
        {"core.generate_s", layer(kStagePass, "core.generate"), "s"},
        {"core.cnr_s", cnr_stage_s, "s"},
        {"core.cnr_cand_ms.p50", pct(cnr_ms, 0.50), "ms"},
        {"core.cnr_cand_ms.p75", pct(cnr_ms, 0.75), "ms"},
        {"core.rank_s",
         layer(kStagePass, "core.select") + layer(kStagePass, "core.rank"),
         "s"},
        {"core.repcap_s", repcap_stage_s, "s"},
        {"core.repcap_cand_ms.p50", pct(repcap_ms, 0.50), "ms"},
        {"core.repcap_cand_ms.p65", pct(repcap_ms, 0.65), "ms"},
        {"qml.train_s", layer(kStagePass, "qml.train"), "s"},
        {"qml.eval_ideal_s", layer(kStagePass, "qml.eval_ideal"), "s"},
        {"qml.eval_noisy_s", layer(kStagePass, "qml.eval_noisy"), "s"},
        {"qml.noisy_acc", stage.outcome.noisy_acc, "ratio"},
        {"circuit.replica_s", layer(kCnrProbe, "circuit.replica"), "s"},
        {"lint.preflight_s", layer(kCnrProbe, "lint.preflight"), "s"},
        {"circuit.compact_s", layer(kCnrProbe, "circuit.compact"), "s"},
        {"noise.cache_key_s", layer(kCnrProbe, "noise.cache_key"), "s"},
        {"noise.compile_s", layer(kCnrProbe, "noise.compile"), "s"},
        {"noise.compile_share",
         layer(kCnrProbe, "noise.compile") / cnr_probe_s, "ratio"},
        {"sim.density_run_s", layer(kCnrProbe, "sim.density_run"), "s"},
        {"sim.ideal_run_s", layer(kCnrProbe, "sim.ideal_run"), "s"},
        {"core.cnr_reduce_s", layer(kCnrProbe, "core.cnr_reduce"), "s"},
        {"core.cnr_probe_ratio", cnr_ratio, "ratio"},
        {"qml.data_check_s", layer(kRepCapProbe, "qml.data_check"), "s"},
        {"qml.sample_s", layer(kRepCapProbe, "qml.sample"), "s"},
        {"sim.sv_compile_s", layer(kRepCapProbe, "sim.sv_compile"), "s"},
        {"sim.sv_run_s", layer(kRepCapProbe, "sim.sv_run"), "s"},
        {"core.repcap_reduce_s", layer(kRepCapProbe, "core.repcap_reduce"),
         "s"},
        {"core.repcap_probe_ratio", repcap_ratio, "ratio"},
        {"core.cnr_executions", count(stage.cnr_executions), "count"},
        {"core.repcap_executions", count(stage.repcap_executions), "count"},
        {"core.survivor_ratio", stage.survivors / candidates, "ratio"},
        {"noise.programs_compiled", count(reuse.programs_compiled),
         "count"},
        {"noise.programs_distinct", count(reuse.programs_distinct),
         "count"},
        {"noise.superop_builds", count(reuse.superop_builds), "count"},
        {"noise.superop_distinct", count(reuse.superop_distinct), "count"},
        {"noise.superop_reuse",
         1.0 - count(reuse.superop_distinct) / count(reuse.superop_builds),
         "ratio"},
    };
    for (const char *name :
         {"sim.superop_applies", "fusion.ops_merged", "sim.sv.runs",
          "sim.kernel.dense1q", "sim.kernel.dense2q", "sim.kernel.diag1q",
          "sim.kernel.cx", "sim.kernel.cz", "sim.kernel.swap",
          "lint.circuits_checked", "train.batch_tasks", "pool.tasks",
          "pool.steals"})
        m.push_back({name, count(counter_value(snap, name)), "count"});
    m.push_back({"parallel.efficiency",
                 search_stage_s / (workload.threads * search_s),
                 "ratio"});
    m.push_back({"trace.coverage", coverage, "ratio"});
    m.push_back({"trace.overhead", search_stage_s / serial_search_s,
                 "ratio"});
    return m;
}

} // namespace perfbench
