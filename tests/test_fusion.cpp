/**
 * @file
 * Fused execution engine: gate fusion equivalence, superoperator
 * channel kernels vs the Kraus reference, compiled noisy programs vs
 * the per-gate channel loop, and the batched-training determinism
 * contract (bit-identical results for every thread count).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <complex>
#include <cstring>
#include <deque>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "circuit/circuit.hpp"
#include "circuit/clifford_replica.hpp"
#include "common/rng.hpp"
#include "core/candidate_gen.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/noise_model.hpp"
#include "noise/superop.hpp"
#include "parallel/thread_pool.hpp"
#include "qml/synthetic.hpp"
#include "qml/trainer.hpp"
#include "sim/density_matrix.hpp"
#include "sim/fusion.hpp"
#include "sim/statevector.hpp"

namespace {

using namespace elv;

/** Random mix of fixed, variational and embedding gates. */
circ::Circuit
random_circuit(int qubits, int ops, elv::Rng &rng, int features = 3)
{
    circ::Circuit c(qubits);
    const circ::GateKind fixed1[] = {
        circ::GateKind::H, circ::GateKind::S,   circ::GateKind::Sdg,
        circ::GateKind::X, circ::GateKind::Y,   circ::GateKind::Z,
    };
    const circ::GateKind fixed2[] = {circ::GateKind::CX,
                                     circ::GateKind::CZ,
                                     circ::GateKind::SWAP};
    const circ::GateKind param1[] = {circ::GateKind::RX,
                                     circ::GateKind::RY,
                                     circ::GateKind::RZ,
                                     circ::GateKind::U3};
    for (int n = 0; n < ops; ++n) {
        const int q0 = static_cast<int>(rng.uniform_index(qubits));
        switch (rng.uniform_index(5)) {
        case 0:
        case 1:
            c.add_gate(fixed1[rng.uniform_index(6)], {q0});
            break;
        case 2: {
            int q1 = static_cast<int>(rng.uniform_index(qubits));
            while (q1 == q0)
                q1 = static_cast<int>(rng.uniform_index(qubits));
            c.add_gate(fixed2[rng.uniform_index(3)], {q0, q1});
            break;
        }
        case 3:
            c.add_variational(param1[rng.uniform_index(4)], {q0});
            break;
        default:
            c.add_embedding(
                circ::GateKind::RY, {q0},
                static_cast<int>(rng.uniform_index(features)));
            break;
        }
    }
    c.set_measured({0});
    return c;
}

std::vector<double>
random_values(std::size_t count, elv::Rng &rng)
{
    std::vector<double> v(count);
    for (auto &p : v)
        p = rng.uniform(-M_PI, M_PI);
    return v;
}

double
max_amp_diff(const sim::StateVector &a, const sim::StateVector &b)
{
    double diff = 0.0;
    for (std::size_t i = 0; i < a.dim(); ++i)
        diff = std::max(diff, std::abs(a.amp(i) - b.amp(i)));
    return diff;
}

double
max_element_diff(const sim::DensityMatrix &a, const sim::DensityMatrix &b)
{
    const std::size_t dim = std::size_t{1} << a.num_qubits();
    double diff = 0.0;
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            diff = std::max(diff,
                            std::abs(a.element(r, c) - b.element(r, c)));
    return diff;
}

/** A mixed non-trivial test state. */
sim::DensityMatrix
prepared_state(int qubits)
{
    sim::DensityMatrix rho(qubits);
    circ::Circuit c(qubits);
    for (int q = 0; q < qubits; ++q)
        c.add_gate(circ::GateKind::H, {q});
    for (int q = 0; q + 1 < qubits; ++q)
        c.add_gate(circ::GateKind::CX, {q, q + 1});
    c.add_gate(circ::GateKind::S, {0});
    rho.run(c);
    rho.apply_depolarizing_1q(0.05, qubits - 1); // make it mixed
    return rho;
}

TEST(Fusion, MatchesPerGateExecutionOnRandomCircuits)
{
    elv::Rng rng(41);
    for (int trial = 0; trial < 20; ++trial) {
        const int qubits = 2 + static_cast<int>(rng.uniform_index(4));
        const circ::Circuit c = random_circuit(qubits, 40, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        sim::StateVector plain(qubits), fused(qubits);
        plain.run(c, params, x);
        sim::FusedProgram::compile(c).run(fused, params, x);
        EXPECT_LE(max_amp_diff(plain, fused), 1e-12)
            << "trial " << trial << " qubits " << qubits;
    }
}

TEST(Fusion, MergesAdjacentFixedGates)
{
    // H S H on one qubit + CX with absorbed neighbors: everything fixed
    // fuses; the whole circuit becomes a handful of dense ops.
    circ::Circuit c(2);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::S, {0});
    c.add_gate(circ::GateKind::H, {1});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::Z, {1});
    c.set_measured({0, 1});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    EXPECT_EQ(p.source_ops(), 5u);
    EXPECT_EQ(p.ops().size(), 1u); // all five collapse into one Mat4
    EXPECT_EQ(p.ops_merged(), 4u);
}

TEST(Fusion, ParametricGatesAreBarriers)
{
    circ::Circuit c(1);
    c.add_gate(circ::GateKind::H, {0});
    c.add_variational(circ::GateKind::RZ, {0});
    c.add_gate(circ::GateKind::H, {0});
    c.set_measured({0});

    const sim::FusedProgram p = sim::FusedProgram::compile(c);
    ASSERT_EQ(p.ops().size(), 3u);
    EXPECT_EQ(p.ops()[1].kind, sim::FusedOp::Kind::Barrier);
    EXPECT_EQ(p.ops_merged(), 0u);
}

TEST(Fusion, CacheReturnsSharedProgramAndClears)
{
    sim::FusionCache::global().clear();
    circ::Circuit c(2);
    c.add_gate(circ::GateKind::H, {0});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.set_measured({0});

    const auto a = sim::FusionCache::global().get(c);
    const auto b = sim::FusionCache::global().get(c);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(sim::FusionCache::global().size(), 1u);
    sim::FusionCache::global().clear();
    EXPECT_EQ(sim::FusionCache::global().size(), 0u);
}

TEST(Superop, DepolarizingMatchesKrausLoop1q)
{
    for (const double p : {0.0, 0.013, 0.2}) {
        const auto kraus = noise::depolarizing_1q_kraus(p);
        const sim::Mat4 s = noise::kraus_superop_1q(kraus);
        for (int q = 0; q < 3; ++q) {
            sim::DensityMatrix a = prepared_state(3);
            sim::DensityMatrix b = a;
            a.apply_kraus_1q(kraus, q);
            b.apply_superop_1q(s, q);
            EXPECT_LE(max_element_diff(a, b), 1e-14)
                << "p=" << p << " q=" << q;
        }
    }
}

TEST(Superop, DepolarizingMatchesKrausLoop2q)
{
    const auto kraus = noise::depolarizing_2q_kraus(0.021);
    const sim::Mat16 s = noise::kraus_superop_2q(kraus);
    const int pairs[][2] = {{0, 1}, {1, 0}, {0, 2}, {2, 1}};
    for (const auto &pair : pairs) {
        sim::DensityMatrix a = prepared_state(3);
        sim::DensityMatrix b = a;
        a.apply_kraus_2q(kraus, pair[0], pair[1]);
        b.apply_superop_2q(s, pair[0], pair[1]);
        EXPECT_LE(max_element_diff(a, b), 1e-14)
            << "pair (" << pair[0] << "," << pair[1] << ")";
    }
}

TEST(Superop, ThermalRelaxationMatchesKrausLoop)
{
    const auto kraus =
        noise::thermal_relaxation_kraus(85.0, 60.0, 0.25);
    const sim::Mat4 s = noise::kraus_superop_1q(kraus);
    for (int q = 0; q < 3; ++q) {
        sim::DensityMatrix a = prepared_state(3);
        sim::DensityMatrix b = a;
        a.apply_kraus_1q(kraus, q);
        b.apply_superop_1q(s, q);
        EXPECT_LE(max_element_diff(a, b), 1e-14) << "q=" << q;
    }
}

TEST(Superop, UnitarySuperopMatchesDirectUnitary)
{
    elv::Rng rng(7);
    const sim::Mat2 u1 = sim::gate_matrix_1q(
        circ::GateKind::U3, {rng.uniform(0.0, M_PI),
                             rng.uniform(0.0, 2 * M_PI),
                             rng.uniform(0.0, 2 * M_PI)});
    sim::DensityMatrix a = prepared_state(3);
    sim::DensityMatrix b = a;
    a.apply_1q(u1, 1);
    b.apply_superop_1q(noise::unitary_superop_1q(u1), 1);
    EXPECT_LE(max_element_diff(a, b), 1e-14);

    const sim::Mat4 u2 =
        sim::gate_matrix_2q(circ::GateKind::CX, {0.0, 0.0, 0.0});
    sim::DensityMatrix c = prepared_state(3);
    sim::DensityMatrix d = c;
    c.apply_2q(u2, 2, 0);
    d.apply_superop_2q(noise::unitary_superop_2q(u2), 2, 0);
    EXPECT_LE(max_element_diff(c, d), 1e-14);
}

TEST(Superop, KrausScratchReusePreservesResults)
{
    // Back-to-back generic-Kraus channels reuse the member scratch;
    // results must be independent of prior channel applications.
    const auto depol = noise::depolarizing_1q_kraus(0.03);
    const auto thermal =
        noise::thermal_relaxation_kraus(90.0, 70.0, 0.5);
    sim::DensityMatrix seq = prepared_state(3);
    seq.apply_kraus_1q(depol, 0);
    seq.apply_kraus_1q(thermal, 1);
    seq.apply_kraus_1q(depol, 2);

    sim::DensityMatrix ref = prepared_state(3);
    ref.apply_superop_1q(noise::kraus_superop_1q(depol), 0);
    ref.apply_superop_1q(noise::kraus_superop_1q(thermal), 1);
    ref.apply_superop_1q(noise::kraus_superop_1q(depol), 2);
    EXPECT_LE(max_element_diff(seq, ref), 1e-14);
    EXPECT_NEAR(seq.trace(), 1.0, 1e-12);
}

TEST(NoisyProgram, MatchesUnfusedChannelLoop)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(19);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;

    noise::NoisyDensitySimulator fused(device);
    noise::NoisyDensitySimulator unfused(device);
    unfused.use_fused_execution(false);

    for (int trial = 0; trial < 5; ++trial) {
        const circ::Circuit c =
            core::generate_candidate(device, config, rng);
        const auto params = random_values(
            static_cast<std::size_t>(c.num_params()), rng);
        const auto x = random_values(3, rng);

        const auto a = fused.run_distribution(c, params, x);
        const auto b = unfused.run_distribution(c, params, x);
        ASSERT_EQ(a.size(), b.size());
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_NEAR(a[i], b[i], 1e-12) << "trial " << trial;

        EXPECT_NEAR(fused.fidelity(c, params, x),
                    unfused.fidelity(c, params, x), 1e-12);
    }
}

TEST(NoisyProgram, MatchesUnfusedOnCliffordReplicas)
{
    // The CNR hot path: all-fixed replicas fuse maximally.
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(29);
    core::CandidateConfig config;
    config.num_qubits = 5;
    config.num_params = 10;
    config.num_embeds = 2;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit candidate =
        core::generate_candidate(device, config, rng);

    noise::NoisyDensitySimulator fused(device);
    noise::NoisyDensitySimulator unfused(device);
    unfused.use_fused_execution(false);
    for (int m = 0; m < 4; ++m) {
        const circ::Circuit replica =
            circ::make_clifford_replica(candidate, rng);
        EXPECT_NEAR(fused.fidelity(replica), unfused.fidelity(replica),
                    1e-12);
    }
}

TEST(NoisyProgram, NoiseScaleZeroIsNoiselessInBothPaths)
{
    const dev::Device device = dev::make_device("ibmq_jakarta");
    elv::Rng rng(31);
    core::CandidateConfig config;
    config.num_qubits = 3;
    config.num_params = 6;
    config.num_embeds = 2;
    config.num_meas = 1;
    config.num_features = 3;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const auto x = random_values(3, rng);

    noise::NoisyDensitySimulator fused(device, 0.0);
    noise::NoisyDensitySimulator unfused(device, 0.0);
    unfused.use_fused_execution(false);
    const auto a = fused.run_distribution(c, params, x);
    const auto b = unfused.run_distribution(c, params, x);
    for (std::size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(a[i], b[i], 1e-12);
    EXPECT_NEAR(fused.fidelity(c, params, x), 1.0, 1e-9);
}

/** Every element of rho after replaying `program` from |0><0|. */
std::vector<std::complex<double>>
replay(const noise::NoisyProgram &program, const std::vector<double> &params,
       const std::vector<double> &x)
{
    sim::DensityMatrix rho(program.num_qubits());
    program.run(rho, params, x);
    const std::size_t dim = std::size_t{1} << program.num_qubits();
    std::vector<std::complex<double>> out;
    out.reserve(dim * dim);
    for (std::size_t r = 0; r < dim; ++r)
        for (std::size_t c = 0; c < dim; ++c)
            out.push_back(rho.element(r, c));
    return out;
}

bool
bit_equal(const std::vector<std::complex<double>> &a,
          const std::vector<std::complex<double>> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(a[0])) == 0;
}

/** One compile: a circuit over physical qubits, its device and scale. */
struct CompileCase
{
    const dev::Device *device = nullptr;
    circ::Circuit circuit;
    double scale = 1.0;
    std::vector<double> params;
    std::vector<double> x;
    std::string label;
};

/** Compile and replay `c` on the calling thread (its superop table). */
std::vector<std::complex<double>>
compile_and_replay(const CompileCase &c)
{
    std::vector<int> kept;
    const circ::Circuit local = c.circuit.compacted(kept);
    return replay(
        noise::NoisyProgram::compile(local, kept, *c.device, c.scale),
        c.params, c.x);
}

/** compile_and_replay on a fresh thread, whose superop table is empty. */
std::vector<std::complex<double>>
cold_compile_and_replay(const CompileCase &c)
{
    std::vector<std::complex<double>> out;
    std::thread([&] { out = compile_and_replay(c); }).join();
    return out;
}

/**
 * Both operand orders of one edge: CX, fixed CRY and variational CRY
 * each way round, then a 1-qubit gate on either end.
 */
circ::Circuit
edge_order_circuit(const dev::Device &device)
{
    const auto [a, b] = device.topology.edges().front();
    circ::Circuit c(device.num_qubits());
    c.add_gate(circ::GateKind::CX, {a, b});
    c.add_gate(circ::GateKind::CX, {b, a});
    // A CRY with no parameter role is fixed (angle 0); only a copied op
    // can carry that role.
    circ::Op fixed_cry;
    fixed_cry.kind = circ::GateKind::CRY;
    fixed_cry.qubits = {a, b};
    c.append_op(fixed_cry);
    fixed_cry.qubits = {b, a};
    c.append_op(fixed_cry);
    c.add_variational(circ::GateKind::CRY, {a, b});
    c.add_variational(circ::GateKind::CRY, {b, a});
    c.add_gate(circ::GateKind::H, {a});
    c.add_variational(circ::GateKind::RY, {b});
    c.set_measured({a, b});
    return c;
}

/** A copy of `device` with its rates moved, as calibration drift does. */
dev::Device
drifted(const dev::Device &device)
{
    dev::Device out = device;
    for (double &r : out.error_1q)
        r *= 1.7;
    for (double &r : out.error_2q)
        r *= 1.3;
    for (double &t : out.t1_us)
        t *= 0.8;
    return out;
}

/**
 * Copies of `device` that each move exactly one calibration field the
 * noise superoperators read, so a key missing that field would serve
 * the original device's entries for the copy.
 */
std::vector<std::pair<std::string, dev::Device>>
single_field_drifts(const dev::Device &device)
{
    std::vector<std::pair<std::string, dev::Device>> out;
    auto add = [&](const std::string &field, auto &&move) {
        dev::Device copy = device;
        move(copy);
        out.emplace_back(field, std::move(copy));
    };
    add("error_1q", [](dev::Device &d) {
        for (double &r : d.error_1q)
            r *= 1.7;
    });
    add("error_2q", [](dev::Device &d) {
        for (double &r : d.error_2q)
            r *= 1.3;
    });
    // Raising T1 and lowering T2 keep T2 <= 2 T1.
    add("t1_us", [](dev::Device &d) {
        for (double &t : d.t1_us)
            t *= 1.25;
    });
    add("t2_us", [](dev::Device &d) {
        for (double &t : d.t2_us)
            t *= 0.8;
    });
    add("duration_1q_ns", [](dev::Device &d) { d.duration_1q_ns *= 1.5; });
    add("duration_2q_ns", [](dev::Device &d) { d.duration_2q_ns *= 1.5; });
    // One qubit only: the second operand of edge_order_circuit's first
    // CX, so the 2-qubit key must cover both operands' T1 and T2.
    const auto b =
        static_cast<std::size_t>(device.topology.edges().front().second);
    add("t1_us of one qubit", [b](dev::Device &d) { d.t1_us[b] *= 1.25; });
    add("t2_us of one qubit", [b](dev::Device &d) { d.t2_us[b] *= 0.8; });
    return out;
}

/** Generated candidates, their Clifford replicas and an edge-order
 *  circuit on `device`, at each scale. */
std::vector<CompileCase>
compile_cases(const dev::Device &device, const std::string &name,
              elv::Rng &rng)
{
    core::CandidateConfig config;
    config.num_qubits = std::min(4, device.num_qubits());
    config.num_params = 8;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit candidate =
        core::generate_candidate(device, config, rng);
    const std::vector<circ::Circuit> circuits = {
        candidate, circ::make_clifford_replica(candidate, rng),
        circ::make_clifford_replica(candidate, rng),
        edge_order_circuit(device)};
    std::vector<CompileCase> cases;
    for (const double scale : {0.0, 0.5, 1.0, 2.0})
        for (std::size_t k = 0; k < circuits.size(); ++k) {
            CompileCase c;
            c.device = &device;
            c.circuit = circuits[k];
            c.scale = scale;
            c.params = random_values(
                static_cast<std::size_t>(c.circuit.num_params()), rng);
            c.x = random_values(3, rng);
            c.label = name + " circuit " + std::to_string(k) +
                      " scale " + std::to_string(scale);
            cases.push_back(std::move(c));
        }
    return cases;
}

TEST(SuperopTable, WarmCompileIsBitIdenticalToCold)
{
    // Warm this thread's table with every context at once — all catalog
    // devices, drifted copies, four scales, both operand orders — then
    // recompile each case (now all hits) and compare with a compile on
    // a fresh thread. A key that missed any value the superoperator
    // depends on would serve another context's entry here.
    std::deque<dev::Device> devices;
    std::vector<std::string> names;
    for (const std::string &name : dev::device_catalog()) {
        devices.push_back(dev::make_device(name));
        names.push_back(name);
    }
    devices.push_back(drifted(dev::make_device("ibm_lagos")));
    names.push_back("ibm_lagos (drifted)");
    for (auto &[field, copy] :
         single_field_drifts(dev::make_device("ibm_lagos"))) {
        devices.push_back(std::move(copy));
        names.push_back("ibm_lagos (" + field + " drifted)");
    }

    elv::Rng rng(41);
    std::vector<CompileCase> cases;
    for (std::size_t d = 0; d < devices.size(); ++d)
        for (CompileCase &c : compile_cases(devices[d], names[d], rng))
            cases.push_back(std::move(c));

    for (const CompileCase &c : cases)
        compile_and_replay(c);
    for (const CompileCase &c : cases)
        EXPECT_TRUE(bit_equal(compile_and_replay(c),
                              cold_compile_and_replay(c)))
            << c.label;
}

TEST(SuperopTable, DriftedCopyGetsItsOwnSuperoperators)
{
    // Same circuit, same physical qubits, same scale: only calibration
    // values differ, so the value-keyed table must not reuse the
    // original device's entries for any of the copies.
    const dev::Device device = dev::make_device("ibm_lagos");
    auto copies = single_field_drifts(device);
    copies.emplace_back("all rates", drifted(device));
    CompileCase c;
    c.circuit = edge_order_circuit(device);
    c.params = {0.3, -1.1, 0.7};
    c.device = &device;
    const auto original = compile_and_replay(c);
    for (const auto &[field, moved] : copies) {
        c.device = &device;
        compile_and_replay(c);
        c.device = &moved;
        const auto warm = compile_and_replay(c);
        EXPECT_FALSE(bit_equal(original, warm)) << field;
        EXPECT_TRUE(bit_equal(warm, cold_compile_and_replay(c))) << field;
    }
}

TEST(SuperopTable, ConcurrentCompilesOnPoolThreadsMatchSerial)
{
    // Two pool threads compile Clifford replicas against one shared
    // device at the same time; each has its own table, and the results
    // must equal a serial compile's.
    const dev::Device device = dev::make_device("ibm_lagos");
    elv::Rng rng(43);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 12;
    config.num_embeds = 3;
    config.num_meas = 1;
    config.num_features = 3;
    std::vector<CompileCase> cases;
    for (int n = 0; n < 8; ++n) {
        const circ::Circuit candidate =
            core::generate_candidate(device, config, rng);
        for (int m = 0; m < 4; ++m) {
            CompileCase c;
            c.device = &device;
            c.circuit = circ::make_clifford_replica(candidate, rng);
            cases.push_back(std::move(c));
        }
    }
    std::vector<std::vector<std::complex<double>>> serial;
    for (const CompileCase &c : cases)
        serial.push_back(cold_compile_and_replay(c));

    par::ThreadPool pool(2);
    const auto concurrent =
        pool.parallel_map<std::vector<std::complex<double>>>(
            cases.size(),
            [&](std::size_t i) { return compile_and_replay(cases[i]); });
    for (std::size_t i = 0; i < cases.size(); ++i)
        EXPECT_TRUE(bit_equal(serial[i], concurrent[i])) << "replica " << i;
}

TEST(NoisyProgram, CachedRunSeesCalibrationDrift)
{
    // FaultInjector drift rewrites the rates of the Device a simulator
    // references, in place. The next run of the same circuit must use
    // the drifted rates, exactly as a fresh simulator would.
    dev::Device device = dev::make_device("ibm_lagos");
    elv::Rng rng(47);
    core::CandidateConfig config;
    config.num_qubits = 4;
    config.num_params = 8;
    config.num_embeds = 3;
    config.num_meas = 2;
    config.num_features = 3;
    const circ::Circuit c = core::generate_candidate(device, config, rng);
    const circ::Circuit replica = circ::make_clifford_replica(c, rng);
    const auto params =
        random_values(static_cast<std::size_t>(c.num_params()), rng);
    const auto x = random_values(3, rng);

    noise::NoisyDensitySimulator sim(device);
    const auto before = sim.run_distribution(c, params, x);
    const double fidelity_before = sim.fidelity(replica);

    device = drifted(device);
    noise::NoisyDensitySimulator fresh(device);
    const auto after = sim.run_distribution(c, params, x);
    EXPECT_EQ(after, fresh.run_distribution(c, params, x));
    EXPECT_NE(after, before);
    const double fidelity_after = sim.fidelity(replica);
    EXPECT_EQ(fidelity_after, fresh.fidelity(replica));
    EXPECT_NE(fidelity_after, fidelity_before);
}

/** A small trainable circuit on the moons features. */
circ::Circuit
training_circuit()
{
    circ::Circuit c(3);
    for (int q = 0; q < 3; ++q)
        c.add_embedding(circ::GateKind::RY, {q}, q % 2);
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RX, {q});
    c.add_gate(circ::GateKind::CX, {0, 1});
    c.add_gate(circ::GateKind::CX, {1, 2});
    for (int q = 0; q < 3; ++q)
        c.add_variational(circ::GateKind::RZ, {q});
    c.set_measured({0});
    return c;
}

TEST(BatchedTraining, BitIdenticalForEveryThreadCount)
{
    const qml::Benchmark bench = qml::make_benchmark("moons", 17, 0.1);
    const circ::Circuit c = training_circuit();

    for (const auto backend : {qml::GradientBackend::Adjoint,
                               qml::GradientBackend::ParameterShift}) {
        qml::TrainConfig serial;
        serial.epochs = 2;
        serial.batch_size = 5; // deliberately not dividing the set
        serial.seed = 3;
        serial.backend = backend;
        serial.threads = 1;
        const qml::TrainResult ref =
            qml::train_circuit(c, bench.train, serial);

        for (int threads = 2; threads <= 4; ++threads) {
            qml::TrainConfig tc = serial;
            tc.threads = threads;
            const qml::TrainResult got =
                qml::train_circuit(c, bench.train, tc);
            ASSERT_EQ(ref.params.size(), got.params.size());
            for (std::size_t i = 0; i < ref.params.size(); ++i)
                EXPECT_EQ(ref.params[i], got.params[i])
                    << "threads=" << threads << " param " << i;
            ASSERT_EQ(ref.loss_history.size(),
                      got.loss_history.size());
            for (std::size_t e = 0; e < ref.loss_history.size(); ++e)
                EXPECT_EQ(ref.loss_history[e], got.loss_history[e])
                    << "threads=" << threads << " epoch " << e;
            EXPECT_EQ(ref.circuit_executions, got.circuit_executions)
                << "threads=" << threads;
        }
    }
}

TEST(ExecutionCount, DatasetVariantCountsEachSampleOnce)
{
    // 35 samples in batches of 8: five batches (8+8+8+8+3); the
    // steps x batch_size formula would bill 5 x 8 = 40 samples.
    EXPECT_EQ(qml::parameter_shift_execution_count_dataset(10, 2, 35, 8),
              21ull * 2ull * 35ull);
    // When batch_size divides the set the two formulas agree.
    EXPECT_EQ(qml::parameter_shift_execution_count_dataset(10, 2, 32, 8),
              qml::parameter_shift_execution_count(10, 2, 4, 8));
    // A batch cap limits the per-epoch sample count.
    EXPECT_EQ(
        qml::parameter_shift_execution_count_dataset(10, 2, 35, 8, 2),
        21ull * 2ull * 16ull);
    // A cap beyond the dataset size changes nothing.
    EXPECT_EQ(
        qml::parameter_shift_execution_count_dataset(10, 2, 35, 8, 9),
        21ull * 2ull * 35ull);
}

TEST(ExecutionCount, TrainerMatchesDatasetFormula)
{
    // The parameter-shift trainer's tally must equal the closed form
    // regardless of simulator threading.
    const qml::Benchmark bench = qml::make_benchmark("moons", 23, 0.05);
    const circ::Circuit c = training_circuit();
    qml::TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 4;
    tc.backend = qml::GradientBackend::ParameterShift;
    tc.seed = 9;
    tc.threads = 3;
    const qml::TrainResult result =
        qml::train_circuit(c, bench.train, tc);
    EXPECT_EQ(result.circuit_executions,
              qml::parameter_shift_execution_count_dataset(
                  c.num_params(), tc.epochs,
                  static_cast<int>(bench.train.samples.size()),
                  tc.batch_size));
}

} // namespace
