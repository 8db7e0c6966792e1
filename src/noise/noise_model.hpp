/**
 * @file
 * Device-driven noisy execution.
 *
 * NoisyDensitySimulator runs a circuit whose qubit labels are *physical*
 * device qubits: each gate is followed by depolarizing noise (strength
 * from the calibration gate error) and thermal relaxation (T1/T2 over
 * the gate duration), and the final outcome distribution is passed
 * through the per-qubit readout confusion. Internally the circuit is
 * compacted to its touched qubits so that small circuits on 127-qubit
 * devices stay cheap — exactly the setting of Elivagar's subgraph
 * circuits.
 *
 * DevicePauliNoise provides the same calibration-driven noise as a
 * stochastic Pauli hook for the stabilizer backend (scalable CNR).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "circuit/circuit.hpp"
#include "device/device.hpp"
#include "noise/channels.hpp"
#include "noise/superop.hpp"
#include "sim/density_matrix.hpp"
#include "sim/precision.hpp"
#include "stabilizer/tableau.hpp"

namespace elv::noise {

/**
 * Apply per-qubit symmetric readout confusion to an outcome
 * distribution. `flip_probs[i]` is the flip probability of the qubit
 * that produced bit i of the outcome index.
 */
std::vector<double> apply_readout_confusion(
    const std::vector<double> &probs,
    const std::vector<double> &flip_probs);

/**
 * Measurement-error mitigation: invert the per-qubit readout confusion
 * (the tensor-product calibration-matrix method used by standard
 * readout-mitigation passes, cf. the JigSaw line of work the paper
 * cites). Inversion can produce small negative entries on sampled
 * inputs; they are clipped and the result renormalized. Requires every
 * flip probability < 0.5.
 */
std::vector<double> mitigate_readout(const std::vector<double> &probs,
                                     const std::vector<double> &flip_probs);

/** Exact noisy executor over the density-matrix backend. */
class NoisyDensitySimulator
{
  public:
    /**
     * @param device calibration source
     * @param noise_scale multiplies every error rate (1 = calibrated,
     *        0 = noiseless); used by ablations
     * @param precision amplitude precision of the density-matrix
     *        kernels. Float32Proxy halves memory traffic for
     *        ranking-only proxy scoring (CNR); the ideal reference
     *        state inside fidelity() always stays double.
     */
    explicit NoisyDensitySimulator(
        const dev::Device &device, double noise_scale = 1.0,
        sim::Precision precision = sim::Precision::Float64);

    /**
     * Run `circuit` (qubits = physical device qubits; 2-qubit gates must
     * act on coupled pairs) and return the outcome distribution over its
     * measured qubits, including readout error.
     */
    std::vector<double> run_distribution(const circ::Circuit &circuit,
                                         const std::vector<double> &params =
                                             {},
                                         const std::vector<double> &x = {})
        const;

    /**
     * Fidelity proxy used throughout the paper: 1 - TVD between the
     * noisy and the noiseless outcome distributions of `circuit`.
     */
    double fidelity(const circ::Circuit &circuit,
                    const std::vector<double> &params = {},
                    const std::vector<double> &x = {}) const;

    const dev::Device &device() const { return device_; }

    /**
     * Route execution through compiled NoisyPrograms — fused
     * gate+channel superoperators, cached per circuit and calibration
     * by run_distribution, compiled afresh by fidelity() — instead of the
     * per-gate channel loop (default on). The unfused path is kept for
     * the equivalence tests and the bench comparison.
     */
    void use_fused_execution(bool on) { fused_ = on; }

    /** The configured amplitude precision. */
    sim::Precision precision() const { return precision_; }

    /** Switch the amplitude precision (takes effect on the next run). */
    void set_precision(sim::Precision precision)
    {
        precision_ = precision;
    }

  private:
    /**
     * Outcome distribution of the compacted circuit `local` (physical
     * qubit kept[q] behind local qubit q), readout error included.
     * Replays `program`, or runs the per-gate loop when it is null.
     */
    std::vector<double> local_distribution(const circ::Circuit &local,
                                           const std::vector<int> &kept,
                                           const NoisyProgram *program,
                                           const std::vector<double> &params,
                                           const std::vector<double> &x)
        const;

    /** local_distribution at one amplitude precision. */
    template <typename T>
    std::vector<double>
    local_distribution_impl(const circ::Circuit &local,
                            const std::vector<int> &kept,
                            const NoisyProgram *program,
                            const std::vector<double> &params,
                            const std::vector<double> &x) const;

    /** The original per-gate channel loop (reference path). */
    template <typename T>
    void apply_unfused(sim::BasicDensityMatrix<T> &rho,
                       const circ::Circuit &local,
                       const std::vector<int> &kept,
                       const std::vector<double> &params,
                       const std::vector<double> &x) const;

    /** Cached compiled program for `circuit` (compiling on miss). */
    std::shared_ptr<const NoisyProgram>
    program_for(const circ::Circuit &circuit, const circ::Circuit &local,
                const std::vector<int> &kept) const;

    const dev::Device &device_;
    double scale_;
    sim::Precision precision_;
    bool fused_ = true;
    /**
     * Bounded program cache keyed by the exact serialization of the
     * *original* (pre-compaction) circuit — physical qubit labels
     * determine the noise, so the original text is the right key —
     * plus the bytes of every calibration value the program was
     * compiled from, so a drifted device (FaultInjector rewrites the
     * referenced Device in place) never replays a stale program.
     * Cleared wholesale at capacity, like sim::FusionCache.
     */
    mutable std::mutex cache_mutex_;
    mutable std::unordered_map<std::string,
                               std::shared_ptr<const NoisyProgram>>
        cache_;
};

/** Calibration-driven stochastic Pauli noise for stabilizer shots. */
class DevicePauliNoise : public stab::PauliNoiseHook
{
  public:
    /**
     * @param device calibration source
     * @param local_to_physical physical qubit behind each circuit qubit
     * @param noise_scale multiplies every error rate
     */
    DevicePauliNoise(const dev::Device &device,
                     std::vector<int> local_to_physical,
                     double noise_scale = 1.0);

    void after_op(stab::Tableau &tab, const circ::Op &op,
                  elv::Rng &rng) const override;

    double readout_flip_probability(int local_qubit) const override;

  private:
    void inject(stab::Tableau &tab, int local_qubit,
                const PauliProbs &probs, elv::Rng &rng) const;

    const dev::Device &device_;
    std::vector<int> map_;
    double scale_;
};

} // namespace elv::noise
