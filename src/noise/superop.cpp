#include "noise/superop.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <string>

#include "common/logging.hpp"
#include "noise/channels.hpp"
#include "obs/metrics.hpp"
#include "sim/kernel_obs.hpp"

namespace elv::noise {

using sim::Amp;
using sim::Mat16;
using sim::Mat2;
using sim::Mat4;

// Index conventions: a 1-qubit superoperator row/column is 2*r + c
// over the (row-bit, column-bit) pair of the vectorized rho; a 2-qubit
// one is 8*r0 + 4*r1 + 2*c0 + c1 = 4*(gate-basis row) + (gate-basis
// column). Both match the operand order DensityMatrix passes to
// apply_2q/apply_4q.

Mat4
kraus_superop_1q(const std::vector<Mat2> &kraus)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    Mat4 s = {};
    for (const Mat2 &k : kraus)
        for (std::size_t a = 0; a < 2; ++a)
            for (std::size_t b = 0; b < 2; ++b)
                for (std::size_t ap = 0; ap < 2; ++ap)
                    for (std::size_t bp = 0; bp < 2; ++bp)
                        s[2 * a + b][2 * ap + bp] +=
                            k[a][ap] * std::conj(k[b][bp]);
    return s;
}

Mat16
kraus_superop_2q(const std::vector<Mat4> &kraus)
{
    ELV_REQUIRE(!kraus.empty(), "empty Kraus set");
    Mat16 s = {};
    for (const Mat4 &k : kraus)
        for (std::size_t r = 0; r < 4; ++r)
            for (std::size_t c = 0; c < 4; ++c)
                for (std::size_t rp = 0; rp < 4; ++rp)
                    for (std::size_t cp = 0; cp < 4; ++cp)
                        s[4 * r + c][4 * rp + cp] +=
                            k[r][rp] * std::conj(k[c][cp]);
    return s;
}

Mat4
unitary_superop_1q(const Mat2 &u)
{
    return kraus_superop_1q({u});
}

Mat16
unitary_superop_2q(const Mat4 &u)
{
    return kraus_superop_2q({u});
}

Mat16
expand_superop_1q(const Mat4 &s, int slot)
{
    ELV_REQUIRE(slot == 0 || slot == 1, "bad embedding slot");
    // Slot 0 acts on the (r0, c0) bits (3 and 1 of the index), slot 1
    // on (r1, c1) (bits 2 and 0); the other pair passes through.
    const std::size_t rbit = slot == 0 ? 3 : 2;
    const std::size_t cbit = slot == 0 ? 1 : 0;
    const std::size_t keep =
        15u & ~((1u << rbit) | (1u << cbit));
    Mat16 out = {};
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j) {
            if ((i & keep) != (j & keep))
                continue;
            const std::size_t li =
                2 * ((i >> rbit) & 1) + ((i >> cbit) & 1);
            const std::size_t lj =
                2 * ((j >> rbit) & 1) + ((j >> cbit) & 1);
            out[i][j] = s[li][lj];
        }
    return out;
}

Mat16
swap_superop_pair(const Mat16 &s)
{
    // Swap the qubit-0 and qubit-1 pairs: bits 3<->2 and 1<->0.
    auto p = [](std::size_t i) {
        return ((i & 8) >> 1) | ((i & 4) << 1) | ((i & 2) >> 1) |
               ((i & 1) << 1);
    };
    Mat16 out;
    for (std::size_t i = 0; i < 16; ++i)
        for (std::size_t j = 0; j < 16; ++j)
            out[p(i)][p(j)] = s[i][j];
    return out;
}

namespace {

/**
 * Every value one gate's composed gate+noise superoperator is computed
 * from, by bits: gate kind and fixed flag, the fixed gate's angles,
 * `scale`, and (when scale > 0) the error rate, T1 and T2 of each
 * operand's physical qubit, and the gate duration. Keying by value
 * rather than by device or qubit makes a lookup correct for any
 * Device copy and after any in-place calibration drift.
 */
struct GateNoiseKey
{
    std::array<std::uint64_t, 11> words{};

    bool operator==(const GateNoiseKey &) const = default;

    std::uint64_t hash() const
    {
        std::uint64_t h = 0;
        for (std::uint64_t w : words) {
            h = (h ^ w) * 0x9e3779b97f4a7c15ULL;
            h ^= h >> 29;
        }
        return h;
    }
};

GateNoiseKey
gate_noise_key(const circ::Op &op, bool fixed,
               const std::array<double, 3> &angles, double scale)
{
    GateNoiseKey key;
    key.words[0] = static_cast<std::uint64_t>(op.kind) |
                   (fixed ? std::uint64_t{1} << 32 : 0);
    if (fixed)
        for (std::size_t k = 0; k < 3; ++k)
            key.words[1 + k] = std::bit_cast<std::uint64_t>(angles[k]);
    key.words[4] = std::bit_cast<std::uint64_t>(scale);
    return key;
}

/** Fill the calibration part of `key` for the qubit in `slot`. */
void
set_qubit_noise(GateNoiseKey &key, int slot, double t1, double t2)
{
    const std::size_t at = 7 + 2 * static_cast<std::size_t>(slot);
    key.words[at] = std::bit_cast<std::uint64_t>(t1);
    key.words[at + 1] = std::bit_cast<std::uint64_t>(t2);
}

void
set_gate_noise(GateNoiseKey &key, double error, double duration_ns)
{
    key.words[5] = std::bit_cast<std::uint64_t>(error);
    key.words[6] = std::bit_cast<std::uint64_t>(duration_ns);
}

/**
 * A bounded open-addressing table from GateNoiseKey to a superoperator,
 * stored flat. It holds at most kCapacity entries and is cleared
 * wholesale when full, like sim::FusionCache. A returned reference is
 * valid until the next get().
 */
template <typename M>
class SuperopTable
{
  public:
    SuperopTable() { index_.fill(-1); }

    /** The superoperator under `key`, computed by `build()` on a miss. */
    template <typename Build>
    const M &get(const GateNoiseKey &key, Build &&build)
    {
        std::size_t slot = probe(key);
        if (index_[slot] >= 0)
            return values_[static_cast<std::size_t>(index_[slot])];
        M value = build();
        if (keys_.size() == kCapacity) {
            keys_.clear();
            values_.clear();
            index_.fill(-1);
            slot = probe(key);
        }
        index_[slot] = static_cast<std::int16_t>(keys_.size());
        keys_.push_back(key);
        values_.push_back(value);
        return values_.back();
    }

  private:
    static constexpr std::size_t kCapacity = 256;
    /** Twice the capacity keeps the load factor at or below one half. */
    static constexpr std::size_t kSlots = 2 * kCapacity;

    std::size_t probe(const GateNoiseKey &key) const
    {
        std::size_t slot = static_cast<std::size_t>(key.hash()) & (kSlots - 1);
        while (index_[slot] >= 0 &&
               !(keys_[static_cast<std::size_t>(index_[slot])] == key))
            slot = (slot + 1) & (kSlots - 1);
        return slot;
    }

    std::array<std::int16_t, kSlots> index_{};
    std::vector<GateNoiseKey> keys_;
    std::vector<M> values_;
};

/**
 * Per-thread tables: compiles on different threads share nothing, so
 * the lookup takes no lock.
 */
struct SuperopTables
{
    SuperopTable<Mat4> one;
    SuperopTable<Mat16> two;
};

SuperopTables &
superop_tables()
{
    thread_local SuperopTables tables;
    return tables;
}

} // namespace

NoisyProgram
NoisyProgram::compile(const circ::Circuit &local,
                      const std::vector<int> &kept,
                      const dev::Device &device, double scale)
{
    ELV_REQUIRE(kept.size() ==
                    static_cast<std::size_t>(local.num_qubits()),
                "kept/local qubit count mismatch");
    NoisyProgram prog;
    prog.num_qubits_ = local.num_qubits();

    struct Slot
    {
        Entry entry;
        bool skip = false;
    };
    std::vector<Slot> stream;
    stream.reserve(local.ops().size() * 2);
    // Same invariant as the state-vector fusion pass: open[q] indexes
    // the stream entry still fusable on qubit q, and nothing between
    // it and the current position touches q.
    std::vector<int> open(static_cast<std::size_t>(local.num_qubits()),
                          -1);
    auto open_at = [&open](int q) -> int & {
        return open[static_cast<std::size_t>(q)];
    };
    auto slot_at = [&stream](int idx) -> Slot & {
        return stream[static_cast<std::size_t>(idx)];
    };
    auto clamp01 = [](double v) { return std::clamp(v, 0.0, 1.0); };
    SuperopTables &tables = superop_tables();

    auto add_super1 = [&](const Mat4 &s, int q) {
        const int idx = open_at(q);
        if (idx >= 0) {
            Entry &e = slot_at(idx).entry;
            if (e.kind == Entry::Kind::Super1) {
                e.s4 = sim::matmul(s, e.s4);
            } else {
                const int slot = e.q0 == q ? 0 : 1;
                e.s16 = sim::matmul(expand_superop_1q(s, slot), e.s16);
            }
            ++prog.ops_merged_;
            return;
        }
        Slot sl;
        sl.entry.kind = Entry::Kind::Super1;
        sl.entry.s4 = s;
        sl.entry.q0 = q;
        open_at(q) = static_cast<int>(stream.size());
        stream.push_back(sl);
    };

    auto add_super2 = [&](Mat16 s, int a, int b) {
        if (open_at(a) >= 0 && open_at(a) == open_at(b) &&
            slot_at(open_at(a)).entry.kind == Entry::Kind::Super2) {
            Entry &e = slot_at(open_at(a)).entry;
            Mat16 prev = e.s16;
            if (e.q0 == b)
                prev = swap_superop_pair(prev);
            e.s16 = sim::matmul(s, prev);
            e.q0 = a;
            e.q1 = b;
            ++prog.ops_merged_;
            return;
        }
        const int qs[2] = {a, b};
        for (int slot = 0; slot < 2; ++slot) {
            const int idx = open_at(qs[slot]);
            if (idx >= 0 &&
                slot_at(idx).entry.kind == Entry::Kind::Super1) {
                s = sim::matmul(
                    s, expand_superop_1q(slot_at(idx).entry.s4, slot));
                slot_at(idx).skip = true;
                ++prog.ops_merged_;
            }
        }
        Slot sl;
        sl.entry.kind = Entry::Kind::Super2;
        sl.entry.s16 = s;
        sl.entry.q0 = a;
        sl.entry.q1 = b;
        open_at(a) = open_at(b) = static_cast<int>(stream.size());
        stream.push_back(sl);
    };

    auto thermal_superop = [&](int pq, double duration_ns) {
        return kraus_superop_1q(thermal_relaxation_kraus(
            device.t1_us[static_cast<std::size_t>(pq)] /
                std::max(scale, 1e-9),
            device.t2_us[static_cast<std::size_t>(pq)] /
                std::max(scale, 1e-9),
            duration_ns));
    };

    for (const circ::Op &op : local.ops()) {
        const bool fixed = op.kind != circ::GateKind::AmpEmbed &&
                           op.role == circ::ParamRole::None;
        if (!fixed) {
            // Angles resolve at run time: keep the IR op as a barrier.
            // Its trailing noise (angle-independent) follows below as
            // an ordinary fusable superoperator.
            if (op.kind == circ::GateKind::AmpEmbed)
                std::fill(open.begin(), open.end(), -1);
            else
                for (int k = 0; k < op.num_qubits(); ++k)
                    open_at(op.qubits[static_cast<std::size_t>(k)]) = -1;
            Slot sl;
            sl.entry.kind = Entry::Kind::Barrier;
            sl.entry.op = op;
            stream.push_back(sl);
            if (op.kind == circ::GateKind::AmpEmbed)
                continue;
        }

        if (!fixed && scale <= 0.0)
            continue;
        const std::array<double, 3> angles =
            fixed ? circ::op_angles(op, {}, {}) : std::array<double, 3>{};
        GateNoiseKey key = gate_noise_key(op, fixed, angles, scale);
        // On a miss each build lambda below computes the superoperator
        // exactly as an uncached compile would, in the same order, so
        // every compiled program is bit-identical with or without hits.
        if (op.num_qubits() == 1) {
            const int lq = op.qubits[0];
            const int pq = kept[static_cast<std::size_t>(lq)];
            const auto q = static_cast<std::size_t>(pq);
            if (scale > 0.0) {
                set_gate_noise(key, device.error_1q[q],
                               device.duration_1q_ns);
                set_qubit_noise(key, 0, device.t1_us[q], device.t2_us[q]);
            }
            add_super1(tables.one.get(key, [&] {
                Mat4 s = {};
                bool have = false;
                if (fixed) {
                    s = unitary_superop_1q(
                        sim::gate_matrix_1q(op.kind, angles));
                    have = true;
                }
                if (scale > 0.0) {
                    const double err =
                        clamp01(scale * device.error_1q[q]);
                    const Mat4 noise = sim::matmul(
                        thermal_superop(pq, device.duration_1q_ns),
                        kraus_superop_1q(depolarizing_1q_kraus(err)));
                    s = have ? sim::matmul(noise, s) : noise;
                }
                return s;
            }),
                       lq);
        } else {
            const int la = op.qubits[0], lb = op.qubits[1];
            const int pa = kept[static_cast<std::size_t>(la)];
            const int pb = kept[static_cast<std::size_t>(lb)];
            double edge_error = 0.0;
            if (scale > 0.0) {
                const int edge = device.topology.edge_index(pa, pb);
                if (edge < 0)
                    elv::fatal(
                        "2-qubit gate on uncoupled physical qubits " +
                        std::to_string(pa) + "," + std::to_string(pb) +
                        "; route the circuit first");
                edge_error = device.error_2q[static_cast<std::size_t>(edge)];
                set_gate_noise(key, edge_error, device.duration_2q_ns);
                set_qubit_noise(key, 0,
                                device.t1_us[static_cast<std::size_t>(pa)],
                                device.t2_us[static_cast<std::size_t>(pa)]);
                set_qubit_noise(key, 1,
                                device.t1_us[static_cast<std::size_t>(pb)],
                                device.t2_us[static_cast<std::size_t>(pb)]);
            }
            add_super2(tables.two.get(key, [&] {
                Mat16 s = {};
                bool have = false;
                if (fixed) {
                    s = unitary_superop_2q(
                        sim::gate_matrix_2q(op.kind, angles));
                    have = true;
                }
                if (scale > 0.0) {
                    const double err = clamp01(scale * edge_error);
                    Mat16 noise =
                        kraus_superop_2q(depolarizing_2q_kraus(err));
                    // CRY lowers to two CX on hardware: pay the channel
                    // twice (matching the unfused schedule).
                    if (op.kind == circ::GateKind::CRY)
                        noise = sim::matmul(noise, noise);
                    noise = sim::matmul(
                        expand_superop_1q(
                            thermal_superop(pa, device.duration_2q_ns), 0),
                        noise);
                    noise = sim::matmul(
                        expand_superop_1q(
                            thermal_superop(pb, device.duration_2q_ns), 1),
                        noise);
                    s = have ? sim::matmul(noise, s) : noise;
                }
                return s;
            }),
                        la, lb);
        }
    }

    prog.entries_.reserve(stream.size());
    for (const Slot &sl : stream)
        if (!sl.skip)
            prog.entries_.push_back(sl.entry);
    ELV_METRIC_COUNT_N("fusion.ops_merged", prog.ops_merged_);
    return prog;
}

template <typename T>
void
NoisyProgram::run(sim::BasicDensityMatrix<T> &rho,
                  const std::vector<double> &params,
                  const std::vector<double> &x) const
{
    ELV_REQUIRE(rho.num_qubits() == num_qubits_,
                "program/state qubit count mismatch");
    sim::note_kernel_dispatch();
    if constexpr (std::is_same_v<T, float>)
        ELV_METRIC_COUNT("sim.f32_evals");
    rho.reset();
    for (const Entry &e : entries_) {
        switch (e.kind) {
          case Entry::Kind::Super1:
            rho.apply_superop_1q(e.s4, e.q0);
            break;
          case Entry::Kind::Super2:
            rho.apply_superop_2q(e.s16, e.q0, e.q1);
            break;
          case Entry::Kind::Barrier:
            rho.apply_op(e.op, params, x);
            break;
        }
    }
}

template void NoisyProgram::run(sim::BasicDensityMatrix<double> &,
                                const std::vector<double> &,
                                const std::vector<double> &) const;
template void NoisyProgram::run(sim::BasicDensityMatrix<float> &,
                                const std::vector<double> &,
                                const std::vector<double> &) const;

} // namespace elv::noise
