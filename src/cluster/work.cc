#include "cluster/work.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <mutex>

#include "common/logging.h"

namespace wsva::cluster {

using wsva::video::Resolution;
using wsva::video::standardLadder;

namespace {

/** One interned ladder, stored inline. */
struct LadderEntry
{
    uint8_t size = 0;
    Resolution rungs[OutputLadder::kMaxRungs] = {};
};

/** Lookup key: rung count, then (width, height) pairs, zero-padded. */
using LadderKey = std::array<int, 1 + 2 * OutputLadder::kMaxRungs>;

constexpr size_t kChunkBits = 8; //!< 256 entries per chunk.
constexpr size_t kChunkSize = size_t{1} << kChunkBits;
constexpr size_t kMaxChunks = (size_t{1} << 16) / kChunkSize;

/**
 * Process-wide ladder intern table. Entries live in fixed chunks that
 * are allocated once and never move, so readers index them without
 * the lock; a chunk and an entry are written before the id that
 * reaches them is handed out.
 */
struct LadderTable
{
    std::mutex mutex;
    std::map<LadderKey, uint16_t> ids;
    std::unique_ptr<LadderEntry[]> chunks[kMaxChunks];
    size_t count = 0;
    /** MOT ladder id by count of standard rungs at or under the input
     *  height (index 0 and 1 both name the lowest rung alone). */
    uint16_t mot[OutputLadder::kMaxRungs + 1] = {};
    /** One-rung ladder id per standard rung. */
    uint16_t single[OutputLadder::kMaxRungs] = {};

    LadderTable()
    {
        const auto &ladder = standardLadder();
        WSVA_ASSERT(!ladder.empty() &&
                        ladder.size() <= OutputLadder::kMaxRungs,
                    "standard ladder does not fit a ladder entry");
        intern(nullptr, 0); // Id 0: the empty ladder.
        // outputsForInput keeps the rungs at or under the input
        // height, highest first; the standard ladder ascends, so that
        // is a reversed prefix of it.
        for (size_t k = 1; k <= ladder.size(); ++k) {
            Resolution rungs[OutputLadder::kMaxRungs];
            for (size_t i = 0; i < k; ++i)
                rungs[i] = ladder[k - 1 - i];
            mot[k] = intern(rungs, k);
        }
        mot[0] = mot[1];
        for (size_t i = 0; i < ladder.size(); ++i)
            single[i] = intern(&ladder[i], 1);
    }

    const LadderEntry &entry(uint16_t id) const
    {
        return chunks[id >> kChunkBits][id & (kChunkSize - 1)];
    }

    /** Id of @p rungs, adding an entry on first sight. Caller holds
     *  the mutex (or is the constructor). */
    uint16_t intern(const Resolution *rungs, size_t n)
    {
        WSVA_ASSERT(n <= OutputLadder::kMaxRungs,
                    "ladder of %zu rungs exceeds %zu", n,
                    OutputLadder::kMaxRungs);
        LadderKey key{};
        key[0] = static_cast<int>(n);
        for (size_t i = 0; i < n; ++i) {
            key[1 + 2 * i] = rungs[i].width;
            key[2 + 2 * i] = rungs[i].height;
        }
        const auto it = ids.find(key);
        if (it != ids.end())
            return it->second;
        WSVA_ASSERT(count < kMaxChunks * kChunkSize,
                    "output ladder table overflow");
        const uint16_t id = static_cast<uint16_t>(count++);
        auto &chunk = chunks[id >> kChunkBits];
        if (chunk == nullptr)
            chunk = std::make_unique<LadderEntry[]>(kChunkSize);
        LadderEntry &e = chunk[id & (kChunkSize - 1)];
        e.size = static_cast<uint8_t>(n);
        std::copy(rungs, rungs + n, e.rungs);
        ids.emplace(key, id);
        return id;
    }
};

LadderTable &
ladderTable()
{
    static LadderTable table;
    return table;
}

} // namespace

OutputLadder
OutputLadder::forInput(Resolution input)
{
    size_t k = 0;
    for (const auto &r : standardLadder()) {
        if (r.height <= input.height)
            ++k;
    }
    return OutputLadder(ladderTable().mot[k]);
}

OutputLadder
OutputLadder::single(Resolution rung)
{
    LadderTable &t = ladderTable();
    const auto &ladder = standardLadder();
    for (size_t i = 0; i < ladder.size(); ++i) {
        if (ladder[i] == rung)
            return OutputLadder(t.single[i]);
    }
    std::lock_guard<std::mutex> lock(t.mutex);
    return OutputLadder(t.intern(&rung, 1));
}

size_t
OutputLadder::size() const
{
    return ladderTable().entry(id_).size;
}

const Resolution *
OutputLadder::begin() const
{
    return ladderTable().entry(id_).rungs;
}

double
TranscodeStep::outputPixels() const
{
    double total = 0.0;
    for (const auto &r : outputs)
        total += static_cast<double>(r.width) * r.height;
    return total * frames;
}

double
TranscodeStep::inputPixels() const
{
    return static_cast<double>(input.width) * input.height * frames;
}

TranscodeStep
makeMotStep(uint64_t id, uint64_t video_id, int chunk_index,
            Resolution input, wsva::video::codec::CodecType codec)
{
    TranscodeStep step;
    step.id = id;
    step.video_id = video_id;
    step.chunk_index = chunk_index;
    step.input = input;
    step.outputs = OutputLadder::forInput(input);
    step.codec = codec;
    return step;
}

TranscodeStep
makeSotStep(uint64_t id, uint64_t video_id, int chunk_index,
            Resolution input, Resolution output,
            wsva::video::codec::CodecType codec)
{
    TranscodeStep step;
    step.id = id;
    step.video_id = video_id;
    step.chunk_index = chunk_index;
    step.input = input;
    step.outputs = OutputLadder::single(output);
    step.codec = codec;
    return step;
}

namespace {

/** Real-time (speedup 1) encoder-core demand of a step, in cores. */
double
encodeCoresRealtime(const TranscodeStep &step,
                    const ResourceMappingPolicy &policy)
{
    double cores = step.outputPixels() / step.durationSeconds() /
                   policy.encoder_core_pixel_rate;
    if (step.two_pass) {
        // First-pass overhead. MOT runs the analysis pass once on
        // the source and shares its statistics across all rungs
        // (Section 2.1: "efficient sharing of control parameters
        // obtained by analysis of the source"), so the overhead is
        // mostly amortized; SOT pays it per output.
        cores *= step.isMot() ? 1.08 : 1.35;
    }
    return cores;
}

/** Real-time hardware decoder-core demand of a step, in cores. */
double
decodeCoresRealtime(const TranscodeStep &step,
                    const ResourceMappingPolicy &policy)
{
    return step.inputPixels() / step.durationSeconds() /
           policy.decoder_core_pixel_rate;
}

} // namespace

double
effectiveSpeedup(const TranscodeStep &step,
                 const ResourceMappingPolicy &policy)
{
    WSVA_ASSERT(step.durationSeconds() > 0, "zero-duration step");
    const double enc1 = encodeCoresRealtime(step, policy);
    const double dec1 = decodeCoresRealtime(step, policy) *
                        (1.0 - policy.software_decode_fraction);
    double speedup = std::max(1.0, policy.allocation_speedup);
    // Leave 5% headroom; never request more than one VCU.
    if (enc1 > 0)
        speedup = std::min(speedup, 9.5 / enc1);
    if (dec1 > 0)
        speedup = std::min(speedup, 2.85 / dec1);
    // Steps larger than a whole VCU at real time stretch in time.
    return std::max(0.2, speedup);
}

namespace {

ResourceVector
resourceNeedAt(const TranscodeStep &step,
               const ResourceMappingPolicy &policy, double speedup)
{
    const double duration = step.durationSeconds();
    WSVA_ASSERT(duration > 0, "zero-duration step");

    // Decode: one hardware decode of the input per step (MOT decodes
    // once and fans out). Some of it may be shifted to host CPU
    // software decode via the synthetic dimension.
    const double dec_pixel_rate = step.inputPixels() / duration * speedup;
    const double dec_cores = dec_pixel_rate / policy.decoder_core_pixel_rate;
    const double hw_frac = 1.0 - policy.software_decode_fraction;

    // Encode: all output rungs.
    const double enc_cores = encodeCoresRealtime(step, policy) * speedup;

    ResourceVector need;
    need.set(kDimDecodeMillicores,
             std::ceil(dec_cores * hw_frac * 1000.0));
    need.set(kDimEncodeMillicores, std::ceil(enc_cores * 1000.0));
    need.set(kDimDramBytes,
             static_cast<double>(stepDramFootprint(step)));
    // Host CPU: mux/demux, RPC, audio — small; grows with software
    // decode offload (a software decode costs ~3x a hardware one in
    // host cycles).
    const double host_cores =
        0.05 + dec_cores * policy.software_decode_fraction * 3.0;
    need.set(kDimHostCpuMillicores, std::ceil(host_cores * 1000.0));
    if (policy.software_decode_fraction > 0.0) {
        need.set(kDimSwDecodeMillicores,
                 std::ceil(dec_cores * policy.software_decode_fraction *
                           1000.0));
    }
    return need;
}

} // namespace

ResourceVector
stepResourceNeed(const TranscodeStep &step,
                 const ResourceMappingPolicy &policy)
{
    return resourceNeedAt(step, policy, effectiveSpeedup(step, policy));
}

StepSizing
sizeStep(const TranscodeStep &step, const ResourceMappingPolicy &policy)
{
    const double speedup = effectiveSpeedup(step, policy);
    return {resourceNeedAt(step, policy, speedup),
            step.durationSeconds() / speedup};
}

double
stepServiceSeconds(const TranscodeStep &step,
                   const ResourceMappingPolicy &policy)
{
    return step.durationSeconds() / effectiveSpeedup(step, policy);
}

uint64_t
stepDramFootprint(const TranscodeStep &step)
{
    // Appendix A.4: ~700 MiB for a 2160p MOT, ~500 MiB for a 2160p
    // SOT; scale by input pixels relative to 2160p, floor for tiny
    // inputs, +~25% when keeping lagged/offline two-pass frames.
    const double rel =
        static_cast<double>(step.input.width) * step.input.height /
        (3840.0 * 2160.0);
    const double base_mib = step.isMot() ? 700.0 : 500.0;
    double mib = base_mib * rel;
    if (step.two_pass)
        mib *= 1.25;
    mib = std::max(mib, 48.0);
    return static_cast<uint64_t>(mib * (1ull << 20));
}

} // namespace wsva::cluster
